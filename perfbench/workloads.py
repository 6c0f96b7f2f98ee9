"""The four workloads, each one closed loop with a single caller.

A workload function takes a Run, builds its inputs from run.seed, times
its set-up, runs operations until run.seconds have passed (or exactly
run.max_ops in the traced run), then checks its outputs. It fills
run.slots (the end-to-end metrics), run.named, run.props and run.digests.
The program is driven through the library calls the `minit5` commands
make, never through the command line itself.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import statistics
import time

import numpy as np

from minit5 import bpe, dedup, evaluation, model, noising, tasks, training
from minit5.tensor import Tape, backward

import checks
import gen
from layers import program_modules
from metrics import NAMED
from spans import Patches

clock = time.perf_counter

SETUP_REPEATS = 3

# pretrain and generate: the d_model-256 shape
D256 = dict(d_model=256, d_ff=1024, n_heads=4, d_kv=64, enc_layers=4, dec_layers=4, dropout=0.1)
MODEL_VOCAB = 512
MODEL_LEXICON = 2000  # distinct words the text is drawn from
TOKENIZER_PARAGRAPHS = 40  # the sample the model workloads train their tokenizer on
SEQ_LEN = 128
BATCH_TOKENS = 4096
PRETRAIN_PARAGRAPHS = 300  # unique ones, about 40k tokens; the stream cycles over them
PRETRAIN_LR = 1e-3
PRETRAIN_WARMUP = 2
CHECKPOINT_ROUND_TRIPS = 3

FINETUNE_SPLITS = (128, 32, 64)  # train, validation, test rows
FINETUNE_EPOCHS = 3
FINETUNE_BATCH = 16
FINETUNE_LR = 1e-3
FINETUNE_TASK = "boolq"

GENERATE_DOCS = 16
GENERATE_INPUT_TOKENS = 250
GENERATE_OUTPUT_TOKENS = 256
GENERATE_WEIGHTS_SEED = 20221017  # fixed: output lengths must not depend on the workload seed

CORPUS_LEXICON = 3000
CORPUS_TOKENIZER_PARAGRAPHS = 80
CORPUS_VOCAB = 512
CORPUS_UNIQUE = 1000
EXACT_SHARE = 0.10
NEAR_SHARE = 0.10
CORPUS_WARMUP_VOCAB = 200
CORPUS_WARMUP_PARAGRAPHS = 100
DEDUP_NGRAM = 10
DEDUP_THRESHOLD = 0.5

# operations the traced run (and its untraced twin) makes, so per-layer
# totals are over the same work on every commit
TRACE_OPS = {"pretrain": 3, "finetune": 2, "generate": 2, "corpus": 2}


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()[:16]


def distinct_words(texts):
    return len({w for t in texts for w in t.split()})


class Run:
    """What one workload run measures, checks and reports."""

    def __init__(self, workload, seed, seconds, tracer, workdir, max_ops=None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.workdir = workdir
        self.max_ops = max_ops
        self.traced = tracer.run_id is not None
        self.patches = None  # set by the traced run; undone before the checks
        self.slots = {}
        self.named = {}  # name -> (value, unit)
        self.props = {}
        self.digests = {}
        self.checks = []  # (name, ok, detail)
        self.ops = 0
        self.steps = 0
        self.pad = [0, 0]  # padded positions, positions, over every training batch

    def span(self, name):
        return self.tracer.span(name)

    def count(self, name, n=1):
        self.tracer.count(name, n)

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    def stop_tracing(self):
        if self.patches is not None:
            self.patches.restore()
            self.patches = None

    def setup(self, prepare, warmup):
        """setup_s: the median of SETUP_REPEATS prepare() calls plus one
        warmup(state) on the state the last call returned."""
        times = []
        for _ in range(SETUP_REPEATS):
            with self.span("bench.setup"):
                t = clock()
                state = prepare()
                times.append(clock() - t)
        with self.span("bench.warmup"):
            t = clock()
            warmup(state)
            warm = clock() - t
        self.slots["setup_s"] = statistics.median(times) + warm
        self.props["setup_repeats"] = SETUP_REPEATS
        return state

    def loop(self, op):
        """op(i) until `seconds` have passed, or exactly max_ops times."""
        durations = []
        start = clock()
        while (len(durations) < self.max_ops if self.max_ops is not None
               else not durations or clock() - start < self.seconds):
            with self.span("bench.op"):
                t = clock()
                op(len(durations))
                durations.append(clock() - t)
        self.ops = len(durations)
        return durations

    def name(self, slot_or_name, value, unit=None):
        """Record a metric under its own name; a slot name also sets the slot."""
        mapped = NAMED[self.workload].get(slot_or_name)
        if mapped is not None:
            self.slots[slot_or_name] = value
            self.named[mapped[0]] = (value, mapped[1])
        else:
            self.named[slot_or_name] = (value, unit)


def pad_counts(batch):
    """(padded positions, positions) over the encoder and decoder batches."""
    widths = (max(len(p.input_ids) for p in batch), max(len(p.target_ids) for p in batch))
    positions = len(batch) * sum(widths)
    used = sum(len(p.input_ids) + len(p.target_ids) for p in batch)
    return positions - used, positions


def train_step(run, cfg, params, opt, batch, rng, lr):
    """One teacher-forced step as `minit5 pretrain` makes it; returns the loss."""
    with Tape() as tape:
        with run.span("training.forward"):
            loss = training.teacher_forced_loss(cfg, params, batch, train=True, rng=rng)
        with run.span("training.backward"):
            backward(loss, tape)
    if run.traced:
        run.count("tensor.tape_nodes", len(tape.nodes))
        run.count("tensor.tape_bytes", sum(n.out.data.nbytes for n in tape.nodes))
    pad, positions = pad_counts(batch)
    run.pad[0] += pad
    run.pad[1] += positions
    run.steps += 1
    with run.span("training.optimizer"):
        opt.step(lr=lr)
        opt.zero_grad()
    return loss.item()


def sequence_stream(texts, vocab, seq_len):
    """Endless fixed-length id sequences over the texts, cut the way
    `minit5 pretrain` cuts its corpus."""
    while True:
        buf = []
        for text in texts:
            buf.extend(bpe.encode(text, vocab, append_eos=True))
            while len(buf) >= seq_len:
                yield buf[:seq_len]
                buf = buf[seq_len:]
        if len(buf) >= 2:
            yield buf


def write_paragraph_file(texts, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n\n".join(texts) + "\n")


def dedup_pass(paragraphs, vocab=None):
    """`minit5 dedup`: (kept paragraphs, stats)."""
    kept, stats = dedup.deduplicate_stream(iter(paragraphs), n=DEDUP_NGRAM, threshold=DEDUP_THRESHOLD,
                                           vocab=vocab)
    return list(kept), stats


def counted_dedup_pass(run, paragraphs, injected, vocab=None):
    kept, stats = dedup_pass(paragraphs, vocab)
    run.count("dedup.paragraphs_in", stats.kept + stats.dropped)
    run.count("dedup.kept", stats.kept)
    run.count("dedup.dropped", stats.dropped)
    run.count("dedup.injected", injected)
    return kept, stats


def pretrain(run):
    """The pipeline before the loop is `minit5 dedup`, then `minit5
    tokenizer-train` on a sample of the kept text, as a user runs it."""
    rng = np.random.default_rng(run.seed)
    lex = gen.Lexicon(rng, MODEL_LEXICON)
    texts, exact, near = gen.corpus_with_duplicates(rng, lex, PRETRAIN_PARAGRAPHS, EXACT_SHARE, NEAR_SHARE)
    corpus_path = os.path.join(run.workdir, "corpus.txt")
    write_paragraph_file(texts, corpus_path)
    kept = []

    def prepare():
        kept[:], _ = counted_dedup_pass(run, dedup.read_paragraphs(corpus_path, doc_id="c"),
                                        len(exact) + len(near))
        corpus = [p.text for p in kept]
        vocab = bpe.train_bpe(corpus[:TOKENIZER_PARAGRAPHS], MODEL_VOCAB)
        cfg = model.ModelConfig(vocab_size=len(vocab), **D256)
        params = model.init_params(cfg, np.random.default_rng(run.seed))
        opt = training.AdamW(params, lr=PRETRAIN_LR)
        data_rng = np.random.default_rng([run.seed, 1])  # noise and dropout, as in the command
        stats = noising.StreamStats()
        pairs = noising.noise_stream(sequence_stream(corpus, vocab, SEQ_LEN), vocab, data_rng, stats=stats)
        return dict(vocab=vocab, cfg=cfg, params=params, opt=opt, rng=data_rng, stats=stats,
                    batches=training.token_batch_pack(pairs, BATCH_TOKENS))

    losses = []

    def step(s):
        with run.span("training.data_wait"):
            batch = next(s["batches"])
        lr = training.lr_schedule(len(losses) + 1, PRETRAIN_LR, PRETRAIN_WARMUP)
        losses.append(train_step(run, s["cfg"], s["params"], s["opt"], batch, s["rng"], lr))
        return batch

    s = run.setup(prepare, step)
    measured = []
    durations = run.loop(lambda i: measured.append(step(s)))
    pairs = sum(len(b) for b in measured)
    tokens = sum(len(p.input_ids) + len(p.target_ids) for b in measured for p in b)

    ck = training.Checkpoint.from_model(s["cfg"], s["params"], step=len(losses), optimizer=s["opt"],
                                        rng=s["rng"])
    path = os.path.join(run.workdir, "pretrain.bin")
    save_rates, load_rates = [], []
    loaded = None
    for _ in range(CHECKPOINT_ROUND_TRIPS):
        with run.span("training.checkpoint_save"):
            t = clock()
            training.save_checkpoint(path, ck)
            save_t = clock() - t
        size = os.path.getsize(path)
        run.count("training.checkpoint_bytes", size)
        loaded = None  # free the previous copy before reading the next
        with run.span("training.checkpoint_load"):
            t = clock()
            loaded = training.load_checkpoint(path)
            load_t = clock() - t
        save_rates.append(size / 1e6 / save_t)
        load_rates.append(size / 1e6 / load_t)
    run.stop_tracing()
    run.count("noising.skipped_short", s["stats"].skipped_short)

    total = sum(durations)
    run.name("tokens_per_s", tokens / total)
    run.name("items_per_s", pairs / total)
    run.name("op_s_p50", statistics.median(durations))
    run.name("checkpoint_save_mb_per_s", statistics.median(save_rates), "MB/s")
    run.name("checkpoint_load_mb_per_s", statistics.median(load_rates), "MB/s")
    run.props.update(
        distinct_words=distinct_words(texts), paragraphs=len(texts), kept_paragraphs=len(kept),
        exact_duplicate_share=len(exact) / len(texts), near_duplicate_share=len(near) / len(texts),
        steps=len(durations), seq_len=SEQ_LEN,
        batch_tokens=BATCH_TOKENS, pairs_per_batch=pairs / len(measured),
        tokens_per_pair=tokens / pairs, padded_share=run.pad[0] / run.pad[1],
        checkpoint_mb=size / 1e6, checkpoint_round_trips=CHECKPOINT_ROUND_TRIPS,
        parameters=model.count_parameters(s["cfg"]))
    run.digests.update(merges=digest(s["vocab"].merges), kept_ids=digest([p.doc_id for p in kept]),
                       losses=digest([round(x, 6) for x in losses]))

    run.check("pretrain.losses_finite", checks.losses_finite(losses), f"losses {losses}")
    run.check("pretrain.loss_falls", checks.loss_falls(losses), f"first {losses[0]:.4f} last {losses[-1]:.4f}")
    run.check("pretrain.checkpoint_bit_exact", checks.same_checkpoint(ck, loaded), f"{size} bytes")
    survivors = checks.surviving_duplicates(exact, [p.doc_id for p in kept], lambda i: f"c:{i}")
    run.check("pretrain.exact_duplicates_dropped", not survivors, f"kept exact duplicates at {survivors[:5]}")


def write_csv(rows, path):
    with open(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f, quoting=csv.QUOTE_ALL).writerows(rows)


def capture_decodes():
    """Record (input ids, output ids, budget) of every greedy decode, under
    whatever currently stands in evaluation.greedy_decode. Undo the returned
    Patches before the traced run's own."""
    current = evaluation.greedy_decode
    records = []

    def recorder(config, params, input_ids, max_len, **kwargs):
        out = current(config, params, input_ids, max_len, **kwargs)
        records.append((list(input_ids), list(out), max_len))
        return out

    patches = Patches()
    patches.replace(program_modules(), current, recorder)
    return records, patches


def finetune(run):
    rng = np.random.default_rng(run.seed)
    lex = gen.Lexicon(rng, MODEL_LEXICON)
    n_train, n_val, n_test = FINETUNE_SPLITS
    rows = gen.boolq_rows(rng, lex, n_train + n_val + n_test)
    splits = {"train": rows[:n_train], "validation": rows[n_train:n_train + n_val],
              "test": rows[n_train + n_val:]}
    paths = {k: os.path.join(run.workdir, f"{k}.csv") for k in splits}
    for k, v in splits.items():
        write_csv(v, paths[k])
    tok_text = [f"{a} {b}" for a, b in splits["train"]]  # the tokenizer sees the training split
    labels = tasks.TASK_LABELS[FINETUNE_TASK]

    def prepare():
        vocab = bpe.train_bpe(tok_text, MODEL_VOCAB)
        data = {k: tasks.load_csv_dataset(p, FINETUNE_TASK) for k, p in paths.items()}
        encoded = [noising.NoisedPair(bpe.encode(ex.input_text, vocab, append_eos=True),
                                      bpe.encode(ex.target_text, vocab, append_eos=True), objective="task")
                   for ex in data["train"]]
        cfg = model.preset("tiny", vocab_size=len(vocab))
        return dict(vocab=vocab, data=data, encoded=encoded, cfg=cfg)

    def warmup(s):
        params = model.init_params(s["cfg"], np.random.default_rng(run.seed))
        opt = training.AdamW(params, lr=FINETUNE_LR)
        train_step(run, s["cfg"], params, opt, s["encoded"][:FINETUNE_BATCH],
                   np.random.default_rng(run.seed), FINETUNE_LR)

    s = run.setup(prepare, warmup)
    records, capture = capture_decodes()
    cfg, vocab, encoded = s["cfg"], s["vocab"], s["encoded"]
    epoch_s, eval_s, train_s, train_tokens = [], [], [], []
    losses = []
    rounds = []

    def one_round(i):
        """`minit5 finetune` then `minit5 evaluate`, from the same start every round."""
        params = model.init_params(cfg, np.random.default_rng(run.seed))
        opt = training.AdamW(params, lr=FINETUNE_LR)
        order_rng = np.random.default_rng([run.seed, 1])
        checkpoints = []
        t0 = clock()
        t_train = 0.0
        for epoch in range(1, FINETUNE_EPOCHS + 1):
            order = order_rng.permutation(len(encoded))
            t = clock()
            for lo in range(0, len(encoded), FINETUNE_BATCH):
                batch = [encoded[j] for j in order[lo:lo + FINETUNE_BATCH]]
                losses.append(train_step(run, cfg, params, opt, batch, order_rng, FINETUNE_LR))
                train_tokens.append(sum(len(p.input_ids) + len(p.target_ids) for p in batch))
            t_train += clock() - t
            ck = training.Checkpoint.from_model(cfg, params, step=epoch)
            with run.span("training.checkpoint_save"):
                training.save_checkpoint(os.path.join(run.workdir, f"epoch-{epoch:03d}.bin"), ck)
            run.count("training.checkpoint_bytes",
                      os.path.getsize(os.path.join(run.workdir, f"epoch-{epoch:03d}.bin")))
            checkpoints.append(ck)
        with run.span("training.select"):
            best, scores = training.select_best_checkpoint(
                checkpoints, s["data"]["validation"], vocab,
                max_output_tokens=evaluation.DECODE_LIMITS[FINETUNE_TASK])
        best_path = os.path.join(run.workdir, "best.bin")
        with run.span("training.checkpoint_save"):
            training.save_checkpoint(best_path, best)
        epoch_s.append((clock() - t0) / FINETUNE_EPOCHS)
        train_s.append(t_train)
        first_decode = len(records)
        t = clock()
        with run.span("training.checkpoint_load"):
            loaded = training.load_checkpoint(best_path)
        report = evaluation.evaluate_examples(loaded.config, loaded.to_params(), vocab,
                                              s["data"]["test"], FINETUNE_TASK)
        eval_s.append(clock() - t)
        run.count("evaluation.invalid", round(report.invalid_rate * len(report.predictions)))
        run.count("evaluation.scored", len(report.predictions))
        rounds.append(dict(best=best, loaded=loaded, scores=scores, index=checkpoints.index(best),
                           report=report, decodes=records[first_decode:]))

    run.loop(one_round)
    capture.restore()
    run.stop_tracing()

    n_test = len(s["data"]["test"])
    run.name("tokens_per_s", sum(train_tokens) / sum(train_s))
    run.name("items_per_s", n_test * len(eval_s) / sum(eval_s))
    run.name("op_s_p50", statistics.median(epoch_s))
    last = rounds[-1]
    report = last["report"]
    generated = [g for g, _ in report.predictions]
    golds = [gold for _, gold in report.predictions]
    metric = evaluation.TASK_METRICS[FINETUNE_TASK]
    enc_lens = [len(p.input_ids) for p in encoded]
    run.props.update(
        distinct_words=distinct_words([r[0] for r in rows]), rounds=len(rounds),
        epochs=FINETUNE_EPOCHS, train=n_train, validation=n_val, test=n_test,
        input_tokens_mean=sum(enc_lens) / len(enc_lens),
        target_tokens_mean=sum(len(p.target_ids) for p in encoded) / len(encoded),
        padded_share=run.pad[0] / run.pad[1],
        positive_share=sum(r[1] == labels[0] for r in rows) / len(rows),
        generated_tokens_per_example=sum(len(o) for _, o, _ in last["decodes"]) / len(last["decodes"]),
        test_accuracy=report.metrics[metric], invalid_rate=report.invalid_rate)
    run.digests.update(merges=digest(vocab.merges), predictions=digest(generated),
                       scores=digest([round(x, 6) for x in last["scores"]]))

    run.check("finetune.losses_finite", checks.losses_finite(losses))
    run.check("finetune.checkpoint_bit_exact",
              all(checks.same_checkpoint(r["best"], r["loaded"]) for r in rounds))
    run.check("finetune.selection_is_first_best",
              all(checks.first_best(r["scores"], r["index"]) for r in rounds), f"scores {last['scores']}")
    accuracy, invalid = checks.label_scores(generated, golds, labels)
    run.check("finetune.accuracy_recomputed", abs(accuracy - report.metrics[metric]) < 1e-12,
              f"recomputed {accuracy} reported {report.metrics[metric]}")
    run.check("finetune.invalid_rate_recomputed", abs(invalid - report.invalid_rate) < 1e-12,
              f"recomputed {invalid} reported {report.invalid_rate}")
    run.check("finetune.rounds_agree", len({digest(r["report"].predictions) for r in rounds}) == 1)


def generate(run):
    rng = np.random.default_rng(run.seed)
    lex = gen.Lexicon(rng, MODEL_LEXICON)
    tok_text = gen.paragraphs(rng, lex, TOKENIZER_PARAGRAPHS)

    def prepare():
        vocab = bpe.train_bpe(tok_text, MODEL_VOCAB)
        cfg = model.ModelConfig(vocab_size=len(vocab), **D256)
        params = model.init_params(cfg, np.random.default_rng(GENERATE_WEIGHTS_SEED))
        return dict(vocab=vocab, cfg=cfg, params=params)

    def warmup(s):
        ex = tasks.TaskExample(tok_text[0], tok_text[0], "summarization")
        evaluation.evaluate_examples(s["cfg"], s["params"], s["vocab"], [ex], "summarization",
                                     max_output_tokens=8)

    s = run.setup(prepare, warmup)
    cfg, params, vocab = s["cfg"], s["params"], s["vocab"]
    sizes = {}

    def word_tokens(w):
        if w not in sizes:
            sizes[w] = len(bpe.encode(w, vocab))
        return sizes[w]

    rows = gen.summarization_rows(np.random.default_rng([run.seed, 1]), lex, GENERATE_DOCS, word_tokens,
                                  GENERATE_INPUT_TOKENS)
    examples = [tasks.TaskExample(a, b, "summarization") for a, b in rows]
    records, capture = capture_decodes()
    reports = []

    def one_example(i):
        reports.append(evaluation.evaluate_examples(cfg, params, vocab, [examples[i % len(examples)]],
                                                    "summarization",
                                                    max_output_tokens=GENERATE_OUTPUT_TOKENS))

    durations = run.loop(one_example)
    capture.restore()
    run.stop_tracing()

    out_lens = [len(o) for _, o, _ in records]
    run.name("tokens_per_s", sum(out_lens) / sum(durations))
    run.name("items_per_s", len(durations) / sum(durations))
    run.name("op_s_p50", statistics.median(durations))
    in_lens = [len(i) for i, _, _ in records]
    run.props.update(
        distinct_words=distinct_words(r[0] for r in rows), examples=len(durations),
        input_tokens_mean=sum(in_lens) / len(in_lens), input_tokens_min=min(in_lens),
        input_tokens_max=max(in_lens), output_budget=GENERATE_OUTPUT_TOKENS,
        generated_tokens_per_example=sum(out_lens) / len(out_lens),
        eos_stops=sum(n < GENERATE_OUTPUT_TOKENS for n in out_lens),
        rouge_l=statistics.mean(r.metrics["rouge_l"] for r in reports))
    run.digests.update(merges=digest(vocab.merges), generated=digest([o for _, o, _ in records]))

    def forward(enc, dec):
        return model.forward(cfg, params, enc, dec).data

    bad = {k: checks.argmax_violations(forward, i, o, m, vocab.eos_id) for k, (i, o, m) in enumerate(records)}
    bad = {k: v for k, v in bad.items() if v}
    run.check("generate.tokens_are_argmax", not bad,
              f"violations {bad} (tolerance {checks.ARGMAX_TOLERANCE})")
    run.check("generate.within_budget", all(n <= GENERATE_OUTPUT_TOKENS for n in out_lens))


def corpus(run):
    rng = np.random.default_rng(run.seed)
    lex = gen.Lexicon(rng, CORPUS_LEXICON)
    tok_text = gen.paragraphs(rng, lex, CORPUS_TOKENIZER_PARAGRAPHS)
    texts, exact, near = gen.corpus_with_duplicates(rng, lex, CORPUS_UNIQUE, EXACT_SHARE, NEAR_SHARE)
    tok_path = os.path.join(run.workdir, "tokenizer.txt")
    corpus_path = os.path.join(run.workdir, "corpus.txt")
    write_paragraph_file(tok_text, tok_path)
    write_paragraph_file(texts, corpus_path)

    def prepare():
        return dict(tok=[p.text for p in dedup.read_paragraphs(tok_path)],
                    paragraphs=list(dedup.read_paragraphs(corpus_path, doc_id="c")))

    def warmup(s):
        """A small round: a few merges, then dedup and encoding of a slice."""
        vocab = bpe.train_bpe(s["tok"][:5], CORPUS_WARMUP_VOCAB)
        for p in dedup_pass(s["paragraphs"][:CORPUS_WARMUP_PARAGRAPHS], vocab)[0]:
            bpe.encode(p.text, vocab)

    s = run.setup(prepare, warmup)
    train_s, dedup_s, encode_s, n_in, n_tokens = [], [], [], [], []
    results = []

    def one_round(i):
        """`minit5 tokenizer-train`, then `minit5 dedup` with that vocabulary,
        then encoding of the kept text."""
        t = clock()
        vocab = bpe.train_bpe(s["tok"], CORPUS_VOCAB)
        train_s.append(clock() - t)
        t = clock()
        with run.span("bench.dedup"):
            kept, stats = counted_dedup_pass(run, s["paragraphs"], len(exact) + len(near), vocab)
        dedup_s.append(clock() - t)
        t = clock()
        with run.span("bench.encode"):
            ids = [bpe.encode(p.text, vocab) for p in kept]
        encode_s.append(clock() - t)
        n_in.append(stats.kept + stats.dropped)
        n_tokens.append(sum(len(x) for x in ids))
        results.append(dict(vocab=vocab, kept=kept, ids=ids,
                            digests=(digest(vocab.merges), digest([p.doc_id for p in kept]), digest(ids))))

    run.loop(one_round)
    run.stop_tracing()

    run.name("tokens_per_s", sum(n_tokens) / sum(encode_s))
    run.name("items_per_s", sum(n_in) / sum(dedup_s))
    run.name("op_s_p50", statistics.median(train_s))
    last = results[-1]
    vocab, kept, ids = last["vocab"], last["kept"], last["ids"]
    kept_ids = {p.doc_id for p in kept}
    run.props.update(
        distinct_words=distinct_words(texts), tokenizer_distinct_words=distinct_words(tok_text),
        rounds=len(results), paragraphs=len(texts), exact_duplicate_share=len(exact) / len(texts),
        near_duplicate_share=len(near) / len(texts), kept=len(kept),
        drop_ratio=(len(texts) - len(kept)) / (len(exact) + len(near)),
        words_per_paragraph=sum(len(t.split()) for t in texts) / len(texts),
        tokens_per_kept_paragraph=sum(len(x) for x in ids) / len(ids), merges=len(vocab.merges))
    run.digests.update(merges=last["digests"][0], kept_ids=last["digests"][1], encoded_ids=last["digests"][2])

    bad = checks.round_trip_failures([p.text for p in kept], ids, lambda x: bpe.decode(x, vocab))
    run.check("corpus.decode_encode_round_trip", not bad, f"{len(bad)} paragraphs differ, first {bad[:3]}")
    run.check("corpus.dedup_idempotent", checks.dedup_idempotent(kept, lambda ps: dedup_pass(ps)[0]))
    survivors = checks.surviving_duplicates(exact, kept_ids, lambda i: f"c:{i}")
    run.check("corpus.exact_duplicates_dropped", not survivors, f"kept exact duplicates at {survivors[:5]}")
    run.check("corpus.rounds_agree", len({r["digests"] for r in results}) == 1)


WORKLOADS = {"pretrain": pretrain, "finetune": finetune, "generate": generate, "corpus": corpus}

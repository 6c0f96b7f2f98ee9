"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import time
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import pytest

from minit5.bpe import train_bpe
from minit5.cli import main
from minit5.dedup import Paragraph, deduplicate_stream
from minit5.evaluation import greedy_decode, lemma_accuracy, majority_baseline, rouge_l
from minit5.gradcheck import finite_diff_check
from minit5.model import ModelConfig, count_parameters, forward, init_params, preset
from minit5.noising import mixture_sample, noise_counts, plan_spans, span_corrupt, iid_denoise
from minit5.tasks import (
    NerSentence,
    TaskExample,
    balance_ner,
    format_ner,
    format_superglue,
)
from minit5.tensor import (
    Tape,
    Tensor,
    add,
    backward,
    cross_entropy,
    embedding,
    gelu,
    matmul,
    mul,
    reshape,
    rms_norm,
    softmax_lastdim,
    sum_all,
)
from minit5.training import (
    AdamW,
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
    teacher_forced_loss,
)


@contextmanager
def criterion(number, name, seconds_budget):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < seconds_budget, f"criterion {number} took {elapsed:.1f}s (budget {seconds_budget}s)"
    print(f"criterion {number:2d} ({name}): PASS  [{elapsed:.2f}s]")


def _noise_vocab():
    corpus = "abcdefghijklmnopqrstuvwxyz " * 2
    return train_bpe(corpus, vocab_size=3 + 27 + 100, sentinel_count=100)


def test_criterion_1_budget_ratios(capsys):
    with criterion(1, "token-to-parameter budget ratios", 1.0):
        assert main(["budget"]) == 0
        out = capsys.readouterr().out
        with capsys.disabled():
            ratios = sorted(float(line.split()[-1]) for line in out.splitlines()[1:])
            targets = sorted([5.5, 20.0, 33.0, 68.0, 414.0])
            assert len(ratios) == 5
            for got, want in zip(ratios, targets):
                assert abs(got - want) / want < 0.05, (got, want)


def test_criterion_2_parameter_counts():
    with criterion(2, "preset parameter counts and analytic formula", 10.0):
        assert 5.5e7 <= count_parameters(preset("small")) <= 8.0e7
        assert 7.0e8 <= count_parameters(preset("large")) <= 8.0e8
        rng = np.random.default_rng(0)
        counted = 0
        for _ in range(50):
            settings = dict(
                vocab_size=int(rng.integers(2, 40)),
                d_model=int(rng.integers(1, 10)),
                d_ff=int(rng.integers(1, 16)),
                n_heads=int(rng.integers(1, 4)),
                d_kv=int(rng.integers(1, 5)),
                enc_layers=int(rng.integers(1, 4)),
                dec_layers=int(rng.integers(1, 4)),
                rel_buckets=int(rng.integers(2, 8)),
                rel_max_distance=int(rng.integers(4, 32)),
            )
            # relative_bucket needs 4 buckets or more, and a distance past half of them
            if settings["rel_buckets"] < 4 or settings["rel_max_distance"] <= settings["rel_buckets"] // 2:
                with pytest.raises(ValueError, match="rel_buckets must be at least 4"):
                    ModelConfig(**settings)
                continue
            cfg = ModelConfig(**settings)
            allocated = sum(p.data.size for p in init_params(cfg, rng).values())
            assert count_parameters(cfg) == allocated
            counted += 1
        assert counted >= 25


def _splice(pair, vocab):
    sentinels = {vocab.sentinel_id(k) for k in range(vocab.sentinel_count)}
    spans = {}
    key = None
    for tok in pair.target_ids:
        if tok == vocab.eos_id:
            break
        if tok in sentinels:
            key = tok
            spans[key] = []
        else:
            spans[key].append(tok)
    out = []
    for tok in pair.input_ids:
        out.extend(spans[tok] if tok in sentinels else [tok])
    return out


def test_criterion_3_noise_statistics():
    with criterion(3, "noise statistics and reconstruction", 60.0):
        vocab = _noise_vocab()
        first_sentinel = len(vocab) - vocab.sentinel_count
        rng = np.random.default_rng(1)
        n = 512
        num_noise, num_spans = noise_counts(n)

        # span corruption over >= 1e5 tokens
        total = corrupted = sentinel_count = 0
        while total < 100_000:
            ids = [int(x) for x in rng.integers(3, 30, size=n)]
            pair = span_corrupt(ids, plan_spans(n, num_noise, num_spans, rng), vocab)
            n_sent = sum(1 for t in pair.input_ids if t >= first_sentinel)
            corrupted += n - (len(pair.input_ids) - n_sent)
            sentinel_count += n_sent
            total += n
        fraction = corrupted / total
        assert abs(fraction - 0.150) <= 0.005, fraction
        mean_span = corrupted / sentinel_count
        assert abs(mean_span - num_noise / num_spans) / (num_noise / num_spans) < 0.05

        # i.i.d. denoising over >= 1e5 tokens, every span exactly one token
        total = corrupted = 0
        while total < 100_000:
            ids = [int(x) for x in rng.integers(3, 30, size=200)]
            pair = iid_denoise(ids, rng, vocab)
            body = pair.target_ids[:-1]
            for i, tok in enumerate(body):
                if tok >= first_sentinel and i + 2 < len(body):
                    assert body[i + 1] < first_sentinel  # exactly one token follows
                    assert body[i + 2] >= first_sentinel
            corrupted += sum(1 for t in pair.input_ids if t >= first_sentinel)
            total += len(ids)
        assert abs(corrupted / total - 0.150) <= 0.005

        # exact reconstruction on 1000 random pairs of both objectives
        for _ in range(1000):
            ids = [int(x) for x in rng.integers(3, 30, size=int(rng.integers(4, 80)))]
            pair = mixture_sample(ids, vocab, rng)
            assert _splice(pair, vocab) == ids


def test_criterion_4_gradient_correctness():
    with criterion(4, "finite-difference gradient checks", 120.0):
        rng = np.random.default_rng(2)

        def p(*shape):
            return Tensor(rng.normal(size=shape), requires_grad=True, dtype=np.float64)

        # per-primitive checks at 1e-6
        a, b = p(3, 4), p(4, 2)
        assert finite_diff_check(lambda: sum_all(mul(matmul(a, b), matmul(a, b))), {"a": a, "b": b}) < 1e-6
        x = p(2, 5)
        w = Tensor(rng.normal(size=(2, 5)), dtype=np.float64)
        assert finite_diff_check(lambda: sum_all(mul(softmax_lastdim(x), w)), {"x": x}) < 1e-6
        y, g = p(3, 6), p(6)
        wy = Tensor(rng.normal(size=(3, 6)), dtype=np.float64)
        assert finite_diff_check(lambda: sum_all(mul(rms_norm(y, g), wy)), {"y": y, "g": g}) < 1e-6
        z = p(5, 7)
        targets = np.array([1, 3, 0, 6, 2])
        assert finite_diff_check(lambda: cross_entropy(z, targets), {"z": z}) < 1e-6
        u = p(4, 3)
        assert finite_diff_check(lambda: sum_all(mul(gelu(u), gelu(u))), {"u": u}) < 1e-6
        table = p(6, 4)
        ids = np.array([[0, 5, 2], [2, 2, 1]])
        wt = Tensor(rng.normal(size=(2, 3, 4)), dtype=np.float64)
        assert finite_diff_check(lambda: sum_all(mul(embedding(table, ids), wt)), {"t": table}) < 1e-6
        v1, v2 = p(3, 3), p(3)
        assert finite_diff_check(lambda: sum_all(mul(add(v1, v2), add(v1, v2))), {"a": v1, "b": v2}) < 1e-6

        # full tiny model (2+2 layers, d_model=8) at 1e-4
        cfg = ModelConfig(vocab_size=20, d_model=8, d_ff=12, n_heads=2, d_kv=4,
                          enc_layers=2, dec_layers=2, rel_buckets=4, rel_max_distance=8,
                          dropout=0.0)
        params = init_params(cfg, rng, dtype=np.float64)
        enc_in = rng.integers(2, 20, size=(1, 5))
        dec_in = rng.integers(2, 20, size=(1, 4))
        tgt = rng.integers(2, 20, size=4)

        def model_loss():
            logits = forward(cfg, params, enc_in, dec_in)
            return cross_entropy(reshape(logits, (4, 20)), tgt)

        err = finite_diff_check(model_loss, params, max_coords_per_param=4,
                                rng=np.random.default_rng(3))
        assert err < 1e-4, err


def test_criterion_5_causality_and_pad_invariance():
    with criterion(5, "decoder causality and pad invariance", 30.0):
        cfg = ModelConfig(vocab_size=32, d_model=16, d_ff=32, n_heads=2, d_kv=8,
                          enc_layers=2, dec_layers=2, rel_buckets=8, rel_max_distance=16,
                          dropout=0.0)
        params = init_params(cfg, np.random.default_rng(4), dtype=np.float64)
        rng = np.random.default_rng(5)
        enc_in = rng.integers(3, 30, size=(1, 6))
        dec_in = rng.integers(3, 30, size=(1, 6))
        t = 2

        def grads(dec):
            # the loss reads position t alone
            for p in params.values():
                p.grad = None
            with Tape() as tape:
                logits = forward(cfg, params, enc_in, dec)
                backward(cross_entropy(embedding(reshape(logits, (6, cfg.vocab_size)), [t]), [9]), tape)
            return {name: p.grad.tobytes() for name, p in params.items()}

        base = grads(dec_in)
        future, present = dec_in.copy(), dec_in.copy()
        future[0, t + 1:] = (future[0, t + 1:] + 1) % 27 + 3
        present[0, t] = (present[0, t] + 1) % 27 + 3
        assert grads(future) == base  # every gradient bitwise unchanged
        assert any(g != base[name] for name, g in grads(present).items())

        params32 = init_params(cfg, np.random.default_rng(6))
        enc_in = rng.integers(3, 30, size=(2, 5))
        dec_in = rng.integers(3, 30, size=(2, 4))
        base = forward(cfg, params32, enc_in, dec_in).data
        padded = np.concatenate([enc_in, np.zeros((2, 4), dtype=int)], axis=1)
        drift = np.abs(forward(cfg, params32, padded, dec_in).data - base).max()
        assert drift < 1e-5, drift


def test_criterion_6_overfit_smoke():
    with criterion(6, "copy-task overfit to 100% exact match", 600.0):
        from minit5.noising import NoisedPair

        cfg = ModelConfig(vocab_size=32, d_model=32, d_ff=64, n_heads=2, d_kv=16,
                          enc_layers=1, dec_layers=1, rel_buckets=8, rel_max_distance=16,
                          dropout=0.0)
        rng = np.random.default_rng(7)
        params = init_params(cfg, rng)
        examples = []
        for _ in range(64):
            seq = rng.integers(3, 30, size=6).tolist()
            examples.append(NoisedPair(seq, seq + [1]))
        opt = AdamW(params, lr=3e-3)
        batch_size = 16
        steps = 0
        for step in range(2000):
            batch = [examples[(step * batch_size + i) % 64] for i in range(batch_size)]
            with Tape() as tape:
                loss = teacher_forced_loss(cfg, params, batch)
                backward(loss, tape)
            opt.step()
            opt.zero_grad()
            steps = step + 1
            if loss.item() < 0.005:
                break
        assert steps < 2000 or loss.item() < 0.01
        exact = sum(
            greedy_decode(cfg, params, ex.input_ids, max_len=8) == ex.input_ids
            for ex in examples
        )
        assert exact == 64, f"{exact}/64 exact matches after {steps} steps"


def test_criterion_7_formatting_fidelity():
    with criterion(7, "task formatting fidelity", 1.0):
        ner = NerSentence(
            tokens="Bolj teoretično pa se je problema lotil Radical Science Journal v Londonu .".split(),
            labels=["O"] * 7 + ["B-ORG", "I-ORG", "I-ORG", "O", "B-LOC", "O"],
        )
        ex = format_ner(ner, "organizations")
        assert ex.input_text == ("organizacije: Bolj teoretično pa se je problema lotil "
                                 "Radical Science Journal v Londonu .")
        assert ex.target_text == "Radical Science Journal"
        assert format_ner(ner, "locations").target_text == "Londonu"
        assert format_ner(ner, "persons").target_text == "brez"

        boolq = format_superglue({
            "label": True,
            "passage": ("Kalcijev karbid - Kalcijev karbid je kemična spojina s kemično formulo CaC. "
                        "Njegova glavna uporaba v industriji je pri proizvodnji acetilena in "
                        "kalcijevega cianamida."),
            "question": "kalcijev karbid cac2 je surovina za proizvodnjo acetilena",
        }, "boolq")
        assert boolq.input_text == (
            "Sestavek: Kalcijev karbid - Kalcijev karbid je kemična spojina s kemično formulo CaC. "
            "Njegova glavna uporaba v industriji je pri proizvodnji acetilena in kalcijevega "
            "cianamida. Vprašanje: kalcijev karbid cac2 je surovina za proizvodnjo acetilena"
        )
        assert boolq.target_text == "Pravilno."

        cb = format_superglue({
            "premise": "Bil je kompleksen jezik. Ne zapisano, ampak predano. Lahko bi rekli, da je bil olupljen.",
            "hypothesis": "jezik je bil olupljen",
            "label": "entailment",
        }, "cb")
        assert cb.input_text == ("premisa: Bil je kompleksen jezik. Ne zapisano, ampak predano. "
                                 "Lahko bi rekli, da je bil olupljen. hipoteza: jezik je bil olupljen")
        assert cb.target_text == "implikacija"

        copa = format_superglue({
            "premise": "Moje telo je metalo senco na travo.",
            "choice1": "Sonce je vzhajalo.",
            "choice2": "Trava je bila pokošena.",
            "question": "cause",
            "label": 0,
        }, "copa")
        assert copa.input_text == ("Premisa: Moje telo je metalo senco na travo. "
                                   "Prva možnost: Sonce je vzhajalo. "
                                   "Druga možnost: Trava je bila pokošena. Kaj je vzrok?")
        assert copa.target_text == "prva"

        rte = format_superglue({
            "premise": "V Iraku še ni bilo najdenega orožja za množično uničevanje.",
            "hypothesis": "V Iraku najdeno orožje za množično uničevanje.",
            "label": "not_entailment",
        }, "rte")
        assert rte.input_text == ("premisa: V Iraku še ni bilo najdenega orožja za množično "
                                  "uničevanje. hipoteza: V Iraku najdeno orožje za množično uničevanje.")
        assert rte.target_text == "ni implikacija"

        wsc = format_superglue({
            "target": {"span1_text": "skodelico", "span2_text": "bila",
                       "span1_index": 4, "span2_index": 9},
            "text": "Iz steklenice sem v skodelico nalival vodo, dokler ni bila polna.",
            "label": True,
        }, "wsc")
        assert wsc.input_text == ("WSC: Iz steklenice sem v * skodelico * nalival vodo, "
                                  "dokler ni # bila # polna.")
        assert wsc.target_text == "Pravilno."


def test_criterion_8_ner_balancing():
    with criterion(8, "NER balancing rates", 5.0):
        def empties(n):
            return [TaskExample("osebe: x", "brez", "ner") for _ in range(n)]

        kept = balance_ner(empties(10_000), "train", np.random.default_rng(8))
        sigma3 = 3 * (10_000 * 0.05 * 0.95) ** 0.5
        assert abs(len(kept) - 500) <= sigma3, len(kept)

        kept = balance_ner(empties(10_000), "validation", np.random.default_rng(9))
        sigma3 = 3 * (10_000 * 0.5 * 0.5) ** 0.5
        assert abs(len(kept) - 5_000) <= sigma3, len(kept)

        examples = empties(200) + [TaskExample("osebe: y", "Ana", "ner")] * 7
        assert balance_ner(examples, "test", np.random.default_rng(10)) == examples


def test_criterion_9_rouge_oracle():
    with criterion(9, "ROUGE-L equals brute-force LCS oracle", 10.0):
        @lru_cache(maxsize=None)
        def lcs(a, b):
            if not a or not b:
                return 0
            if a[-1] == b[-1]:
                return lcs(a[:-1], b[:-1]) + 1
            return max(lcs(a[:-1], b), lcs(a, b[:-1]))

        rng = np.random.default_rng(11)
        words = [f"w{i}" for i in range(9)]
        for _ in range(1000):
            cand = tuple(words[i] for i in rng.integers(0, 9, size=rng.integers(0, 14)))
            ref = tuple(words[i] for i in rng.integers(0, 9, size=rng.integers(0, 14)))
            l = lcs(cand, ref)
            if l == 0:
                expected = 0.0
            else:
                p, r = l / len(cand), l / len(ref)
                expected = 2 * p * r / (p + r)
            assert rouge_l(" ".join(cand), " ".join(ref)) == expected


def test_criterion_10_checkpoint_round_trip(tmp_path):
    with criterion(10, "checkpoint round trip", 10.0):
        cfg = ModelConfig(vocab_size=24, d_model=16, d_ff=32, n_heads=2, d_kv=8,
                          enc_layers=1, dec_layers=1, rel_buckets=4, rel_max_distance=8,
                          dropout=0.0)
        params = init_params(cfg, np.random.default_rng(12))
        ck = Checkpoint.from_model(cfg, params, step=3)
        path = tmp_path / "model.bin"
        save_checkpoint(path, ck)
        loaded = load_checkpoint(path)
        enc_in = np.array([[3, 4, 5, 6]])
        dec_in = np.array([[7, 8]])
        a = forward(cfg, ck.to_params(), enc_in, dec_in).data
        b = forward(loaded.config, loaded.to_params(), enc_in, dec_in).data
        assert (a == b).all()  # bitwise

        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x55
        bad = tmp_path / "corrupt.bin"
        bad.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)
        truncated = tmp_path / "short.bin"
        truncated.write_bytes(path.read_bytes()[:50])
        with pytest.raises(CheckpointError):
            load_checkpoint(truncated)


def test_criterion_11_dedup():
    with criterion(11, "dedup drops duplicates, keeps 40% overlap", 10.0):
        rng = np.random.default_rng(13)
        originals = []
        for i in range(40):
            words = rng.choice([f"t{j}" for j in range(60)], size=rng.integers(12, 30))
            originals.append(Paragraph(f"p{i}", " ".join(words)))
        with_dupes = originals + [Paragraph(f"dup{i}", p.text) for i, p in enumerate(originals[:15])]
        kept, stats = deduplicate_stream(with_dupes)
        out = list(kept)
        assert [p.text for p in out] == [p.text for p in originals]
        assert stats.dropped == 15
        kept2, stats2 = deduplicate_stream(out)
        assert [p.doc_id for p in kept2] == [p.doc_id for p in out]
        assert stats2.dropped == 0

        # constructed 40%-overlap paragraph survives the 50% threshold
        p_words = [f"w{i}" for i in range(14)]
        prefix = Paragraph("q", " ".join(p_words[:11]))  # shares 2 of P's 5 shingles
        full = Paragraph("p", " ".join(p_words))
        kept3, stats3 = deduplicate_stream([prefix, full], n=10, threshold=0.5)
        assert [x.doc_id for x in kept3] == ["q", "p"]
        assert stats3.dropped == 0


def test_criterion_12_metric_fixtures():
    with criterion(12, "lemma punctuation rule and majority baseline", 1.0):
        word, sent = lemma_accuracy(["biti hiša ."], ["biti hiša ,"])
        assert word == 1.0 and sent == 1.0
        word, sent = lemma_accuracy(["biti hiše !"], ["biti hiša ."])
        assert word == 0.5 and sent == 0.0

        test_labels = ["da"] * 633 + ["ne"] * 367
        train_labels = ["da"] * 70 + ["ne"] * 30
        assert majority_baseline(train_labels, test_labels) == pytest.approx(0.633)

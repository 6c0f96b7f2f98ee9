"""Tests of the benchmark itself: input generation, span arithmetic, the
metric declarations, and that every correctness check rejects a corrupted
output. Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

from minit5 import bpe, dedup, evaluation, model, training  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402


def make_inputs(seed):
    rng = np.random.default_rng(seed)
    lex = gen.Lexicon(rng, 300)
    texts, exact, near = gen.corpus_with_duplicates(rng, lex, 40, 0.1, 0.1)
    rows = gen.boolq_rows(rng, lex, 5)
    docs = gen.summarization_rows(rng, lex, 3, lambda w: len(w) // 3 + 1, 60)
    return lex.words, texts, exact, near, rows, docs


def test_generator_is_deterministic_per_seed():
    assert make_inputs(3) == make_inputs(3)
    assert make_inputs(3) != make_inputs(4)


def test_injected_duplicates_follow_their_originals():
    _, texts, exact, near, _, _ = make_inputs(5)
    assert len(texts) == 50 and len(exact) == 5 and len(near) == 5
    for i in exact:
        assert texts[i] in texts[:i]
    for i in near:
        assert texts[i] not in texts[:i]
        assert any(sum(a != b for a, b in zip(texts[i].split(), t.split())) == 1
                   and len(t.split()) == len(texts[i].split()) for t in texts[:i])


def test_summarization_inputs_respect_the_token_budget():
    *_, docs = make_inputs(6)
    for text, summary in docs:
        cost = 1 + sum(len(w) // 3 + 1 for w in text.split())
        assert 50 <= cost <= 60
        assert text.startswith(summary[:-1])


def test_self_time_subtracts_children():
    # root 0..10 holds a 1..4 and b 5..6; a holds c 2..3
    s = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    assert spans.self_times(s) == [6.0, 2.0, 1.0, 1.0]
    table = spans.summarize(s)
    assert table["root"] == (1, 10.0, 6.0)
    assert table["a"] == (1, 3.0, 2.0)


def test_recursive_span_counts_inclusive_time_once():
    s = [["f", 0.0, 4.0, -1], ["f", 1.0, 3.0, 0]]
    assert spans.summarize(s)["f"] == (2, 4.0, 4.0)


def test_tracer_records_parents_with_its_clock():
    ticks = iter(range(100))
    tr = spans.Tracer("run-1", clock=lambda: float(next(ticks)))
    with tr.span("outer"):
        with tr.span("inner"):
            assert tr.inside("outer")
    assert tr.spans == [["outer", 0.0, 3.0, -1], ["inner", 1.0, 2.0, 0]]
    assert not tr.inside("outer")


def test_patches_restore_every_binding():
    original = evaluation.greedy_decode
    p = spans.Patches()
    p.replace(layers.program_modules(), original, lambda *a, **k: None)
    assert evaluation.greedy_decode is not original
    p.restore()
    assert evaluation.greedy_decode is original


def test_traced_run_reports_every_per_layer_metric():
    tr = spans.Tracer("run-2")
    patches = layers.install(tr)
    try:
        rng = np.random.default_rng(0)
        vocab = bpe.train_bpe(["ana ima mamo in mama ima ano"], 20, sentinel_count=4)
        cfg = model.ModelConfig(vocab_size=len(vocab), d_model=8, d_ff=16, n_heads=2, d_kv=4,
                                enc_layers=1, dec_layers=1, rel_buckets=4, rel_max_distance=8)
        params = model.init_params(cfg, rng)
        evaluation.greedy_decode(cfg, params, bpe.encode("ana ima", vocab), 3)
    finally:
        patches.restore()
    out, _ = layers.per_layer_metrics(tr, steps=0, pad=(0, 0))
    expected = {n for n, _, _ in metrics.PER_LAYER} - {"trace.overhead_s", "trace.overhead_share"}
    assert set(out) == expected
    assert out["model.decode_logits_calls"] >= 1
    assert out["bpe.encode_calls"] == 1


def test_declared_tensor_ops_are_still_imported_by_the_model():
    assert set(metrics.TENSOR_OPS) <= set(layers.tensor_ops())


def test_benchmark_json_matches_the_declarations():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        assert json.load(f) == metrics.benchmark_json()


def test_loss_checks_reject_bad_losses():
    assert checks.losses_finite([3.0, 2.0]) and checks.loss_falls([3.0, 2.0])
    assert not checks.losses_finite([3.0, float("nan")])
    assert not checks.loss_falls([3.0, 3.5])


def tiny_checkpoint():
    cfg = model.ModelConfig(vocab_size=12, d_model=8, d_ff=16, n_heads=2, d_kv=4,
                            enc_layers=1, dec_layers=1, rel_buckets=4, rel_max_distance=8)
    params = model.init_params(cfg, np.random.default_rng(1))
    opt = training.AdamW(params)
    return training.Checkpoint.from_model(cfg, params, step=3, optimizer=opt, rng=np.random.default_rng(2))


@pytest.mark.parametrize("corrupt", ["param", "moment", "step", "rng", "dtype"])
def test_checkpoint_check_rejects_any_difference(corrupt):
    a, b = tiny_checkpoint(), tiny_checkpoint()
    assert checks.same_checkpoint(a, b)
    if corrupt == "param":
        raw = b.params["embedding"].view(np.uint32)
        raw[0, 0] ^= 1  # one flipped bit
    elif corrupt == "moment":
        b.optimizer["v"]["encoder.final_norm"][0] = 1e-30
    elif corrupt == "step":
        b.step += 1
    elif corrupt == "rng":
        b.rng_state = np.random.default_rng(9).bit_generator.state
    else:
        b.params["embedding"] = b.params["embedding"].astype(np.float64)
    assert not checks.same_checkpoint(a, b)


def test_argmax_check_accepts_greedy_output_and_rejects_a_corrupted_token():
    ck = tiny_checkpoint()
    params = ck.to_params()
    inp = [3, 4, 5, 6, 1]
    out = evaluation.greedy_decode(ck.config, params, inp, 6)

    def forward(enc, dec):
        return model.forward(ck.config, params, enc, dec).data

    assert checks.argmax_violations(forward, inp, out, 6, eos_id=1) == []
    if len(out) == 0:
        pytest.skip("this model stops at once")
    logits = forward(np.asarray([inp]), np.asarray([[0] + out[:-1]]))[0, 0]
    worse = int(np.argmin(logits))
    assert checks.argmax_violations(forward, inp, [worse] + out[1:], 6, eos_id=1) == [0]
    assert checks.argmax_violations(forward, inp, out + [1], 6, eos_id=1) != []


def test_round_trip_check_flags_a_changed_text():
    vocab = bpe.train_bpe(["ana ima mamo"], 14, sentinel_count=2)
    texts = ["ana ima", "mamo ana"]
    ids = [bpe.encode(t, vocab) for t in texts]
    decode = lambda x: bpe.decode(x, vocab)  # noqa: E731
    assert checks.round_trip_failures(texts, ids, decode) == []
    ids[1] = ids[1][:-1]
    assert checks.round_trip_failures(texts, ids, decode) == [1]


def test_duplicate_check_flags_a_kept_copy():
    paras = [dedup.Paragraph(f"c:{i}", t) for i, t in enumerate(["a b c d", "e f g h", "a b c d"])]
    kept, _ = dedup.deduplicate_stream(iter(paras), n=2)
    kept_ids = [p.doc_id for p in kept]
    assert checks.surviving_duplicates([2], kept_ids, lambda i: f"c:{i}") == []
    assert checks.surviving_duplicates([2], ["c:0", "c:1", "c:2"], lambda i: f"c:{i}") == [2]


def test_idempotence_check_flags_a_kept_duplicate():
    paras = [dedup.Paragraph(f"c:{i}", t) for i, t in enumerate(["a b c d", "e f g h", "a b c d"])]

    def deduplicate(ps):
        kept, _ = dedup.deduplicate_stream(iter(ps), n=2)
        return list(kept)

    assert checks.dedup_idempotent(deduplicate(paras), deduplicate)
    assert not checks.dedup_idempotent(paras, deduplicate)


def test_selection_and_label_checks_reject_wrong_answers():
    assert checks.first_best([0.1, 0.5, 0.5], 1)
    assert not checks.first_best([0.1, 0.5, 0.5], 2)
    labels = ("Pravilno.", "Napačno.")
    assert checks.label_scores(["Pravilno.", " Napačno.", "x"], ["Pravilno.", "Pravilno.", "Napačno."],
                               labels) == (1 / 3, 1 / 3)

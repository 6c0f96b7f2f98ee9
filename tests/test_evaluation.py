import os
from functools import lru_cache

import numpy as np
import pytest

from minit5 import bpe
from minit5.evaluation import (
    DECODE_LIMITS,
    EvalError,
    EvalReport,
    classification_scores,
    entity_f1,
    evaluate_examples,
    greedy_decode,
    lemma_accuracy,
    majority_baseline,
    parse_entity_list,
    postfilter_and_match,
    postfilter_generated,
    rouge_l,
    score_predictions,
    write_report,
)
from minit5.model import DecodeCache, ModelConfig, decode_cache_shape, decode_logits, encode, init_params
from minit5.tasks import TASKS, TaskExample
from minit5.tensor import ShapeError, Tensor


def _lcs_oracle(a, b):
    # memoized recursive LCS, independent of the iterative DP in src
    a, b = tuple(a), tuple(b)

    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0 or j == 0:
            return 0
        if a[i - 1] == b[j - 1]:
            return rec(i - 1, j - 1) + 1
        return max(rec(i - 1, j), rec(i, j - 1))

    return rec(len(a), len(b))


class TestDecodeTables:
    def test_output_limits_table(self):
        assert DECODE_LIMITS == {
            "boolq": 4, "cb": 6, "copa": 6, "rte": 6, "wsc": 6, "sa": 5,
            "ner": 64, "simplification": 256, "lemmatization": 512, "summarization": 512,
        }

    def test_epochs_table(self):
        assert {tag: task.epochs for tag, task in TASKS.items()} == {
            "boolq": 10, "cb": 15, "copa": 15, "rte": 15, "wsc": 20, "ner": 20,
            "sa": 10, "lemmatization": 15, "summarization": 5, "simplification": 64,
        }


def _zero_params(cfg):
    """All-zero parameters: every logit is 0, so argmax always returns id 0."""
    params = init_params(cfg, np.random.default_rng(0))
    for p in params.values():
        p.data[...] = 0.0
    return params


def _prefix_greedy(config, params, input_ids, max_len, *, eos_id=1):
    """Test oracle: greedy decoding that re-runs the decoder over the whole
    prefix at every step, with no cache."""
    enc_out, enc_grid = encode(config, params, np.asarray([input_ids]))
    dec = [0]
    for _ in range(max_len):
        nxt = int(np.argmax(decode_logits(config, params, enc_out, enc_grid, np.asarray([dec])).data[0, -1]))
        if nxt == eos_id:
            break
        dec.append(nxt)
    return dec[1:]


class TestGreedyDecode:
    def _cfg(self):
        return ModelConfig(vocab_size=12, d_model=8, d_ff=16, n_heads=2, d_kv=4,
                           enc_layers=1, dec_layers=1, rel_buckets=4, rel_max_distance=8,
                           dropout=0.0)

    def _both(self, cfg, params, input_ids, max_len, **kwargs):
        out = greedy_decode(cfg, params, input_ids, max_len, **kwargs)
        assert out == _prefix_greedy(cfg, params, input_ids, max_len, **kwargs)
        return out

    def test_eos_first_gives_empty_output(self):
        # zero params argmax to id 0 at every step; declaring 0 the EOS id
        # rigs a model that emits EOS immediately
        cfg = self._cfg()
        out = self._both(cfg, _zero_params(cfg), [3, 4, 5], max_len=8, eos_id=0)
        assert out == []

    def test_max_len_caps_output(self):
        # the same zero model never emits id 1, so with eos_id=1 it runs to
        # the cap: exactly max_len tokens
        cfg = self._cfg()
        out = self._both(cfg, _zero_params(cfg), [3, 4, 5], max_len=4, eos_id=1)
        assert out == [0, 0, 0, 0]

    def test_tie_breaks_to_lowest_id(self):
        cfg = self._cfg()
        out = self._both(cfg, _zero_params(cfg), [3, 4], max_len=2, eos_id=1)
        assert out == [0, 0]  # every logit equal: lowest id wins

    def test_determinism(self):
        cfg = self._cfg()
        params = init_params(cfg, np.random.default_rng(3))
        a = greedy_decode(cfg, params, [3, 4, 5, 6], max_len=6)
        b = greedy_decode(cfg, params, [3, 4, 5, 6], max_len=6)
        assert a == b

    def test_max_len_must_be_positive(self):
        cfg = self._cfg()
        with pytest.raises(EvalError):
            greedy_decode(cfg, init_params(cfg, np.random.default_rng(0)), [3], max_len=0)

    @pytest.mark.parametrize("budget", [0, -1, 2.5, True, "3"])
    def test_a_decode_budget_that_is_not_a_positive_integer_is_refused(self, budget):
        # refused before anything is allocated: numpy's TypeError or negative
        # dimensions never show, and no cache is built that refuses its
        # first step
        cfg = self._cfg()
        params = init_params(cfg, np.random.default_rng(0))
        enc_out, enc_grid = encode(cfg, params, [3, 4])
        with pytest.raises(EvalError, match="^max_len must be an integer >= 1"):
            greedy_decode(cfg, params, [3, 4], budget)
        for call in (lambda: decode_cache_shape(cfg, params, 1, budget),
                     lambda: DecodeCache(cfg, params, enc_out, enc_grid, budget)):
            with pytest.raises(ShapeError, match="^a decode budget must be a positive integer"):
                call()

    def test_a_numpy_integer_budget_is_accepted(self):
        cfg = self._cfg()
        params = _zero_params(cfg)
        assert greedy_decode(cfg, params, [3, 4], np.int64(2), eos_id=1) == [0, 0]
        assert decode_cache_shape(cfg, params, 1, np.int32(2))[3] == 2

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_full_prefix_oracle_float64(self, seed):
        # random relative-bias tables (init leaves them at zero) and inputs
        # with pad ids; 3 * rel_max_distance steps reach the log buckets and
        # the clamp. eos_id=-1 is no token id, so that run goes to max_len.
        cfg = ModelConfig(vocab_size=24, d_model=16, d_ff=32, n_heads=2, d_kv=8,
                          enc_layers=2, dec_layers=2, rel_buckets=8, rel_max_distance=8,
                          dropout=0.0)
        rng = np.random.default_rng(seed)
        params = init_params(cfg, rng, dtype=np.float64)
        for p in params.values():
            p.data *= 2.0
        for key in ("encoder.rel_bias", "decoder.rel_bias"):
            params[key].data[...] = rng.normal(0.0, 1.0, size=params[key].data.shape)
        input_ids = [int(t) for t in rng.integers(2, 24, size=9)]
        input_ids[4] = 0
        input_ids += [1, 0, 0]
        out = self._both(cfg, params, input_ids, 3 * cfg.rel_max_distance, eos_id=-1)
        assert len(out) == 24
        self._both(cfg, params, input_ids, 3 * cfg.rel_max_distance, eos_id=1)


class TestDecodeLengths:
    """evaluate_examples reports the mean number of generated tokens and the
    share of outputs that hit the budget without EOS."""

    @staticmethod
    def _report(eos_row):
        # every decoder block adds nothing to the residual stream, and every
        # token embeds as the same vector c but EOS, which embeds as
        # eos_row * c: each logit is a positive multiple of c . E[id], so
        # EOS wins at eos_row 2 and loses to id 0 (a tie, broken low) at -1
        vocab = bpe.train_bpe(["kje gori voda teče mimo mlina"], 40, sentinel_count=2)
        cfg = ModelConfig(vocab_size=len(vocab), d_model=8, d_ff=16, n_heads=2, d_kv=4,
                          enc_layers=1, dec_layers=1, rel_buckets=4, rel_max_distance=8, dropout=0.0)
        params = init_params(cfg, np.random.default_rng(0))
        params["embedding"].data[...] = 1.0
        params["embedding"].data[bpe.EOS_ID] = eos_row
        for key in ("self.o", "cross.o", "ffn.wo"):
            params[f"decoder.layers.0.{key}"].data[...] = 0.0
        examples = [TaskExample("kje gori", "voda", "summarization"),
                    TaskExample("voda teče mimo mlina", "gori", "summarization")]
        return evaluate_examples(cfg, params, vocab, examples, "summarization", max_output_tokens=5)

    def test_a_model_that_emits_eos_first_reads_zero(self):
        report = self._report(2.0)
        assert (report.generated_tokens_mean, report.budget_stop_rate) == (0.0, 0.0)
        lines = report.to_kv_lines()
        assert lines[-2:] == ["generated_tokens_mean=0.000000", "budget_stop_rate=0.000000"]

    def test_a_model_that_never_emits_eos_reads_one(self):
        report = self._report(-1.0)
        assert (report.generated_tokens_mean, report.budget_stop_rate) == (5.0, 1.0)
        assert report.to_kv_lines()[-2:] == ["generated_tokens_mean=5.000000", "budget_stop_rate=1.000000"]
        assert report.render().splitlines()[-2:] == ["  generated_tokens_mean    5.00",
                                                     "  budget_stop_rate       100.00%"]


class TestPostfilter:
    def test_strips_sentinel(self):
        labels = {"Pravilno.", "Napačno."}
        assert postfilter_and_match("<extra_id_0> Pravilno.", labels) == "Pravilno."

    def test_case_mismatch_is_invalid(self):
        labels = {"Pravilno.", "Napačno."}
        assert postfilter_and_match("pravilno.", labels) is None

    def test_gibberish_is_invalid_and_scores_zero(self):
        labels = ("implikacija", "ni implikacija")
        matched = [postfilter_and_match("xyzzy", labels) for _ in range(10)]
        golds = ["implikacija"] * 10
        assert classification_scores(matched, golds, "accuracy") == 0.0

    def test_strips_pad_and_eos(self):
        assert postfilter_generated("<pad><pad> prva </s>") == "prva"

    def test_empty_labels_rejected(self):
        with pytest.raises(EvalError):
            postfilter_and_match("x", set())


class TestRougeL:
    def test_identical(self):
        assert rouge_l("en dva tri", "en dva tri") == 1.0

    def test_disjoint(self):
        assert rouge_l("a b c", "x y z") == 0.0

    def test_hand_case(self):
        # cand "a b c d", ref "a c b d": LCS length 3 -> P = R = 3/4, F = 0.75
        assert rouge_l("a b c d", "a c b d") == pytest.approx(0.75)

    def test_empty_sides(self):
        assert rouge_l("", "") == 0.0
        assert rouge_l("a", "") == 0.0

    def test_symmetric_f(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = " ".join(rng.choice(list("abcd"), size=rng.integers(1, 10)))
            b = " ".join(rng.choice(list("abcd"), size=rng.integers(1, 10)))
            assert rouge_l(a, b) == pytest.approx(rouge_l(b, a))

    def test_lowercasing(self):
        assert rouge_l("Ana Teče", "ana teče") == 1.0

    def test_matches_lcs_oracle_on_random_pairs(self):
        rng = np.random.default_rng(6)
        vocab = [f"w{i}" for i in range(8)]
        for _ in range(1000):
            cand = [vocab[i] for i in rng.integers(0, 8, size=rng.integers(0, 15))]
            ref = [vocab[i] for i in rng.integers(0, 8, size=rng.integers(0, 15))]
            lcs = _lcs_oracle(cand, ref)
            if lcs == 0 or not cand or not ref:
                expected = 0.0
            else:
                p = lcs / len(cand)
                r = lcs / len(ref)
                expected = 2 * p * r / (p + r)
            assert rouge_l(" ".join(cand), " ".join(ref)) == pytest.approx(expected)

    def test_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = " ".join(rng.choice(list("ab"), size=rng.integers(1, 6)))
            b = " ".join(rng.choice(list("ab"), size=rng.integers(1, 6)))
            assert 0.0 <= rouge_l(a, b) <= 1.0


class TestEntityF1:
    def test_perfect_single(self):
        assert entity_f1(["Radical Science Journal"], ["Radical Science Journal"]) == 1.0

    def test_correct_rejection_contributes_nothing(self):
        assert entity_f1(["brez", "Ana"], ["", "Ana"]) == 1.0

    def test_partial(self):
        # pred {A, B}, gold {A}: TP=1, FP=1, FN=0 -> F1 = 2/(2+1) = 2/3
        assert entity_f1(["A, B"], ["A"]) == pytest.approx(2 / 3)

    def test_multiset_semantics(self):
        # duplicated mention must be produced twice to fully match
        assert entity_f1(["Ana"], ["Ana, Ana"]) == pytest.approx(2 / 3)

    def test_permutation_invariant(self):
        assert entity_f1(["B, A"], ["A, B"]) == 1.0

    def test_brute_force_counts(self):
        # independent multiset arithmetic over a random fixture
        rng = np.random.default_rng(8)
        names = ["Ana", "Bojan", "Cilka", "Drago"]
        preds, golds = [], []
        tp = fp = fn = 0
        for _ in range(100):
            p = [names[i] for i in rng.integers(0, 4, size=rng.integers(0, 4))]
            g = [names[i] for i in rng.integers(0, 4, size=rng.integers(0, 4))]
            preds.append(", ".join(p) if p else "brez")
            golds.append(", ".join(g) if g else "brez")
            for name in names:
                c = min(p.count(name), g.count(name))
                tp += c
                fp += p.count(name) - c
                fn += g.count(name) - c
        expected = 2 * tp / (2 * tp + fp + fn)
        assert entity_f1(preds, golds) == pytest.approx(expected)

    def test_parse_entity_list(self):
        assert parse_entity_list(" brez ") == {}
        assert parse_entity_list("A,  B , A") == {"A": 2, "B": 1}


class TestClassificationScores:
    def test_perfect(self):
        assert classification_scores(["a", "b"], ["a", "b"], "accuracy") == 1.0
        assert classification_scores(["a", "b"], ["a", "b"], "macro_f1") == 1.0

    def test_majority_accuracy(self):
        golds = ["1", "1", "1", "0"]
        assert classification_scores(["1"] * 4, golds, "accuracy") == 0.75

    def test_macro_f1_hand_case(self):
        # confusion TP=1, FP=1, FN=1, TN=1 for each class -> per-class F1 0.5
        golds = ["A", "A", "B", "B"]
        preds = ["A", "B", "A", "B"]
        assert classification_scores(preds, golds, "macro_f1") == pytest.approx(0.5)

    def test_invalid_wrong_for_every_class(self):
        assert classification_scores([None, None], ["a", "b"], "accuracy") == 0.0

    def test_length_mismatch(self):
        with pytest.raises(EvalError):
            classification_scores(["a"], ["a", "b"])


class TestLemmaAccuracy:
    def test_punctuation_ignored(self):
        word, sent = lemma_accuracy(["biti hiša ."], ["biti hiša ,"])
        assert word == 1.0 and sent == 1.0

    def test_half_wrong(self):
        word, sent = lemma_accuracy(["biti hiše"], ["biti hiša"])
        assert word == 0.5 and sent == 0.0

    def test_one_of_three_sentences_perfect(self):
        word, sent = lemma_accuracy(
            ["biti dom", "biti hiše", "miza stol"],
            ["biti dom", "biti hiša", "stol miza"],
        )
        assert sent == pytest.approx(1 / 3)

    def test_surplus_counts_as_errors(self):
        word, sent = lemma_accuracy(["a b c"], ["a b"])
        assert word == pytest.approx(2 / 3)
        assert sent == 0.0

    def test_alignment_is_positional(self):
        word, _ = lemma_accuracy(["a b"], ["b a"])
        assert word == 0.0


class TestMajorityBaseline:
    def test_simple(self):
        assert majority_baseline(["1", "1", "0"], ["1", "0"]) == 0.5

    def test_633_fixture(self):
        # 63.3% majority share reproduces a 63.3% accuracy exactly
        test = ["da"] * 633 + ["ne"] * 367
        train = ["da"] * 7 + ["ne"] * 3
        assert majority_baseline(train, test) == pytest.approx(0.633)

    def test_single_class(self):
        assert majority_baseline(["x"], ["x", "x"]) == 1.0

    def test_matches_majority_share_when_majorities_coincide(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            train = ["a"] * int(rng.integers(5, 10)) + ["b"] * int(rng.integers(0, 5))
            test = ["a"] * int(rng.integers(1, 10)) + ["b"] * int(rng.integers(0, 5))
            share = test.count("a") / len(test)
            assert majority_baseline(train, test) == pytest.approx(share)


class TestReports:
    def test_score_predictions_classification(self):
        report = score_predictions(
            "boolq",
            ["Pravilno.", "<extra_id_0> Napačno.", "kaj?"],
            ["Pravilno.", "Napačno.", "Pravilno."],
        )
        assert report.metrics["accuracy"] == pytest.approx(2 / 3)
        assert report.invalid_rate == pytest.approx(1 / 3)

    def test_score_predictions_generative(self):
        report = score_predictions("summarization", ["a b", "c"], ["a b", "c"])
        assert report.metrics["rouge_l"] == 1.0
        assert report.invalid_rate is None
        # lemmatization: 4 of 5 gold words and 1 of 2 sentences
        report = score_predictions("lemmatization", ["mačka biti lep .", "pes"],
                                   ["mačka biti lep .", "pes teči"])
        assert report.metrics == {"word_accuracy": 0.8, "sentence_accuracy": 0.5}
        assert report.invalid_rate is None

    @pytest.mark.parametrize("task", ["boolq", "ner", "lemmatization", "summarization"])
    def test_score_predictions_refuses_an_empty_set(self, task):
        with pytest.raises(EvalError, match="empty evaluation set"):
            score_predictions(task, [], [])

    @pytest.mark.parametrize("task, generated, golds", [
        ("boolq", [], ["Pravilno."]),
        ("ner", ["Ana Novak"], ["Ana Novak", "Ljubljana"]),
        ("lemmatization", ["hiša", "mačka"], ["hiša"]),
        ("summarization", ["a"], ["a", "b"]),
    ])
    def test_score_predictions_refuses_unequal_lengths(self, task, generated, golds):
        with pytest.raises(EvalError, match=f"{len(generated)} generations vs {len(golds)} golds"):
            score_predictions(task, generated, golds)

    def test_write_report_files(self, tmp_path):
        report = EvalReport("boolq", {"accuracy": 0.5}, invalid_rate=0.0,
                            predictions=[("Pravilno.", "Pravilno."), ("x", "Napačno.")])
        write_report(report, tmp_path)
        kv = (tmp_path / "report.kv").read_text(encoding="utf-8")
        assert "task=boolq\n" in kv
        assert "accuracy=0.500000\n" in kv
        assert "invalid_rate=0.000000\n" in kv
        txt = (tmp_path / "report.txt").read_text(encoding="utf-8")
        assert "boolq" in txt
        rows = (tmp_path / "predictions.csv").read_text(encoding="utf-8").splitlines()
        assert rows[0] == '"Pravilno.","Pravilno."'

    def test_failed_write_report_leaves_the_old_report(self, tmp_path, monkeypatch):
        old = EvalReport("boolq", {"accuracy": 0.5}, invalid_rate=0.0,
                         predictions=[("Pravilno.", "Pravilno.")])
        write_report(old, tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def full_disk(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", full_disk)
        new = EvalReport("boolq", {"accuracy": 1.0}, invalid_rate=0.0,
                         predictions=[("Napačno.", "Napačno.")])
        with pytest.raises(OSError):
            write_report(new, tmp_path)
        after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert not [name for name in after if name.startswith(".tmp-")]
        assert after == before

import ast
import itertools
import json
import math
import os
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
import weakref
import zlib

from collections import Counter

import numpy as np
import pytest

import minit5
from minit5.bpe import Vocabulary, encode, train_bpe
from minit5.model import ModelConfig, forward, init_params, preset
from minit5.noising import NoisedPair, NoisingError, mixture_sample, noise_stream, reconstruct
from minit5 import tensor, training
from minit5.tensor import ShapeError, Tape, Tensor, backward, mul
from minit5.training import (
    AdamW,
    Checkpoint,
    CheckpointError,
    NumericalError,
    TrainingError,
    lr_schedule,
    load_checkpoint,
    pretrain_batches,
    save_checkpoint,
    select_best_checkpoint,
    teacher_forced_loss,
    token_batch_pack,
    train_step,
)


def _tiny(vocab=32, **overrides):
    cfg = dict(vocab_size=vocab, d_model=16, d_ff=32, n_heads=2, d_kv=8,
               enc_layers=1, dec_layers=1, rel_buckets=4, rel_max_distance=8, dropout=0.0)
    cfg.update(overrides)
    return ModelConfig(**cfg)


class TestTeacherForcedLoss:
    def test_single_position(self):
        cfg = _tiny()
        params = init_params(cfg, np.random.default_rng(0), dtype=np.float64)
        pair = NoisedPair([3, 4, 5], [7])
        loss = teacher_forced_loss(cfg, params, [pair])
        assert np.isfinite(loss.item())

    def test_duplicate_example_keeps_mean(self):
        cfg = _tiny()
        params = init_params(cfg, np.random.default_rng(1), dtype=np.float64)
        pair = NoisedPair([3, 4, 5], [7, 8])
        one = teacher_forced_loss(cfg, params, [pair]).item()
        two = teacher_forced_loss(cfg, params, [pair, pair]).item()
        assert abs(one - two) < 1e-9

    def test_empty_target_rejected(self):
        cfg = _tiny()
        params = init_params(cfg, np.random.default_rng(2))
        with pytest.raises(TrainingError):
            teacher_forced_loss(cfg, params, [NoisedPair([3], [])])

    @pytest.mark.parametrize("target", [[0], [7, 0, 8], np.array([7, 8, 0])])
    def test_target_holding_the_pad_id_rejected(self, target):
        # a pad id inside a target would be scored as class 0, not dropped
        cfg = _tiny()
        params = init_params(cfg, np.random.default_rng(2))
        with pytest.raises(TrainingError, match="pad id 0"):
            teacher_forced_loss(cfg, params, [NoisedPair([3, 4], [7]), NoisedPair([3], target)])

    def test_empty_batch_rejected(self):
        cfg = _tiny()
        params = init_params(cfg, np.random.default_rng(2))
        with pytest.raises(TrainingError):
            teacher_forced_loss(cfg, params, [])

    @pytest.mark.parametrize("split", [False, True])
    def test_dropout_without_a_generator_rejected(self, monkeypatch, split):
        monkeypatch.setattr(training, "SPLIT_WORK", 0 if split else 1 << 62)
        pairs, params = TestTwoParts._pairs(), init_params(_tiny(), np.random.default_rng(2))
        with pytest.raises(TrainingError, match="rng, which is None"):
            teacher_forced_loss(_tiny(dropout=0.1), params, pairs, train=True)
        # at dropout 0 nothing is drawn, so no generator is needed
        assert np.isfinite(teacher_forced_loss(_tiny(), params, pairs, train=True).item())


class TestTwoParts:
    # a tiny batch made to run as two parts by a SPLIT_WORK of 0
    @staticmethod
    def _pairs():
        rng = np.random.default_rng(3)
        return [NoisedPair(rng.integers(3, 32, size=int(rng.integers(4, 12))).tolist(),
                           rng.integers(3, 32, size=int(rng.integers(1, 6))).tolist()) for _ in range(7)]

    @staticmethod
    def _step(monkeypatch, *, split=True, threads=2, dtype=np.float32, dropout=0.1, scale=None):
        """(loss bytes, {name: gradient bytes}) of one forward and backward,
        of the loss times scale when scale is given."""
        monkeypatch.setattr(training, "SPLIT_WORK", 0 if split else 1 << 62)
        monkeypatch.setattr(training, "PART_THREADS", threads)
        cfg = _tiny(dropout=dropout)
        params = init_params(cfg, np.random.default_rng(0), dtype=dtype)
        with Tape() as tape:
            loss = teacher_forced_loss(cfg, params, TestTwoParts._pairs(), train=True, rng=np.random.default_rng(1))
            if scale is not None:
                loss = mul(loss, scale)
            backward(loss, tape)
        return loss.data, {name: p.grad for name, p in params.items()}

    def test_two_threads_and_one_give_the_same_bits(self, monkeypatch):
        loss_2, grads_2 = self._step(monkeypatch, threads=2)
        loss_1, grads_1 = self._step(monkeypatch, threads=1)
        assert loss_2.tobytes() == loss_1.tobytes()
        assert all(grads_2[name].tobytes() == grads_1[name].tobytes() for name in grads_1)

    def test_two_parts_match_the_whole_batch_in_float64(self, monkeypatch):
        loss, grads = self._step(monkeypatch, dtype=np.float64, dropout=0.0)
        loss_whole, grads_whole = self._step(monkeypatch, split=False, dtype=np.float64, dropout=0.0)
        assert abs(loss - loss_whole) <= 1e-12 * abs(loss_whole)
        for name, g in grads_whole.items():
            assert np.linalg.norm(grads[name] - g) <= 1e-12 * np.linalg.norm(g), name

    def test_a_loss_scaled_by_the_caller_scales_the_gradients(self, monkeypatch):
        # the part replays' sum is multiplied by the incoming gradient when it is not 1
        loss, grads = self._step(monkeypatch, dtype=np.float64, dropout=0.0, scale=0.5)
        loss_whole, grads_whole = self._step(monkeypatch, split=False, dtype=np.float64, dropout=0.0)
        assert abs(loss - 0.5 * loss_whole) <= 1e-12 * abs(loss)
        for name, g in grads_whole.items():
            assert np.linalg.norm(grads[name] - 0.5 * g) <= 1e-12 * np.linalg.norm(0.5 * g), name

    def test_a_tensor_under_two_names_gets_its_gradient_once(self, monkeypatch):
        # the part replays sum gradients by leaf Tensor, not by name
        def grad(split):
            monkeypatch.setattr(training, "SPLIT_WORK", 0 if split else 1 << 62)
            params = init_params(_tiny(), np.random.default_rng(0), dtype=np.float64)
            params["decoder.final_norm"] = params["encoder.final_norm"]
            with Tape() as tape:
                backward(teacher_forced_loss(_tiny(), params, self._pairs()), tape)
            return params["encoder.final_norm"].grad

        split, whole = grad(True), grad(False)
        assert np.linalg.norm(split - whole) <= 1e-12 * np.linalg.norm(whole)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_only_the_callers_backward_sets_grad(self, monkeypatch, threads):
        # the parts run on the caller's own parameters; their replays hand each
        # gradient to on_leaf and leave .grad to the caller's backward
        monkeypatch.setattr(training, "SPLIT_WORK", 0)
        monkeypatch.setattr(training, "PART_THREADS", threads)
        cfg = _tiny()
        params = init_params(cfg, np.random.default_rng(0))
        replayed, real_backward = [], tensor.backward

        def replay(loss, tape, on_leaf=None):
            assert on_leaf is not None
            real_backward(loss, tape, on_leaf)
            replayed.append([p.grad for p in params.values()])

        monkeypatch.setattr(tensor, "backward", replay)
        with Tape() as tape:
            loss = teacher_forced_loss(cfg, params, self._pairs(), train=True, rng=np.random.default_rng(1))
            assert all(p.grad is None for p in params.values())
            backward(loss, tape)
        assert len(replayed) == 2 and all(g is None for grads in replayed for g in grads)
        assert all(p.grad is not None for p in params.values())

    def test_the_part_thread_starts_at_the_first_split_and_is_reused(self):
        # in a fresh process: the import starts no thread, and every split at
        # two part threads runs part 1 on the one pool thread
        script = """
import threading
from minit5 import training
from minit5.model import ModelConfig, init_params
from minit5.noising import NoisedPair
import numpy as np
assert threading.active_count() == 1, threading.enumerate()
training.SPLIT_WORK, training.PART_THREADS = 0, 2
real_loss, seen = training._loss, []
def loss(config, params, pairs, train, rng):
    seen.append((pairs[0].target_ids[0], threading.current_thread().name))
    return real_loss(config, params, pairs, train, rng)
training._loss = loss
cfg = ModelConfig(vocab_size=64, d_model=16, d_ff=32, n_heads=2, d_kv=8, enc_layers=1, dec_layers=1)
params = init_params(cfg, np.random.default_rng(0))
for _ in range(2):
    training.teacher_forced_loss(cfg, params, [NoisedPair([3, 4], [5]), NoisedPair([6, 7], [8])])
print(repr((sorted(seen), sorted(t.name for t in threading.enumerate()))))
"""
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(minit5.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        seen, threads = ast.literal_eval(done.stdout)
        part_thread = seen[-1][1]
        assert part_thread.startswith("minit5-part")
        assert seen == [(5, "MainThread")] * 2 + [(8, part_thread)] * 2  # part 0, part 1, twice
        assert threads == ["MainThread", part_thread]

    def test_the_split_balances_target_rows_at_a_pair_boundary(self, monkeypatch):
        seen = []
        real_loss = training._loss

        def loss(config, params, pairs, train, rng):
            seen.append([len(p.target_ids) for p in pairs])
            return real_loss(config, params, pairs, train, rng)

        monkeypatch.setattr(training, "SPLIT_WORK", 0)
        monkeypatch.setattr(training, "PART_THREADS", 1)
        monkeypatch.setattr(training, "_loss", loss)
        pairs = [NoisedPair([3, 4], [5] * n) for n in (1, 1, 1, 5, 2)]
        teacher_forced_loss(_tiny(), init_params(_tiny(), np.random.default_rng(0)), pairs)
        assert seen == [[1, 1, 1], [5, 2]]  # 3 and 7 target rows; 2 and 8, or 8 and 2, are further apart

    def test_the_size_rule(self, monkeypatch):
        calls = []
        monkeypatch.setattr(training, "_two_part_loss", lambda *args: calls.append(len(args[2])))
        cfg = _tiny()  # d_ff 32
        params = init_params(cfg, np.random.default_rng(0))
        pairs = [NoisedPair([3, 4, 5], [6])] * 2  # 8 rows
        monkeypatch.setattr(training, "SPLIT_WORK", 8 * 32 + 1)
        teacher_forced_loss(cfg, params, pairs)
        monkeypatch.setattr(training, "SPLIT_WORK", 8 * 32)
        teacher_forced_loss(cfg, params, pairs)
        teacher_forced_loss(cfg, params, pairs[:1])  # one pair always runs whole
        assert calls == [2]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("error", [NumericalError("non-finite loss"), ShapeError("bad shape"),
                                       MemoryError("Unable to allocate 1.00 TiB")])
    def test_an_error_in_part_1_reaches_the_caller_unchanged(self, monkeypatch, threads, error):
        real_loss, where = training._loss, []

        def loss(config, params, pairs, train, rng):
            if pairs[0] is not batch[0]:
                where.append(threading.current_thread().name)
                raise error
            return real_loss(config, params, pairs, train, rng)

        monkeypatch.setattr(training, "SPLIT_WORK", 0)
        monkeypatch.setattr(training, "PART_THREADS", threads)
        monkeypatch.setattr(training, "_loss", loss)
        batch = self._pairs()
        with Tape(), pytest.raises(type(error)) as raised:
            teacher_forced_loss(_tiny(), init_params(_tiny(), np.random.default_rng(0)), batch)
        assert raised.value is error
        assert (where[0] == threading.current_thread().name) == (threads == 1)

    def test_dropout_draws_come_from_the_callers_generator(self, monkeypatch):
        # each part draws from a generator seeded from rng, so rng's state
        # (the one a checkpoint keeps) says what the next step draws
        rng = np.random.default_rng(1)
        monkeypatch.setattr(training, "SPLIT_WORK", 0)
        cfg = _tiny(dropout=0.1)
        params = init_params(cfg, np.random.default_rng(0))
        state = rng.bit_generator.state
        first = teacher_forced_loss(cfg, params, self._pairs(), train=True, rng=rng).data
        assert rng.bit_generator.state != state
        rng.bit_generator.state = state
        assert teacher_forced_loss(cfg, params, self._pairs(), train=True, rng=rng).data == first


class TestAdamW:
    def test_zero_grads_no_decay_no_change(self):
        w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = AdamW({"w": w}, lr=0.1)
        w.grad = np.zeros(2)
        before = w.data.copy()
        opt.step()
        np.testing.assert_array_equal(w.data, before)

    def test_quadratic_converges(self):
        # scalar oracle: minimize f(w) = w^2 from w = 1
        w = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW({"w": w}, lr=0.1)
        for _ in range(200):
            w.grad = 2.0 * w.data
            opt.step()
        assert abs(float(w.data[0])) < 0.01

    def test_decoupled_decay_closed_form(self):
        w = Tensor(np.array([2.0, -3.0]), requires_grad=True)
        opt = AdamW({"w": w}, lr=0.1, weight_decay=0.01)
        expected = w.data.copy()
        for _ in range(5):
            w.grad = np.zeros(2)
            opt.step()
            expected *= 1.0 - 0.1 * 0.01
        np.testing.assert_allclose(w.data, expected, rtol=1e-12)

    @pytest.mark.parametrize("hyper, message", [
        (dict(betas=(1.0, 0.999)), r"betas must lie in \[0, 1\), got \[1.0, 0.999\]"),
        (dict(betas=(0.9, 1.5)), r"betas must lie in \[0, 1\), got \[0.9, 1.5\]"),
        (dict(betas=(-0.1, 0.999)), r"betas must lie in \[0, 1\)"),
        (dict(lr=-1e-3), "lr must be at least 0, got -0.001"),
        (dict(eps=0.0), "eps must be greater than 0, got 0.0"),
        (dict(eps=float("nan")), "eps must be greater than 0, got nan"),
    ])
    def test_out_of_range_hyperparameters_fail_at_construction(self, hyper, message):
        # a beta of 1 used to pass here and divide by zero at the first step
        with pytest.raises(TrainingError, match=f"^AdamW {message}"):
            AdamW({"w": Tensor(np.array([1.0]), requires_grad=True)}, **hyper)

    def test_load_state_refuses_out_of_range_hyperparameters(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW({"w": w})
        state = opt.state()
        state["hyper"] = dict(state["hyper"], betas=[0.9, 1.0])
        with pytest.raises(TrainingError, match=r"^AdamW state: betas must lie in \[0, 1\)"):
            opt.load_state(state)
        assert opt.beta2 == 0.999

    def test_nonfinite_gradient_names_parameter(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW({"layers.0.q": w})
        w.grad = np.array([np.nan])
        with pytest.raises(NumericalError, match="layers.0.q"):
            opt.step()

    def test_nonfinite_gradient_changes_nothing_and_names_the_update(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW({"a": a, "b": b}, lr=0.1)
        a.grad, b.grad = np.array([0.5]), np.array([np.nan])
        before = opt.state()
        with pytest.raises(NumericalError, match=r"^non-finite gradient in parameter 'b' in update 1$"):
            opt.step()
        assert a.data[0] == 1.0 and b.data[0] == 1.0
        after = opt.state()
        assert after["step"] == before["step"] == 0
        for moment in ("m", "v"):
            for name in ("a", "b"):
                np.testing.assert_array_equal(after[moment][name], before[moment][name])

    def test_deterministic(self):
        def run():
            w = Tensor(np.array([0.5, 1.5]), requires_grad=True)
            opt = AdamW({"w": w}, lr=0.05, weight_decay=0.1)
            for i in range(20):
                w.grad = np.sin(w.data + i)
                opt.step()
            return w.data.copy()

        np.testing.assert_array_equal(run(), run())

    def test_holds_only_its_parameters_and_moments_between_steps(self):
        # each update is formed in a buffer of its own, and none outlives the step
        rng = np.random.default_rng(0)
        params = {"big": Tensor(rng.normal(size=(64, 8)), requires_grad=True),
                  "small": Tensor(rng.normal(size=3), requires_grad=True)}
        opt = AdamW(params, lr=0.1, weight_decay=0.01)
        for _ in range(2):
            for p in params.values():
                p.grad = rng.normal(size=p.shape)
            opt.step()
        opt.zero_grad()
        held, todo = [], list(vars(opt).values())
        while todo:
            x = todo.pop()
            if isinstance(x, np.ndarray):
                held.append(x)
            elif isinstance(x, Tensor):
                todo += [x.data, x.grad]
            elif isinstance(x, dict):
                todo += x.values()
            elif isinstance(x, (list, tuple)):
                todo += x
        expected = [p.data for p in params.values()] + [*opt.m.values(), *opt.v.values()]
        assert sorted(map(id, held)) == sorted(map(id, expected))


class TestLrSchedule:
    def test_at_warmup(self):
        assert lr_schedule(10_000, 0.01) == pytest.approx(0.01)

    def test_sqrt_decay(self):
        assert lr_schedule(40_000, 0.01) == pytest.approx(0.005)

    def test_linear_ramp_start(self):
        assert lr_schedule(1, 0.01) == pytest.approx(0.01 / 10_000)

    def test_step_below_one(self):
        with pytest.raises(TrainingError):
            lr_schedule(0, 0.01)

    @pytest.mark.parametrize("warmup", [0, -1])
    def test_warmup_below_one(self, warmup):
        with pytest.raises(TrainingError, match="warmup"):
            lr_schedule(1, 0.01, warmup=warmup)


class TestTokenBatchPack:
    def _pairs(self, lengths):
        return [NoisedPair(list(range(n // 2)), list(range(n - n // 2))) for n in lengths]

    def test_greedy_split(self):
        batches = list(token_batch_pack(self._pairs([2000, 2000, 2000]), 4096))
        assert [len(b) for b in batches] == [2, 1]

    def test_exact_fit(self):
        batches = list(token_batch_pack(self._pairs([4096]), 4096))
        assert len(batches) == 1

    def test_oversize_example_rejected(self):
        with pytest.raises(TrainingError):
            list(token_batch_pack(self._pairs([5000]), 4096))

    def test_budget_respected_and_order_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            lengths = rng.integers(2, 300, size=rng.integers(1, 30)).tolist()
            pairs = self._pairs(lengths)
            batches = list(token_batch_pack(pairs, 512))
            # brute-force recount of every batch
            for batch in batches:
                assert sum(len(p.input_ids) + len(p.target_ids) for p in batch) <= 512
            flat = [p for b in batches for p in b]
            assert flat == pairs  # multiset and order preserved


def _word_vocab(words, sentinels):
    """A vocabulary of the three specials, `words` ordinary tokens and
    `sentinels` sentinels, built directly."""
    tokens = ["<pad>", "</s>", "<unk>", *(f"w{i}" for i in range(words)), *(f"<x{k}>" for k in range(sentinels))]
    return Vocabulary(tokens, [], sentinels)


class TestPretrainBatches:
    _SETTINGS = dict(seq_len=16, batch_tokens=200, mix=0.5, noise_density=0.15, mean_span=3.0, iid_prob=0.15)
    # the piece a noising refusal names, as pretrain_batches words it
    _REFUSAL = re.compile(r"(span corruption|i\.i\.d\. denoising) of "
                          r"(?:(\d+)-token sequences|the corpus's (\d+)-token last piece): ")

    def test_each_pass_noises_every_piece_of_two_ids_or_more(self):
        # so noise_stream never skips a piece as too short to noise
        rng = np.random.default_rng(0)
        vocab = _word_vocab(20, 100)
        for _ in range(200):
            ids = rng.integers(3, 23, size=int(rng.integers(2, 80))).tolist()
            seq_len = int(rng.integers(2, 24))
            per_pass = math.ceil((len(ids) - 1) / seq_len)
            settings = dict(self._SETTINGS, seq_len=seq_len, batch_tokens=4 * seq_len + 2)
            batches = pretrain_batches(ids, vocab, np.random.default_rng(1), **settings)
            pairs = list(itertools.islice((p for b in batches for p in b), 2 * per_pass))
            pieces = [reconstruct(p, vocab) for p in pairs]
            assert all(2 <= len(p) <= seq_len for p in pieces), (len(ids), seq_len)
            assert {len(p) for p in pieces[:per_pass - 1]} <= {seq_len}
            assert pieces[:per_pass] == pieces[per_pass:]
            # only a last piece of one id is left out
            assert sum(pieces[:per_pass], []) == (ids[:-1] if len(ids) % seq_len == 1 else ids)

    def test_the_stream_draws_from_rng_as_noise_stream_does_and_not_before_its_first_batch(self):
        vocab = _word_vocab(20, 100)
        ids = np.random.default_rng(2).integers(3, 23, size=150).tolist()
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        batches = pretrain_batches(ids, vocab, rng, **self._SETTINGS)
        assert rng.bit_generator.state == twin.bit_generator.state
        pieces = (ids[lo:lo + 16] for _ in itertools.count() for lo in range(0, len(ids) - 1, 16))
        expected = token_batch_pack(noise_stream(pieces, vocab, twin, mix=0.5, noise_density=0.15,
                                                 mean_span=3.0, iid_prob=0.15), 200)
        for got, want in itertools.islice(zip(batches, expected), 12):
            assert [(p.input_ids, p.target_ids, p.objective) for p in got] == \
                [(p.input_ids, p.target_ids, p.objective) for p in want]

    def test_a_last_piece_span_corruption_cannot_noise_is_refused(self):
        # 101-token pieces make 38 spans, which 40 sentinels hold; the 3-token
        # last piece of 205 ids makes 2 spans with 1 clean token between them
        settings = dict(seq_len=101, batch_tokens=400, mix=1.0, noise_density=0.5, mean_span=1.33, iid_prob=0.15)
        vocab = _word_vocab(4, 40)
        with pytest.raises(NoisingError, match="^span corruption of the corpus's 3-token last piece: "
                                               "no room for separating gaps: 1 clean tokens < 2 spans$"):
            pretrain_batches([3] * 205, vocab, np.random.default_rng(0), **settings)
        pretrain_batches([3] * 206, vocab, np.random.default_rng(0), **settings)  # a 4-token last piece

    def test_a_corpus_shorter_than_a_piece_is_judged_by_its_one_piece(self):
        # 20 ids noised at rate 0.3 expect 6 spans, which 8 sentinels hold;
        # a 32-token piece would expect 10
        settings = dict(self._SETTINGS, seq_len=32, mix=0.0, iid_prob=0.3, batch_tokens=60)
        vocab = _word_vocab(4, 8)
        next(pretrain_batches([3] * 20, vocab, np.random.default_rng(0), **settings))
        with pytest.raises(NoisingError, match="^i.i.d. denoising of 32-token sequences: "):
            pretrain_batches([3] * 40, vocab, np.random.default_rng(0), **settings)

    def test_too_few_ids_are_refused(self):
        with pytest.raises(TrainingError, match="1 ids are too few"):
            pretrain_batches([3], _word_vocab(4, 8), np.random.default_rng(0), **self._SETTINGS)

    def test_the_check_agrees_with_the_stream(self):
        # whatever pretrain_batches admits, two full passes of its stream
        # noise and batch without an error; whatever noising refusal it
        # makes, noising the piece it names with the objective it names
        # raises too
        rng = np.random.default_rng(23)
        cases = [(205, dict(seq_len=101, batch_tokens=400, mix=1.0, noise_density=0.5, mean_span=1.33,
                            iid_prob=0.15), 40)]
        for _ in range(400):
            seq_len = int(rng.integers(2, 130))
            cases.append((int(rng.integers(2, 401)), dict(
                seq_len=seq_len, batch_tokens=int(rng.integers(4, 3 * seq_len + 8)),
                mix=float(rng.choice([0.0, 0.5, 1.0])), noise_density=float(rng.choice([0.0, rng.random(), 1.0])),
                mean_span=float(rng.uniform(1, 6)), iid_prob=float(rng.choice([0.0, rng.random()]))),
                int(rng.integers(0, 80))))
        outcomes = []
        for n_ids, settings, sentinels in cases:
            vocab = _word_vocab(10, sentinels)
            ids = rng.integers(3, 13, size=n_ids).tolist()
            seq_len = settings["seq_len"]
            pieces = [ids[lo:lo + seq_len] for lo in range(0, n_ids - 1, seq_len)]
            try:
                batches = pretrain_batches(ids, vocab, np.random.default_rng(n_ids), **settings)
            except NoisingError as e:
                objective, full, last = self._REFUSAL.match(str(e)).groups()
                piece = pieces[0] if full else pieces[-1]
                assert len(piece) == int(full or last) and (len(piece) == seq_len) == bool(full), str(e)
                for seed in range(3):
                    with pytest.raises(NoisingError):
                        mixture_sample(piece, vocab, np.random.default_rng(seed),
                                       mix=float(objective == "span corruption"),
                                       noise_density=settings["noise_density"], mean_span=settings["mean_span"],
                                       iid_prob=settings["iid_prob"])
                outcomes.append("last" if last else objective)
                continue
            except TrainingError as e:
                assert "--batch-tokens budget" in str(e)
                outcomes.append("budget")
                continue
            pairs = 0
            for batch in batches:
                pairs += len(batch)
                if pairs >= 2 * len(pieces):
                    break
            outcomes.append("admitted")
        counts = Counter(outcomes)
        assert set(counts) == {"admitted", "budget", "last", "span corruption", "i.i.d. denoising"}, counts
        assert outcomes[0] == "last"  # the 3-token last piece of 205 ids


class TestCheckpoints:
    def _checkpoint(self, seed=0, optimizer=False):
        cfg = _tiny()
        params = init_params(cfg, np.random.default_rng(seed))
        opt = None
        if optimizer:
            adam = AdamW(params, lr=0.01)
            for p in params.values():
                p.grad = np.ones_like(p.data)
            adam.step()
            opt = adam
        return Checkpoint.from_model(cfg, params, step=42, optimizer=opt,
                                     rng=np.random.default_rng(7))

    def test_round_trip_bitwise_logits(self, tmp_path):
        ck = self._checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ck)
        loaded = load_checkpoint(path)
        enc_in = np.array([[3, 4, 5]])
        dec_in = np.array([[6, 7]])
        a = forward(ck.config, ck.to_params(), enc_in, dec_in).data
        b = forward(loaded.config, loaded.to_params(), enc_in, dec_in).data
        assert (a == b).all()
        assert loaded.step == 42
        assert loaded.rng_state == ck.rng_state

    def test_load_and_to_params_hold_one_copy_of_the_parameters(self, tmp_path):
        import tracemalloc

        cfg = _tiny(vocab=8192)
        params = init_params(cfg, np.random.default_rng(0))
        nbytes = sum(p.data.nbytes for p in params.values())
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, Checkpoint.from_model(cfg, params))
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path).to_params()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert nbytes <= peak < 1.25 * nbytes, (peak, nbytes)
        for name, p in params.items():
            assert loaded[name].data.tobytes() == p.data.tobytes(), name

    def test_optimizer_state_round_trip(self, tmp_path):
        ck = self._checkpoint(optimizer=True)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ck)
        loaded = load_checkpoint(path)
        for key in ck.optimizer["m"]:
            np.testing.assert_array_equal(loaded.optimizer["m"][key], ck.optimizer["m"][key])
            np.testing.assert_array_equal(loaded.optimizer["v"][key], ck.optimizer["v"][key])
        assert loaded.optimizer["step"] == ck.optimizer["step"]
        assert loaded.optimizer["hyper"] == ck.optimizer["hyper"]

    def test_checkpoint_without_optimizer_loads(self, tmp_path):
        ck = self._checkpoint(optimizer=False)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ck)
        assert load_checkpoint(path).optimizer is None

    def test_truncated_file_rejected_with_offset(self, tmp_path):
        ck = self._checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ck)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="byte offset"):
            load_checkpoint(path)

    def test_corrupted_payload_rejected(self, tmp_path):
        ck = self._checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ck)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, self._checkpoint())
        blob = path.read_bytes()
        for version in (1, 9):  # no reader for version 1 is kept
            path.write_bytes(blob[:8] + struct.pack("<I", version) + blob[12:])
            with pytest.raises(CheckpointError, match=rf"unsupported checkpoint version {version} \(expected 2\)"):
                load_checkpoint(path)

    _SMALLEST = _tiny(vocab=1, d_model=1, d_ff=1, n_heads=1, d_kv=1, rel_max_distance=3)

    @staticmethod
    def _small_file(path, dtype=np.float32, optimizer=True):
        """A checkpoint of the smallest config (28 parameters) that keeps every
        header field (config, RNG state, optimizer, array table) in a short
        file: 8.4 KB with both moments. Returns its bytes."""
        cfg = TestCheckpoints._SMALLEST
        arrays = {k: p.data for k, p in init_params(cfg, np.random.default_rng(0), dtype).items()}
        opt = None
        if optimizer:
            opt = {"step": 3, "hyper": {"lr": 0.01, "betas": [0.9, 0.999], "eps": 1e-8, "weight_decay": 0.0},
                   "m": {k: a * 2 for k, a in arrays.items()}, "v": {k: a * a for k, a in arrays.items()}}
        rng_state = np.random.default_rng(7).bit_generator.state
        save_checkpoint(path, Checkpoint(cfg, arrays, step=42, optimizer=opt, rng_state=rng_state))
        return path.read_bytes()

    @pytest.mark.parametrize("optimizer", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_round_trip_keeps_every_array_and_field(self, tmp_path, dtype, optimizer):
        path = tmp_path / "model.ckpt"
        saved = self._small_file(path, dtype, optimizer)
        loaded = load_checkpoint(path)
        save_checkpoint(path, loaded)  # the same bytes: config, step, RNG state, optimizer and every array
        assert path.read_bytes() == saved
        groups = [loaded.params] + ([loaded.optimizer["m"], loaded.optimizer["v"]] if optimizer else [])
        assert [len(g) for g in groups] == [28] * len(groups)
        assert all(a.dtype == dtype for g in groups for a in g.values())
        assert (loaded.optimizer is not None) == optimizer
        # what the header gives back is usable as it is
        assert loaded.make_rng().bit_generator.state == np.random.default_rng(7).bit_generator.state
        if optimizer:
            AdamW(loaded.to_params()).load_state(loaded.optimizer)

    def test_fuzzed_file_raises_checkpoint_error(self, tmp_path):
        # the header CRC and the array CRCs cover every byte
        path = tmp_path / "model.ckpt"
        blob = self._small_file(path)
        for n in range(len(blob)):
            path.write_bytes(blob[:n])
            with pytest.raises(CheckpointError):
                load_checkpoint(path)
        rng = np.random.default_rng(0)
        for _ in range(400):
            flipped = bytearray(blob)
            i = int(rng.integers(len(blob)))
            flipped[i] ^= 1 << int(rng.integers(8))
            path.write_bytes(bytes(flipped))
            with pytest.raises(CheckpointError):
                load_checkpoint(path)

    def test_payload_must_fill_the_rest_of_the_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        blob = self._small_file(path)
        (size,) = struct.unpack("<I", blob[12:16])
        payload = len(blob) - (16 + size + 4)
        assert payload == 3 * 34 * 4  # 34 float32 numbers in the parameters and in each moment
        for data, follow in ((blob[:-1], payload - 1), (blob + b"\0", payload + 1)):
            path.write_bytes(data)
            with pytest.raises(CheckpointError, match=f"the header lists {payload} payload bytes but {follow} follow"):
                load_checkpoint(path)

    # the smallest config's table: 28 parameters in sorted path order, then
    # their m and v moments (arrays 28-55 and 56-83), all '<f4'
    @staticmethod
    def _differs(i, row, need):
        return re.escape(f"arrays[{i}] is {row}, its config needs {need}")

    @staticmethod
    def _defect_bad_dtype(header):
        header["arrays"][0]["dtype"] = ">f4"  # canonical, but big-endian
        return TestCheckpoints._differs(0, ("decoder.final_norm", ">f4", [1]), ("decoder.final_norm", "<f4", [1]))

    @staticmethod
    def _defect_negative_dimension(header):
        header["arrays"][15]["shape"][0] = -2
        return TestCheckpoints._differs(15, ("decoder.rel_bias", "<f4", [-2, 1]), ("decoder.rel_bias", "<f4", [4, 1]))

    @staticmethod
    def _defect_unsorted_names(header):
        for table in (header["arrays"][:2], header["arrays"][28:30], header["arrays"][56:58]):
            table[0]["name"], table[1]["name"] = table[1]["name"], table[0]["name"]
        return TestCheckpoints._differs(0, ("decoder.layers.0.cross.k", "<f4", [1]),
                                        ("decoder.final_norm", "<f4", [1]))

    @staticmethod
    def _defect_moment_names(header):
        header["arrays"][28]["name"] = "c"
        return TestCheckpoints._differs(28, ("c", "<f4", [1]), ("decoder.final_norm", "<f4", [1]))

    @staticmethod
    def _defect_moment_shape(header):
        header["arrays"][71]["shape"] = [1, 4]  # same bytes, another shape
        return TestCheckpoints._differs(71, ("decoder.rel_bias", "<f4", [1, 4]), ("decoder.rel_bias", "<f4", [4, 1]))

    @staticmethod
    def _defect_moment_flat(header):
        header["arrays"][43]["shape"] = [4]
        return TestCheckpoints._differs(43, ("decoder.rel_bias", "<f4", [4]), ("decoder.rel_bias", "<f4", [4, 1]))

    @staticmethod
    def _defect_moment_dtype(header):
        header["arrays"][44]["dtype"], header["arrays"][44]["shape"] = "<f2", [1, 2]  # 4 bytes, like [1, 1] float32
        return TestCheckpoints._differs(44, ("embedding", "<f2", [1, 2]), ("embedding", "<f4", [1, 1]))

    @staticmethod
    def _defect_moment_extra(header):
        header["arrays"].append(dict(header["arrays"][-1]))
        return "the table lists 85 arrays, its config needs 84"

    @staticmethod
    def _defect_moment_missing(header):
        header["arrays"].pop()
        return "the table lists 83 arrays, its config needs 84"

    @staticmethod
    def _defect_optimizer_dropped(header):
        header["optimizer"] = None
        return "the table lists 84 arrays, its config needs 28"

    @staticmethod
    def _defect_mixed_dtype(header):
        header["arrays"][5]["dtype"] = "<f8"
        return TestCheckpoints._differs(5, ("decoder.layers.0.cross_norm", "<f8", [1]),
                                        ("decoder.layers.0.cross_norm", "<f4", [1]))

    @staticmethod
    def _defect_config_more_layers(header):
        header["config"]["enc_layers"] = 2
        return TestCheckpoints._differs(27, ("encoder.rel_bias", "<f4", [4, 1]),
                                        ("encoder.layers.1.attn.k", "<f4", [1, 1]))

    @staticmethod
    def _defect_config_huge(header):
        header["config"]["dec_layers"] = 10**9  # refused before its rows are listed
        return re.escape("the table lists 84 arrays, too few for 1 + 1000000000 layers")

    @staticmethod
    def _defect_payload_larger_than_file(header):
        for row in header["arrays"][16::28]:  # 'embedding' and both its moments
            row["shape"][0] += 1
        return TestCheckpoints._differs(16, ("embedding", "<f4", [2, 1]), ("embedding", "<f4", [1, 1]))

    @staticmethod
    def _defect_dropout(header):
        header["config"]["dropout"] = 1.5
        return r"ModelConfig.dropout must be in \[0, 1\), got 1.5"

    @staticmethod
    def _defect_rel_max_distance(header):
        header["config"]["rel_max_distance"] = 2  # relative_bucket would divide by log(2 / 2)
        return (r"ModelConfig.rel_buckets must be at least 4 and ModelConfig.rel_max_distance more than "
                r"rel_buckets // 2, got 4 and 2")

    @staticmethod
    def _defect_gated_ffn_false(header):
        header["config"]["gated_ffn"] = False
        return "unsupported config gated_ffn: the FFN is gated-GELU only"

    @staticmethod
    def _defect_hyper_missing_key(header):
        del header["optimizer"]["hyper"]["betas"]
        return "invalid optimizer"

    @staticmethod
    def _defect_hyper_extra_key(header):
        header["optimizer"]["hyper"]["momentum"] = 0.9
        return "invalid optimizer"

    @staticmethod
    def _defect_hyper_three_betas(header):
        header["optimizer"]["hyper"]["betas"].append(0.5)
        return "invalid optimizer"

    @staticmethod
    def _defect_hyper_bool(header):
        header["optimizer"]["hyper"]["weight_decay"] = False
        return "invalid optimizer"

    @staticmethod
    def _defect_hyper_not_finite(header):
        header["optimizer"]["hyper"]["eps"] = float("nan")  # json writes NaN, and reads it back
        return "invalid optimizer"

    @staticmethod
    def _defect_hyper_beta_one(header):
        header["optimizer"]["hyper"]["betas"][1] = 1.0  # the bias correction would divide by zero
        return "invalid optimizer"

    @staticmethod
    def _defect_hyper_beta_above_one(header):
        header["optimizer"]["hyper"]["betas"][0] = 1.5
        return "invalid optimizer"

    @staticmethod
    def _defect_hyper_negative_lr(header):
        header["optimizer"]["hyper"]["lr"] = -0.001
        return "invalid optimizer"

    @staticmethod
    def _defect_hyper_huge(header):
        header["optimizer"]["hyper"]["lr"] = 10**400  # no float holds it
        return "OverflowError"

    @staticmethod
    def _defect_rng_not_a_dict(header):
        header["rng_state"] = [1, 2]
        return "TypeError: state must be a dict"

    @staticmethod
    def _defect_rng_other_generator(header):
        header["rng_state"]["bit_generator"] = "MT19937"
        return "ValueError: state must be for a PCG64 RNG"

    @staticmethod
    def _defect_rng_missing_key(header):
        del header["rng_state"]["has_uint32"]
        return "KeyError: 'has_uint32'"

    @staticmethod
    def _defect_rng_negative(header):
        header["rng_state"]["state"]["inc"] = -1
        return "OverflowError"

    def _small_file_with_header(self, path, edit):
        """_small_file with its JSON header passed through edit and a valid
        header CRC; returns what edit returned."""
        blob = self._small_file(path)
        (size,) = struct.unpack("<I", blob[12:16])
        header = json.loads(blob[16 : 16 + size])
        result = edit(header)
        data = json.dumps(header).encode("utf-8")
        path.write_bytes(blob[:12] + struct.pack("<I", len(data)) + data + struct.pack("<I", zlib.crc32(data))
                         + blob[16 + size + 4 :])
        return result

    _DEFECTS = ["bad_dtype", "negative_dimension", "unsorted_names", "moment_names", "moment_shape", "moment_flat",
                "moment_dtype", "moment_extra", "moment_missing", "optimizer_dropped", "mixed_dtype",
                "config_more_layers", "config_huge", "payload_larger_than_file", "dropout", "rel_max_distance",
                "gated_ffn_false", "hyper_missing_key", "hyper_extra_key", "hyper_three_betas", "hyper_bool",
                "hyper_not_finite", "hyper_beta_one", "hyper_beta_above_one", "hyper_negative_lr", "hyper_huge", "rng_not_a_dict", "rng_other_generator", "rng_missing_key",
                "rng_negative"]

    @pytest.mark.parametrize("defect", _DEFECTS)
    def test_crafted_header_rejected(self, tmp_path, defect):
        # each file carries a valid header CRC, so only the header checks stand
        # between the defect and a load
        path = tmp_path / "model.ckpt"
        message = self._small_file_with_header(path, getattr(self, f"_defect_{defect}"))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("defect", _DEFECTS)
    def test_crafted_header_rejected_before_the_payload(self, tmp_path, defect):
        # the same headers followed by no payload: the header's own defect is
        # reported, not the missing payload bytes
        path = tmp_path / "model.ckpt"
        message = self._small_file_with_header(path, getattr(self, f"_defect_{defect}"))
        blob = path.read_bytes()
        (size,) = struct.unpack("<I", blob[12:16])
        path.write_bytes(blob[: 16 + size + 4])
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    def test_header_with_gated_ffn_true_loads(self, tmp_path):
        # every checkpoint written while ModelConfig had a gated_ffn field carries it
        path = tmp_path / "model.ckpt"
        self._small_file_with_header(path, lambda header: header["config"].update(gated_ffn=True))
        assert load_checkpoint(path).config == self._SMALLEST

    def test_deeply_nested_header_rejected(self, tmp_path):
        data = b"[" * 100_000 + b"]" * 100_000
        path = tmp_path / "model.ckpt"
        path.write_bytes(struct.pack("<8sII", b"MNT5CKPT", 2, len(data)) + data + struct.pack("<I", zlib.crc32(data)))
        with pytest.raises(CheckpointError, match="RecursionError"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)


class TestResume:
    def test_resumed_run_matches_uninterrupted_run(self, tmp_path):
        cfg = _tiny(dropout=0.2)
        data_rng = np.random.default_rng(30)
        batches = [[NoisedPair(data_rng.integers(3, 30, size=6).tolist(),
                               data_rng.integers(3, 30, size=4).tolist()) for _ in range(2)]
                   for _ in range(6)]

        def train(params, opt, rng, steps):
            for batch in steps:
                with Tape() as tape:
                    loss = teacher_forced_loss(cfg, params, batch, train=True, rng=rng)
                    backward(loss, tape)
                opt.step()
                opt.zero_grad()

        def fresh():
            params = init_params(cfg, np.random.default_rng(31))
            return params, AdamW(params, lr=1e-2, weight_decay=0.1), np.random.default_rng(32)

        params, opt, rng = fresh()
        train(params, opt, rng, batches)

        first, first_opt, first_rng = fresh()
        train(first, first_opt, first_rng, batches[:3])
        path = tmp_path / "step3.ckpt"
        save_checkpoint(path, Checkpoint.from_model(cfg, first, step=3, optimizer=first_opt, rng=first_rng))
        del first, first_opt, first_rng
        ck = load_checkpoint(path)
        resumed = ck.to_params()
        resumed_opt = AdamW(resumed)
        resumed_opt.load_state(ck.optimizer)
        train(resumed, resumed_opt, ck.make_rng(), batches[3:])

        assert resumed_opt.step_count == opt.step_count == 6
        for name, p in params.items():
            assert resumed[name].data.tobytes() == p.data.tobytes(), name

    def test_load_state_adopts_the_moments_it_is_given(self, tmp_path):
        cfg = _tiny()
        params = init_params(cfg, np.random.default_rng(33))
        save_checkpoint(tmp_path / "ck.bin", Checkpoint.from_model(cfg, params, optimizer=AdamW(params)))
        ck = load_checkpoint(tmp_path / "ck.bin")
        opt = AdamW(ck.to_params())
        opt.load_state(ck.optimizer)
        for moment in ("m", "v"):
            for name, a in getattr(opt, moment).items():
                assert a is ck.optimizer[moment][name], (moment, name)


class TestSnapshots:
    """Checkpoints and `AdamW.state()` hold the live arrays, not copies:
    AdamW replaces each parameter and moment array instead of writing into
    it, so a snapshot keeps its bytes while training goes on."""

    @staticmethod
    def _model(vocab=32):
        cfg = _tiny(vocab=vocab, dropout=0.1)
        params = init_params(cfg, np.random.default_rng(60))
        return cfg, params, AdamW(params, lr=1e-2, weight_decay=0.1)

    def test_a_checkpoint_keeps_its_bytes_through_later_steps(self):
        cfg, params, opt = self._model()
        rng, data = np.random.default_rng(61), np.random.default_rng(62)

        def step(n):
            batch = [NoisedPair(data.integers(3, 30, size=6).tolist(), data.integers(3, 30, size=4).tolist())
                     for _ in range(2)]
            train_step(cfg, params, opt, batch, rng, f"step {n}")

        step(1)
        ck = Checkpoint.from_model(cfg, params, step=1, optimizer=opt, rng=rng)
        groups = {"params": ck.params, "m": ck.optimizer["m"], "v": ck.optimizer["v"]}
        before = {(group, name): a.tobytes() for group, arrays in groups.items() for name, a in arrays.items()}
        for n in (2, 3, 4):
            step(n)
        for (group, name), data_bytes in before.items():
            assert groups[group][name].tobytes() == data_bytes, (group, name)
        assert all(params[name].data.tobytes() != before["params", name] for name in params)  # training went on

    def test_from_model_and_save_copy_no_array(self, tmp_path):
        # a 4 MiB embedding: the header's Python objects, about 0.1 MB here,
        # stay under the bound
        cfg, params, opt = self._model(vocab=65536)
        for p in params.values():
            p.grad = np.ones_like(p.data)
        opt.step()
        nbytes = 3 * sum(p.data.nbytes for p in params.values())  # parameters, m and v
        tracemalloc.start()
        try:
            save_checkpoint(tmp_path / "ck.bin", Checkpoint.from_model(cfg, params, step=1, optimizer=opt,
                                                                       rng=np.random.default_rng(0)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * nbytes, (peak, nbytes)

    def test_no_module_writes_into_a_data_array_in_place(self):
        # by augmented assignment, subscript assignment or out=; gradcheck.py
        # perturbs parameters in place by design
        def writes_data(target):
            if isinstance(target, (ast.Tuple, ast.List)):
                return any(map(writes_data, target.elts))
            while isinstance(target, ast.Subscript):
                target = target.value
            return isinstance(target, ast.Attribute) and target.attr == "data"

        package = os.path.dirname(os.path.abspath(minit5.__file__))
        found = []
        for name in sorted(os.listdir(package)):
            if not name.endswith(".py") or name == "gradcheck.py":
                continue
            with open(os.path.join(package, name), encoding="utf-8") as f:
                tree = ast.parse(f.read(), name)
            for node in ast.walk(tree):
                if isinstance(node, ast.AugAssign):
                    targets = [node.target]
                elif isinstance(node, ast.Assign):
                    targets = [t for t in node.targets if not isinstance(t, (ast.Name, ast.Attribute))]
                elif isinstance(node, ast.Call):
                    targets = [k.value for k in node.keywords if k.arg == "out"]
                else:
                    continue
                found += [f"{name}:{node.lineno}: {ast.unparse(t)}" for t in targets if writes_data(t)]
        assert found == []


class TestDeterminism:
    def test_same_seed_same_loss_trajectory(self):
        def run():
            cfg = _tiny()
            params = init_params(cfg, np.random.default_rng(11), dtype=np.float64)
            opt = AdamW(params, lr=1e-3)
            rng = np.random.default_rng(12)
            losses = []
            for _ in range(5):
                pairs = [
                    NoisedPair(rng.integers(3, 30, size=6).tolist(), rng.integers(3, 30, size=4).tolist())
                    for _ in range(2)
                ]
                with Tape() as tape:
                    loss = teacher_forced_loss(cfg, params, pairs)
                    backward(loss, tape)
                opt.step()
                opt.zero_grad()
                losses.append(loss.item())
            return losses

        assert run() == run()  # bitwise in double precision

    def test_gradient_accumulation_matches_large_batch(self):
        cfg = _tiny()
        rng = np.random.default_rng(13)
        pairs = [
            NoisedPair(rng.integers(3, 30, size=5).tolist(), rng.integers(3, 30, size=5).tolist())
            for _ in range(4)
        ]
        params_a = init_params(cfg, np.random.default_rng(14), dtype=np.float64)
        with Tape() as tape:
            loss = teacher_forced_loss(cfg, params_a, pairs)
            backward(loss, tape)
        full = {k: p.grad.copy() for k, p in params_a.items() if p.grad is not None}

        params_b = init_params(cfg, np.random.default_rng(14), dtype=np.float64)
        for micro in (pairs[:2], pairs[2:]):
            with Tape() as tape:
                # same total positions in each micro-batch: mean of means halves
                loss = teacher_forced_loss(cfg, params_b, micro)
                backward(loss, tape)
        for key, g in full.items():
            accumulated = params_b[key].grad / 2.0
            denom = np.abs(g).max() + 1e-12
            assert np.abs(accumulated - g).max() / denom < 1e-6


class TestSelectBestCheckpoint:
    @staticmethod
    def _vocab():
        from minit5.bpe import train_bpe

        return train_bpe("a b c d e f", vocab_size=3 + 7 + 2, sentinel_count=2)

    def _checkpoints(self, n, vocab):
        cfg = _tiny(vocab=len(vocab))
        return [Checkpoint.from_model(cfg, init_params(cfg, np.random.default_rng(i)), step=i)
                for i in range(n)]

    def test_argmax_and_tie_break(self, monkeypatch):
        from minit5.tasks import TaskExample

        vocab = self._vocab()
        cks = self._checkpoints(3, vocab)
        fake_scores = iter([0.20, 0.35, 0.30])
        monkeypatch.setattr(
            "minit5.evaluation.rouge_l", lambda c, r, _s=fake_scores: next(_s)
        )
        val = [TaskExample("a b", "a b", "summarization")]
        best, scores = select_best_checkpoint(cks, val, vocab, max_output_tokens=2)
        assert best is cks[1]
        assert scores == [0.20, 0.35, 0.30]

    def test_single_checkpoint(self):
        from minit5.tasks import TaskExample

        vocab = self._vocab()
        cks = self._checkpoints(1, vocab)
        val = [TaskExample("a", "a", "summarization")]
        best, _ = select_best_checkpoint(cks, val, vocab, max_output_tokens=2)
        assert best is cks[0]

    def test_tie_prefers_earliest(self, monkeypatch):
        from minit5.tasks import TaskExample

        monkeypatch.setattr("minit5.evaluation.rouge_l", lambda c, r: 0.3)
        vocab = self._vocab()
        cks = self._checkpoints(2, vocab)
        val = [TaskExample("a", "a", "summarization")]
        best, scores = select_best_checkpoint(cks, val, vocab, max_output_tokens=2)
        assert best is cks[0]
        assert scores == [0.3, 0.3]


    def test_stream_keeps_only_the_best(self, monkeypatch):
        from minit5.tasks import TaskExample

        fake_scores = iter([0.2, 0.5, 0.1, 0.5])
        monkeypatch.setattr("minit5.evaluation.rouge_l", lambda c, r: next(fake_scores))
        vocab = self._vocab()
        cfg = _tiny(vocab=len(vocab))
        refs, alive_before_each = [], []

        def stream():
            for i in range(4):
                alive_before_each.append(sum(r() is not None for r in refs))
                ck = Checkpoint.from_model(cfg, init_params(cfg, np.random.default_rng(i)), step=i)
                refs.append(weakref.ref(ck))
                yield ck

        val = [TaskExample("a", "a", "summarization")]
        best, scores = select_best_checkpoint(stream(), val, vocab, max_output_tokens=2)
        assert best.step == 1
        assert scores == [0.2, 0.5, 0.1, 0.5]
        # at most the best so far and the one just scored
        assert alive_before_each == [0, 1, 1, 2]
        assert [r() is not None for r in refs] == [False, True, False, False]

    def test_ranks_by_the_task_rows_metric_not_rouge_l(self, monkeypatch):
        from minit5.tasks import TaskExample

        vocab = train_bpe("Pravilno. Napačno.", vocab_size=33, sentinel_count=2)
        # near-misses score ROUGE-L 2/3 each but are INVALID under accuracy;
        # the second checkpoint has ROUGE-L 1/2 and accuracy 1/2
        outputs = iter(["Pravilno. Pravilno.", "Napačno. Napačno.", "Pravilno.", "Pravilno."])
        monkeypatch.setattr("minit5.evaluation.greedy_decode", lambda *a, **k: encode(next(outputs), vocab))
        cks = self._checkpoints(2, vocab)
        val = [TaskExample("v", "Pravilno.", "boolq"), TaskExample("w", "Napačno.", "boolq")]
        best, scores = select_best_checkpoint(cks, val, vocab, max_output_tokens=4)
        assert best is cks[1]
        assert scores == [0.0, 0.5]

    @pytest.mark.parametrize("tags, error", [
        ((), "empty validation set"),
        (("boolq", "cb"), r"validation set mixes tasks \['boolq', 'cb'\]"),
        (("",), "unknown task ''"),
        (("nope", "nope"), "unknown task 'nope'"),
    ], ids=["empty", "mixed", "untagged", "unknown"])
    def test_bad_validation_set_raises_before_a_checkpoint_is_drawn(self, tags, error):
        from minit5.evaluation import EvalError
        from minit5.tasks import TaskExample

        vocab = self._vocab()
        drawn = []

        def stream():
            drawn.append(True)
            yield from self._checkpoints(1, vocab)

        with pytest.raises((TrainingError, EvalError), match=error):
            select_best_checkpoint(stream(), [TaskExample("a", "a", tag) for tag in tags], vocab)
        assert drawn == []

    def test_no_checkpoints_to_select_from(self):
        from minit5.tasks import TaskExample

        with pytest.raises(TrainingError, match="no checkpoints to select from"):
            select_best_checkpoint([], [TaskExample("a", "a", "summarization")], self._vocab())


class TestOverfitSmoke:
    def test_tiny_model_overfits_copy_task(self):
        # echo task: the model must learn to reproduce its input
        cfg = ModelConfig(vocab_size=32, d_model=32, d_ff=64, n_heads=2, d_kv=16,
                          enc_layers=1, dec_layers=1, rel_buckets=8, rel_max_distance=16,
                          dropout=0.0)
        rng = np.random.default_rng(20)
        params = init_params(cfg, rng)
        examples = []
        for _ in range(64):
            seq = rng.integers(3, 30, size=6).tolist()
            examples.append(NoisedPair(seq, seq + [1]))  # target ends with EOS
        opt = AdamW(params, lr=3e-3)
        batch_size = 16
        final_loss = None
        for step in range(2000):
            batch = [examples[(step * batch_size + i) % 64] for i in range(batch_size)]
            with Tape() as tape:
                loss = teacher_forced_loss(cfg, params, batch)
                backward(loss, tape)
            opt.step()
            opt.zero_grad()
            final_loss = loss.item()
            if final_loss < 0.005:
                break
        assert final_loss < 0.01, f"did not overfit: loss {final_loss}"

        from minit5.evaluation import greedy_decode

        exact = sum(
            greedy_decode(cfg, params, ex.input_ids, max_len=8) == ex.input_ids
            for ex in examples
        )
        assert exact == 64


def _pretrain_losses(seed, steps=200):
    """The per-step losses of `tiny` pretraining at dropout 0.1 on a fixed
    generated corpus: 200 paragraphs over a 300-word lexicon drawn by Zipf's
    law, a 256-entry BPE vocabulary with 32 sentinels, 64-token pieces,
    512-token batches, lr 3e-3 with 20 warmup steps. The seed draws the
    initial parameters, the noise and the dropout masks."""
    corpus_rng = np.random.default_rng(0)
    letters = list("abcdefghijklmnoprstuvzčšž")
    lexicon = ["".join(corpus_rng.choice(letters, size=int(corpus_rng.integers(2, 9)))) for _ in range(300)]
    zipf = 1.0 / np.arange(1, len(lexicon) + 1)
    paragraphs = [" ".join(corpus_rng.choice(lexicon, size=int(corpus_rng.integers(20, 60)), p=zipf / zipf.sum()))
                  for _ in range(200)]
    vocab = train_bpe(paragraphs, vocab_size=256, sentinel_count=32)
    ids = [i for p in paragraphs for i in encode(p, vocab, append_eos=True)]
    rng = np.random.default_rng(seed)
    batches = pretrain_batches(ids, vocab, rng, seq_len=64, batch_tokens=512, mix=0.5, noise_density=0.15,
                               mean_span=3.0, iid_prob=0.15)
    cfg = preset("tiny", vocab_size=len(vocab), dropout=0.1)
    params = init_params(cfg, np.random.default_rng(seed))
    opt = AdamW(params, lr=3e-3)
    return [train_step(cfg, params, opt, batch, rng, f"step {step}", lr=lr_schedule(step, 3e-3, 20))
            for step, batch in enumerate(itertools.islice(batches, steps), start=1)]


class TestLearningGate:
    # The gate against changes that keep every gradient right but make
    # training worse. Seeds 1-3 read a last-20-step mean loss of 3.510,
    # 3.488 and 3.608, against 5.49-5.70 over the first 20 steps; the bound
    # is the worst of them plus a margin of 0.19, a tenth of the fall.
    def test_pretraining_loss_falls_below_the_bound(self):
        losses = _pretrain_losses(seed=1)
        assert np.mean(losses[-20:]) < 3.8, np.mean(losses[-20:])

    def test_pretraining_in_two_parts_falls_below_the_bound(self, monkeypatch):
        # every batch of the same run split in two, under the same bound
        monkeypatch.setattr(training, "SPLIT_WORK", 0)
        losses = _pretrain_losses(seed=1)
        assert np.mean(losses[-20:]) < 3.8, np.mean(losses[-20:])

import math

import numpy as np
import pytest

from minit5.model import ModelConfig, forward, init_params
from minit5.noising import NoisedPair
from minit5.tensor import Tape, Tensor, backward
from minit5.training import (
    AdamW,
    Checkpoint,
    CheckpointError,
    NumericalError,
    TrainingError,
    lr_schedule,
    load_checkpoint,
    save_checkpoint,
    select_best_checkpoint,
    teacher_forced_loss,
    token_batch_pack,
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

    def test_empty_batch_rejected(self):
        cfg = _tiny()
        params = init_params(cfg, np.random.default_rng(2))
        with pytest.raises(TrainingError):
            teacher_forced_loss(cfg, params, [])


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

    def test_nonfinite_gradient_names_parameter(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW({"layers.0.q": w})
        w.grad = np.array([np.nan])
        with pytest.raises(NumericalError, match="layers.0.q"):
            opt.step()

    def test_deterministic(self):
        def run():
            w = Tensor(np.array([0.5, 1.5]), requires_grad=True)
            opt = AdamW({"w": w}, lr=0.05, weight_decay=0.1)
            for i in range(20):
                w.grad = np.sin(w.data + i)
                opt.step()
            return w.data.copy()

        np.testing.assert_array_equal(run(), run())


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
            opt = adam.state()
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

    def test_optimizer_state_round_trip(self, tmp_path):
        ck = self._checkpoint(optimizer=True)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ck)
        loaded = load_checkpoint(path)
        for key in ck.optimizer["m"]:
            np.testing.assert_array_equal(loaded.optimizer["m"][key], ck.optimizer["m"][key])
        assert loaded.optimizer["step"] == ck.optimizer["step"]

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
        ck = self._checkpoint()
        ck.version = 9
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ck)
        with pytest.raises(CheckpointError, match="version 9"):
            load_checkpoint(path)

    def test_fuzzed_file_loads_or_raises_checkpoint_error(self, tmp_path):
        # two small blobs of different dtype and rank keep every record kind
        # (config, RNG state, parameters, optimizer moments) in a short file
        arrays = {"a": np.arange(6, dtype=np.float32).reshape(2, 3), "b": np.array([0.5, -1.0])}
        ck = Checkpoint(_tiny(), arrays, step=42, rng_state=np.random.default_rng(7).bit_generator.state,
                        optimizer={"step": 3, "hyper": {"lr": 0.01}, "m": arrays, "v": arrays})
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ck)
        blob = path.read_bytes()
        for n in range(len(blob)):
            path.write_bytes(blob[:n])
            with pytest.raises(CheckpointError):
                load_checkpoint(path)
        rng = np.random.default_rng(0)
        unexpected = []
        for _ in range(400):
            flipped = bytearray(blob)
            i = int(rng.integers(len(blob)))
            flipped[i] ^= 1 << int(rng.integers(8))
            path.write_bytes(bytes(flipped))
            try:
                load_checkpoint(path)
            except CheckpointError:
                pass
            except Exception as e:  # noqa: BLE001 - any other type is the failure under test
                unexpected.append((i, type(e).__name__))
        assert not unexpected

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)


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
        val = [TaskExample("a b", "a b")]
        best, scores = select_best_checkpoint(cks, val, vocab, max_output_tokens=2)
        assert best is cks[1]
        assert scores == [0.20, 0.35, 0.30]

    def test_single_checkpoint(self):
        from minit5.tasks import TaskExample

        vocab = self._vocab()
        cks = self._checkpoints(1, vocab)
        best, _ = select_best_checkpoint(cks, [TaskExample("a", "a")], vocab, max_output_tokens=2)
        assert best is cks[0]

    def test_tie_prefers_earliest(self, monkeypatch):
        from minit5.tasks import TaskExample

        monkeypatch.setattr("minit5.evaluation.rouge_l", lambda c, r: 0.3)
        vocab = self._vocab()
        cks = self._checkpoints(2, vocab)
        best, scores = select_best_checkpoint(cks, [TaskExample("a", "a")], vocab, max_output_tokens=2)
        assert best is cks[0]
        assert scores == [0.3, 0.3]


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

import json
import math
import struct
import weakref
import zlib

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

    @staticmethod
    def _small_file(path):
        """Two small arrays of different dtype and rank keep every header field
        (config, RNG state, optimizer, array table) and both moments in a
        short file. Returns its bytes."""
        arrays = {"a": np.arange(6, dtype=np.float32).reshape(2, 3), "b": np.array([0.5, -1.0])}
        opt = {"step": 3, "hyper": {"lr": 0.01}, "m": arrays, "v": arrays}
        rng_state = np.random.default_rng(7).bit_generator.state
        save_checkpoint(path, Checkpoint(_tiny(), arrays, step=42, optimizer=opt, rng_state=rng_state))
        return path.read_bytes()

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

    @staticmethod
    def _defect_bad_dtype(header):
        header["arrays"][0]["dtype"] = ">f4"  # canonical, but big-endian
        return "invalid dtype '>f4' in 'a'"

    @staticmethod
    def _defect_negative_dimension(header):
        header["arrays"][0]["shape"][0] = -2
        return "invalid shape \\[-2, 3\\] in 'a'"

    @staticmethod
    def _defect_unsorted_names(header):
        for table in (header["arrays"][:2], header["arrays"][2:4], header["arrays"][4:]):
            table[0]["name"], table[1]["name"] = table[1]["name"], table[0]["name"]
        return "parameter names are not strictly sorted"

    @staticmethod
    def _defect_moment_names(header):
        header["arrays"][2]["name"] = "c"
        return "optimizer moment names differ from the parameter names"

    @staticmethod
    def _defect_payload_larger_than_file(header):
        header["arrays"][-1]["shape"][0] += 1
        return "the header lists 128 payload bytes but 120 follow it"

    @staticmethod
    def _defect_dropout(header):
        header["config"]["dropout"] = 1.5
        return r"ModelConfig.dropout must be in \[0, 1\), got 1.5"

    @staticmethod
    def _defect_gated_ffn_false(header):
        header["config"]["gated_ffn"] = False
        return "unsupported config gated_ffn: the FFN is gated-GELU only"

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

    @pytest.mark.parametrize("defect", ["bad_dtype", "negative_dimension", "unsorted_names", "moment_names",
                                        "payload_larger_than_file", "dropout", "gated_ffn_false"])
    def test_crafted_header_rejected(self, tmp_path, defect):
        # each file carries a valid header CRC, so only the header checks stand
        # between the defect and a load
        path = tmp_path / "model.ckpt"
        message = self._small_file_with_header(path, getattr(self, f"_defect_{defect}"))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    def test_header_with_gated_ffn_true_loads(self, tmp_path):
        # every checkpoint written while ModelConfig had a gated_ffn field carries it
        path = tmp_path / "model.ckpt"
        self._small_file_with_header(path, lambda header: header["config"].update(gated_ffn=True))
        assert load_checkpoint(path).config == _tiny()

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
        from minit5.bpe import encode, train_bpe
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

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from minit5.tensor import (
    _BLOCK_ELEMENTS,
    ShapeError,
    Tape,
    TapeError,
    Tensor,
    add,
    attention,
    backward,
    cross_entropy,
    dropout,
    embedding,
    gated_gelu_ffn,
    gelu,
    matmul,
    mul,
    reshape,
    rms_norm,
    softmax_lastdim,
    _row_blocks,
    sum_all,
    transpose,
)
from test_gradcheck import attention_composition, gated_gelu_ffn_composition


def _matmul_oracle(a, b):
    # independent triple-loop product
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


class TestMatmul:
    def test_identity(self):
        out = matmul(Tensor(np.eye(2)), Tensor([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_hand_case(self):
        # [[1,2],[3,4]] x [[0,1],[1,0]] worked by hand: rows swap columns
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(out.data, [[2.0, 1.0], [4.0, 3.0]])

    def test_selection_row(self):
        out = matmul(Tensor([[1.0, 0.0]]), Tensor([[5.0], [7.0]]))
        np.testing.assert_array_equal(out.data, [[5.0]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m, k, n = rng.integers(1, 6, size=3)
            a = rng.normal(size=(m, k))
            b = rng.normal(size=(k, n))
            np.testing.assert_allclose(
                matmul(Tensor(a), Tensor(b)).data, _matmul_oracle(a, b), rtol=1e-12
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_batch_dim_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 5))))

    def test_gradients_recorded(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
        b = Tensor(np.array([[0.0, 1.0], [1.0, 0.0]]), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(matmul(a, b))
            backward(loss, tape)
        # d sum(AB) / dA = 1 @ B^T, / dB = A^T @ 1
        np.testing.assert_allclose(a.grad, np.ones((2, 2)) @ b.data.T)
        np.testing.assert_allclose(b.grad, a.data.T @ np.ones((2, 2)))


class TestSoftmax:
    def test_symmetry(self):
        out = softmax_lastdim(Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-12)

    def test_closed_form(self):
        # e^{ln 1} = 1, e^{ln 3} = 3, so the slice normalizes to 1/4, 3/4
        out = softmax_lastdim(Tensor([math.log(1.0), math.log(3.0)], dtype=np.float64))
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_overflow_stability(self):
        out = softmax_lastdim(Tensor([1000.0, 0.0]))
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)

    def test_slices_sum_to_one(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(4, 5, 7)) * 30)
        s = softmax_lastdim(x).data
        assert (s >= 0).all()
        np.testing.assert_allclose(s.sum(axis=-1), np.ones((4, 5)), atol=1e-9)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 6))
        a = softmax_lastdim(Tensor(x, dtype=np.float64)).data
        b = softmax_lastdim(Tensor(x + 17.3, dtype=np.float64)).data
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            softmax_lastdim(Tensor(np.ones(0)))


class TestRmsNorm:
    def test_constant_vector(self):
        out = rms_norm(Tensor([2.0, 2.0]), Tensor([1.0, 1.0]))
        np.testing.assert_allclose(out.data, [1.0, 1.0], atol=1e-5)

    def test_zero_vector(self):
        out = rms_norm(Tensor([0.0, 0.0]), Tensor([1.0, 1.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0])

    def test_hand_case(self):
        # mean(x^2) = (9+16)/2 = 12.5; outputs 2*3/sqrt(12.5), 2*4/sqrt(12.5)
        out = rms_norm(Tensor([3.0, 4.0], dtype=np.float64), Tensor([2.0, 2.0], dtype=np.float64))
        np.testing.assert_allclose(out.data, [6.0 / math.sqrt(12.5), 8.0 / math.sqrt(12.5)], rtol=1e-6)

    def test_gain_shape_mismatch(self):
        with pytest.raises(ShapeError):
            rms_norm(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            rms_norm(Tensor(np.ones((2, 0))), Tensor(np.ones(0)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [3, 8, 12, 256, 1024])
    def test_bitwise_equal_to_np_mean_form(self, dtype, width):
        # oracle: the mean of squares through np.mean, as rms_norm computed it before
        rng = np.random.default_rng(width)
        x = (rng.normal(size=(7, width)) * rng.uniform(0.01, 100.0, size=(7, 1))).astype(dtype)
        gain = rng.normal(size=width).astype(dtype)
        eps = 1e-6
        want = x * (1.0 / np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + eps)) * gain
        got = rms_norm(Tensor(x), Tensor(gain)).data
        assert got.dtype == dtype
        assert np.array_equal(got, want)


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((3, 4)), dtype=np.float64)
        loss = cross_entropy(logits, [1, 2, 3])
        assert abs(loss.item() - math.log(4.0)) < 1e-9

    def test_near_certain(self):
        logits = np.zeros((2, 5))
        logits[0, 3] = 20.0
        logits[1, 1] = 20.0
        loss = cross_entropy(Tensor(logits), [3, 1])
        assert loss.item() < 1e-6

    def test_every_row_counts_id_0_too(self):
        logits = np.random.default_rng(5).normal(size=(2, 6))
        logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        loss = cross_entropy(Tensor(logits, dtype=np.float64), [3, 0])
        assert abs(loss.item() + (logp[0, 3] + logp[1, 0]) / 2) < 1e-12

    def test_zero_rows_rejected(self):
        with pytest.raises(ShapeError, match="at least one row"):
            cross_entropy(Tensor(np.zeros((0, 4))), [])

    def test_target_out_of_range(self):
        with pytest.raises(ShapeError):
            cross_entropy(Tensor(np.zeros((1, 4))), [4])

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            logits = rng.normal(size=(4, 8)) * 5
            t = rng.integers(1, 8, size=4)
            assert cross_entropy(Tensor(logits), t).item() >= 0.0


class TestBackward:
    def test_linear(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        with Tape() as tape:
            backward(sum_all(x), tape)
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_quadratic(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            backward(sum_all(mul(x, x)), tape)
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_fanout_accumulates(self):
        x = Tensor([1.0, 5.0], requires_grad=True)
        with Tape() as tape:
            backward(add(sum_all(x), sum_all(x)), tape)
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_two_consumers_sum_partials(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            # d/dx [sum(x*x) + sum(3x)] = 2x + 3
            loss = add(sum_all(mul(x, x)), sum_all(mul(x, 3.0)))
            backward(loss, tape)
        np.testing.assert_allclose(x.grad, [5.0, 7.0])

    def test_non_scalar_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = mul(x, x)
            with pytest.raises(ShapeError):
                backward(y, tape)

    def test_no_tape_records_nothing(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = mul(x, x)
        assert not y.requires_grad

    def test_repeated_backward_accumulates(self):
        x = Tensor([1.0], requires_grad=True)
        for _ in range(2):
            with Tape() as tape:
                backward(sum_all(x), tape)
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_a_replayed_tape_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            loss = sum_all(mul(x, 3.0))
            backward(loss, tape)
            assert tape.nodes == []  # each node is let go as it is replayed
            with pytest.raises(TapeError):
                backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])

    def test_an_output_of_another_tape_is_a_leaf(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape():
            y = mul(x, 2.0)
            with Tape() as inner:
                backward(sum_all(mul(y, y)), inner)
        np.testing.assert_array_equal(y.grad, [4.0, 8.0])
        assert x.grad is None

    def test_only_leaves_get_gradients(self):
        w = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        x = Tensor([[1.0, -1.0]])
        with Tape() as tape:
            h = matmul(x, w)
            y = mul(h, h)
            loss = sum_all(y)
            backward(loss, tape)
        assert h.requires_grad and y.requires_grad
        assert h.grad is None and y.grad is None and loss.grad is None
        assert x.grad is None  # a constant input is no leaf
        np.testing.assert_array_equal(w.grad, [[-4.0, -4.0], [4.0, 4.0]])

    def test_aliased_partials_are_not_overwritten(self):
        # add's rule hands the same array to both operands; the later
        # contribution to u must not be added into the array v still holds
        p = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            v = mul(p, 3.0)
            u = mul(p, 2.0)
            w = mul(u, 5.0)
            loss = sum_all(add(add(u, v), w))  # = sum(15 p)
            backward(loss, tape)
        np.testing.assert_array_equal(p.grad, [15.0, 15.0])

    def test_leaves_sharing_a_gradient_accumulate_apart(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        for _ in range(2):
            with Tape() as tape:
                backward(sum_all(add(a, b)), tape)
        np.testing.assert_array_equal(a.grad, [2.0, 2.0])
        np.testing.assert_array_equal(b.grad, [2.0, 2.0])

    def test_leaf_loss_gets_unit_gradient(self):
        x = Tensor(3.0, requires_grad=True)
        with Tape() as tape:
            backward(x, tape)
        assert tape.replayed and x.grad == 1.0


class TestOnLeaf:
    def test_each_leaf_is_handed_over_once_as_its_last_reader_replays(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        w = Tensor([3.0, 4.0], requires_grad=True)
        handed = []
        with Tape() as tape:
            y = mul(x, 2.0)  # node 0 reads x
            z = mul(y, w)  # node 1 reads w
            loss = sum_all(mul(z, x))  # node 2 reads x again; the loss is sum(2 w x^2)
            backward(loss, tape, on_leaf=lambda leaf, g: handed.append((leaf, len(tape.nodes), g)))
        # w goes once node 1 has replayed, x only after node 0, its first reader
        assert [(leaf, left) for leaf, left, _ in handed] == [(w, 1), (x, 0)]
        np.testing.assert_array_equal(handed[0][2], [2.0, 8.0])
        np.testing.assert_array_equal(handed[1][2], [12.0, 32.0])
        assert x.grad is None and w.grad is None  # on_leaf owns the gradients

    def test_a_loss_that_is_a_leaf_is_handed_over_too(self):
        x = Tensor(3.0, requires_grad=True)
        handed = []
        with Tape() as tape:
            backward(x, tape, on_leaf=lambda leaf, g: handed.append((leaf, g)))
        assert handed == [(x, 1.0)] and x.grad is None


class TestEmbeddingAndShapes:
    def test_lookup_and_scatter(self):
        table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        ids = np.array([[0, 2], [2, 1]])
        with Tape() as tape:
            out = embedding(table, ids)
            backward(sum_all(out), tape)
        np.testing.assert_array_equal(out.data[0, 1], table.data[2])
        expected = np.zeros((4, 3))
        expected[0] = 1
        expected[1] = 1
        expected[2] = 2  # looked up twice
        np.testing.assert_array_equal(table.grad, expected)

    def test_id_out_of_range(self):
        with pytest.raises(ShapeError):
            embedding(Tensor(np.ones((4, 3))), np.array([4]))

    def test_reshape_transpose_roundtrip_grad(self):
        x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
        with Tape() as tape:
            y = transpose(reshape(x, (6, 4)), (1, 0))
            backward(sum_all(y), tape)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3, 4)))

    def test_gelu_values(self):
        assert gelu(Tensor([0.0])).data[0] == 0.0
        np.testing.assert_allclose(gelu(Tensor([100.0])).data[0], 100.0)

    def test_gelu_within_bound_of_erf_form(self):
        # the tanh form against the exact x * Phi(x), whose Phi is built on math.erf
        x = np.linspace(-10.0, 10.0, 40001)
        exact = np.array([v * 0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x])
        assert np.abs(gelu(Tensor(x, dtype=np.float64)).data - exact).max() <= 5e-4

    def test_broadcast_add_unbroadcasts_grad(self):
        bias = Tensor(np.zeros(3), requires_grad=True)
        x = Tensor(np.ones((4, 3)))
        with Tape() as tape:
            backward(sum_all(add(x, bias)), tape)
        np.testing.assert_array_equal(bias.grad, [4.0, 4.0, 4.0])

    def test_finite_outputs_on_finite_inputs(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(3, 4)) * 50)
        for out in (softmax_lastdim(x), gelu(x), rms_norm(x, Tensor(np.ones(4)))):
            assert np.isfinite(out.data).all()


class TestAttentionMasking:
    """tensor.attention decides which keys a query sees from the key grid
    and the causal flag alone."""

    H, D = 2, 3

    def _tensor(self, rng, *shape):
        return Tensor(rng.normal(size=shape), dtype=np.float64)

    def test_keys_that_are_not_rows_are_hidden(self):
        # a pad inside row 0's keys and two at the end of row 1's, a pad
        # inside row 1's queries: no mask is passed
        rng = np.random.default_rng(31)
        real_q = np.array([[True, True, True], [True, False, True]])
        real_k = np.array([[True, True, False, True, True, True], [True, True, True, True, False, False]])
        inner = self.H * self.D
        q = self._tensor(rng, int(real_q.sum()), inner)
        k, v = self._tensor(rng, int(real_k.sum()), inner), self._tensor(rng, int(real_k.sum()), inner)
        bias = self._tensor(rng, 1, self.H, 3, 6)
        grids = ((np.flatnonzero(real_q), real_q.shape), (np.flatnonzero(real_k), real_k.shape))
        out = attention(q, k, v, self.H, 0.5, grids, bias=bias).data
        q_start = k_start = 0
        for rq, rk in zip(real_q, real_k):
            nq, nk = int(rq.sum()), int(rk.sum())
            one = attention(Tensor(q.data[q_start:q_start + nq]), Tensor(k.data[k_start:k_start + nk]),
                            Tensor(v.data[k_start:k_start + nk]), self.H, 0.5,
                            ((np.flatnonzero(rq), (1, 3)), (None, (1, nk))), bias=Tensor(bias.data[..., rk]))
            np.testing.assert_allclose(out[q_start:q_start + nq], one.data, rtol=1e-12, atol=1e-12)
            q_start, k_start = q_start + nq, k_start + nk

    def test_causal_queries_are_the_last_keys(self):
        # query i of 2 sits at key position 5 - 2 + i and sees the keys up to it
        rng = np.random.default_rng(32)
        inner = self.H * self.D
        q, k, v = self._tensor(rng, 2, inner), self._tensor(rng, 5, inner), self._tensor(rng, 5, inner)
        bias = self._tensor(rng, 1, self.H, 2, 5)
        out = attention(q, k, v, self.H, 0.5, ((None, (1, 2)), (None, (1, 5))), bias=bias, causal=True).data
        for i in range(2):
            seen = 3 + i + 1
            one = attention(Tensor(q.data[i:i + 1]), Tensor(k.data[:seen]), Tensor(v.data[:seen]), self.H, 0.5,
                            ((None, (1, 1)), (None, (1, seen))), bias=Tensor(bias.data[:, :, i:i + 1, :seen]))
            np.testing.assert_allclose(out[i:i + 1], one.data, rtol=1e-12, atol=1e-12)

    def test_causal_needs_no_more_queries_than_keys(self):
        rng = np.random.default_rng(33)
        q, kv = self._tensor(rng, 3, self.H * self.D), self._tensor(rng, 2, self.H * self.D)
        with pytest.raises(ShapeError):
            attention(q, kv, kv, self.H, 0.5, ((None, (1, 3)), (None, (1, 2))), causal=True)

    def test_refuses_grids_and_biases_it_cannot_block(self):
        rng = np.random.default_rng(34)
        inner = self.H * self.D
        q, kv = self._tensor(rng, 4, inner), self._tensor(rng, 3, inner)
        grid = (None, (2, 2))
        with pytest.raises(ShapeError, match="batch of 2 queries over a batch of 1"):
            attention(q, kv, kv, self.H, 0.5, (grid, (None, (1, 3))))
        with pytest.raises(ShapeError, match="not shared by the batch rows"):
            attention(q, q, q, self.H, 0.5, (grid, grid), bias=self._tensor(rng, 2, self.H, 2, 2))
        with pytest.raises(ShapeError, match="index must increase"):
            attention(q, kv, kv, self.H, 0.5, (grid, (np.array([0, 3, 2]), (2, 2))))


class TestAttentionPins:
    """sha256 of attention's output and of its q, k, v and bias gradients at
    float32: a change to any bit of the blocked forward or backward shows."""

    def _digests(self, seed, b, n_q, n_k, heads, d, padded, causal, p, as_grid):
        rng = np.random.default_rng(seed)
        inner = heads * d

        def grid(n):
            if not padded:
                return None, (b, n)
            real = np.arange(n)[None, :] < rng.integers(1, n + 1, size=b)[:, None]
            return np.flatnonzero(real), (b, n)

        q_grid = grid(n_q)
        kv_grid = q_grid if padded and n_q == n_k else grid(n_k)

        def rows(g):
            index, (bb, n) = g
            shape = (bb, n, inner) if as_grid else (bb * n if index is None else len(index), inner)
            return Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)

        q, k, v = rows(q_grid), rows(kv_grid), rows(kv_grid)
        bias = Tensor(rng.normal(size=(1, heads, n_q, n_k)).astype(np.float32), requires_grad=True)
        probe = rng.normal(size=q.shape).astype(np.float32)
        with Tape() as tape:
            out = attention(q, k, v, heads, d**-0.5, (q_grid, kv_grid), bias=bias, causal=causal, p=p,
                            rng=np.random.default_rng(seed + 1))
            backward(sum_all(mul(out, probe)), tape)
        assert out.shape == q.shape
        return len(_row_blocks(b, heads * n_q * n_k)), [
            hashlib.sha256(a.tobytes()).hexdigest() for a in (out.data, q.grad, k.grad, v.grad, bias.grad)]

    def test_padded_causal_blocks_with_dropout(self):
        blocks, digests = self._digests(61, 10, 64, 64, 4, 8, padded=True, causal=True, p=0.1, as_grid=False)
        assert blocks == 3
        assert digests == [
            "5be63549eb978ca444bdd1c80a620980b6974448b55d1e45aa829a7122eaf084",
            "a7ee2bea0d579803e4351bb0ce0ac5e3169e6d3c8e24837e09077950f80e349b",
            "a4af6a57de04aee7987d3b70113a33c96514ddbc9b3547d93abfa6aa72e2ee8c",
            "b07635e8fc5b1c7b993105983f00feadb1e989c54c64368afab64894e5d5f504",
            "44fd6bf556a2bd782efc2f63d14ea668b65e39e59202ec8e6fb4201f27ba14f7",
        ]

    def test_one_batch_row_on_the_grid(self):
        # q, k and v as [batch, len, heads * d]; 5 causal queries over 9 keys
        blocks, digests = self._digests(62, 1, 5, 9, 2, 4, padded=False, causal=True, p=0.0, as_grid=True)
        assert blocks == 1
        assert digests == [
            "770947bc6e145f5fe200f1b6bd1f0f8dc4fd75f3c40ea734642e2f2c49604a4e",
            "305b172f5c38a9b6c01447e8a2fb14315c9658cc89a135e3f79000b011f74740",
            "bebcc82950caa12d6db0f16045d60d8fb599432e420569385d4a9f698c286381",
            "76bd45a79d57c9f664e46b388b665669548a6dad2135a178456046f3b3537a05",
            "0518dd35ba7f7a2699e6be3070d7dec66024b7f590ae9a47f4d28bb6c671746b",
        ]


def held_after_forward(run):
    """(bytes that stay allocated after run() under a Tape, its output): the
    output plus whatever the recorded backward rules keep alive."""
    tracemalloc.start()
    try:
        with Tape() as tape:
            before = tracemalloc.get_traced_memory()[0]
            out = run()
            held = tracemalloc.get_traced_memory()[0] - before
        assert tape.nodes
    finally:
        tracemalloc.stop()
    return held, out


class TestTapeMemory:
    """What a fused op keeps for its backward rule, measured: its output and
    the named arrays, plus at most SLACK bytes of Python objects."""

    SLACK = 32 << 10

    @staticmethod
    def _ffn_case(rng):
        """A [512, 32] input to a d_ff 1024 feed-forward: one [rows, d_ff]
        float32 array is 2 MiB, 64 rows make a block."""
        rows, d, d_ff = 512, 32, 1024

        def param(*shape):
            return Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)

        return param(rows, d), param(d, d_ff), param(d, d_ff), param(d_ff, d)

    def test_gated_ffn_keeps_only_its_mask(self):
        rng = np.random.default_rng(41)
        x, wi_0, wi_1, wo = self._ffn_case(rng)
        held, out = held_after_forward(lambda: gated_gelu_ffn(x, wi_0, wi_1, wo, p=0.1, rng=rng))
        rows, d_ff = x.shape[0], wo.shape[0]
        kept = out.data.nbytes + rows * math.ceil(d_ff / 8)  # one bit per hidden unit
        assert kept <= held <= kept + self.SLACK, held

    def test_gated_ffn_backward_peaks_within_three_hidden_buffers(self):
        # the gradient at the hidden activations and the two rebuilt input
        # projections, which become the gradient at x.wi_1 and the hidden
        # activations; a rebuild into fresh arrays would need five
        rng = np.random.default_rng(46)
        x, wi_0, wi_1, wo = self._ffn_case(rng)
        tracemalloc.start()
        try:
            with Tape() as tape:
                out = gated_gelu_ffn(x, wi_0, wi_1, wo, p=0.1, rng=rng)
            g = np.ones_like(out.data)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            grads = tape.nodes[-1].vjp(g)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        outputs = sum(a.nbytes for a in grads)
        hidden = 3 * x.shape[0] * wo.shape[0] * 4
        block = 4 * _BLOCK_ELEMENTS * 4  # one block's temporaries: at most four float32 row blocks
        assert outputs + hidden <= peak <= outputs + hidden + block, (peak, outputs, hidden)

    def test_padded_attention_keeps_no_grid_copy(self):
        # one zero-filled [8 * 32, 256] float32 grid copy of q, k or v is 256 KiB,
        # the [8, 2, 32, 32] softmax weights 64 KiB
        b, n, n_heads, d = 8, 32, 2, 128
        rng = np.random.default_rng(42)
        real = np.arange(n)[None, :] < rng.integers(4, n, size=b)[:, None]
        grid = (np.flatnonzero(real), real.shape)
        q, k, v = (Tensor(rng.normal(size=(int(real.sum()), n_heads * d)).astype(np.float32), requires_grad=True)
                   for _ in range(3))
        held, out = held_after_forward(
            lambda: attention(q, k, v, n_heads, d**-0.5, (grid, grid), causal=True, p=0.1, rng=rng))
        mask = b * n_heads * n * math.ceil(n / 8)
        stats = 2 * b * n_heads * n * 4  # each query row's softmax max and sum, no weights
        kept = out.data.nbytes + mask + stats
        assert kept <= held <= kept + self.SLACK, held

    @staticmethod
    def _attention_case(n, rng):
        """Self-attention inputs over a padded [8, n] grid (4 heads, d 16) with
        a bias that needs its gradient; row i holds n * (16 - i) / 16 tokens."""
        b, n_heads, d = 8, 4, 16
        real = np.arange(n)[None, :] < (n * (16 - np.arange(b)) // 16)[:, None]
        grid = (np.flatnonzero(real), real.shape)

        def param(*shape):
            return Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)

        q, k, v = (param(int(real.sum()), n_heads * d) for _ in range(3))
        return (q, k, v, n_heads, d**-0.5, (grid, grid)), param(1, n_heads, n, n)

    def test_attention_holds_bytes_linear_in_sequence_length(self):
        # no dropout, whose packed mask is the one [batch, heads, n, n] array
        # kept (1/32 of the weights); keeping the weights would make the ratio
        # about 4
        held = []
        for n in (128, 256):
            args, bias = self._attention_case(n, np.random.default_rng(44))
            held.append(held_after_forward(lambda: attention(*args, bias=bias, causal=True))[0])
        assert 1.9 < held[1] / held[0] < 2.1, held

    def test_attention_backward_peaks_within_a_few_blocks(self):
        # 4 heads x 128 x 128 weights are one block per batch row; all eight
        # rows' weights would be 2 MiB, and a backward that kept them would
        # build two more arrays of that size
        rng = np.random.default_rng(45)
        args, bias = self._attention_case(128, rng)
        tracemalloc.start()
        try:
            with Tape() as tape:
                out = attention(*args, bias=bias, causal=True, p=0.1, rng=rng)
            g = np.ones_like(out.data)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            grads = tape.nodes[-1].vjp(g)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        outputs = sum(a.nbytes for a in grads)
        blocks = 4 * _BLOCK_ELEMENTS * 4  # four blocks of float32 weights
        assert outputs <= peak <= outputs + blocks, (peak, outputs)

    def test_residual_branch_holds_only_the_mask(self):
        # dropout's output feeds only the add, which keeps shapes: it is freed
        # when the add returns
        rows, width = 512, 250
        rng = np.random.default_rng(47)
        x, a = (Tensor(rng.normal(size=(rows, width)).astype(np.float32), requires_grad=True) for _ in range(2))
        held, out = held_after_forward(lambda: add(x, dropout(a, 0.1, rng)))
        kept = out.data.nbytes + rows * math.ceil(width / 8)
        assert kept <= held <= kept + self.SLACK, held

    def test_gated_ffn_holds_four_hidden_arrays_less_than_its_composition(self):
        # the composition keeps x.wi_0, its GELU, x.wi_1 and the dropped-out
        # hidden activations for its gradients
        x, wi_0, wi_1, wo = self._ffn_case(np.random.default_rng(48))
        held = [held_after_forward(lambda: op(x, wi_0, wi_1, wo, p=0.1, rng=np.random.default_rng(9)))[0]
                for op in (gated_gelu_ffn, gated_gelu_ffn_composition)]
        hidden = x.shape[0] * wo.shape[0] * x.data.itemsize
        assert held[1] - held[0] >= 4 * hidden, held

    def test_attention_holds_the_softmax_weights_less_than_its_composition(self):
        args, bias = self._attention_case(64, np.random.default_rng(49))
        held = [held_after_forward(lambda: op(*args, bias=bias, causal=True, p=0.1, rng=np.random.default_rng(9)))[0]
                for op in (attention, attention_composition)]
        b, n = args[5][0][1]
        weights = b * args[3] * n * n * args[0].data.itemsize
        assert held[1] - held[0] >= weights, held

    def test_dropout_keeps_its_mask_as_bits(self):
        rows, width = 512, 250
        rng = np.random.default_rng(43)
        x = Tensor(rng.normal(size=(rows, width)).astype(np.float32), requires_grad=True)
        held, out = held_after_forward(lambda: dropout(x, 0.1, rng))
        kept = out.data.nbytes + rows * math.ceil(width / 8)
        assert kept <= held <= kept + self.SLACK, held


class TestRebuildRecipes:
    @staticmethod
    def _case():
        rng = np.random.default_rng(50)

        def param(*shape):
            return Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)

        return param(37, 24), param(24), param(24, 40)

    def test_recipes_form_their_arrays_again_bit_for_bit(self):
        x, gain, w = self._case()
        with Tape():
            h = rms_norm(x, gain)
            q = matmul(h, w)
            back = matmul(q, transpose(w))  # a product of a product of the norm
        for t in (h, q, back):
            again = t.rebuild()
            assert again is not t.data and again.tobytes() == t.data.tobytes()

    def test_the_tape_memoizes_every_recipe(self):
        # every reader of a rebuilt output shares one formed array
        x, gain, w = self._case()
        with Tape():
            h = rms_norm(x, gain)
            q = matmul(h, w)
        assert q.rebuild() is q.rebuild() and h.rebuild() is h.rebuild()

    def test_only_a_recorded_norm_and_its_products_by_a_matrix_carry_one(self):
        x, gain, w = self._case()
        assert rms_norm(x, gain).rebuild is None  # no tape: nothing is recorded
        with Tape():
            h = rms_norm(x, gain)
            assert matmul(x, w).rebuild is None  # a leaf has no recipe to start from
            assert matmul(reshape(h, (1, 37, 24)), reshape(w, (1, 24, 40))).rebuild is None
            assert add(h, h).rebuild is None and mul(h, 2.0).rebuild is None

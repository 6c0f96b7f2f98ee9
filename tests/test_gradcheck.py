import math

import numpy as np
import pytest

from minit5.gradcheck import finite_diff_check
from minit5.tensor import (
    MASKED,
    ShapeError,
    Tape,
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
    sum_all,
    transpose,
)
from minit5.tensor import (
    _BLOCK_ELEMENTS,
    _apply_mask,
    _dropout_mask,
    _gelu_slope,
    _key_mask,
    _later_keys,
    _normal_cdf,
    _record,
    _row_blocks,
    _rows,
    _softmax_grad_inplace,
    _softmax_inplace,
    _swap_last,
    _unbroadcast,
)


def _param(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True, dtype=np.float64)


def test_quadratic_form():
    rng = np.random.default_rng(0)
    w = _param(rng, 4, 4)
    x = Tensor(rng.normal(size=(1, 4)), dtype=np.float64)

    def f():
        y = matmul(matmul(x, w), Tensor(x.data.T, dtype=np.float64))
        return sum_all(y)

    assert finite_diff_check(f, {"w": w}) < 1e-8


def test_constant_function():
    w = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)

    def f():
        return sum_all(Tensor(np.zeros(1), dtype=np.float64))

    assert finite_diff_check(f, {"w": w}) == 0.0


def test_rejects_single_precision():
    w = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    with pytest.raises(ValueError, match="float64"):
        finite_diff_check(lambda: sum_all(w), {"w": w})


@pytest.mark.parametrize(
    "name",
    ["matmul", "softmax", "rms_norm", "cross_entropy", "gelu", "embedding", "add_mul"],
)
def test_primitive_gradients(name):
    # every primitive's backward rule agrees with central differences to 1e-6
    rng = np.random.default_rng(42)
    if name == "matmul":
        a = _param(rng, 3, 4)
        b = _param(rng, 4, 2)
        params = {"a": a, "b": b}
        f = lambda: sum_all(mul(matmul(a, b), matmul(a, b)))
    elif name == "softmax":
        x = _param(rng, 2, 5)
        w = Tensor(rng.normal(size=(2, 5)), dtype=np.float64)
        params = {"x": x}
        f = lambda: sum_all(mul(softmax_lastdim(x), w))
    elif name == "rms_norm":
        x = _param(rng, 3, 6)
        g = _param(rng, 6)
        w = Tensor(rng.normal(size=(3, 6)), dtype=np.float64)
        params = {"x": x, "g": g}
        f = lambda: sum_all(mul(rms_norm(x, g), w))
    elif name == "cross_entropy":
        x = _param(rng, 5, 7)
        t = np.array([1, 3, 0, 6, 2])
        params = {"x": x}
        f = lambda: cross_entropy(x, t)
    elif name == "gelu":
        x = _param(rng, 4, 3)
        params = {"x": x}
        f = lambda: sum_all(mul(gelu(x), gelu(x)))
    elif name == "embedding":
        table = _param(rng, 6, 4)
        ids = np.array([[0, 5, 2], [2, 2, 1]])
        w = Tensor(rng.normal(size=(2, 3, 4)), dtype=np.float64)
        params = {"table": table}
        f = lambda: sum_all(mul(embedding(table, ids), w))
    else:
        a = _param(rng, 3, 3)
        b = _param(rng, 3)
        params = {"a": a, "b": b}
        f = lambda: sum_all(mul(add(a, b), add(a, b)))
    assert finite_diff_check(f, params) < 1e-6


def test_sampled_coordinates():
    rng = np.random.default_rng(1)
    w = _param(rng, 10, 10)

    def f():
        return sum_all(mul(w, w))

    err = finite_diff_check(f, {"w": w}, max_coords_per_param=5, rng=np.random.default_rng(2))
    assert err < 1e-8


# The primitive-op compositions that the fused ops replaced, kept as oracles
# with the fused ops' signatures.
def _grid_composition(rows, grid):
    """Rows laid out on a zero-filled (index, shape) grid by a product with a
    constant one-hot matrix, which copies each row exactly."""
    index, shape = grid
    if index is not None:
        place = np.zeros((math.prod(shape), len(index)), dtype=rows.dtype)
        place[index, np.arange(len(index))] = 1.0
        rows = matmul(Tensor(place), rows)
    return reshape(rows, (*shape, rows.shape[-1]))


def _rows_composition(x, grid):
    """The rows of grid tensor x at the grid's positions, by an embedding lookup."""
    flat = reshape(x, (-1, x.shape[-1]))
    return flat if grid[0] is None else embedding(flat, grid[0])


def _mask_composition(kv_grid, n_q, causal):
    """An additive mask built apart from the fused op's: MASKED on each key
    position that is not a row, plus MASKED on each key after the query's
    position when causal (query i at key position n_k - n_q + i)."""
    index, (b, n_k) = kv_grid
    mask = np.zeros((b, 1, n_q, n_k))
    if index is not None:
        mask += np.where(np.isin(np.arange(b * n_k), index), 0.0, MASKED).reshape(b, 1, 1, n_k)
    if causal:
        mask += np.triu(np.full((n_q, n_k), MASKED), k=n_k - n_q + 1)
    return mask


def attention_composition(q, k, v, n_heads, scale, grids, bias=None, causal=False, p=0.0, rng=None):
    mask = _mask_composition(grids[1], grids[0][1][1], causal)
    q, k, v = _grid_composition(q, grids[0]), _grid_composition(k, grids[1]), _grid_composition(v, grids[1])
    b, n_q, inner = q.shape
    d = inner // n_heads

    def heads(x):
        return transpose(reshape(x, (b, x.shape[1], n_heads, d)), (0, 2, 1, 3))

    scores = mul(matmul(heads(q), transpose(heads(k), (0, 1, 3, 2))), scale)
    if bias is not None:
        scores = add(scores, bias)
    weights = dropout(softmax_lastdim(add(scores, mask)), p, rng)
    ctx = reshape(transpose(matmul(weights, heads(v)), (0, 2, 1, 3)), (b, n_q, inner))
    return _rows_composition(ctx, grids[0])


def gated_gelu_ffn_composition(x, wi_0, wi_1, wo, p=0.0, rng=None):
    return matmul(dropout(mul(gelu(matmul(x, wi_0)), matmul(x, wi_1)), p, rng), wo)


def attention_keeping_grids(q, k, v, n_heads, scale, grids, bias=None, causal=False, p=0.0, rng=None):
    """attention whose backward rule keeps the zero-filled grid copies of q,
    k and v that its forward built, instead of laying the rows out again."""
    inner = q.data.shape[-1]
    q_grid, kv_grid = grids
    n_q = q_grid[1][1]
    d = inner // n_heads

    def heads(a, grid):
        index, (b, n) = grid
        if index is not None:
            full = np.zeros((b * n, inner), dtype=a.dtype)
            full[index] = a
            a = full
        return a.reshape(b, n, n_heads, d).transpose(0, 2, 1, 3)

    def merge(a, grid, like):
        index = grid[0]
        a = a.transpose(0, 2, 1, 3).reshape(like.shape if index is None else (-1, inner))
        return a if index is None else a[index]

    qh, kh, vh = heads(q.data, q_grid), heads(k.data, kv_grid), heads(v.data, kv_grid)
    w = qh @ _swap_last(kh)
    w *= scale
    if bias is not None:
        w += bias.data
    mask = _key_mask(kv_grid, _later_keys(n_q, kv_grid[1][1], causal, w.dtype), w.dtype)
    if mask is not None:
        w += mask
    w = _softmax_inplace(w)[0]
    keep, drop_scale = _dropout_mask(w.shape, p, rng)
    out = Tensor(merge(_apply_mask(w, keep, drop_scale) @ vh, q_grid, q.data))

    def vjp(g):
        gh = heads(g, q_grid)
        gv = (merge(_swap_last(_apply_mask(w, keep, drop_scale)) @ gh, kv_grid, v.data)
              if v.requires_grad else None)
        gw = gh @ _swap_last(vh)
        gw = _softmax_grad_inplace(_apply_mask(gw, keep, drop_scale, out=gw), w)
        gbias = _unbroadcast(gw, bias.data.shape) if bias is not None and bias.requires_grad else None
        gq = merge(gw @ kh, q_grid, q.data) * scale if q.requires_grad else None
        gk = merge(_swap_last(gw) @ qh, kv_grid, k.data) * scale if k.requires_grad else None
        return gq, gk, gv, gbias

    return _record(out, (q, k, v) if bias is None else (q, k, v, bias), vjp)


def gated_gelu_ffn_unblocked(x, wi_0, wi_1, wo, p=0.0, rng=None):
    """gated_gelu_ffn with its elementwise work over all rows at once, and a
    backward rule that keeps the CDF and the hidden activations."""
    h0 = x.data @ wi_0.data
    h1 = x.data @ wi_1.data
    cdf = _normal_cdf(h0)
    h = h0 * cdf
    h *= h1
    keep, scale = _dropout_mask(h.shape, p, rng)
    h = _apply_mask(h, keep, scale, out=h)
    out = Tensor(h @ wo.data)

    def vjp(g):
        gwo = _rows(h).T @ _rows(g) if wo.requires_grad else None
        gh = g @ wo.data.T
        gh = _apply_mask(gh, keep, scale, out=gh)
        gh1 = h0 * cdf
        gh1 *= gh
        gh0 = _gelu_slope(h0, cdf)
        gh0 *= gh
        gh0 *= h1
        del gh
        gx = None
        if x.requires_grad:
            gx = gh0 @ wi_0.data.T
            gx += gh1 @ wi_1.data.T
        xt = _rows(x.data).T
        return (gx, xt @ _rows(gh0) if wi_0.requires_grad else None,
                xt @ _rows(gh1) if wi_1.requires_grad else None, gwo)

    return _record(out, (x, wi_0, wi_1, wo), vjp)


B, TQ, TK, HEADS, D = 2, 3, 5, 2, 3


def _attention_case(rng, dtype, masks):
    """q, k, v rows and a bias (gradient-tracking), the grids, and the causal
    flag, for the hidden keys named in masks ("pad": the last key of row 1
    is not a row; "causal": no key after a query's position)."""
    def param(*shape):
        return Tensor(rng.normal(size=shape), requires_grad=True, dtype=dtype)

    real_k = np.ones((B, TK), dtype=bool)
    real_k[1, -1] = "pad" not in masks
    n_k = int(real_k.sum())
    inputs = {"q": param(B * TQ, HEADS * D), "k": param(n_k, HEADS * D), "v": param(n_k, HEADS * D),
              "bias": param(1, HEADS, TQ, TK)}
    kv_index = None if real_k.all() else np.flatnonzero(real_k)
    return inputs, ((None, (B, TQ)), (kv_index, (B, TK))), "causal" in masks


def _ffn_case(rng, dtype, x_shape=(B, TQ, 4), d_ff=6):
    def param(*shape):
        return Tensor(rng.normal(size=shape) * 0.7, requires_grad=True, dtype=dtype)

    d = x_shape[-1]
    return {"x": param(*x_shape), "wi_0": param(d, d_ff), "wi_1": param(d, d_ff), "wo": param(d_ff, d)}


FF = 1024  # the d256 model's d_ff
ROWS_PER_BLOCK = max(1, _BLOCK_ELEMENTS // FF)


def _run_attention(op, inputs, grids, causal, p, seed):
    i = inputs
    return op(i["q"], i["k"], i["v"], HEADS, D**-0.5, grids, bias=i["bias"], causal=causal, p=p,
              rng=np.random.default_rng(seed))


def _run_ffn(op, inputs, p, seed):
    i = inputs
    return op(i["x"], i["wi_0"], i["wi_1"], i["wo"], p=p, rng=np.random.default_rng(seed))


@pytest.mark.parametrize("masks", [(), ("pad",), ("causal",), ("pad", "causal")])
@pytest.mark.parametrize("p", [0.0, 0.4])
def test_fused_attention_gradients(masks, p):
    rng = np.random.default_rng(21)
    inputs, grids, causal = _attention_case(rng, np.float64, masks)
    w = Tensor(rng.normal(size=(B * TQ, HEADS * D)), dtype=np.float64)
    # the rng is re-seeded inside f, so every evaluation drops the same weights
    f = lambda: sum_all(mul(_run_attention(attention, inputs, grids, causal, p, 5), w))
    assert finite_diff_check(f, inputs) < 1e-6


@pytest.mark.parametrize("p", [0.0, 0.4])
def test_fused_gated_ffn_gradients(p):
    rng = np.random.default_rng(22)
    inputs = _ffn_case(rng, np.float64)
    w = Tensor(rng.normal(size=(B, TQ, 4)), dtype=np.float64)
    f = lambda: sum_all(mul(_run_ffn(gated_gelu_ffn, inputs, p, 6), w))
    assert finite_diff_check(f, inputs) < 1e-6


def test_fused_gated_ffn_gradients_over_row_blocks():
    # three full row blocks and a partial fourth; the weight gradients sum over every block
    rng = np.random.default_rng(27)
    rows = 3 * ROWS_PER_BLOCK + 5
    inputs = _ffn_case(rng, np.float64, (rows, 4), FF)
    w = Tensor(rng.normal(size=(rows, 4)), dtype=np.float64)
    f = lambda: sum_all(mul(_run_ffn(gated_gelu_ffn, inputs, 0.1, 6), w))
    assert finite_diff_check(f, inputs, max_coords_per_param=24) < 1e-6


@pytest.mark.parametrize("rows", [1, ROWS_PER_BLOCK - 1, ROWS_PER_BLOCK, ROWS_PER_BLOCK + 1,
                                  3 * ROWS_PER_BLOCK + 5])
@pytest.mark.parametrize("p", [0.0, 0.1])
def test_row_blocked_ffn_is_bitwise_the_unblocked_one(rows, p):
    inputs = _ffn_case(np.random.default_rng(28), np.float32, (rows, 32), FF)
    out, grads = _forward_and_grads(lambda: _run_ffn(gated_gelu_ffn, inputs, p, 10), inputs)
    ref, ref_grads = _forward_and_grads(lambda: _run_ffn(gated_gelu_ffn_unblocked, inputs, p, 10), inputs)
    assert out.dtype == np.float32 and np.array_equal(out, ref)
    for name in inputs:
        assert np.array_equal(grads[name], ref_grads[name]), name


def test_dropout_gradient():
    rng = np.random.default_rng(23)
    x = _param(rng, 4, 5)
    w = Tensor(rng.normal(size=(4, 5)), dtype=np.float64)
    f = lambda: sum_all(mul(dropout(x, 0.3, np.random.default_rng(7)), w))
    assert finite_diff_check(f, {"x": x}) < 1e-6


@pytest.mark.parametrize("name", ["add", "mul", "matmul"])
@pytest.mark.parametrize("constant", ["left", "right"])
def test_constant_operand_gradients(name, constant):
    # the operand without requires_grad gets no gradient; the other one's is exact
    rng = np.random.default_rng(24)
    shapes = {"add": ((3, 4), (4,)), "mul": ((3, 4), (3, 1)), "matmul": ((2, 3, 4), (4, 2))}[name]
    op = {"add": add, "mul": mul, "matmul": matmul}[name]
    a, b = (Tensor(rng.normal(size=s), requires_grad=True, dtype=np.float64) for s in shapes)
    fixed = a if constant == "left" else b
    fixed.requires_grad = False
    learned = b if constant == "left" else a
    f = lambda: sum_all(mul(op(a, b), op(a, b)))
    assert finite_diff_check(f, {"learned": learned}) < 1e-6
    assert fixed.grad is None
    with Tape() as tape:
        out = op(a, b)
    grads = tape.nodes[0].vjp(np.ones_like(out.data))
    assert (grads[0] is None) == (constant == "left") and (grads[1] is None) == (constant == "right")


def _forward_and_grads(run, inputs):
    for t in inputs.values():
        t.grad = None
    with Tape() as tape:
        out = run()
        loss = sum_all(mul(out, Tensor(np.linspace(-1.0, 1.0, out.data.size).reshape(out.shape),
                                       dtype=out.data.dtype)))
        backward(loss, tape)
    return out.data, {k: t.grad for k, t in inputs.items()}


def _assert_fused_matches_composition(fused_run, composed_run, inputs, dtype):
    out, grads = _forward_and_grads(fused_run, inputs)
    ref, ref_grads = _forward_and_grads(composed_run, inputs)
    if dtype == np.float64:
        tol = dict(rtol=1e-12, atol=1e-12)
    else:
        tol = dict(rtol=2e-5, atol=2e-6)
    np.testing.assert_allclose(out, ref, **tol)
    for name in inputs:
        np.testing.assert_allclose(grads[name], ref_grads[name], err_msg=name, **tol)


@pytest.mark.parametrize("dtype, p", [(np.float64, 0.0), (np.float64, 0.4), (np.float32, 0.0)])
def test_fused_attention_matches_composition(dtype, p):
    inputs, grids, causal = _attention_case(np.random.default_rng(25), dtype, ("pad", "causal"))
    _assert_fused_matches_composition(lambda: _run_attention(attention, inputs, grids, causal, p, 8),
                                      lambda: _run_attention(attention_composition, inputs, grids, causal, p, 8),
                                      inputs, dtype)


@pytest.mark.parametrize("dtype, p", [(np.float64, 0.0), (np.float64, 0.4), (np.float32, 0.0)])
def test_fused_gated_ffn_matches_composition(dtype, p):
    inputs = _ffn_case(np.random.default_rng(26), dtype)
    _assert_fused_matches_composition(lambda: _run_ffn(gated_gelu_ffn, inputs, p, 9),
                                      lambda: _run_ffn(gated_gelu_ffn_composition, inputs, p, 9),
                                      inputs, dtype)


@pytest.mark.parametrize("masks", [("pad",), ("causal",), ("pad", "causal")])
@pytest.mark.parametrize("p", [0.0, 0.4])
def test_attention_is_bitwise_the_one_that_keeps_its_grids(masks, p):
    inputs, grids, causal = _attention_case(np.random.default_rng(33), np.float32, masks)
    out, grads = _forward_and_grads(lambda: _run_attention(attention, inputs, grids, causal, p, 12), inputs)
    ref, ref_grads = _forward_and_grads(
        lambda: _run_attention(attention_keeping_grids, inputs, grids, causal, p, 12), inputs)
    assert out.dtype == np.float32 and np.array_equal(out, ref)
    for name in inputs:
        assert np.array_equal(grads[name], ref_grads[name]), name


# real positions of a [batch, len] grid: a trailing pad in row 0, a pad
# inside row 1 and two trailing ones
REAL_Q = np.array([[True, True, False], [True, True, True]])
REAL_K = np.array([[True, True, True, True, False], [True, False, True, False, False]])


def _rows_attention_case(rng, dtype):
    """Query, key and value rows of REAL_Q and REAL_K, a bias, and the grids."""
    def param(*shape):
        return Tensor(rng.normal(size=shape), requires_grad=True, dtype=dtype)

    nq, nk = int(REAL_Q.sum()), int(REAL_K.sum())
    inputs = {"q": param(nq, HEADS * D), "k": param(nk, HEADS * D), "v": param(nk, HEADS * D),
              "bias": param(1, HEADS, TQ, TK)}
    return inputs, ((np.flatnonzero(REAL_Q), REAL_Q.shape), (np.flatnonzero(REAL_K), REAL_K.shape))


@pytest.mark.parametrize("p", [0.0, 0.4])
def test_attention_on_rows_gradients(p):
    # the layout every attention block of the model uses: rows in, rows out
    rng = np.random.default_rng(28)
    inputs, grids = _rows_attention_case(rng, np.float64)
    w = Tensor(rng.normal(size=(int(REAL_Q.sum()), HEADS * D)), dtype=np.float64)
    f = lambda: sum_all(mul(_run_attention(attention, inputs, grids, False, p, 9), w))
    assert finite_diff_check(f, inputs) < 1e-6


@pytest.mark.parametrize("dtype, p", [(np.float64, 0.0), (np.float64, 0.4), (np.float32, 0.0)])
def test_attention_on_rows_matches_padded_composition(dtype, p):
    inputs, grids = _rows_attention_case(np.random.default_rng(29), dtype)
    _assert_fused_matches_composition(
        lambda: _run_attention(attention, inputs, grids, False, p, 10),
        lambda: _run_attention(attention_composition, inputs, grids, False, p, 10), inputs, dtype)


@pytest.mark.parametrize("p", [0.0, 0.4])
def test_attention_on_rows_is_bitwise_the_one_that_keeps_its_grids(p):
    inputs, grids = _rows_attention_case(np.random.default_rng(34), np.float32)
    out, grads = _forward_and_grads(lambda: _run_attention(attention, inputs, grids, True, p, 13), inputs)
    ref, ref_grads = _forward_and_grads(
        lambda: _run_attention(attention_keeping_grids, inputs, grids, True, p, 13), inputs)
    assert np.array_equal(out, ref)
    for name in inputs:
        assert np.array_equal(grads[name], ref_grads[name]), name


def _multi_block_case(rng, dtype, b, n_q, n_k, n_heads, d, layout="padded"):
    """Rows of [b, n_q] query and [b, n_k] key grids (the same grid when
    n_q == n_k) and a bias that needs its gradient. layout "padded" pads
    every batch row but the first; "rows" and "grid" pad none, so the grids
    have no index (as in `pretrain --mix 1`), and pass k and v as rows
    [b * n_k, inner] or as [b, n_k, inner]."""
    def param(*shape):
        return Tensor(rng.normal(size=shape), requires_grad=True, dtype=dtype)

    def grid(n):
        if layout != "padded":
            return None, (b, n)
        real = np.arange(n)[None, :] < np.r_[n, rng.integers(n // 2, n, size=b - 1)][:, None]
        return np.flatnonzero(real), real.shape

    def n_rows(grid):
        index, (_, n) = grid
        return b * n if index is None else len(index)

    kv_grid = grid(n_k)
    q_grid = kv_grid if n_q == n_k else grid(n_q)
    inner = n_heads * d
    kv_shape = (b, n_k, inner) if layout == "grid" else (n_rows(kv_grid), inner)
    inputs = {"q": param(n_rows(q_grid), inner), "k": param(*kv_shape), "v": param(*kv_shape),
              "bias": param(1, n_heads, n_q, n_k)}
    return inputs, (q_grid, kv_grid)


def _run_multi_block(op, inputs, grids, n_heads, d, causal, p, seed):
    i = inputs
    return op(i["q"], i["k"], i["v"], n_heads, d**-0.5, grids, bias=i["bias"], causal=causal, p=p,
              rng=np.random.default_rng(seed))


@pytest.mark.parametrize("n_q, causal, layout", [
    (128, False, "padded"), (128, True, "padded"), (64, False, "padded"),
    (128, False, "rows"), (128, True, "rows"), (128, True, "grid"), (64, False, "grid"),
], ids=["128-False", "128-True", "64-False", "128-False-rows", "128-True-rows", "128-True-grid", "64-False-grid"])
def test_attention_over_several_blocks_is_bitwise_the_one_that_keeps_its_grids(n_q, causal, layout):
    # 4 heads x 128 keys: one batch row per block of self-attention weights,
    # two per block of 64 queries
    b, n_k, n_heads, d = 6, 128, 4, 16
    assert len(_row_blocks(b, n_heads * n_q * n_k)) == b * n_q // 128
    inputs, grids = _multi_block_case(np.random.default_rng(35), np.float32, b, n_q, n_k, n_heads, d, layout)
    out, grads = _forward_and_grads(
        lambda: _run_multi_block(attention, inputs, grids, n_heads, d, causal, 0.1, 14), inputs)
    ref, ref_grads = _forward_and_grads(
        lambda: _run_multi_block(attention_keeping_grids, inputs, grids, n_heads, d, causal, 0.1, 14), inputs)
    assert np.array_equal(out, ref)
    for name in inputs:
        assert np.array_equal(grads[name], ref_grads[name]), name


@pytest.mark.parametrize("causal, layout", [(False, "padded"), (True, "padded"), (False, "rows"), (True, "grid")],
                         ids=["False", "True", "False-rows", "True-grid"])
def test_attention_gradients_over_several_blocks(causal, layout):
    # 2 heads x 130 x 130 weights exceed half a block: three batch rows, three blocks
    b, n, n_heads, d = 3, 130, 2, 2
    assert len(_row_blocks(b, n_heads * n * n)) == b
    rng = np.random.default_rng(36)
    inputs, grids = _multi_block_case(rng, np.float64, b, n, n, n_heads, d, layout)
    w = Tensor(rng.normal(size=inputs["q"].shape), dtype=np.float64)
    f = lambda: sum_all(mul(_run_multi_block(attention, inputs, grids, n_heads, d, causal, 0.1, 15), w))
    assert finite_diff_check(f, inputs, max_coords_per_param=24) < 1e-6


def test_attention_on_rows_rejects_a_row_count_its_grid_does_not_hold():
    inputs, (q_grid, kv_grid) = _rows_attention_case(np.random.default_rng(30), np.float64)
    with pytest.raises(ShapeError):
        _run_attention(attention, inputs, (q_grid, (np.flatnonzero(REAL_K)[:-1], REAL_K.shape)), False, 0.0, 0)

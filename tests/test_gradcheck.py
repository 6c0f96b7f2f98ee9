import numpy as np
import pytest

from minit5.gradcheck import finite_diff_check
from minit5.model import MASKED
from minit5.tensor import (
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
    relu,
    reshape,
    rms_norm,
    softmax_lastdim,
    sum_all,
    transpose,
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
    ["matmul", "softmax", "rms_norm", "cross_entropy", "gelu", "relu", "embedding", "add_mul"],
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
        f = lambda: cross_entropy(x, t, ignore_id=0)
    elif name == "gelu":
        x = _param(rng, 4, 3)
        params = {"x": x}
        f = lambda: sum_all(mul(gelu(x), gelu(x)))
    elif name == "relu":
        # keep inputs away from the kink at 0
        x = Tensor(rng.normal(size=(4, 3)) + 3.0, requires_grad=True, dtype=np.float64)
        params = {"x": x}
        f = lambda: sum_all(mul(relu(x), relu(x)))
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
def attention_composition(q, k, v, n_heads, scale, bias=None, mask=None, p=0.0, rng=None):
    b, n_q, inner = q.shape
    d = inner // n_heads

    def heads(x):
        return transpose(reshape(x, (b, x.shape[1], n_heads, d)), (0, 2, 1, 3))

    scores = mul(matmul(heads(q), transpose(heads(k), (0, 1, 3, 2))), scale)
    if bias is not None:
        scores = add(scores, bias)
    if mask is not None:
        scores = add(scores, mask)
    weights = dropout(softmax_lastdim(scores), p, rng)
    return reshape(transpose(matmul(weights, heads(v)), (0, 2, 1, 3)), (b, n_q, inner))


def gated_gelu_ffn_composition(x, wi_0, wi_1, wo, p=0.0, rng=None):
    return matmul(dropout(mul(gelu(matmul(x, wi_0)), matmul(x, wi_1)), p, rng), wo)


B, TQ, TK, HEADS, D = 2, 3, 5, 2, 3


def _attention_case(rng, dtype, masks):
    """q, k, v and bias tensors (gradient-tracking) and a constant mask of
    the kinds named in masks ("pad": last key of row 1; "causal": no key
    after a query's position)."""
    def param(*shape):
        return Tensor(rng.normal(size=shape), requires_grad=True, dtype=dtype)

    inputs = {"q": param(B, TQ, HEADS * D), "k": param(B, TK, HEADS * D), "v": param(B, TK, HEADS * D),
              "bias": param(1, HEADS, TQ, TK)}
    mask = np.zeros((B, 1, TQ, TK), dtype=dtype)
    if "pad" in masks:
        mask[1, :, :, -1] = MASKED
    if "causal" in masks:
        mask[:, :, np.arange(TK)[None, :] > np.arange(TQ)[:, None] + TK - TQ] += MASKED
    return inputs, (mask if masks else None)


def _ffn_case(rng, dtype):
    def param(*shape):
        return Tensor(rng.normal(size=shape) * 0.7, requires_grad=True, dtype=dtype)

    return {"x": param(B, TQ, 4), "wi_0": param(4, 6), "wi_1": param(4, 6), "wo": param(6, 4)}


def _run_attention(op, inputs, mask, p, seed):
    i = inputs
    return op(i["q"], i["k"], i["v"], HEADS, D**-0.5, bias=i["bias"], mask=mask, p=p,
              rng=np.random.default_rng(seed))


def _run_ffn(op, inputs, p, seed):
    i = inputs
    return op(i["x"], i["wi_0"], i["wi_1"], i["wo"], p=p, rng=np.random.default_rng(seed))


@pytest.mark.parametrize("masks", [(), ("pad",), ("causal",), ("pad", "causal")])
@pytest.mark.parametrize("p", [0.0, 0.4])
def test_fused_attention_gradients(masks, p):
    rng = np.random.default_rng(21)
    inputs, mask = _attention_case(rng, np.float64, masks)
    w = Tensor(rng.normal(size=(B, TQ, HEADS * D)), dtype=np.float64)
    # the rng is re-seeded inside f, so every evaluation drops the same weights
    f = lambda: sum_all(mul(_run_attention(attention, inputs, mask, p, 5), w))
    assert finite_diff_check(f, inputs) < 1e-6


@pytest.mark.parametrize("p", [0.0, 0.4])
def test_fused_gated_ffn_gradients(p):
    rng = np.random.default_rng(22)
    inputs = _ffn_case(rng, np.float64)
    w = Tensor(rng.normal(size=(B, TQ, 4)), dtype=np.float64)
    f = lambda: sum_all(mul(_run_ffn(gated_gelu_ffn, inputs, p, 6), w))
    assert finite_diff_check(f, inputs) < 1e-6


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
    inputs, mask = _attention_case(np.random.default_rng(25), dtype, ("pad", "causal"))
    _assert_fused_matches_composition(lambda: _run_attention(attention, inputs, mask, p, 8),
                                      lambda: _run_attention(attention_composition, inputs, mask, p, 8),
                                      inputs, dtype)


@pytest.mark.parametrize("dtype, p", [(np.float64, 0.0), (np.float64, 0.4), (np.float32, 0.0)])
def test_fused_gated_ffn_matches_composition(dtype, p):
    inputs = _ffn_case(np.random.default_rng(26), dtype)
    _assert_fused_matches_composition(lambda: _run_ffn(gated_gelu_ffn, inputs, p, 9),
                                      lambda: _run_ffn(gated_gelu_ffn_composition, inputs, p, 9),
                                      inputs, dtype)

"""Numeric core: ops vs independent loop oracles, autograd vs central
differences, `no_grad`, and rng determinism."""
import contextlib
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import grad_check, make_scenes, tiny_cfg, tiny_policy
from geofuse import kernels, policy
from geofuse.config import SCHEME_IDS
from geofuse.errors import NumericError, ShapeError
from geofuse.nn import attention_params, cosine_rows, cross_attention, linear, mean_pool_seq, mse
from geofuse.policy import FusionPolicy
from geofuse.rng import RngStream
from geofuse.tensor import ParamSet, Tensor, concat, embedding, layer_norm, no_grad


# ------------------------------------------------------------------ oracles

def matmul_oracle(x, w):
    """Independent triple-loop contraction over the last/first axes."""
    b, m, k = x.shape
    k2, o = w.shape
    assert k == k2
    out = np.zeros((b, m, o))
    for bi in range(b):
        for mi in range(m):
            for oi in range(o):
                acc = 0.0
                for ki in range(k):
                    acc += x[bi, mi, ki] * w[ki, oi]
                out[bi, mi, oi] = acc
    return out


def attention_oracle(q, kv, wq, wk, wv, wo, heads):
    """Independent attention: a loop over samples and heads, each head a
    column slice of the projections, softmax written out with exp."""
    d = wq.shape[1]
    hd = d // heads
    out = np.zeros((q.shape[0], q.shape[1], d))
    for bi in range(q.shape[0]):
        qp, kp, vp = q[bi] @ wq, kv[bi] @ wk, kv[bi] @ wv
        per_head = []
        for h in range(heads):
            cols = slice(h * hd, (h + 1) * hd)
            scores = qp[:, cols] @ kp[:, cols].T / np.sqrt(hd)
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            per_head.append((e / e.sum(axis=1, keepdims=True)) @ vp[:, cols])
        out[bi] = np.concatenate(per_head, axis=1) @ wo
    return out


# ------------------------------------------------------------------ linear

def test_linear_identity():
    x = Tensor([[1.0, 2.0]])
    out = linear(x, Tensor(np.eye(2)))
    np.testing.assert_array_equal(out.data, [[1.0, 2.0]])


def test_linear_basis_rows_select_weight_rows():
    x = Tensor([[1.0, 0.0], [0.0, 1.0]])
    w = Tensor([[2.0, 3.0], [4.0, 5.0]])
    np.testing.assert_array_equal(linear(x, w).data, [[2.0, 3.0], [4.0, 5.0]])


def test_linear_matches_triple_loop_oracle(rng):
    x = rng.normal((2, 3, 4))
    w = rng.normal((4, 5))
    got = linear(Tensor(x), Tensor(w)).data
    assert np.max(np.abs(got - matmul_oracle(x, w))) < 1e-12


def test_linear_oracle_on_all_small_shapes(rng):
    for b in (1, 3, 8):
        for m in (1, 4):
            for k in (2, 8):
                for o in (1, 5):
                    x = rng.normal((b, m, k))
                    w = rng.normal((k, o))
                    got = linear(Tensor(x), Tensor(w)).data
                    assert np.max(np.abs(got - matmul_oracle(x, w))) < 1e-12


def test_linear_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)


# ------------------------------------------------------------------ sigmoid

def test_sigmoid_zero_is_half():
    assert Tensor(0.0).sigmoid().item() == 0.5


def test_sigmoid_saturates():
    assert abs(Tensor(50.0).sigmoid().item() - 1.0) < 1e-12
    assert abs(Tensor(-50.0).sigmoid().item()) < 1e-12


def test_sigmoid_reference_value():
    ref = 1.0 / (1.0 + np.exp(-1.0))
    assert abs(Tensor(1.0).sigmoid().item() - ref) < 1e-15


def test_sigmoid_strictly_in_unit_interval(rng):
    y = Tensor(rng.normal((64,), 10.0)).sigmoid().data
    assert np.all(y > 0.0) and np.all(y < 1.0)


def test_sigmoid_of_huge_logits_is_exact_and_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = Tensor(np.array([-1000.0, 0.0, 1000.0])).sigmoid().data
    np.testing.assert_array_equal(y, [0.0, 0.5, 1.0])


# ------------------------------------------------------------------ gelu

def gelu_textbook(x):
    """The tanh form as written (Hendrycks & Gimpel, arXiv:1606.08415)."""
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))


@given(st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=64))
@example([-30.0, -3.8117536225917767, 0.0, 30.0])
def test_gelu_matches_the_textbook_formula(xs):
    """`x2 * x` and `x**3` may differ in the last bit.  That ulp reaches
    `1 + tanh(u)`, which cancels for negative x (a relative error of 1.3e-12
    at the example's x = -3.81), so the absolute tolerance covers outputs
    near zero; tanh saturates at |x| = 30."""
    x = np.array(xs)
    np.testing.assert_allclose(Tensor(x).gelu().data, gelu_textbook(x), rtol=1e-15, atol=1e-15)


# ------------------------------------------------------------------ in-place kernels

# The bodies the kernels and GELU had before they wrote their
# intermediates in place; the in-place forms must match them bit for bit.

def softmax_fwd_before(x):
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=1, keepdims=True)


def softmax_bwd_before(y, gy):
    dot = (y * gy).sum(axis=1, keepdims=True)
    return y * (gy - dot)


def layernorm_fwd_before(x, gain, bias, eps):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    return xhat * gain + bias, xhat, inv[:, 0]


def layernorm_bwd_before(gy, xhat, inv, gain):
    gxhat = gy * gain
    m1 = gxhat.mean(axis=1, keepdims=True)
    m2 = (gxhat * xhat).mean(axis=1, keepdims=True)
    gx = inv[:, None] * (gxhat - m1 - xhat * m2)
    ggain = (gy * xhat).sum(axis=0)
    gbias = gy.sum(axis=0)
    return gx, ggain, gbias


def gelu_before(x, g):
    """(y, dy/dx * g) as GELU computed them with fresh temporaries."""
    c = np.sqrt(2.0 / np.pi)
    x2 = x * x
    t = np.tanh(c * (x + 0.044715 * (x2 * x)))
    y = 0.5 * x * (1.0 + t)
    du = c * (1.0 + 3 * 0.044715 * x2)
    dy = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
    return y, g * dy


# rows x reduced width at the default config's training step (batch 16)
# and at a 256-episode `predict`
KERNEL_SHAPES = [(64, 32), (32, 32), (1024, 32), (512, 32), (256, 4), (256, 2),
                 (4096, 4), (4096, 2), (3, 1)]
GELU_SHAPES = [(16, 4, 128), (16, 2, 128), (256, 4, 128), (5,)]
drawn = dict(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-3, 1.0, 4.0, 30.0]))


def _same(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(KERNEL_SHAPES), **drawn)
def test_softmax_kernels_match_their_previous_bodies(shape, seed, scale):
    gen = np.random.default_rng(seed)
    x, gy = scale * gen.normal(size=shape), gen.normal(size=shape)
    y = kernels.softmax_fwd(x)
    _same(y, softmax_fwd_before(x))
    _same(kernels.softmax_bwd(y, gy), softmax_bwd_before(y, gy))


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(KERNEL_SHAPES), **drawn)
def test_layernorm_kernels_match_their_previous_bodies(shape, seed, scale):
    gen = np.random.default_rng(seed)
    x, gy = scale * gen.normal(size=shape) + gen.normal(), gen.normal(size=shape)
    gain, bias = gen.normal(size=shape[1]), gen.normal(size=shape[1])
    out, want = kernels.layernorm_fwd(x, gain, bias, 1e-5), layernorm_fwd_before(x, gain, bias, 1e-5)
    for a, b in zip(out, want):
        _same(a, b)
    _, xhat, inv = want
    for a, b in zip(kernels.layernorm_bwd(gy, xhat, inv, gain),
                    layernorm_bwd_before(gy, xhat, inv, gain)):
        _same(a, b)


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(GELU_SHAPES), **drawn)
def test_gelu_matches_its_previous_body(shape, seed, scale):
    """At scale 30 tanh saturates for most entries."""
    gen = np.random.default_rng(seed)
    x, g = np.clip(scale * gen.normal(size=shape), -30.0, 30.0), gen.normal(size=shape)
    leaf = Tensor(x, requires_grad=True)
    y = leaf.gelu()
    (y * Tensor(g)).sum().backward()
    want_y, want_dx = gelu_before(x, g)
    _same(y.data, want_y)
    _same(leaf.grad, want_dx)


@given(st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=64))
@example([-30.0, -3.8117536225917767, -0.0, 5e-324, 30.0])
def test_gelu_matches_its_previous_body_on_drawn_values(xs):
    x = np.array(xs)
    leaf = Tensor(x, requires_grad=True)
    y = leaf.gelu()
    y.sum().backward()
    want_y, want_dx = gelu_before(x, np.ones_like(x))
    _same(y.data, want_y)
    _same(leaf.grad, want_dx)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_values_raise_from_construction_and_from_an_op(bad):
    with pytest.raises(NumericError):
        Tensor(np.array([[1.0, bad], [0.0, 2.0]]))
    with np.errstate(invalid="ignore"), pytest.raises(NumericError):
        _ = Tensor(np.array([[1.0, 2.0], [0.0, 2.0]])) * bad


def test_a_kernel_output_that_overflows_raises():
    """The row sum overflows, so the mean is inf and xhat is NaN."""
    x = Tensor(np.full((2, 3), 1e308))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
        layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))


# ------------------------------------------------------------------ pooling

def test_mean_pool_single_element_is_identity(rng):
    h = rng.normal((2, 1, 3))
    np.testing.assert_array_equal(mean_pool_seq(Tensor(h)).data, h)


def test_mean_pool_arithmetic_mean():
    h = Tensor(np.array([[[1.0], [3.0]]]))
    np.testing.assert_array_equal(mean_pool_seq(h).data, [[[2.0]]])


def test_mean_pool_matches_loop_oracle(rng):
    h = rng.normal((2, 7, 5))
    want = np.zeros((2, 1, 5))
    for b in range(2):
        for d in range(5):
            acc = 0.0
            for i in range(7):
                acc += h[b, i, d]
            want[b, 0, d] = acc / 7
    assert np.max(np.abs(mean_pool_seq(Tensor(h)).data - want)) < 1e-12


def test_mean_pool_empty_sequence_errors():
    with pytest.raises(ShapeError):
        mean_pool_seq(Tensor(np.zeros((2, 0, 3))))


# ------------------------------------------------------------------ attention

def _attn_weights(rng, d, d_kv=None):
    d_kv = d_kv or d
    return {
        "wq": Tensor(rng.normal((d, d))),
        "wk": Tensor(rng.normal((d_kv, d))),
        "wv": Tensor(rng.normal((d_kv, d))),
        "wo": Tensor(rng.normal((d, d))),
    }


def test_single_key_attention_is_value_projection(rng):
    d = 4
    w = _attn_weights(rng, d)
    q = rng.normal((1, 2, d))
    kv = rng.normal((1, 1, d))
    out = cross_attention(Tensor(q), Tensor(kv), w["wq"], w["wk"], w["wv"], w["wo"], 1)
    want = np.broadcast_to(kv @ w["wv"].data @ w["wo"].data, out.data.shape)
    np.testing.assert_allclose(out.data, want, atol=1e-12)


def test_attention_invariant_to_duplicated_keys(rng):
    d = 4
    w = _attn_weights(rng, d)
    q = rng.normal((1, 2, d))
    kv1 = rng.normal((1, 1, d))
    kv3 = np.repeat(kv1, 3, axis=1)
    a1 = cross_attention(Tensor(q), Tensor(kv1), w["wq"], w["wk"], w["wv"], w["wo"], 2)
    a3 = cross_attention(Tensor(q), Tensor(kv3), w["wq"], w["wk"], w["wv"], w["wo"], 2)
    np.testing.assert_allclose(a1.data, a3.data, atol=1e-12)


def test_attention_matches_hand_evaluation(rng):
    d = 4
    w = _attn_weights(rng, d)
    q = rng.normal((1, 2, d))
    kv = rng.normal((1, 3, d))
    got = cross_attention(Tensor(q), Tensor(kv), w["wq"], w["wk"], w["wv"], w["wo"], 1).data

    # explicit single-head evaluation in plain numpy
    qh = q[0] @ w["wq"].data
    kh = kv[0] @ w["wk"].data
    vh = kv[0] @ w["wv"].data
    scores = qh @ kh.T / np.sqrt(d)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    attn = e / e.sum(axis=1, keepdims=True)
    want = (attn @ vh) @ w["wo"].data
    np.testing.assert_allclose(got[0], want, atol=1e-12)


@pytest.mark.parametrize("b,lq,lk,d,d_kv,heads", [
    (3, 4, 4, 32, 32, 4),    # action-expert self-attention
    (3, 4, 10, 32, 32, 4),   # cross-attention over a longer conditioning
    (3, 3, 3, 32, 48, 4),    # visual_fusion: visual tokens over raw geometry
])
def test_attention_matches_per_head_loop_oracle(rng, b, lq, lk, d, d_kv, heads):
    w = {k: t.data / np.sqrt(t.shape[0]) for k, t in _attn_weights(rng, d, d_kv).items()}
    q = rng.normal((b, lq, d))
    kv = q if lq == lk and d == d_kv else rng.normal((b, lk, d_kv))
    got = cross_attention(Tensor(q), Tensor(kv), *(Tensor(w[k]) for k in ("wq", "wk", "wv", "wo")),
                          heads).data
    want = attention_oracle(q, kv, w["wq"], w["wk"], w["wv"], w["wo"], heads)
    assert np.max(np.abs(got - want)) < 1e-12


def test_softmax_rows_sum_to_one(rng):
    y = kernels.softmax_fwd(rng.normal((6, 9), 3.0))
    np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)


# ------------------------------------------------------------------ layer norm

def _ln(x, d):
    gain = Tensor(np.ones(d))
    bias = Tensor(np.zeros(d))
    return layer_norm(Tensor(x), gain, bias)


def test_layer_norm_constant_row_is_zero():
    out = _ln(np.full((1, 8), 3.7), 8)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_layer_norm_already_normalized_row():
    out = _ln(np.array([[1.0, -1.0]]), 2)
    np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-4)


def test_layer_norm_moments(rng):
    x = rng.normal((3, 8), 2.0)
    gain = Tensor(np.ones(8))
    bias = Tensor(np.zeros(8))
    y = layer_norm(Tensor(x), gain, bias).data
    assert np.max(np.abs(y.mean(axis=1))) < 1e-12
    assert np.max(np.abs(y.var(axis=1) - 1.0)) < 1e-4


def test_layer_norm_affine_shape_error():
    with pytest.raises(ShapeError):
        layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(3)))


# ------------------------------------------------------------------ grad check

def test_grad_check_quadratic_is_nearly_exact(rng):
    store = ParamSet()
    theta = store.new("theta", rng.normal((3, 4)))

    def loss():
        return (theta.value * theta.value).sum()

    assert grad_check(loss, store, rng.derive(0), n_coords=12) < 1e-8


def test_grad_check_frozen_param_gets_no_gradient(rng):
    store = ParamSet()
    theta = store.new("theta", rng.normal((2, 2)))
    frozen = store.new("frozen", rng.normal((2, 2)), trainable=False)

    def loss():
        y = linear(theta.value, frozen)
        return (y * y).sum()

    assert grad_check(loss, store, rng.derive(0), n_coords=4) < 1e-6
    assert frozen.value.grad is None


def test_grad_check_composite_ops(rng):
    """Embedding/concat/linear/attention under one loss."""
    store = ParamSet()
    table = store.new("table", rng.normal((5, 4), 0.5))
    w = store.new("w", rng.normal((4, 4), 0.5))
    attn = attention_params(store, rng.derive(3), "attn", 4)
    idx = np.array([[0, 2, 4]])
    target = rng.normal((1, 6, 4))

    def loss():
        e = embedding(table.value, idx)
        x = concat([e, linear(e, w)], axis=1)
        y = cross_attention(x, e, attn["wq"], attn["wk"], attn["wv"], attn["wo"], 2)
        return mse(y, Tensor(target))

    assert grad_check(loss, store, rng.derive(1), n_coords=30) < 1e-4


@pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)])
def test_grad_check_linear(rng, shape):
    store = ParamSet()
    x = store.new("x", rng.normal(shape))
    w = store.new("w", rng.normal((4, 3)))
    target = rng.normal(shape[:-1] + (3,))

    def loss():
        return mse(linear(x.value, w), Tensor(target))

    assert grad_check(loss, store, rng.derive(3), n_coords=30) < 1e-6


@pytest.mark.parametrize("kv_source", ["q", "frozen"])
def test_grad_check_attention_node(rng, kv_source):
    """kv is q, so the node sums its q, k and v input gradients into one
    tensor; or kv is frozen, and must get no gradient."""
    store = ParamSet()
    q = store.new("q", rng.normal((2, 3, 8)))
    kv = q if kv_source == "q" else store.new("kv", rng.normal((2, 4, 6)), trainable=False)
    attn = attention_params(store, rng.derive(4), "attn", 8, d_kv=kv.value.shape[-1])
    target = rng.normal((2, 3, 8))

    def loss():
        y = cross_attention(q.value, kv.value, attn["wq"], attn["wk"], attn["wv"], attn["wo"], 2)
        return mse(y, Tensor(target))

    assert grad_check(loss, store, rng.derive(5), n_coords=60) < 1e-5
    assert kv.value.requires_grad or kv.value.grad is None


def test_grad_check_gelu(rng):
    store = ParamSet()
    x = store.new("x", rng.normal((4, 6), 2.0))
    target = rng.normal((4, 6))

    def loss():
        return mse(x.value.gelu(), Tensor(target))

    assert grad_check(loss, store, rng.derive(6), n_coords=24) < 1e-5


def test_grad_check_cosine_and_nonlinearities(rng):
    store = ParamSet()
    a = store.new("a", rng.normal((3, 5)))
    b = store.new("b", rng.normal((3, 5)))

    def loss():
        return (1.0 - cosine_rows(a.value.gelu(), b.value.sigmoid())).mean()

    assert grad_check(loss, store, rng.derive(2), n_coords=30) < 1e-4


def test_embedding_accumulates_repeated_rows(rng):
    table = Tensor(rng.normal((4, 2)), requires_grad=True)
    idx = np.array([0, 0, 1])
    out = embedding(table, idx)
    out.sum().backward()
    np.testing.assert_array_equal(table.grad, [[2, 2], [1, 1], [0, 0], [0, 0]])


# ------------------------------------------------------------------ safety rails

def test_nonfinite_input_rejected():
    with pytest.raises(NumericError):
        Tensor([1.0, np.inf])


def test_overflow_in_op_surfaces_as_numeric_error():
    big = Tensor(np.array([1e308]))
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        _ = big * big


def test_backward_requires_scalar():
    with pytest.raises(ShapeError):
        Tensor(np.zeros(3), requires_grad=True).backward()


def test_param_set_rejects_duplicate_ids(rng):
    store = ParamSet()
    store.new("w", rng.normal((2, 2)))
    with pytest.raises(ShapeError):
        store.new("w", rng.normal((2, 2)))


# ------------------------------------------------------------------ no_grad

def test_no_grad_records_no_graph():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with no_grad():
        y = (w * 2.0 + w).gelu().sum()
    assert y._backward is None and y._parents == () and not y.requires_grad
    assert (w * 2.0)._backward is not None  # recording resumes after the block


def test_no_grad_is_restored_after_an_error():
    w = Tensor(np.array([1e308]), requires_grad=True)
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        with no_grad():
            _ = w * w
    assert (w * 1.0)._backward is not None


def test_no_grad_nests():
    w = Tensor(np.ones(2), requires_grad=True)
    with no_grad():
        with no_grad():
            pass
        assert (w * 1.0)._backward is None
    assert (w * 1.0)._backward is not None


def test_no_grad_in_one_thread_leaves_another_threads_graph():
    """Thread A sits inside `no_grad` while thread B computes a loss and its
    gradients; B's params must still get them."""
    pol = tiny_policy("gated_fusion")
    scenes = make_scenes(RngStream(3, 0), 2)
    actions = RngStream(3, 1).normal((2, 2, 4))
    a_inside, b_done = threading.Event(), threading.Event()
    errors = []

    def thread_a():
        with no_grad():
            a_inside.set()
            b_done.wait(timeout=30)

    def thread_b():
        try:
            a_inside.wait(timeout=30)
            total, _ = pol.loss(scenes, actions, RngStream(13, 13))
            total.backward()
        except Exception as exc:  # reported below, from the main thread
            errors.append(exc)
        finally:
            b_done.set()

    threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads) and not errors
    trained = [p.id for p in pol.store if p.value.requires_grad]
    assert trained and all(pol.store[pid].value.grad is not None for pid in trained)


@pytest.mark.parametrize("arch", ["groot", "pi"])
@pytest.mark.parametrize("scheme", SCHEME_IDS)
def test_predict_without_a_graph_matches_predict_with_one(monkeypatch, scheme, arch):
    extra = {"sparse_k": 1} if arch == "pi" else {}
    pol = FusionPolicy(tiny_cfg(scheme=scheme, arch=arch, **extra), RngStream(99, 0))
    scenes = make_scenes(RngStream(3, 0), 4)
    plain = pol.predict(scenes, RngStream(5, 1))

    nodes = []
    make = Tensor._make

    def counting_make(data, parents, backward):
        out = make(data, parents, backward)
        nodes.append(out._backward is not None)
        return out

    monkeypatch.setattr(policy, "no_grad", contextlib.nullcontext)
    monkeypatch.setattr(Tensor, "_make", staticmethod(counting_make))
    with_graph = pol.predict(scenes, RngStream(5, 1))
    assert any(nodes)  # the patched predict did build a graph
    np.testing.assert_array_equal(plain, with_graph)


# ------------------------------------------------------------------ rng

def test_rng_streams_are_reproducible():
    a = RngStream(42, 7).normal((4, 4))
    b = RngStream(42, 7).normal((4, 4))
    np.testing.assert_array_equal(a, b)


def test_rng_derive_is_stable_and_distinct():
    root = RngStream(42, 7)
    c1 = root.derive(3).normal((8,))
    c2 = RngStream(42, 7).derive(3).normal((8,))
    np.testing.assert_array_equal(c1, c2)
    assert not np.array_equal(c1, root.derive(4).normal((8,)))


def test_ops_are_deterministic_given_stream(rng):
    x1 = RngStream(9, 1).normal((3, 6))
    x2 = RngStream(9, 1).normal((3, 6))
    y1 = kernels.softmax_fwd(x1)
    y2 = kernels.softmax_fwd(x2)
    np.testing.assert_array_equal(y1, y2)

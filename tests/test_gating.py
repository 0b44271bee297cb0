"""Gated fusion math against an independent per-position loop oracle, gate
saturation limits, conditioning assembly, and the layer-wise variant."""
import numpy as np
import pytest

from conftest import grad_check, tiny_cfg
from geofuse.errors import ConfigError, ShapeError
from geofuse.gating import (
    GateParams,
    build_conditioning,
    fuse_single,
    gate_and_fuse,
    init_gate_params,
    layerwise_fuse,
    sparse_layer_schedule,
)
from geofuse.nn import init_matrix, linear, mse
from geofuse.rng import RngStream
from geofuse.tensor import ParamSet, Tensor


# ------------------------------------------------------------------ oracle

def fused_oracle(h, f_vggt, w_proj, w_gate, w_s, w_g):
    """Independent per-position loop implementing the gating equations:
    project, pool, per-position sigmoid gate on the [context; geometry]
    pair, blended output, concatenated conditioning."""
    b, l, d = h.shape
    n = f_vggt.shape[1]
    f_geo = np.einsum("bnk,kd->bnd", f_vggt, w_proj)
    s = h.mean(axis=1)  # B x D
    gate = np.zeros((b, n, d))
    fused = np.zeros((b, n, d))
    for bi in range(b):
        for j in range(n):
            pair = np.concatenate([s[bi], f_geo[bi, j]])
            g = 1.0 / (1.0 + np.exp(-(pair @ w_gate)))
            gate[bi, j] = g
            fused[bi, j] = g * (s[bi] @ w_s) + (1.0 - g) * (f_geo[bi, j] @ w_g)
    cond = np.concatenate([h, fused], axis=1)
    return gate, fused, cond


def random_params(rng, d_vggt, d):
    """(w_proj, gate) with every weight drawn at random."""
    store = ParamSet()
    w_proj = store.new("w_proj", rng.normal((d_vggt, d), 0.6))
    return w_proj, GateParams(
        w_gate=store.new("w_gate", rng.normal((2 * d, d), 0.6)),
        w_s=store.new("w_s", rng.normal((d, d), 0.6)),
        w_g=store.new("w_g", rng.normal((d, d), 0.6)),
    )


def default_params(store, rng, d_vggt, d):
    """(w_proj, gate) as the gated scheme initialises them under groot."""
    w_proj = store.new("mix.w_proj", init_matrix(rng, d_vggt, d))
    return w_proj, init_gate_params(store, rng, "mix", d)


# ------------------------------------------------------------------ projection
# the geometry projection is a bias-free `linear` map into the semantic width

def test_project_geo_identity():
    f = Tensor(np.random.default_rng(0).normal(size=(1, 3, 4)))
    out = linear(f, Tensor(np.eye(4)))
    np.testing.assert_array_equal(out.data, f.data)


def test_project_geo_zero_input(rng):
    w = Tensor(rng.normal((6, 4)))
    out = linear(Tensor(np.zeros((2, 3, 6))), w)
    np.testing.assert_array_equal(out.data, 0.0)


def test_project_geo_has_no_bias(rng):
    """Doubling the input exactly doubles the output (pure linearity)."""
    w = Tensor(rng.normal((6, 4)))
    f = rng.normal((2, 3, 6))
    y1 = linear(Tensor(f), w).data
    y2 = linear(Tensor(2 * f), w).data
    np.testing.assert_allclose(y2, 2 * y1, atol=1e-12)


# ------------------------------------------------------------------ gate + fuse

def test_zero_gate_weights_give_half_gate(rng):
    d, n = 5, 3
    w_proj, params = random_params(rng, 6, d)
    params.w_gate.value.data[:] = 0.0
    h = Tensor(rng.normal((2, 4, d)))
    f_geo = linear(Tensor(rng.normal((2, n, 6))), w_proj)
    gate, fused = gate_and_fuse(h, f_geo, params)
    np.testing.assert_array_equal(gate.data, 0.5)
    s = h.data.mean(axis=1, keepdims=True)
    want = 0.5 * (s @ params.w_s.value.data) \
        + 0.5 * (f_geo.data @ params.w_g.value.data)
    np.testing.assert_allclose(fused.data, want, atol=1e-12)


def saturate(w_gate, d, logit):
    """Zero the geometry rows of a 2d x d gate weight and set its context
    rows so that a context whose entries sum to d gives `logit` everywhere."""
    w_gate.value.data[:d] = logit / d
    w_gate.value.data[d:] = 0.0


def test_gate_saturation_extremes(rng):
    d = 5
    w_proj, params = random_params(rng, 6, d)
    x = rng.normal((2, 4, d))
    h = Tensor(x - x.mean(axis=2, keepdims=True) + 1.0)  # rows, and their mean, sum to d
    f_geo = linear(Tensor(rng.normal((2, 3, 6))), w_proj)
    s = h.data.mean(axis=1, keepdims=True)

    saturate(params.w_gate, d, 50.0)
    _, semantic_only = gate_and_fuse(h, f_geo, params)
    want = np.broadcast_to(s @ params.w_s.value.data, semantic_only.data.shape)
    assert np.max(np.abs(semantic_only.data - want)) < 1e-12

    saturate(params.w_gate, d, -50.0)
    _, geo_only = gate_and_fuse(h, f_geo, params)
    want = f_geo.data @ params.w_g.value.data
    assert np.max(np.abs(geo_only.data - want)) < 1e-12


def test_gate_strictly_inside_unit_interval(rng):
    _, params = random_params(rng, 6, 5)
    h = Tensor(rng.normal((2, 4, 5), 2.0))
    f_geo = Tensor(rng.normal((2, 3, 5), 2.0))
    gate, _ = gate_and_fuse(h, f_geo, params)
    assert np.all(gate.data > 0.0) and np.all(gate.data < 1.0)


def test_fusion_matches_loop_oracle_on_random_shapes():
    rng = RngStream(77, 0)
    for case in range(100):
        r = rng.derive(case)
        b = int(r.integers(1, 3))
        l = int(r.integers(1, 5))
        n = int(r.integers(1, 4))
        d = int(r.integers(1, 6))
        dv = int(r.integers(1, 7))
        w_proj, params = random_params(r, dv, d)
        h = r.normal((b, l, d))
        f_vggt = r.normal((b, n, dv))
        cond = fuse_single(Tensor(h), Tensor(f_vggt), w_proj, params)
        _, _, want = fused_oracle(h, f_vggt, w_proj.value.data,
                                  params.w_gate.value.data,
                                  params.w_s.value.data,
                                  params.w_g.value.data)
        assert np.max(np.abs(cond.data - want)) < 1e-12


def test_gate_gradient_liveness(rng):
    """The gate weights receive a nonzero gradient from a fused-output loss."""
    store = ParamSet()
    w_proj, params = default_params(store, rng, 6, 5)
    h = Tensor(rng.normal((2, 4, 5)))
    f_vggt = Tensor(rng.normal((2, 3, 6)))
    target = rng.normal((2, 7, 5))

    def loss():
        return mse(fuse_single(h, f_vggt, w_proj, params), Tensor(target))

    assert grad_check(loss, store, rng.derive(3), n_coords=40) < 1e-4
    assert params.w_gate.value.grad is not None
    assert np.max(np.abs(params.w_gate.value.grad)) > 0


def test_default_init_starts_at_half_gate(rng):
    store = ParamSet()
    w_proj, params = default_params(store, rng, 6, 5)
    h = Tensor(rng.normal((2, 4, 5)))
    f_geo = linear(Tensor(rng.normal((2, 3, 6))), w_proj)
    gate, _ = gate_and_fuse(h, f_geo, params)
    np.testing.assert_array_equal(gate.data, 0.5)


# ------------------------------------------------------------------ conditioning

def test_conditioning_length_arithmetic(rng):
    h = Tensor(rng.normal((2, 4, 5)))
    fused = Tensor(rng.normal((2, 3, 5)))
    cond = build_conditioning(h, fused)
    assert cond.shape == (2, 7, 5)
    np.testing.assert_array_equal(cond.data[:, 4:, :], fused.data)


def test_conditioning_prefix_is_bit_identical(rng):
    h = Tensor(rng.normal((2, 4, 5)))
    fused = Tensor(rng.normal((2, 3, 5)))
    cond = build_conditioning(h, fused)
    np.testing.assert_array_equal(cond.data[:, :4, :], h.data)


def test_conditioning_width_mismatch(rng):
    with pytest.raises(ShapeError):
        build_conditioning(Tensor(rng.normal((2, 4, 5))), Tensor(rng.normal((2, 3, 6))))


def test_geo_count_changes_only_geo_len(rng):
    h = Tensor(rng.normal((2, 4, 5)))
    for n in (1, 2, 3):
        cond = build_conditioning(h, Tensor(rng.normal((2, n, 5))))
        assert cond.shape == (2, 4 + n, 5)
        np.testing.assert_array_equal(cond.data[:, :4, :], h.data)


# ------------------------------------------------------------------ layer-wise

def layerwise_params(rng, d_vggt, d, n_layers, tie=False):
    """(w_proj, one random gate per layer); tie=True makes the gates equal."""
    store = ParamSet()
    w_proj = store.new("w_proj", rng.normal((d_vggt, d), 0.6))
    layers = []
    base = None
    for i in range(n_layers):
        r = rng if not tie else RngStream(500, 1)
        gp = GateParams(
            w_gate=store.new(f"l{i}.w_gate", r.normal((2 * d, d), 0.6)),
            w_s=store.new(f"l{i}.w_s", r.normal((d, d), 0.6)),
            w_g=store.new(f"l{i}.w_g", r.normal((d, d), 0.6)),
        )
        if tie and base is not None:
            gp.w_gate.value.data[:] = base.w_gate.value.data
            gp.w_s.value.data[:] = base.w_s.value.data
            gp.w_g.value.data[:] = base.w_g.value.data
        base = base or gp
        layers.append(gp)
    return w_proj, layers


def test_layerwise_single_layer_equals_groot_path(rng):
    w_proj, gates = layerwise_params(rng.derive(0), 6, 5, 1)
    h = Tensor(rng.normal((2, 4, 5)))
    f_vggt = Tensor(rng.normal((2, 3, 6)))
    a = fuse_single(h, f_vggt, w_proj, gates[0]).data
    b = layerwise_fuse([h], f_vggt, w_proj, gates, [True])[0].data
    np.testing.assert_array_equal(a, b)


def test_layerwise_identical_layers_are_symmetric(rng):
    w_proj, gates = layerwise_params(rng.derive(0), 6, 5, 3, tie=True)
    h = Tensor(rng.normal((2, 4, 5)))
    f_vggt = Tensor(rng.normal((2, 3, 6)))
    outs = layerwise_fuse([h, h, h], f_vggt, w_proj, gates, [True] * 3)
    for o in outs[1:]:
        np.testing.assert_array_equal(outs[0].data, o.data)


def test_layerwise_perturbation_locality(rng):
    w_proj, gates = layerwise_params(rng.derive(0), 6, 5, 3)
    hs = [Tensor(rng.normal((2, 4, 5))) for _ in range(3)]
    f_vggt = Tensor(rng.normal((2, 3, 6)))
    ref = layerwise_fuse(hs, f_vggt, w_proj, gates, [True] * 3)
    bumped = list(hs)
    bumped[1] = Tensor(hs[1].data + 0.25)
    out = layerwise_fuse(bumped, f_vggt, w_proj, gates, [True] * 3)
    np.testing.assert_array_equal(ref[0].data, out[0].data)
    np.testing.assert_array_equal(ref[2].data, out[2].data)
    assert np.max(np.abs(ref[1].data - out[1].data)) > 0


def test_layerwise_length_mismatch():
    """`layerwise_fuse` gets one backbone layer per gate because the config
    refuses more action blocks than backbone layers under pi."""
    with pytest.raises(ConfigError, match="arch=pi"):
        tiny_cfg(arch="pi", n_layers=2, n_dit_layers=3)


def test_layerwise_skipped_layers_get_plain_semantics(rng):
    w_proj, gates = layerwise_params(rng.derive(0), 6, 5, 2)
    hs = [Tensor(rng.normal((2, 4, 5))) for _ in range(2)]
    f_vggt = Tensor(rng.normal((2, 3, 6)))
    outs = layerwise_fuse(hs, f_vggt, w_proj, gates, [True, False])
    assert outs[0].shape[1] == 7
    assert outs[1] is hs[1]


# ------------------------------------------------------------------ schedule

def test_schedule_k0_fuses_everywhere():
    assert sparse_layer_schedule(4, 0) == [True, True, True, True]


def test_schedule_k1_alternates():
    assert sparse_layer_schedule(4, 1) == [True, False, True, False]


def test_schedule_single_layer_always_fuses():
    assert sparse_layer_schedule(1, 5) == [True]


def test_schedule_rejects_bad_args():
    """The schedule's arguments are config fields, bounded there."""
    with pytest.raises(ConfigError, match="sparse_k"):
        tiny_cfg(sparse_k=-1)
    with pytest.raises(ConfigError, match="n_dit_layers"):
        tiny_cfg(n_dit_layers=0)

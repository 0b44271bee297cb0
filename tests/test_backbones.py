"""Backbone contracts: position-blind semantics, exact geometric decode,
single-pass layer extraction, and the DiT's one-Tensor-per-block
conditioning."""
import numpy as np
import pytest

from conftest import grad_check, make_scenes, one_scene, tiny_cfg
from geofuse import backbones
from geofuse.backbones import (
    ActionDiT,
    GeoEncoder,
    ToyMLLM,
    sinusoid_table,
    timestep_embedding,
    visual_span,
)
from geofuse.errors import ConfigError, ShapeError
from geofuse.nn import mlp, mse
from geofuse.rng import RngStream
from geofuse.tensor import ParamSet, Tensor


def build_mllm(rng, **kw):
    store = ParamSet()
    return ToyMLLM(tiny_cfg(**kw), store, rng), store


def build_geo(**kw):
    store = ParamSet()
    return GeoEncoder(tiny_cfg(**kw), store), store


# ------------------------------------------------------------------ scenes

def test_scenes_index_to_a_sub_batch(rng):
    scenes = make_scenes(rng, 5, n_objects=3)
    sub = scenes[np.array([4, 1, 1])]
    assert len(scenes) == 5 and len(sub) == 3
    np.testing.assert_array_equal(sub.positions, scenes.positions[[4, 1, 1]])
    np.testing.assert_array_equal(sub.object_ids, scenes.object_ids[[4, 1, 1]])
    np.testing.assert_array_equal(sub.instruction, scenes.instruction[[4, 1, 1]])
    assert len(scenes[1:3]) == 2


# ------------------------------------------------------------------ mllm

def run_mllm(mllm, scenes):
    return mllm.run_layers(mllm.embed(scenes))


def test_mllm_layer_count_and_shapes(rng):
    mllm, _ = build_mllm(rng)
    scenes = make_scenes(rng.derive(1), 3, n_objects=2)
    per_layer = run_mllm(mllm, scenes)
    assert len(per_layer) == mllm.cfg.n_layers
    for h in per_layer:
        assert h.shape == (3, 3, mllm.cfg.d)  # 1 instruction + 2 visual tokens


def test_mllm_is_invariant_to_object_positions(rng):
    """The constructed ambiguity: the semantic channel must not see geometry."""
    mllm, _ = build_mllm(rng)
    ids, instr = [4, 9], 1
    a = one_scene([[0.1, 0.2, 0.3], [0.9, 0.8, 0.7]], ids, instr)
    b = one_scene([[0.6, 0.6, 0.6], [0.2, 0.1, 0.9]], ids, instr)
    for ha, hb in zip(run_mllm(mllm, a), run_mllm(mllm, b)):
        np.testing.assert_array_equal(ha.data, hb.data)


def test_mllm_deterministic_across_runs():
    scenes = make_scenes(RngStream(3, 3), 2, n_objects=2)
    outs = []
    for _ in range(2):
        mllm, _ = build_mllm(RngStream(11, 0))
        outs.append(run_mllm(mllm, scenes)[-1].data)
    np.testing.assert_array_equal(outs[0], outs[1])


def test_mllm_runs_each_layer_exactly_once_per_forward(rng, monkeypatch):
    mllm, _ = build_mllm(rng)
    scenes = make_scenes(rng.derive(1), 2, n_objects=2)
    calls = []

    def counted_mlp(*args):
        calls.append(1)
        return mlp(*args)

    monkeypatch.setattr(backbones, "mlp", counted_mlp)  # one MLP per layer
    run_mllm(mllm, scenes)
    assert len(calls) == mllm.cfg.n_layers


def test_mllm_positions_fit_any_sequence_length(rng):
    """Positional rows are computed for the length embedded, so long
    sequences need no capacity knob; row j is the same at every length."""
    mllm, _ = build_mllm(rng)
    for n in (1, 2, 8):
        scenes = make_scenes(rng.derive(n), 2, n_objects=n)
        x = mllm.embed(scenes).data
        ids = scenes.object_ids
        instr = ids[np.arange(2), scenes.instruction]
        want = np.concatenate([mllm.tok_embed.value.data[instr][:, None, :],
                               mllm.vis_embed.value.data[ids]], axis=1)
        np.testing.assert_array_equal(x, want + sinusoid_table(64, mllm.cfg.d)[: n + 1])


def test_mllm_visual_slice_selects_visual_tokens(rng):
    """`visual_span` picks exactly the per-object visual embeddings."""
    mllm, _ = build_mllm(rng)
    scenes = make_scenes(rng.derive(1), 2, n_objects=2)
    x = mllm.embed(scenes)
    lo, hi = visual_span(2)
    assert (lo, hi) == (1, 3) and hi == x.shape[1]
    ids = scenes.object_ids
    pos = sinusoid_table(hi, mllm.cfg.d)[lo:hi]
    np.testing.assert_array_equal(x.data[:, lo:hi, :], mllm.vis_embed.value.data[ids] + pos)
    assert run_mllm(mllm, scenes)[0][:, lo:hi, :].shape == (2, 2, mllm.cfg.d)


# ------------------------------------------------------------------ geo encoder

def test_geo_decode_roundtrip(rng):
    geo, _ = build_geo()
    scenes = make_scenes(rng, 3, n_objects=3)
    tokens = geo.forward(scenes).data
    # tokens are affine in the positions, so the pseudo-inverse recovers them
    decoded = (tokens - geo.base.value.data[:3]) @ np.linalg.pinv(geo.w_embed.value.data)
    want = scenes.positions
    assert np.max(np.abs(decoded - want)) < 1e-10


def test_geo_translation_locality():
    geo, _ = build_geo()
    base = one_scene([[0.2, 0.2, 0.2], [0.7, 0.7, 0.7]], [1, 2], 0)
    moved = one_scene([[0.2, 0.2, 0.2], [0.7, 0.9, 0.7]], [1, 2], 0)
    t0 = geo.forward(base).data[0]
    t1 = geo.forward(moved).data[0]
    np.testing.assert_array_equal(t0[0], t1[0])
    assert np.max(np.abs(t0[1] - t1[1])) > 0


def test_geo_params_fixed_by_class_seed():
    a, _ = build_geo()
    b, _ = build_geo()
    np.testing.assert_array_equal(a.w_embed.value.data, b.w_embed.value.data)
    np.testing.assert_array_equal(a.base.value.data, b.base.value.data)


def test_geo_frozen_params_take_no_grad(rng):
    geo, store = build_geo()
    scenes = make_scenes(rng, 2, n_objects=2)

    def loss():
        t = geo.forward(scenes)
        return (t * t).mean()

    assert grad_check(loss, store, rng.derive(0), n_coords=4) == 0.0
    assert geo.w_embed.value.grad is None


def test_geo_capacity_error():
    """More objects than patch slots is refused by the config, before any
    encoder is built."""
    with pytest.raises(ConfigError, match="n_objects"):
        tiny_cfg(n_patches=2, n_objects=3)


# ------------------------------------------------------------------ timestep embedding

def test_timestep_embedding_zero_phase():
    emb = timestep_embedding(0.0, 8).data[0, 0]
    np.testing.assert_array_equal(emb[:4], 0.0)
    np.testing.assert_array_equal(emb[4:], 1.0)


def test_timestep_embedding_injective_on_grid():
    taus = [i / 10 for i in range(11)]
    embs = [timestep_embedding(t, 8).data.ravel() for t in taus]
    for i in range(len(taus)):
        for j in range(i + 1, len(taus)):
            assert np.max(np.abs(embs[i] - embs[j])) > 1e-6


def test_timestep_embedding_shape():
    assert timestep_embedding(0.3, 8).shape == (1, 1, 8)


def test_sinusoid_table_shape_and_first_row():
    tab = sinusoid_table(5, 6)
    assert tab.shape == (5, 6)
    np.testing.assert_array_equal(tab[0, :3], 0.0)
    np.testing.assert_array_equal(tab[0, 3:], 1.0)


# ------------------------------------------------------------------ action dit

def _dit_inputs(rng, cfg):
    noisy = Tensor(rng.normal((2, cfg.horizon, cfg.d_action)))
    cond = Tensor(rng.normal((2, 5, cfg.d)))
    return noisy, cond


def test_dit_pi_mode_with_duplicated_sequence_equals_groot(rng):
    """Blocks reading copies of one sequence (pi) match blocks sharing one
    Tensor object (groot)."""
    store = ParamSet()
    cfg = tiny_cfg()
    dit = ActionDiT(cfg, store, rng.derive(0))
    noisy, cond = _dit_inputs(rng.derive(1), cfg)
    shared = dit.forward(noisy, [cond] * cfg.n_dit_layers, 0.4)
    copies = dit.forward(noisy, [Tensor(cond.data.copy()) for _ in range(cfg.n_dit_layers)],
                         0.4)
    np.testing.assert_array_equal(shared.data, copies.data)


def test_dit_blocks_read_their_own_conditioning(rng):
    store = ParamSet()
    cfg = tiny_cfg()
    dit = ActionDiT(cfg, store, rng.derive(0))
    noisy, cond = _dit_inputs(rng.derive(1), cfg)
    other = Tensor(rng.derive(2).normal(cond.shape))
    base = dit.forward(noisy, [cond, cond], 0.4).data
    assert np.max(np.abs(dit.forward(noisy, [cond, other], 0.4).data - base)) > 0
    assert np.max(np.abs(dit.forward(noisy, [other, cond], 0.4).data - base)) > 0


def test_dit_output_shape_independent_of_conditioning_length(rng):
    store = ParamSet()
    cfg = tiny_cfg()
    dit = ActionDiT(cfg, store, rng.derive(0))
    noisy = Tensor(rng.normal((2, cfg.horizon, cfg.d_action)))
    for lk in (1, 4, 9):
        conds = [Tensor(rng.normal((2, lk + i, cfg.d))) for i in range(cfg.n_dit_layers)]
        assert dit.forward(noisy, conds, 0.2).shape == (2, cfg.horizon, cfg.d_action)


def test_dit_pi_mode_wrong_list_length(rng):
    store = ParamSet()
    cfg = tiny_cfg()
    dit = ActionDiT(cfg, store, rng.derive(0))
    noisy, cond = _dit_inputs(rng.derive(1), cfg)
    for n in (cfg.n_dit_layers - 1, cfg.n_dit_layers + 1):
        with pytest.raises(ShapeError):
            dit.forward(noisy, [cond] * n, 0.4)


def test_dit_wrong_chunk_shape(rng):
    store = ParamSet()
    cfg = tiny_cfg()
    dit = ActionDiT(cfg, store, rng.derive(0))
    noisy = Tensor(rng.normal((2, cfg.horizon + 1, cfg.d_action)))
    with pytest.raises(ShapeError):
        dit.forward(noisy, [Tensor(rng.normal((2, 3, cfg.d)))] * cfg.n_dit_layers, 0.4)


def test_dit_grad_check(rng):
    store = ParamSet()
    cfg = tiny_cfg()
    dit = ActionDiT(cfg, store, rng.derive(0))
    noisy, cond = _dit_inputs(rng.derive(1), cfg)
    target = rng.normal((2, cfg.horizon, cfg.d_action))

    def loss():
        return mse(dit.forward(noisy, [cond] * cfg.n_dit_layers, 0.35), Tensor(target))

    assert grad_check(loss, store, rng.derive(2), n_coords=50) < 1e-4

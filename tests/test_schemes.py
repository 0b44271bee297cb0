"""Per-scheme contracts: registry, hook behavior, nullability back to the
base model, zero-inference-overhead schemes, and the geometry probe."""
import numpy as np
import pytest

from conftest import grad_check, make_scenes, tiny_cfg, tiny_policy
from geofuse.errors import ConfigError
from geofuse.nn import cosine_rows, cross_attention, linear
from geofuse.rng import RngStream
from geofuse.schemes import SCHEME_IDS, GateMixer
from geofuse.tensor import ParamSet, Tensor


def predict(policy, scenes, eval_seed=5):
    return policy.predict(scenes, RngStream(eval_seed, 1))


@pytest.fixture
def scenes(rng):
    return make_scenes(rng, 3, n_objects=2)


# ------------------------------------------------------------------ registry

def test_registry_has_exactly_ten_ids():
    assert len(SCHEME_IDS) == 10
    assert SCHEME_IDS[0] == "none"
    assert len(set(SCHEME_IDS)) == 10


def test_unknown_scheme_id_lists_valid_ones():
    with pytest.raises(ConfigError) as exc:
        tiny_cfg(scheme="nope")
    msg = str(exc.value)
    for sid in SCHEME_IDS:
        assert sid in msg


def test_every_scheme_builds_in_both_archs():
    for sid in SCHEME_IDS:
        for arch in ("groot", "pi"):
            tiny_policy(sid, arch)


# ------------------------------------------------------------------ gated layout
# checkpoints store params by id in store order, so saved gated-fusion
# models load only while this layout holds

_GATE = [("w_gate", (16, 8)), ("w_s", (8, 8)), ("w_g", (8, 8))]


@pytest.mark.parametrize("arch,prefixes", [
    ("groot", ["scheme.gated"]),
    ("pi", ["scheme.gated.layer0", "scheme.gated.layer1"]),
])
def test_gated_fusion_param_layout(arch, prefixes):
    store = tiny_policy("gated_fusion", arch).store
    got = [(p.id, p.value.shape) for p in store if p.id.startswith("scheme.")]
    want = [("scheme.gated.w_proj", (6, 8))]
    want += [(f"{pre}.{name}", shape) for pre in prefixes for name, shape in _GATE]
    assert got == want


# ------------------------------------------------------------------ conditioning contract

@pytest.mark.parametrize("arch", ["groot", "pi"])
@pytest.mark.parametrize("sid", SCHEME_IDS)
def test_conditioning_is_one_tensor_per_action_block(sid, arch, scenes):
    """Every scheme hands the action expert a list of n_dit_layers Tensors;
    under groot every block reads the same Tensor object."""
    pol = tiny_policy(sid, arch)
    cond, _, per_layer = pol.conditioning(scenes, pol.geo_tokens(scenes, training=True))
    assert isinstance(cond, list) and len(cond) == pol.cfg.n_dit_layers
    assert all(isinstance(c, Tensor) and c.shape[0] == len(scenes) for c in cond)
    assert len(per_layer) == pol.cfg.n_layers
    if arch == "groot":
        assert all(c is cond[0] for c in cond)


@pytest.mark.parametrize("arch", ["groot", "pi"])
@pytest.mark.parametrize("sid", ["concat_fusion", "crossattn_fusion"])
def test_gate_mixer_runs_once_per_conditioning(sid, arch, scenes, monkeypatch):
    """The mixer reads no backbone layer, so it runs once however many
    action blocks read its output."""
    calls = []
    orig = GateMixer.__call__

    def counted(self, *args, **kwargs):
        calls.append(1)
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(GateMixer, "__call__", counted)
    pol = tiny_policy(sid, arch)
    cond, _, _ = pol.conditioning(scenes, pol.geo_tokens(scenes, training=False))
    assert len(calls) == 1
    if arch == "pi":  # each block still appends the tokens to its own layer
        assert np.max(np.abs(cond[0].data - cond[1].data)) > 0


# ------------------------------------------------------------------ nullability

def null_configured_policy(sid):
    """Each scheme's documented setting that collapses it to the base model."""
    if sid == "ae_fusion":
        pol = tiny_policy(sid)
        for blk in pol.scheme.block_params:
            blk["wo"].value.data[:] = 0.0
        return pol
    if sid in ("midlayer_injection", "spatial_forcing", "none"):
        return tiny_policy(sid)  # adapter scale starts at 0 / training-only
    pol = tiny_policy(sid)
    pol.scheme.null_geo = True
    return pol


@pytest.mark.parametrize("sid", SCHEME_IDS)
def test_nullability_reproduces_base_model(sid, scenes):
    base = tiny_policy("none")
    nulled = null_configured_policy(sid)
    np.testing.assert_array_equal(predict(base, scenes), predict(nulled, scenes))


def loss_and_parts(policy, scenes):
    actions = RngStream(21, 0).normal((len(scenes), policy.cfg.horizon, policy.cfg.d_action))
    total, parts = policy.loss(scenes, actions, RngStream(22, 0))
    return total.data, parts


@pytest.mark.parametrize("arch", ["groot", "pi"])
@pytest.mark.parametrize("sid,alpha", [(sid, None) for sid in SCHEME_IDS]
                         + [("midlayer_injection", 0.5)])
def test_null_geo_gives_base_loss_and_predict(sid, alpha, arch, scenes):
    """`null_geo` alone nulls a scheme whatever its parameters hold, a
    nonzero adapter scale included."""
    base = tiny_policy("none", arch)
    nulled = tiny_policy(sid, arch)
    if alpha is not None:
        nulled.scheme.alpha.value.data[...] = alpha
    nulled.scheme.null_geo = True
    base_loss, base_parts = loss_and_parts(base, scenes)
    loss, parts = loss_and_parts(nulled, scenes)
    assert parts == base_parts
    np.testing.assert_array_equal(loss, base_loss)
    np.testing.assert_array_equal(predict(nulled, scenes), predict(base, scenes))


# ------------------------------------------------------------------ zero-overhead schemes

@pytest.mark.parametrize("sid", ["spatial_forcing", "threed_tokens"])
def test_inference_never_reads_geometry(sid, scenes):
    with_geo = tiny_policy(sid)
    without_geo = tiny_policy(sid)
    without_geo.geo_encoder = None
    np.testing.assert_array_equal(predict(with_geo, scenes),
                                  predict(without_geo, scenes))


# ------------------------------------------------------------------ gate mixer

def saturate(mixer, logit):
    """Zero the frame rows of a 6 -> 5 mixer's w_mix and set its pooled rows
    so that a pooled token whose entries sum to 6 gives `logit` everywhere."""
    mixer.w_mix.value.data[:6] = 0.0
    mixer.w_mix.value.data[6:] = logit / 6


def tokens_summing_to_width(x):
    """x shifted so each token's entries sum to its width."""
    return Tensor(x - x.mean(axis=2, keepdims=True) + 1.0)


def test_gate_mixer_saturated_gate_selects_frame_path(rng):
    mixer = GateMixer(ParamSet(), rng, "m", 6, 5)
    saturate(mixer, 50.0)
    tokens = tokens_summing_to_width(rng.normal((2, 3, 6)))
    out = mixer(tokens, tokens.mean(axis=1, keepdims=True)).data
    want = tokens.data @ mixer.w_proj.value.data
    assert np.max(np.abs(out - want)) < 1e-12


def test_gate_mixer_blend_of_equal_components_ignores_gate(rng):
    mixer = GateMixer(ParamSet(), rng, "m", 6, 5)
    one = rng.normal((2, 1, 6))
    tokens = tokens_summing_to_width(np.repeat(one, 3, axis=1))  # frame == global
    pooled = tokens.mean(axis=1, keepdims=True)
    saturate(mixer, 17.0)
    a = mixer(tokens, pooled).data
    saturate(mixer, -17.0)
    b = mixer(tokens, pooled).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_gate_mixer_matches_loop_oracle(rng):
    store = ParamSet()
    mixer = GateMixer(store, rng, "m", 4, 3)
    mixer.w_mix.value.data[:] = rng.normal((8, 4), 0.5)
    tokens = rng.normal((2, 3, 4))
    glob = tokens.mean(axis=1, keepdims=True)
    got = mixer(Tensor(tokens), Tensor(glob)).data
    want = np.zeros((2, 3, 3))
    for b in range(2):
        for j in range(3):
            pair = np.concatenate([tokens[b, j], glob[b, 0]])
            g = 1.0 / (1.0 + np.exp(-(pair @ mixer.w_mix.value.data)))
            mixed = g * tokens[b, j] + (1 - g) * glob[b, 0]
            want[b, j] = mixed @ mixer.w_proj.value.data
    assert np.max(np.abs(got - want)) < 1e-12


# ------------------------------------------------------------------ alignment losses

def test_cosine_alignment_limits(rng):
    v = Tensor(rng.normal((4, 8)))
    # the denominator epsilon (1e-8) keeps |cos| a hair under 1
    assert np.max(np.abs((1.0 - cosine_rows(v, v)).data)) < 1e-7
    anti = (1.0 - cosine_rows(v, -1.0 * v)).data
    np.testing.assert_allclose(anti, 2.0, atol=1e-7)


def test_cosine_of_random_high_dim_vectors_is_near_zero(rng):
    a = Tensor(rng.normal((32, 64)))
    b = Tensor(rng.normal((32, 64)))
    loss = (1.0 - cosine_rows(a, b)).data
    assert np.all(np.abs(loss - 1.0) < 0.55)
    assert abs(loss.mean() - 1.0) < 0.3


def test_threed_tokens_appends_special_token(rng, scenes):
    pol = tiny_policy("threed_tokens")
    geo = pol.geo_tokens(scenes, training=True)
    cond, _, _ = pol.conditioning(scenes, geo)
    base = tiny_policy("none")
    base_cond, _, _ = base.conditioning(scenes, None)
    assert cond[0].shape[1] == base_cond[0].shape[1] + 1


def test_threed_tokens_aux_loss_in_range(rng, scenes):
    pol = tiny_policy("threed_tokens")
    geo = pol.geo_tokens(scenes, training=True)
    _, _, per_layer = pol.conditioning(scenes, geo)
    weight, term = pol.scheme.aux_loss(per_layer, geo)
    assert weight == pytest.approx(0.1)
    assert 0.0 <= term.item() <= 2.0


def test_spatial_forcing_perfect_alignment_bound(rng):
    """The forcing term is an average negative cosine, so it is bounded
    below by -1 and reaches it only under perfect alignment."""
    a = Tensor(rng.normal((5, 8)))
    loss = (-1.0 * cosine_rows(a, a).mean()).item()
    assert loss == pytest.approx(-1.0, abs=1e-7)


def test_spatial_forcing_grad_reaches_backbone_without_action_loss(rng, scenes):
    pol = tiny_policy("spatial_forcing")
    geo = pol.geo_tokens(scenes, training=True)
    _, _, per_layer = pol.conditioning(scenes, geo)
    _, term = pol.scheme.aux_loss(per_layer, geo)
    pol.store.zero_grad()
    term.backward()
    k = pol.scheme.k
    touched = [p for p in pol.store
               if p.id.startswith(f"mllm.layer{k}.") and p.value.grad is not None
               and np.max(np.abs(p.value.grad)) > 0]
    assert touched, "alignment term must train the designated backbone layer"


def test_spatial_forcing_total_loss_combines_terms(rng, scenes):
    pol = tiny_policy("spatial_forcing")
    actions = RngStream(7, 7).normal((len(scenes), 2, 4))
    total, parts = pol.loss(scenes, actions, RngStream(1, 1))
    assert "align" in parts
    assert total.item() == pytest.approx(parts["action"] + 0.1 * parts["align"], abs=1e-12)


# ------------------------------------------------------------------ structural hooks

def test_midlayer_adapter_gradient_is_live(rng, scenes):
    pol = tiny_policy("midlayer_injection")
    actions = RngStream(7, 7).normal((len(scenes), 2, 4))
    total, _ = pol.loss(scenes, actions, RngStream(1, 1))
    pol.store.zero_grad()
    total.backward()
    alpha = pol.scheme.alpha.value
    assert alpha.grad is not None and abs(float(alpha.grad)) > 0


def test_crossattn_with_zeroed_attention_equals_concat(rng, scenes):
    ca = tiny_policy("crossattn_fusion")
    ca.scheme.attn["wo"].value.data[:] = 0.0
    cc = tiny_policy("concat_fusion")
    # same init stream => identical mixer params; compare conditioning
    geo_ca = ca.geo_tokens(scenes, training=False)
    geo_cc = cc.geo_tokens(scenes, training=False)
    cond_ca, _, _ = ca.conditioning(scenes, geo_ca)
    cond_cc, _, _ = cc.conditioning(scenes, geo_cc)
    np.testing.assert_allclose(cond_ca[0].data, cond_cc[0].data, atol=1e-15)


def test_crossattn_residual_refinement_is_nonzero(rng, scenes):
    ca = tiny_policy("crossattn_fusion")
    cc = tiny_policy("concat_fusion")
    cond_ca, _, _ = ca.conditioning(scenes, ca.geo_tokens(scenes, training=False))
    cond_cc, _, _ = cc.conditioning(scenes, cc.geo_tokens(scenes, training=False))
    assert np.max(np.abs(cond_ca[0].data - cond_cc[0].data)) > 0


def test_early_fusion_extends_every_layer(rng, scenes):
    pol = tiny_policy("early_fusion")
    geo = pol.geo_tokens(scenes, training=True)
    _, _, per_layer = pol.conditioning(scenes, geo)
    n = scenes.positions.shape[1]
    for h in per_layer:
        assert h.shape[1] == 3 + n  # 1 instruction + 2 visual + n geo


def test_visual_fusion_preserves_sequence_layout(rng, scenes):
    pol = tiny_policy("visual_fusion")
    geo = pol.geo_tokens(scenes, training=True)
    cond, _, _ = pol.conditioning(scenes, geo)
    base = tiny_policy("none")
    base_cond, _, _ = base.conditioning(scenes, None)
    assert cond[0].shape == base_cond[0].shape


def test_ae_fusion_branch_has_per_block_params(rng):
    """Block i's branch attends from its input over the projected geometry
    with block i's own attention parameters."""
    pol = tiny_policy("ae_fusion")
    scheme, cfg = pol.scheme, pol.cfg
    assert len(scheme.block_params) == cfg.n_dit_layers
    geo = pol.geo_tokens(make_scenes(RngStream(2, 2), 2, 2), training=False)
    branch = scheme.geo_branch(geo)
    zc = Tensor(rng.normal((2, cfg.horizon, cfg.d)))
    f_geo = linear(geo, scheme.w_proj)
    outs = []
    for i, p in enumerate(scheme.block_params):
        want = cross_attention(zc, f_geo, p["wq"], p["wk"], p["wv"], p["wo"], cfg.heads)
        got = branch(i, zc).data
        np.testing.assert_array_equal(got, want.data)
        outs.append(got)
    assert np.max(np.abs(outs[0] - outs[1])) > 0


# ------------------------------------------------------------------ probe oracle

def probe_error(scheme, rng):
    """Mean test error of a linear probe from final hidden states to the
    instructed object's position."""
    pol = tiny_policy(scheme)
    scenes = make_scenes(rng, 300, n_objects=1)
    geo = pol.geo_tokens(scenes, training=True)
    _, _, per_layer = pol.conditioning(scenes, geo)
    feats = per_layer[-1].data.reshape(len(scenes), -1)
    y = scenes.target_positions()
    x = np.concatenate([feats, np.ones((len(scenes), 1))], axis=1)
    n_train = 200
    w, *_ = np.linalg.lstsq(x[:n_train], y[:n_train], rcond=None)
    resid = x[n_train:] @ w - y[n_train:]
    return np.sqrt((resid**2).sum(axis=1)).mean()


def test_probe_recovers_positions_only_with_geometry():
    base_err = probe_error("none", RngStream(4, 2))
    fused_err = probe_error("early_fusion", RngStream(4, 2))
    assert base_err > 10 * fused_err


# ------------------------------------------------------------------ grad spot checks

@pytest.mark.parametrize("sid,arch", [("gated_fusion", "groot"),
                                      ("threed_tokens", "groot"),
                                      ("gated_fusion", "pi")])
def test_scheme_loss_grad_check(sid, arch, scenes):
    pol = tiny_policy(sid, arch)
    actions = RngStream(7, 7).normal((len(scenes), 2, 4))

    def loss():
        return pol.loss(scenes, actions, RngStream(13, 13))[0]

    assert grad_check(loss, pol.store, RngStream(17, 0), n_coords=40) < 1e-4

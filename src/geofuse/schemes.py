"""The nine geometry-fusion schemes plus the base model, behind one registry.

Each scheme is a bundle of its own parameters plus a fixed set of hooks
into the policy forward pass: rewriting the input token sequence,
patching an intermediate backbone layer, building the conditioning of
every action block, adding a parallel read inside the action blocks, or
contributing a training-time alignment loss.  Hooks receive plain
Tensors: the geometry as one B x N x D_vggt Tensor (or None when the
scheme reads none), the backbone input as one B x L x D Tensor and its
output as a list of every layer's B x L x D Tensor.  They return Tensors
or closures over their own parameters, so neither the backbone nor the
action expert knows any scheme's parameters.  Nulling any scheme (the
flag on `FusionScheme`) makes `FusionPolicy` run the base model's hooks
instead, so no hook checks it.  `ae_fusion` (zeroed `wo` in every branch)
and `midlayer_injection` (adapter scale `alpha = 0`, as built) also reach
the base model through their parameters.
"""
from __future__ import annotations

import numpy as np

from .backbones import sinusoid_table, visual_span
from .config import SCHEME_IDS, ExperimentConfig  # noqa: F401 (re-exported beside the registry)
from .gating import (
    build_conditioning,
    fuse_single,
    init_gate_params,
    layerwise_fuse,
    sigmoid_gate,
    sparse_layer_schedule,
)
from .nn import (attend, attention_params, cosine_rows, expand_seq, init_matrix, linear,
                 mean_pool_seq, mlp, norm, norm_params)
from .tensor import ParamSet, Tensor, concat

_REGISTRY: dict[str, type] = {}


def register(cls):
    _REGISTRY[cls.id] = cls
    return cls


def make_scheme(cfg: ExperimentConfig, store: ParamSet, rng):
    """Build the scheme `cfg.scheme` names (validated by the config)."""
    return _REGISTRY[cfg.scheme](cfg, store, rng)


class FusionScheme:
    """Base bundle: no geometry, conditioning is the raw semantic stream.

    `geo` is None only in a pass whose `*_geo_required` flag is False:
    `FusionPolicy.geo_tokens` alone decides that, so no hook checks it."""

    id = "none"
    inference_geo_required = False
    training_geo_required = False
    null_geo = False  # set on an instance: FusionPolicy then runs the base hooks

    def __init__(self, cfg: ExperimentConfig, store, rng):
        self.cfg = cfg
        self.build(store, rng)

    def build(self, store, rng):
        pass

    # -- hooks, each a no-op here --------------------------------------------

    def modify_input(self, emb: Tensor, geo) -> Tensor:
        """The backbone's B x L x D input sequence, laid out as
        `backbones.visual_span` says."""
        return emb

    def mid_hook(self, geo):
        """None, or a closure (i, h) -> h applied after backbone layer i."""
        return None

    def geo_branch(self, geo):
        """None, or a closure (i, zc) -> Tensor that action block i adds to
        its cross-attention update."""
        return None

    def aux_loss(self, per_layer: list, geo):
        """None, or (weight, scalar Tensor) added to the training loss;
        per_layer holds every backbone layer's output."""
        return None

    def conditioning(self, per_layer: list, geo) -> list:
        """One B x L x D Tensor per action block, built from every backbone
        layer's output."""
        return self._per_block(per_layer, lambda h: h)

    # -- helpers ------------------------------------------------------------

    def _per_block(self, per_layer: list, fn) -> list:
        """`fn` of each action block's backbone layer.  Under pi block i
        reads the i-th of the last n_dit_layers layers; under groot every
        block reads the final layer, so `fn` runs once and every entry is
        the same Tensor."""
        n = self.cfg.n_dit_layers
        if self.cfg.arch == "pi":
            return [fn(h) for h in per_layer[-n:]]
        return [fn(per_layer[-1])] * n


register(FusionScheme)


class GateMixer:
    """Blend per-patch geometric tokens with their pooled mean, then project."""

    def __init__(self, store, rng, prefix, d_vggt, d):
        self.w_mix = store.new(f"{prefix}.w_mix", np.zeros((2 * d_vggt, d_vggt)))
        self.w_proj = store.new(f"{prefix}.w_proj", init_matrix(rng, d_vggt, d))

    def __call__(self, geo: Tensor, pooled: Tensor) -> Tensor:
        """geo: B x N x D_vggt patch tokens; pooled: their B x 1 x D_vggt mean."""
        glob = expand_seq(pooled, geo.shape[1])
        gate = sigmoid_gate(geo, glob, self.w_mix)
        mixed = gate * geo + (1.0 - gate) * glob
        return linear(mixed, self.w_proj)


@register
class AEFusion(FusionScheme):
    """Parallel cross-attention over projected geometry inside every action block."""

    id = "ae_fusion"
    inference_geo_required = True
    training_geo_required = True

    def build(self, store, rng):
        d, dv = self.cfg.d, self.cfg.d_vggt
        self.w_proj = store.new("scheme.ae.w_proj", init_matrix(rng, dv, d))
        self.block_params = [
            attention_params(store, rng, f"scheme.ae.block{i}", d)
            for i in range(self.cfg.n_dit_layers)
        ]

    def geo_branch(self, geo):
        f_geo = linear(geo, self.w_proj)

        def branch(i, zc):
            return attend(zc, f_geo, self.block_params[i], self.cfg.heads)

        return branch


@register
class EarlyFusion(FusionScheme):
    """Projected geometry tokens appended to the backbone input sequence."""

    id = "early_fusion"
    inference_geo_required = True
    training_geo_required = True

    def build(self, store, rng):
        self.w_proj = store.new("scheme.early.w_proj",
                                init_matrix(rng, self.cfg.d_vggt, self.cfg.d))

    def modify_input(self, emb, geo):
        return concat([emb, linear(geo, self.w_proj)], axis=1)


@register
class ConcatFusion(FusionScheme):
    """Gate-mixed geometry concatenated onto the semantic output."""

    id = "concat_fusion"
    inference_geo_required = True
    training_geo_required = True

    def build(self, store, rng):
        self.mixer = GateMixer(store, rng, "scheme.concat.mixer",
                               self.cfg.d_vggt, self.cfg.d)

    def _refine(self, f_geo, h):
        """The tokens appended to the block conditioning built on layer `h`:
        here the mixed geometry itself."""
        return f_geo

    def conditioning(self, per_layer, geo):
        f_geo = self.mixer(geo, mean_pool_seq(geo))  # once: it reads no backbone layer
        return self._per_block(per_layer,
                               lambda h: build_conditioning(h, self._refine(f_geo, h)))


@register
class CrossAttnFusion(ConcatFusion):
    """Like concat fusion, with a residual cross-attention refinement first."""

    id = "crossattn_fusion"

    def build(self, store, rng):
        super().build(store, rng)
        self.attn = attention_params(store, rng, "scheme.crossattn.attn", self.cfg.d)

    def _refine(self, f_geo, h):
        return attend(f_geo, h, self.attn, self.cfg.heads) + f_geo


@register
class GatedFusion(FusionScheme):
    """Semantic-conditioned gated blending of geometry (the headline module).

    One bias-free projection `w_proj` feeds a list of gates: one gate for
    the conditioning every action block shares (groot), or one per action
    block (pi), where a sparse schedule picks the blocks that fuse."""

    id = "gated_fusion"
    inference_geo_required = True
    training_geo_required = True

    def build(self, store, rng):
        d, n = self.cfg.d, self.cfg.n_dit_layers
        self.w_proj = store.new("scheme.gated.w_proj", init_matrix(rng, self.cfg.d_vggt, d))
        prefixes = ([f"scheme.gated.layer{i}" for i in range(n)] if self.cfg.arch == "pi"
                    else ["scheme.gated"])
        self.gates = [init_gate_params(store, rng, p, d) for p in prefixes]
        # read under pi only: a fuse/skip flag per action block; skipped blocks
        # read plain semantics
        self.schedule = sparse_layer_schedule(n, self.cfg.sparse_k)

    def conditioning(self, per_layer, geo):
        n = self.cfg.n_dit_layers
        if self.cfg.arch == "pi":
            return layerwise_fuse(per_layer[-n:], geo, self.w_proj, self.gates, self.schedule)
        return [fuse_single(per_layer[-1], geo, self.w_proj, self.gates[0])] * n


@register
class ThreeDTokens(FusionScheme):
    """Learnable special token supervised to carry geometry; geometry-free inference."""

    id = "threed_tokens"
    inference_geo_required = False
    training_geo_required = True

    def build(self, store, rng):
        d, dv = self.cfg.d, self.cfg.d_vggt
        self.token = store.new("scheme.tok3d.embed", rng.normal((1, 1, d), 0.5))
        self.w_align = store.new("scheme.tok3d.w_align", init_matrix(rng, d, d))
        self.w_proj = store.new("scheme.tok3d.w_proj", init_matrix(rng, dv, d))

    def modify_input(self, emb, geo):
        tok = self.token.value * Tensor(np.ones((emb.shape[0], 1, 1)))
        return concat([emb, tok], axis=1)

    def aux_loss(self, per_layer, geo):
        h_tok = per_layer[-1][:, -1, :]  # the appended special token's state
        pooled = geo.mean(axis=1)
        cos = cosine_rows(linear(h_tok, self.w_align), linear(pooled, self.w_proj))
        return self.cfg.align_weight, (1.0 - cos).mean()


@register
class MidLayerInjection(FusionScheme):
    """Adapter-style cross-attention injected after backbone layer n_layers // 2.

    The adapter scale starts at zero, so a freshly built scheme is exactly
    the base model."""

    id = "midlayer_injection"
    inference_geo_required = True
    training_geo_required = True

    def build(self, store, rng):
        d, dv = self.cfg.d, self.cfg.d_vggt
        self.k = self.cfg.n_layers // 2
        self.w_proj = store.new("scheme.mid.w_proj", init_matrix(rng, dv, d))
        self.ln = norm_params(store, "scheme.mid.ln", d)
        self.attn = attention_params(store, rng, "scheme.mid.attn", d)
        self.alpha = store.new("scheme.mid.alpha", np.zeros(()))

    def mid_hook(self, geo):
        f_geo = linear(geo, self.w_proj)

        def hook(i, h):
            if i != self.k:
                return h
            upd = attend(norm(h, self.ln), f_geo, self.attn, self.cfg.heads)
            return h + self.alpha.value * upd

        return hook


@register
class SpatialForcing(FusionScheme):
    """Training-only alignment of intermediate visual states to geometry.

    The inference graph is the unmodified base model; geometry and the
    projector exist only inside the loss term."""

    id = "spatial_forcing"
    inference_geo_required = False
    training_geo_required = True

    def build(self, store, rng):
        d, dv = self.cfg.d, self.cfg.d_vggt
        self.k = self.cfg.n_layers // 2
        self.ln = norm_params(store, "scheme.sf.ln", d)
        self.w1 = store.new("scheme.sf.w1", init_matrix(rng, d, d))
        self.w2 = store.new("scheme.sf.w2", init_matrix(rng, d, dv))
        self.e_pos = sinusoid_table(self.cfg.n_patches, dv)

    def aux_loss(self, per_layer, geo):
        n = geo.shape[1]
        lo, hi = visual_span(n)
        proj = mlp(norm(per_layer[self.k][:, lo:hi, :], self.ln), self.w1, self.w2)
        target = Tensor(geo.data + self.e_pos[:n])
        cos = cosine_rows(proj, target)
        return self.cfg.forcing_weight, -cos.mean()


@register
class VisualFusion(FusionScheme):
    """Enrich the visual input tokens by attending to geometry pre-backbone."""

    id = "visual_fusion"
    inference_geo_required = True
    training_geo_required = True

    def build(self, store, rng):
        d, dv = self.cfg.d, self.cfg.d_vggt
        self.attn = attention_params(store, rng, "scheme.vf.attn", d, d_kv=dv)
        self.ln = norm_params(store, "scheme.vf.ln", d)

    def modify_input(self, emb, geo):
        lo, hi = visual_span(geo.shape[1])  # hi is L: emb is `ToyMLLM.embed`'s output
        t2d = emb[:, lo:hi, :]
        enriched = norm(t2d + attend(t2d, geo, self.attn, self.cfg.heads), self.ln)
        return concat([emb[:, :lo, :], enriched], axis=1)

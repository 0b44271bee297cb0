"""Semantic-conditioned gated fusion of geometric tokens.

The pipeline: project raw geometric patch tokens into the semantic width
with a bias-free linear map, pool the semantic sequence into a global
context, compute a per-position sigmoid gate from the (context, geometry)
pair, blend the two projected streams, and append the blended tokens to
the semantic sequence.  A layer-wise variant shares the geometry
projection but gives every action block its own gate/blend parameters.
Every step takes and returns plain Tensors.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .nn import expand_seq, init_matrix, linear, mean_pool_seq
from .rng import RngStream
from .tensor import Param, ParamSet, Tensor, concat


@dataclass
class GateParams:
    """Per-layer gate/blend weights: gate on [context; geometry] pairs,
    plus independent projections of each stream."""

    w_gate: Param  # 2D x D, zero-init so the gate starts at 0.5
    w_s: Param     # D x D
    w_g: Param     # D x D


@dataclass
class ThreeDMixParams:
    w_proj: Param  # D_vggt x D, no bias
    gate: GateParams


@dataclass
class LayerwiseThreeDMixParams:
    w_proj: Param               # shared across layers
    per_layer: list[GateParams]  # one gate/blend set per action block


def init_gate_params(store: ParamSet, rng: RngStream, prefix: str, d: int) -> GateParams:
    return GateParams(
        w_gate=store.new(f"{prefix}.w_gate", np.zeros((2 * d, d))),
        w_s=store.new(f"{prefix}.w_s", init_matrix(rng, d, d)),
        w_g=store.new(f"{prefix}.w_g", init_matrix(rng, d, d)),
    )


def init_threedmix_params(store: ParamSet, rng: RngStream, prefix: str,
                          d_vggt: int, d: int) -> ThreeDMixParams:
    return ThreeDMixParams(
        w_proj=store.new(f"{prefix}.w_proj", init_matrix(rng, d_vggt, d)),
        gate=init_gate_params(store, rng, prefix, d),
    )


def init_layerwise_params(store: ParamSet, rng: RngStream, prefix: str,
                          d_vggt: int, d: int, n_layers: int) -> LayerwiseThreeDMixParams:
    return LayerwiseThreeDMixParams(
        w_proj=store.new(f"{prefix}.w_proj", init_matrix(rng, d_vggt, d)),
        per_layer=[init_gate_params(store, rng, f"{prefix}.layer{i}", d)
                   for i in range(n_layers)],
    )


def gate_and_fuse(h_mllm: Tensor, f_geo: Tensor, params: GateParams,
                  logit_offset: float = 0.0) -> tuple[Tensor, Tensor]:
    """Blend pooled semantic context with geometric tokens per position.

    Returns (gate, fused), both B x N x D; gate values are strictly in
    (0, 1).  logit_offset is a test hook for forcing gate saturation.
    """
    n = f_geo.shape[1]
    s = mean_pool_seq(h_mllm)
    s_b = expand_seq(s, n)
    pair = concat([s_b, f_geo], axis=2)
    logits = linear(pair, params.w_gate)
    if logit_offset:
        logits = logits + logit_offset
    gate = logits.sigmoid()
    fused = gate * linear(s_b, params.w_s) + (1.0 - gate) * linear(f_geo, params.w_g)
    return gate, fused


def build_conditioning(h_mllm: Tensor, f_fused) -> Tensor:
    """Append fused geometric tokens to the semantic sequence: B x (L + N) x D.

    With no geometry (f_fused None or zero-length) the result is h_mllm
    itself; otherwise its first L positions are a bit-identical copy.
    """
    if f_fused is None or f_fused.shape[1] == 0:
        return h_mllm
    if f_fused.shape[0] != h_mllm.shape[0] or f_fused.shape[2] != h_mllm.shape[2]:
        raise ShapeError(
            f"conditioning concat mismatch: {h_mllm.shape} vs {f_fused.shape}"
        )
    return concat([h_mllm, f_fused], axis=1)


def fuse_single(h_mllm: Tensor, f_vggt: Tensor, params: ThreeDMixParams,
                logit_offset: float = 0.0) -> Tensor:
    """Full single-sequence pipeline: project (bias-free), gate, blend, append."""
    f_geo = linear(f_vggt, params.w_proj)
    _, fused = gate_and_fuse(h_mllm, f_geo, params.gate, logit_offset)
    return build_conditioning(h_mllm, fused)


def layerwise_fuse(per_layer_h: list, f_vggt: Tensor,
                   params: LayerwiseThreeDMixParams,
                   schedule: list | None = None) -> list:
    """Layer-wise variant: geometry projected once, gated per layer.

    Returns one conditioning tensor per layer.  schedule, when given, is a
    list of fuse/skip flags; a skipped layer's conditioning is its semantic
    sequence itself (no geometric tokens appended).
    """
    if len(per_layer_h) != len(params.per_layer):
        raise ConfigError(
            f"{len(per_layer_h)} hidden-state sets vs {len(params.per_layer)} "
            "per-layer param sets"
        )
    if schedule is None:
        schedule = [True] * len(per_layer_h)
    if len(schedule) != len(per_layer_h):
        raise ConfigError("schedule length does not match layer count")
    f_geo = linear(f_vggt, params.w_proj)
    out = []
    for h, gate_params, fuse in zip(per_layer_h, params.per_layer, schedule):
        if fuse:
            _, fused = gate_and_fuse(h, f_geo, gate_params)
            out.append(build_conditioning(h, fused))
        else:
            out.append(build_conditioning(h, None))
    return out


def sparse_layer_schedule(n_layers: int, k: int, phase: str = "first") -> list[bool]:
    """Fuse at every (k+1)-th layer; k=0 means every layer fuses.

    phase="first" anchors fusion at the shallowest layer; phase="last"
    anchors it at the deepest (the anchoring is not pinned down by the
    ablation description, so both are available).
    """
    if n_layers < 1:
        raise ConfigError(f"n_layers must be >= 1, got {n_layers}")
    if k < 0:
        raise ConfigError(f"skip count must be >= 0, got {k}")
    if phase == "first":
        return [(i % (k + 1)) == 0 for i in range(n_layers)]
    if phase == "last":
        return [((n_layers - 1 - i) % (k + 1)) == 0 for i in range(n_layers)]
    raise ConfigError(f"unknown schedule phase {phase!r}")

"""Semantic-conditioned gated fusion of geometric tokens.

The pipeline: project raw geometric patch tokens into the semantic width
with a bias-free linear map (`w_proj`), pool the semantic sequence into a
global context, compute a per-position sigmoid gate from the (context,
geometry) pair, blend the two projected streams, and append the blended
tokens to the semantic sequence.  One layout serves both architectures:
a shared `w_proj` plus a list of `GateParams`, one entry for the single
conditioning sequence (groot) or one per action block (pi).  The gate
itself, `sigmoid_gate`, is also the one `schemes.GateMixer` uses.
Every step takes and returns plain Tensors.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
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


def init_gate_params(store: ParamSet, rng: RngStream, prefix: str, d: int) -> GateParams:
    return GateParams(
        w_gate=store.new(f"{prefix}.w_gate", np.zeros((2 * d, d))),
        w_s=store.new(f"{prefix}.w_s", init_matrix(rng, d, d)),
        w_g=store.new(f"{prefix}.w_g", init_matrix(rng, d, d)),
    )


def sigmoid_gate(a: Tensor, b: Tensor, w_gate) -> Tensor:
    """Per-position gate sigmoid([a; b] @ w_gate), strictly in (0, 1)."""
    return linear(concat([a, b], axis=2), w_gate).sigmoid()


def gate_and_fuse(h_mllm: Tensor, f_geo: Tensor, params: GateParams) -> tuple[Tensor, Tensor]:
    """Blend pooled semantic context with geometric tokens per position.

    Returns (gate, fused), both B x N x D.
    """
    s_b = expand_seq(mean_pool_seq(h_mllm), f_geo.shape[1])
    gate = sigmoid_gate(s_b, f_geo, params.w_gate)
    fused = gate * linear(s_b, params.w_s) + (1.0 - gate) * linear(f_geo, params.w_g)
    return gate, fused


def build_conditioning(h_mllm: Tensor, f_fused: Tensor) -> Tensor:
    """Append fused geometric tokens (N >= 1: every scene has an object) to
    h_mllm: B x (L + N) x D, its first L positions h_mllm bit for bit."""
    if f_fused.shape[0] != h_mllm.shape[0] or f_fused.shape[2] != h_mllm.shape[2]:
        raise ShapeError(
            f"conditioning concat mismatch: {h_mllm.shape} vs {f_fused.shape}"
        )
    return concat([h_mllm, f_fused], axis=1)


def fuse_single(h_mllm: Tensor, f_vggt: Tensor, w_proj, gate: GateParams) -> Tensor:
    """Full single-sequence pipeline: project (bias-free), gate, blend, append."""
    f_geo = linear(f_vggt, w_proj)
    _, fused = gate_and_fuse(h_mllm, f_geo, gate)
    return build_conditioning(h_mllm, fused)


def layerwise_fuse(per_layer_h: list, f_vggt: Tensor, w_proj, gates: list,
                   schedule: list) -> list:
    """Layer-wise variant: geometry projected once, gated per layer.

    Returns one conditioning tensor per layer.  gates and schedule hold a
    gate and a fuse/skip flag per layer; a skipped layer's conditioning is
    its semantic sequence itself (no geometric tokens appended).
    """
    f_geo = linear(f_vggt, w_proj)
    out = []
    for h, gate, fuse in zip(per_layer_h, gates, schedule):
        if fuse:
            _, fused = gate_and_fuse(h, f_geo, gate)
            out.append(build_conditioning(h, fused))
        else:
            out.append(h)
    return out


def sparse_layer_schedule(n_layers: int, k: int) -> list[bool]:
    """Fuse at every (k+1)-th layer, anchored at the shallowest; k=0 means
    every layer fuses.  `ExperimentConfig` bounds both arguments
    (n_dit_layers >= 1, sparse_k >= 0)."""
    return [(i % (k + 1)) == 0 for i in range(n_layers)]

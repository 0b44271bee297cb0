"""Toy stand-ins for the three neural components of the policy, and the
scene batch they read.

- Scenes: B scenes as three arrays, object positions (B x n x 3), object
  ids (B x n) and instruction indices (B), so every scene of a batch has
  the same object count by construction.  Indexing gives a sub-batch.
- ToyMLLM: a small pre-LN transformer over instruction + per-object visual
  tokens, in the layout `visual_span` names.  Visual tokens reveal object
  identity only; object *positions* are deliberately withheld from this
  channel, so any policy conditioned purely on the semantic stream is
  position-blind by construction.  `embed` returns the B x L x D input
  sequence and `run_layers` every layer's output, both plain Tensors.
- GeoEncoder: frozen featurizer standing in for a pretrained 3D encoder.
  Each patch token is a fixed affine embedding of one object's position
  plus a fixed per-slot offset, so positions are exactly recoverable via
  a known linear decode (used as a test oracle).
- ActionDiT: DiT-style action expert predicting flow-matching velocities.
  Block i cross-attends over the i-th of one conditioning Tensor per
  block, in both archs.  A scheme may add a parallel read to every block
  as a closure; the expert never sees the scheme's parameters.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .errors import ShapeError
from .nn import attend, attention_params, init_matrix, linear, mlp, norm, norm_params
from .rng import RngStream
from .tensor import ParamSet, Tensor, concat, embedding

MLP_RATIO = 4  # hidden width of every transformer MLP, in multiples of d


@dataclass
class Scenes:
    """A batch of B scenes on a unit-cube tabletop, each with the same n
    objects and an instruction picking one of them."""

    positions: np.ndarray  # B x n x 3, in [0, 1]^3
    object_ids: np.ndarray  # B x n
    instruction: np.ndarray  # B, an index into each scene's objects

    def __len__(self) -> int:
        return len(self.instruction)

    def __getitem__(self, idx) -> "Scenes":
        return Scenes(self.positions[idx], self.object_ids[idx], self.instruction[idx])

    def target_positions(self) -> np.ndarray:
        """B x 3: the position of each scene's instructed object."""
        return self.positions[np.arange(len(self)), self.instruction]


def visual_span(n_visual: int) -> tuple[int, int]:
    """[lo, hi) positions of the visual tokens in a backbone sequence.

    The layout: one instruction token, then one visual token per object, so
    one per geometric patch token.  Schemes may append tokens after it."""
    return 1, 1 + n_visual


def _sinusoid(pos: np.ndarray, d: int) -> np.ndarray:
    """len(pos) x d sin/cos features over a geometric frequency ladder 1..100;
    d is even (`ExperimentConfig` checks every width that reaches here)."""
    freqs = np.exp(np.linspace(0.0, np.log(100.0), d // 2))
    ang = pos[:, None] * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


def sinusoid_table(n: int, d: int) -> np.ndarray:
    """Fixed sin/cos positional table, rows indexed by position."""
    return _sinusoid(np.arange(n), d)


def timestep_embedding(tau, d: int) -> Tensor:
    """Sinusoidal embedding of flow time; tau scalar or per-sample vector."""
    t = np.atleast_1d(np.asarray(tau, dtype=np.float64))
    return Tensor(_sinusoid(t, d)[:, None, :])  # B(or 1) x 1 x D


class ToyMLLM:
    """Minimal pre-LN transformer exposing every layer's hidden states."""

    def __init__(self, cfg: ExperimentConfig, store: ParamSet, rng: RngStream):
        self.cfg = cfg
        d = cfg.d
        self.tok_embed = store.new("mllm.tok_embed", rng.normal((cfg.vocab_size, d), 0.5))
        self.vis_embed = store.new("mllm.vis_embed", rng.normal((cfg.vocab_size, d), 0.5))
        self.blocks = []
        for i in range(cfg.n_layers):
            p = f"mllm.layer{i}"
            self.blocks.append(
                {
                    "ln1": norm_params(store, f"{p}.ln1", d),
                    "attn": attention_params(store, rng, f"{p}.attn", d),
                    "ln2": norm_params(store, f"{p}.ln2", d),
                    "w1": store.new(f"{p}.mlp.w1", init_matrix(rng, d, d * MLP_RATIO)),
                    "w2": store.new(f"{p}.mlp.w2", init_matrix(rng, d * MLP_RATIO, d)),
                }
            )

    def embed(self, scenes: Scenes) -> Tensor:
        """B x L x D token embeddings of a scene batch, laid out as
        `visual_span` says, plus sin/cos positions for the length L."""
        instr = np.take_along_axis(scenes.object_ids, scenes.instruction[:, None], axis=1)
        x = concat([embedding(self.tok_embed.value, instr),
                    embedding(self.vis_embed.value, scenes.object_ids)], axis=1)
        return x + Tensor(sinusoid_table(x.shape[1], self.cfg.d))

    def run_layers(self, x: Tensor, mid_hook=None) -> list:
        """Run all blocks once, returning each block's output; `mid_hook`
        may rewrite the hidden states right after a designated layer."""
        per_layer = []
        h = x
        for i, blk in enumerate(self.blocks):
            hn = norm(h, blk["ln1"])
            h = h + attend(hn, hn, blk["attn"], self.cfg.heads)
            h = h + mlp(norm(h, blk["ln2"]), blk["w1"], blk["w2"])
            if mid_hook is not None:
                h = mid_hook(i, h)
            per_layer.append(h)
        return per_layer


class GeoEncoder:
    """Frozen geometric featurizer with an exact linear position decode."""

    INIT_SEED = 1234  # parameters are a fixed function of this seed alone

    def __init__(self, cfg: ExperimentConfig, store: ParamSet):
        self.cfg = cfg
        rng = RngStream(self.INIT_SEED, 0)
        w = rng.normal((3, cfg.d_vggt), 1.0)
        base = rng.normal((cfg.n_patches, cfg.d_vggt), 1.0)
        self.w_embed = store.new("geo.w_embed", w, trainable=not cfg.freeze_geo)
        self.base = store.new("geo.base", base, trainable=not cfg.freeze_geo)

    def forward(self, scenes: Scenes) -> Tensor:
        """Patch tokens, B x N x D_vggt: one token per object."""
        n = scenes.positions.shape[1]
        return linear(Tensor(scenes.positions), self.w_embed) + self.base.value[:n]


class ActionDiT:
    """Flow-matching action expert: self-attn + cross-attn + MLP blocks."""

    def __init__(self, cfg: ExperimentConfig, store: ParamSet, rng: RngStream):
        self.cfg = cfg
        d = cfg.d
        self.in_proj = store.new("dit.in_proj", init_matrix(rng, cfg.d_action, d))
        self.pos_table = sinusoid_table(cfg.horizon, d)
        self.blocks = []
        for i in range(cfg.n_dit_layers):
            p = f"dit.block{i}"
            self.blocks.append(
                {
                    "ln_s": norm_params(store, f"{p}.ln_s", d),
                    "self": attention_params(store, rng, f"{p}.self", d),
                    "ln_c": norm_params(store, f"{p}.ln_c", d),
                    "cross": attention_params(store, rng, f"{p}.cross", d),
                    "ln_m": norm_params(store, f"{p}.ln_m", d),
                    "w1": store.new(f"{p}.mlp.w1", init_matrix(rng, d, d * MLP_RATIO)),
                    "w2": store.new(f"{p}.mlp.w2", init_matrix(rng, d * MLP_RATIO, d)),
                }
            )
        self.ln_out = norm_params(store, "dit.ln_out", d)
        self.out_proj = store.new("dit.out_proj", init_matrix(rng, d, cfg.d_action))

    def forward(self, noisy: Tensor, conditioning: list, tau, geo_branch=None) -> Tensor:
        """Predict the velocity field for a noisy action chunk.

        conditioning: one B x L_i x D Tensor per block; block i cross-attends
        over conditioning[i].  geo_branch, when present, is a closure
        (i, zc) -> Tensor whose output block i adds to its cross-attention
        update; zc is the block's normed input to that read.
        """
        if len(conditioning) != self.cfg.n_dit_layers:
            raise ShapeError(f"{self.cfg.n_dit_layers} action blocks need as many "
                             f"conditioning Tensors, got {len(conditioning)}")
        if noisy.shape[1] != self.cfg.horizon or noisy.shape[2] != self.cfg.d_action:
            raise ShapeError(f"action chunk shape {noisy.shape} does not match config")

        z = linear(noisy, self.in_proj) + Tensor(self.pos_table[None, :, :])
        z = z + timestep_embedding(tau, self.cfg.d)
        for i, (blk, cond) in enumerate(zip(self.blocks, conditioning)):
            zn = norm(z, blk["ln_s"])
            z = z + attend(zn, zn, blk["self"], self.cfg.heads)
            zc = norm(z, blk["ln_c"])
            upd = attend(zc, cond, blk["cross"], self.cfg.heads)
            if geo_branch is not None:
                upd = upd + geo_branch(i, zc)
            z = z + upd
            z = z + mlp(norm(z, blk["ln_m"]), blk["w1"], blk["w2"])
        return linear(norm(z, self.ln_out), self.out_proj)

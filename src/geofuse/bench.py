"""Synthetic geometry-dependent benchmark: reach-to-object episodes.

Each episode places a few identifiable objects at random positions in the
unit cube and instructs the policy to reach one of them: the target chunk
is a straight-line reach from the origin home pose split into equal
per-step deltas, with the last channel closing the gripper on the final
step.  A dataset is a pair: one `Scenes` batch holding every episode's
scene, and a B x horizon x d_action array of their target chunks; a
training batch is the pair indexed by episode.  Because the semantic channel withholds positions, solving the task
requires the geometric stream, which is what every fusion experiment
here measures.  Every size and count read here comes from an
`ExperimentConfig`, which has already checked its bounds.
"""
from __future__ import annotations

import hashlib

import numpy as np

from .backbones import Scenes
from .config import OBJECT_ID_POOL, ExperimentConfig
from .optim import AdaptiveOptimizer
from .policy import FusionPolicy
from .rng import RngStream

HOME_POSE = np.zeros(3)
SUCCESS_EPS = 0.05  # max-norm action error below this counts as success


def target_actions(scenes: Scenes, horizon: int, d_action: int) -> np.ndarray:
    """Closed-form expert chunks, B x horizon x d_action: equal per-step
    deltas toward each scene's target, grasp channel firing on the last
    step (`ExperimentConfig` keeps d_action >= 4)."""
    delta = (scenes.target_positions() - HOME_POSE) / horizon
    chunks = np.zeros((len(scenes), horizon, d_action))
    chunks[:, :, :3] = delta[:, None, :]
    chunks[:, -1, -1] = 1.0
    return chunks


def corrupt_geo(tokens: np.ndarray, cfg: ExperimentConfig, rng: RngStream) -> np.ndarray:
    """Geometric tokens as a `zeros` or `gaussian` `cfg.corruption` leaves
    them; under `none`, `evaluate_policy` passes no corrupter at all."""
    if cfg.corruption == "zeros":
        return np.zeros_like(tokens)
    return rng.normal(tokens.shape, cfg.corruption_sigma)


# ------------------------------------------------------------ dataset

def make_dataset(rng: RngStream, n_episodes: int, n_objects: int, horizon: int,
                 d_action: int):
    """(scenes, expert chunks) of `n_episodes` episodes; episode i draws its
    positions, ids and instruction, in that order, from `rng.derive(i)`."""
    positions = np.empty((n_episodes, n_objects, 3))
    ids = np.empty((n_episodes, n_objects), dtype=np.int64)
    instruction = np.empty(n_episodes, dtype=np.int64)
    for i in range(n_episodes):
        r = rng.derive(i)
        positions[i] = r.uniform((n_objects, 3))
        ids[i] = r.generator.choice(OBJECT_ID_POOL, size=n_objects, replace=False)
        instruction[i] = r.integers(0, n_objects)
    scenes = Scenes(positions, ids, instruction)
    return scenes, target_actions(scenes, horizon, d_action)


def dataset_hash(dataset) -> str:
    """SHA-256 over one line per episode: `train`, the instruction index, the
    object count, per-object `id x y z`, then the flattened expert chunk,
    space-separated, floats written with repr."""
    scenes, targets = dataset
    h = hashlib.sha256()
    for pos, ids, instr, target in zip(scenes.positions.tolist(), scenes.object_ids.tolist(),
                                       scenes.instruction.tolist(),
                                       targets.reshape(len(targets), -1).tolist()):
        parts = ["train", str(instr), str(len(ids))]
        for oid, xyz in zip(ids, pos):
            parts.append(str(oid))
            parts.extend(map(repr, xyz))
        parts.extend(map(repr, target))
        h.update(" ".join(parts).encode())
    return h.hexdigest()


# ------------------------------------------------------------ train / eval

def train_policy(policy: FusionPolicy, dataset, cfg: ExperimentConfig,
                 rng: RngStream) -> list[float]:
    """Train all trainable params; returns the per-step loss curve.

    Batch order is drawn from `rng` only, so two schemes trained with the
    same data stream see the same episode sequence.
    """
    scenes, targets = dataset
    backbone, fusion = policy.param_groups()
    opt = AdaptiveOptimizer(
        policy.store, [(backbone, cfg.lr_backbone), (fusion, cfg.lr_fusion)],
        total_steps=cfg.train_steps, warmup_frac=cfg.warmup_frac,
    )
    data_rng = rng.derive(101)
    noise_rng = rng.derive(102)
    curve = []
    for _ in range(cfg.train_steps):
        idx = data_rng.integers(0, len(scenes), size=cfg.batch_size)
        loss, _ = policy.loss(scenes[idx], targets[idx], noise_rng)
        curve.append(loss.item())
        policy.store.zero_grad()
        loss.backward()
        opt.step()
    return curve


def evaluate_policy(policy: FusionPolicy, dataset, rng: RngStream,
                    cfg: ExperimentConfig) -> dict:
    """Score `policy` on the (scenes, targets) `dataset` (at least one
    episode) under `cfg.corruption`: the run record's per-task dict
    `{"success_rate", "mean_l2_error", "n_episodes"}`."""
    scenes, targets = dataset
    corrupt_rng = rng.derive(7)

    def corrupter(tokens):
        return corrupt_geo(tokens, cfg, corrupt_rng)

    pred = policy.predict(scenes, rng.derive(8),
                          corrupter if cfg.corruption != "none" else None)
    err = pred - targets
    max_err = np.abs(err).reshape(len(scenes), -1).max(axis=1)
    l2 = np.sqrt((err**2).reshape(len(scenes), -1).sum(axis=1))
    return {"success_rate": float((max_err < SUCCESS_EPS).mean()),
            "mean_l2_error": float(l2.mean()), "n_episodes": len(scenes)}

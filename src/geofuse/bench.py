"""Synthetic geometry-dependent benchmark: reach-to-object episodes.

Each episode places a few identifiable objects at random positions in the
unit cube and instructs the policy to reach one of them: the target chunk
is a straight-line reach from the origin home pose split into equal
per-step deltas, with the last channel closing the gripper on the final
step.  Because the semantic channel withholds positions, solving the task
requires the geometric stream, which is what every fusion experiment
here measures.  Every size and count read here comes from an
`ExperimentConfig`, which has already checked its bounds.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .config import OBJECT_ID_POOL, ExperimentConfig
from .errors import TrainingError
from .optim import AdaptiveOptimizer
from .policy import FusionPolicy
from .rng import RngStream
from .backbones import SceneSpec

HOME_POSE = np.zeros(3)
SUCCESS_EPS = 0.05  # max-norm action error below this counts as success


@dataclass
class Episode:
    scene: SceneSpec
    target: np.ndarray  # T x d_a ground-truth chunk
    split: str = "train"


@dataclass
class Metrics:
    success_rate: float
    mean_l2_error: float
    n_episodes: int


def target_action(scene: SceneSpec, horizon: int, d_action: int) -> np.ndarray:
    """Closed-form expert chunk: equal per-step deltas toward the target,
    grasp channel firing on the last step (`ExperimentConfig` keeps
    d_action >= 4)."""
    delta = (scene.target_position - HOME_POSE) / horizon
    chunk = np.zeros((horizon, d_action))
    chunk[:, :3] = delta
    chunk[-1, -1] = 1.0
    return chunk


def generate_episode(rng: RngStream, n_objects: int, horizon: int, d_action: int,
                     split: str = "train") -> Episode:
    """A scene of `n_objects` objects (`ExperimentConfig` bounds the count)."""
    positions = rng.uniform((n_objects, 3))
    ids = list(rng.generator.choice(OBJECT_ID_POOL, size=n_objects, replace=False))
    instruction = int(rng.integers(0, n_objects))
    scene = SceneSpec(positions, [int(i) for i in ids], instruction)
    return Episode(scene, target_action(scene, horizon, d_action), split)


def corrupt_geo(tokens: np.ndarray, cfg: ExperimentConfig, rng: RngStream) -> np.ndarray:
    """Geometric tokens as `cfg.corruption` leaves them."""
    if cfg.corruption == "none":
        return tokens
    if cfg.corruption == "zeros":
        return np.zeros_like(tokens)
    return rng.normal(tokens.shape, cfg.corruption_sigma)


# ------------------------------------------------------------ dataset hash

def episode_to_line(ep: Episode) -> str:
    """The hashed form of an episode: split, instruction index, object
    count, then per-object `id x y z`, then the flattened target chunk,
    space-separated decimal floats written with repr."""
    parts = [ep.split, str(ep.scene.instruction_id), str(ep.scene.n_objects)]
    for oid, pos in zip(ep.scene.object_ids, ep.scene.object_positions):
        parts.append(str(oid))
        parts.extend(repr(float(v)) for v in pos)
    parts.extend(repr(float(v)) for v in ep.target.reshape(-1))
    return " ".join(parts)


def dataset_hash(episodes) -> str:
    h = hashlib.sha256()
    for ep in episodes:
        h.update(episode_to_line(ep).encode())
    return h.hexdigest()


def make_dataset(rng: RngStream, n_episodes: int, n_objects: int, horizon: int,
                 d_action: int, split: str = "train"):
    return [generate_episode(rng.derive(i), n_objects, horizon, d_action, split)
            for i in range(n_episodes)]


# ------------------------------------------------------------ train / eval

def train_policy(policy: FusionPolicy, episodes, cfg: ExperimentConfig,
                 rng: RngStream) -> list[float]:
    """Train all trainable params; returns the per-step loss curve.

    Batch order is drawn from `rng` only, so two schemes trained with the
    same data stream see the same episode sequence.
    """
    backbone, fusion = policy.param_groups()
    opt = AdaptiveOptimizer(
        [(backbone, cfg.lr_backbone), (fusion, cfg.lr_fusion)],
        total_steps=cfg.train_steps, warmup_frac=cfg.warmup_frac,
    )
    data_rng = rng.derive(101)
    noise_rng = rng.derive(102)
    curve = []
    n = len(episodes)
    for step in range(cfg.train_steps):
        idx = data_rng.integers(0, n, size=cfg.batch_size)
        scenes = [episodes[i].scene for i in idx]
        actions = np.stack([episodes[i].target for i in idx])
        loss, _ = policy.loss(scenes, actions, noise_rng)
        val = loss.item()
        if not np.isfinite(val):
            raise TrainingError(f"training diverged at step {step}")
        curve.append(val)
        policy.store.zero_grad()
        loss.backward()
        opt.step()
    return curve


def evaluate_policy(policy: FusionPolicy, episodes, rng: RngStream,
                    cfg: ExperimentConfig) -> Metrics:
    """Score `policy` on `episodes` (at least one) under `cfg.corruption`."""
    corrupt_rng = rng.derive(7)

    def corrupter(tokens):
        return corrupt_geo(tokens, cfg, corrupt_rng)

    scenes = [ep.scene for ep in episodes]
    targets = np.stack([ep.target for ep in episodes])
    pred = policy.predict(scenes, rng.derive(8),
                          corrupter if cfg.corruption != "none" else None)
    err = pred - targets
    max_err = np.abs(err).reshape(len(episodes), -1).max(axis=1)
    l2 = np.sqrt((err**2).reshape(len(episodes), -1).sum(axis=1))
    return Metrics(
        success_rate=float((max_err < SUCCESS_EPS).mean()),
        mean_l2_error=float(l2.mean()),
        n_episodes=len(episodes),
    )

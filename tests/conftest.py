"""Shared helpers: one tiny model config, a tiny policy, scene builders,
the committed score-table fixtures and a finite-difference gradient check,
for fast tests.  Loads a derandomized Hypothesis profile."""
import csv
import pathlib

import numpy as np
import pytest
from hypothesis import settings

from geofuse.backbones import Scenes
from geofuse.config import ExperimentConfig
from geofuse.errors import NumericError
from geofuse.policy import FusionPolicy
from geofuse.rng import RngStream
from geofuse.runner import TableRow

DATA_DIR = pathlib.Path(__file__).parent / "data"

# every property test draws the same examples on every run
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def tiny_cfg(**kw):
    base = dict(d=8, n_layers=2, heads=2, vocab_size=16, n_patches=4,
                d_vggt=6, n_dit_layers=2, horizon=2, d_action=4)
    base.update(kw)
    return ExperimentConfig(**base)


# the tiny model's overrides for a whole run: a short budget, few Euler steps
TINY_RUN = dict(euler_steps=2, train_steps=5, batch_size=4, dataset_size=8,
                eval_episodes=4)


def tiny_policy(scheme, arch="groot"):
    return FusionPolicy(tiny_cfg(scheme=scheme, arch=arch), RngStream(99, 0))


def make_scenes(rng: RngStream, n_scenes: int, n_objects: int = 2, id_pool: int = 12):
    """A `Scenes` batch; scene by scene, positions, ids, then the instruction."""
    draws = [(rng.uniform((n_objects, 3)),
              rng.generator.choice(id_pool, size=n_objects, replace=False),
              rng.integers(0, n_objects)) for _ in range(n_scenes)]
    pos, ids, instr = zip(*draws)
    return Scenes(np.stack(pos), np.stack(ids), np.array(instr))


def one_scene(positions, ids, instruction):
    """A `Scenes` batch of one scene."""
    return Scenes(np.array([positions], dtype=float), np.array([ids]), np.array([instruction]))


def rows_from_csv(name):
    """Table rows of a committed score fixture under tests/data."""
    rows = []
    with open(DATA_DIR / name) as fh:
        for rec in csv.DictReader(fh):
            method = rec.pop("method")
            group = rec.pop("group")
            is_base = rec.pop("is_base") == "1"
            scores = {k: float(v) for k, v in rec.items()}
            rows.append(TableRow(method, scores, group=group, is_base=is_base))
    return rows


def grad_check(loss_fn, params, rng: RngStream, n_coords: int = 50, h: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_fn must be a deterministic closure returning a scalar Tensor.
    Coordinates are sampled across all trainable params; frozen params are
    asserted to receive no gradient.
    """
    params = list(params)
    for p in params:
        p.value.grad = None
    loss = loss_fn()
    if not np.isfinite(loss.data):
        raise NumericError("grad_check: non-finite loss")
    loss.backward()

    trainables = [p for p in params if p.value.requires_grad]
    for p in params:
        if not p.value.requires_grad and p.value.grad is not None:
            raise NumericError(f"frozen param {p.id} received a gradient")

    coords = []
    for p in trainables:
        g = p.value.grad
        if g is None:
            g = np.zeros_like(p.value.data)
            p.value.grad = g
        coords.extend((p, i) for i in range(p.value.data.size))
    if len(coords) > n_coords:
        pick = rng.generator.choice(len(coords), size=n_coords, replace=False)
        coords = [coords[i] for i in sorted(pick)]

    worst = 0.0
    for p, flat_i in coords:
        buf = p.value.data.reshape(-1)
        orig = buf[flat_i]
        buf[flat_i] = orig + h
        lp = loss_fn().item()
        buf[flat_i] = orig - h
        lm = loss_fn().item()
        buf[flat_i] = orig
        cd = (lp - lm) / (2 * h)
        an = p.value.grad.reshape(-1)[flat_i]
        rel = abs(an - cd) / (abs(an) + abs(cd) + 1e-8)
        worst = max(worst, rel)
    return worst


@pytest.fixture
def rng():
    return RngStream(1234, 5)

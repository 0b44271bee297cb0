"""Shared helpers: one tiny model config, a tiny policy, scene builders
and the committed score-table fixtures, for fast tests."""
import csv
import pathlib

import pytest

from geofuse.backbones import SceneSpec
from geofuse.config import ExperimentConfig
from geofuse.policy import FusionPolicy
from geofuse.rng import RngStream
from geofuse.runner import TableRow

DATA_DIR = pathlib.Path(__file__).parent / "data"


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
    scenes = []
    for _ in range(n_scenes):
        pos = rng.uniform((n_objects, 3))
        ids = [int(i) for i in rng.generator.choice(id_pool, size=n_objects, replace=False)]
        instr = int(rng.integers(0, n_objects))
        scenes.append(SceneSpec(pos, ids, instr))
    return scenes


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


@pytest.fixture
def rng():
    return RngStream(1234, 5)

"""Shared helpers: one tiny model config, a tiny policy and scene builders
for fast tests."""
import pathlib

import pytest

from geofuse.backbones import SceneSpec
from geofuse.config import ExperimentConfig
from geofuse.policy import FusionPolicy
from geofuse.rng import RngStream

DATA_DIR = pathlib.Path(__file__).parent / "data"


def tiny_cfg(**kw):
    base = dict(d=8, n_layers=2, heads=2, l_max=16, vocab_size=16, n_patches=4,
                d_vggt=6, n_dit_layers=2, horizon=2, d_action=3)
    base.update(kw)
    return ExperimentConfig(**base)


# the tiny model's overrides for a whole run: a short budget, few Euler steps
TINY_RUN = dict(d_action=4, euler_steps=2, train_steps=5, batch_size=4, dataset_size=8,
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


@pytest.fixture
def rng():
    return RngStream(1234, 5)

"""Benchmark: episode generation, expert chunks vs the golden fixture,
the dataset hash, corruption modes, and a short training smoke run."""
import hashlib

import numpy as np
import pytest

from conftest import DATA_DIR, one_scene, tiny_cfg
from geofuse import bench
from geofuse.backbones import Scenes
from geofuse.bench import (
    HOME_POSE,
    SUCCESS_EPS,
    corrupt_geo,
    dataset_hash,
    evaluate_policy,
    make_dataset,
    target_actions,
    train_policy,
)
from geofuse.config import ExperimentConfig
from geofuse.errors import ConfigError
from geofuse.policy import FusionPolicy
from geofuse.rng import RngStream


CHUNK = (4, 7)  # horizon, d_action: the default config's, and the golden fixture's shape


# ------------------------------------------------------------------ episodes

def test_generate_episode_deterministic(rng):
    """Episode i draws its positions, ids, then its instruction from
    rng.derive(i), so a dataset is a function of its stream, and growing it
    leaves its first episodes (and their hash lines) as they were."""
    scenes, _ = make_dataset(rng, 6, 3, *CHUNK)
    for i in range(6):
        r = rng.derive(i)
        np.testing.assert_array_equal(scenes.positions[i], r.uniform((3, 3)))
        np.testing.assert_array_equal(scenes.object_ids[i], r.generator.choice(16, 3, replace=False))
        assert scenes.instruction[i] == r.integers(0, 3)


def test_generate_episode_support_and_validity(rng):
    scenes, targets = make_dataset(rng, 50, 3, *CHUNK)
    assert scenes.positions.shape == (50, 3, 3) and targets.shape == (50, *CHUNK)
    assert np.all((scenes.positions >= 0) & (scenes.positions <= 1))
    assert np.all((scenes.instruction >= 0) & (scenes.instruction < 3))
    assert all(len(set(row)) == 3 for row in scenes.object_ids)
    for i in range(50):  # the expert chunk, built one episode at a time
        want = np.zeros(CHUNK)
        want[:, :3] = (scenes.positions[i, scenes.instruction[i]] - HOME_POSE) / CHUNK[0]
        want[-1, -1] = 1.0
        np.testing.assert_array_equal(targets[i], want)


# ------------------------------------------------------------------ expert chunks

def test_target_action_zero_reach():
    chunk = target_actions(one_scene(HOME_POSE[None, :], [3], 0), *CHUNK)[0]
    np.testing.assert_array_equal(chunk[:, :6], 0.0)
    assert chunk[-1, 6] == 1.0


def test_target_action_linearity():
    near = one_scene([[0.2, 0.1, 0.3]], [3], 0)
    far = one_scene([[0.4, 0.2, 0.6]], [3], 0)
    np.testing.assert_allclose(target_actions(far, *CHUNK)[:, :, :3],
                               2 * target_actions(near, *CHUNK)[:, :, :3], atol=1e-15)


def test_target_action_matches_golden_fixture():
    scene = one_scene([[0.5, 0.5, 0.5]], [3], 0)
    rows = [
        [float(v) for v in line.split()]
        for line in (DATA_DIR / "golden_reach_chunk.txt").read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]
    np.testing.assert_array_equal(target_actions(scene, *CHUNK)[0], np.array(rows))


def test_target_action_reaches_instructed_object():
    scenes = Scenes(np.array([[[0.9, 0.1, 0.4], [0.2, 0.8, 0.6]]] * 2), np.array([[1, 2]] * 2),
                    np.array([1, 0]))
    chunks = target_actions(scenes, *CHUNK)
    np.testing.assert_allclose(chunks[:, :, :3].sum(axis=1), [[0.2, 0.8, 0.6], [0.9, 0.1, 0.4]],
                               atol=1e-15)


# ------------------------------------------------------------------ corruption

@pytest.mark.parametrize("corruption,calls", [("none", 0), ("zeros", 1)])
def test_evaluate_under_none_never_calls_corrupt_geo(monkeypatch, corruption, calls):
    """`none` leaves the geometric tokens to `predict` untouched: no corrupter
    is passed, so `corrupt_geo` runs only for a real corruption mode."""
    seen = []
    monkeypatch.setattr(bench, "corrupt_geo", lambda tokens, cfg, rng: seen.append(1) or tokens)
    pol, cfg = _tiny_run("gated_fusion", corruption=corruption, euler_steps=1)
    evaluate_policy(pol, _tiny_dataset(3, 4), RngStream(2, 2), cfg)
    assert len(seen) == calls


def test_corrupt_zeros(rng):
    t = rng.normal((2, 3, 4))
    out = corrupt_geo(t, ExperimentConfig(corruption="zeros"), rng)
    assert np.abs(out).sum() == 0.0 and out.shape == t.shape


def test_corrupt_gaussian_moments():
    t = np.zeros((100, 100))
    out = corrupt_geo(t, ExperimentConfig(corruption="gaussian", corruption_sigma=1.0),
                      RngStream(5, 5))
    assert abs(out.std() - 1.0) < 0.05


def test_corruption_mode_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(corruption="sometimes")
    with pytest.raises(ConfigError):
        ExperimentConfig(corruption="gaussian", corruption_sigma=0.0)


# ------------------------------------------------------------------ dataset hash

def test_dataset_hash_hashes_one_line_per_episode():
    """The README format: `train instr n (id x y z)xn chunk...`, floats by repr."""
    positions = [[[0.5, 0.25, 1.0], [0.1, 0.2, 0.3]], [[0.0, 0.75, 0.5], [1.0, 1.0, 0.0]]]
    scenes = Scenes(np.array(positions), np.array([[7, 2], [0, 15]]), np.array([1, 0]))
    targets = target_actions(scenes, 2, 4)
    lines = ["train 1 2 7 0.5 0.25 1.0 2 0.1 0.2 0.3 "
             "0.05 0.1 0.15 0.0 0.05 0.1 0.15 1.0",
             "train 0 2 0 0.0 0.75 0.5 15 1.0 1.0 0.0 "
             "0.0 0.375 0.25 0.0 0.0 0.375 0.25 1.0"]
    assert dataset_hash((scenes, targets)) == hashlib.sha256("".join(lines).encode()).hexdigest()


def test_dataset_hash_is_sensitive(rng):
    a = make_dataset(RngStream(1, 1), 8, 2, *CHUNK)
    b = make_dataset(RngStream(1, 2), 8, 2, *CHUNK)
    assert dataset_hash(a) != dataset_hash(b)
    assert dataset_hash(a) == dataset_hash(make_dataset(RngStream(1, 1), 8, 2, *CHUNK))


# ------------------------------------------------------------------ evaluation

class _StubPolicy:
    def __init__(self, outputs):
        self.outputs = outputs

    def predict(self, scenes, rng, corruption=None):
        return self.outputs


def test_oracle_policy_scores_perfectly(rng):
    eps = make_dataset(rng, 16, 1, *CHUNK)
    _, targets = eps
    m = evaluate_policy(_StubPolicy(targets), eps, RngStream(2, 2), ExperimentConfig())
    assert m["success_rate"] == 1.0 and m["mean_l2_error"] == 0.0


def test_random_policy_scores_zero(rng):
    eps = make_dataset(rng, 32, 1, *CHUNK)
    noise = RngStream(9, 9).normal((32, 4, 7))
    m = evaluate_policy(_StubPolicy(noise), eps, RngStream(2, 2), ExperimentConfig())
    assert m["success_rate"] <= 1.0 / 32


def test_success_threshold_boundary(rng):
    eps = make_dataset(rng, 8, 1, *CHUNK)
    _, targets = eps
    just_outside = targets + (SUCCESS_EPS + 1e-9)
    m = evaluate_policy(_StubPolicy(just_outside), eps, RngStream(2, 2), ExperimentConfig())
    assert m["success_rate"] == 0.0


def test_evaluate_requires_episodes():
    """An empty eval split is refused by the config, before any training."""
    with pytest.raises(ConfigError, match="eval_episodes"):
        tiny_cfg(eval_episodes=0)


# ------------------------------------------------------------------ training smoke

def _tiny_run(scheme, **budget):
    """A tiny policy and the config its training reads."""
    cfg = tiny_cfg(scheme=scheme, **budget)
    return FusionPolicy(cfg, RngStream(50, 0)), cfg


def _tiny_dataset(seed, n):
    return make_dataset(RngStream(seed, 1), n, n_objects=1, horizon=2, d_action=4)


def test_training_reduces_loss_and_respects_freeze():
    pol, cfg = _tiny_run("gated_fusion", train_steps=120, batch_size=8)
    frozen_before = pol.geo_encoder.w_embed.value.data.copy()
    eps = _tiny_dataset(4, 64)
    curve = train_policy(pol, eps, cfg, RngStream(4, 2))
    assert len(curve) == 120
    assert np.mean(curve[-10:]) < curve[0]
    np.testing.assert_array_equal(pol.geo_encoder.w_embed.value.data, frozen_before)


def test_training_is_deterministic():
    curves = []
    for _ in range(2):
        pol, cfg = _tiny_run("gated_fusion", train_steps=25, batch_size=8)
        curve = train_policy(pol, _tiny_dataset(4, 32), cfg, RngStream(4, 2))
        curves.append(curve)
    assert curves[0] == curves[1]


def test_training_rejects_empty_dataset():
    """An empty training set is refused by the config, before any model is built."""
    with pytest.raises(ConfigError, match="dataset_size"):
        tiny_cfg(dataset_size=0)

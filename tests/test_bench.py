"""Benchmark: episode generation, expert chunks vs the golden fixture,
dataset round-trips, corruption modes, and a short training smoke run."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import DATA_DIR, tiny_cfg
from geofuse.backbones import SceneSpec
from geofuse.bench import (
    HOME_POSE,
    SUCCESS_EPS,
    Episode,
    corrupt_geo,
    dataset_hash,
    episode_from_line,
    episode_to_line,
    evaluate_policy,
    generate_episode,
    load_dataset,
    make_dataset,
    save_dataset,
    target_action,
    train_policy,
)
from geofuse.config import ExperimentConfig
from geofuse.errors import ConfigError, DomainError, GeofuseError
from geofuse.policy import FusionPolicy
from geofuse.rng import RngStream


CHUNK = (4, 7)  # horizon, d_action: the default config's, and the golden fixture's shape


# ------------------------------------------------------------------ episodes

def test_generate_episode_deterministic():
    a = generate_episode(RngStream(3, 1), 2, *CHUNK)
    b = generate_episode(RngStream(3, 1), 2, *CHUNK)
    np.testing.assert_array_equal(a.scene.object_positions, b.scene.object_positions)
    assert a.scene.object_ids == b.scene.object_ids
    assert a.scene.instruction_id == b.scene.instruction_id
    np.testing.assert_array_equal(a.target, b.target)


def test_generate_episode_support_and_validity(rng):
    for i in range(50):
        ep = generate_episode(rng.derive(i), 3, *CHUNK)
        pos = ep.scene.object_positions
        assert np.all((pos >= 0) & (pos <= 1))
        assert 0 <= ep.scene.instruction_id < 3
        assert len(set(ep.scene.object_ids)) == 3
        np.testing.assert_array_equal(ep.target, target_action(ep.scene, *CHUNK))


# ------------------------------------------------------------------ expert chunks

def test_target_action_zero_reach():
    scene = SceneSpec(HOME_POSE[None, :], [3], 0)
    chunk = target_action(scene, *CHUNK)
    np.testing.assert_array_equal(chunk[:, :6], 0.0)
    assert chunk[-1, 6] == 1.0


def test_target_action_linearity():
    near = SceneSpec(np.array([[0.2, 0.1, 0.3]]), [3], 0)
    far = SceneSpec(np.array([[0.4, 0.2, 0.6]]), [3], 0)
    np.testing.assert_allclose(target_action(far, *CHUNK)[:, :3],
                               2 * target_action(near, *CHUNK)[:, :3], atol=1e-15)


def test_target_action_matches_golden_fixture():
    scene = SceneSpec(np.array([[0.5, 0.5, 0.5]]), [3], 0)
    rows = [
        [float(v) for v in line.split()]
        for line in (DATA_DIR / "golden_reach_chunk.txt").read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]
    np.testing.assert_array_equal(target_action(scene, *CHUNK), np.array(rows))


def test_target_action_reaches_instructed_object():
    scene = SceneSpec(np.array([[0.9, 0.1, 0.4], [0.2, 0.8, 0.6]]), [1, 2], 1)
    chunk = target_action(scene, *CHUNK)
    np.testing.assert_allclose(chunk[:, :3].sum(axis=0), [0.2, 0.8, 0.6], atol=1e-15)


# ------------------------------------------------------------------ corruption

def test_corrupt_none_is_bitwise_passthrough(rng):
    t = rng.normal((2, 3, 4))
    assert corrupt_geo(t, ExperimentConfig(corruption="none"), rng) is t


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


# ------------------------------------------------------------------ dataset io

def test_episode_line_round_trip(rng):
    ep = generate_episode(rng, 3, *CHUNK)
    back = episode_from_line(episode_to_line(ep), *CHUNK)
    np.testing.assert_array_equal(ep.scene.object_positions,
                                  back.scene.object_positions)
    assert ep.scene.object_ids == back.scene.object_ids
    assert ep.scene.instruction_id == back.scene.instruction_id
    np.testing.assert_array_equal(ep.target, back.target)
    assert ep.split == back.split


@pytest.mark.parametrize("field,value", [
    (3, "-1"),   # object id
    (4, "1.5"),  # x coordinate
    (1, "3"),    # instruction index of a 3-object scene
])
def test_episode_line_with_out_of_range_value_raises_domain_error(rng, field, value):
    toks = episode_to_line(generate_episode(rng, 3, *CHUNK)).split()
    toks[field] = value
    with pytest.raises(DomainError):
        episode_from_line(" ".join(toks), *CHUNK)


@st.composite
def episodes(draw):
    """(episode, horizon, d_action) with arbitrary finite floats."""
    n = draw(st.integers(1, 8))
    horizon, d_action = draw(st.integers(1, 5)), draw(st.integers(4, 8))
    unit = st.floats(0.0, 1.0)
    pos = draw(st.lists(st.lists(unit, min_size=3, max_size=3), min_size=n, max_size=n))
    ids = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    target = draw(st.lists(finite, min_size=horizon * d_action, max_size=horizon * d_action))
    scene = SceneSpec(np.array(pos), ids, draw(st.integers(0, n - 1)))
    ep = Episode(scene, np.array(target).reshape(horizon, d_action),
                 draw(st.sampled_from(["train", "eval"])))
    return ep, horizon, d_action


@given(episodes())
def test_episode_line_round_trip_is_exact(case):
    ep, horizon, d_action = case
    back = episode_from_line(episode_to_line(ep), horizon, d_action)
    assert back.scene.object_positions.tobytes() == ep.scene.object_positions.tobytes()
    assert back.scene.object_ids == ep.scene.object_ids
    assert back.scene.instruction_id == ep.scene.instruction_id
    assert back.target.tobytes() == ep.target.tobytes()
    assert back.split == ep.split


@given(episodes(), st.data())
def test_truncated_episode_line_raises_typed_error(case, data):
    ep, horizon, d_action = case
    toks = episode_to_line(ep).split()
    cut = data.draw(st.integers(0, len(toks) - 1))
    with pytest.raises(GeofuseError):
        episode_from_line(" ".join(toks[:cut]), horizon, d_action)


def _not_a_number(tok):
    try:
        float(tok)
    except ValueError:
        return True
    return False


@given(episodes(), st.data())
def test_non_numeric_episode_token_raises_typed_error(case, data):
    ep, horizon, d_action = case
    toks = episode_to_line(ep).split()
    i = data.draw(st.integers(1, len(toks) - 1))  # token 0 is the free-text split
    toks[i] = data.draw(st.text("abcdefxyz_-+", min_size=1).filter(_not_a_number))
    with pytest.raises(GeofuseError):
        episode_from_line(" ".join(toks), horizon, d_action)


def test_dataset_file_round_trip(tmp_path, rng):
    eps = make_dataset(rng, 10, 2, *CHUNK)
    path = tmp_path / "ds.txt"
    save_dataset(eps, path)
    back = load_dataset(path, *CHUNK)
    assert dataset_hash(eps) == dataset_hash(back)


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
    targets = np.stack([e.target for e in eps])
    m = evaluate_policy(_StubPolicy(targets), eps, RngStream(2, 2), ExperimentConfig())
    assert m.success_rate == 1.0 and m.mean_l2_error == 0.0


def test_random_policy_scores_zero(rng):
    eps = make_dataset(rng, 32, 1, *CHUNK)
    noise = RngStream(9, 9).normal((32, 4, 7))
    m = evaluate_policy(_StubPolicy(noise), eps, RngStream(2, 2), ExperimentConfig())
    assert m.success_rate <= 1.0 / 32


def test_success_threshold_boundary(rng):
    eps = make_dataset(rng, 8, 1, *CHUNK)
    targets = np.stack([e.target for e in eps])
    just_outside = targets + (SUCCESS_EPS + 1e-9)
    m = evaluate_policy(_StubPolicy(just_outside), eps, RngStream(2, 2), ExperimentConfig())
    assert m.success_rate == 0.0


def test_evaluate_requires_episodes(rng):
    with pytest.raises(ConfigError):
        evaluate_policy(_StubPolicy(None), [], rng, ExperimentConfig())


# ------------------------------------------------------------------ training smoke

def _tiny_run(scheme, **budget):
    """A tiny policy and the config its training reads."""
    cfg = tiny_cfg(scheme=scheme, d_action=4, **budget)
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
    with pytest.raises(ConfigError):
        pol, cfg = _tiny_run("none", train_steps=1)
        train_policy(pol, [], cfg, RngStream(0, 0))

"""Flow-matching identities: interpolant endpoints, Beta-time moments, MSE
oracle, and Euler exactness for constant velocity fields."""
import numpy as np
import pytest

from geofuse.config import ExperimentConfig
from geofuse.errors import ConfigError, NumericError, ShapeError
from geofuse.flow import euler_integrate, fm_loss, fm_training_targets, sample_tau
from geofuse.rng import RngStream
from geofuse.tensor import Tensor


def test_flow_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(tau_alpha=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(tau_beta=-1.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(euler_steps=0)


# ------------------------------------------------------------------ tau

def test_tau_uniform_mean(rng):
    draws = sample_tau(rng, ExperimentConfig(tau_alpha=1.0, tau_beta=1.0), size=10_000)
    assert abs(draws.mean() - 0.5) < 0.02
    assert np.all((draws > 0) & (draws < 1))


def test_tau_beta22_moments(rng):
    """Beta(a, b) moments; the asymmetric Beta(2, 5), mean 2/7, tells a from b."""
    for a, b in ((2.0, 2.0), (2.0, 5.0)):
        draws = sample_tau(rng, ExperimentConfig(tau_alpha=a, tau_beta=b), size=10_000)
        assert abs(draws.mean() - a / (a + b)) < 0.02
        # Beta variance: ab / ((a+b)^2 (a+b+1)); 4/80 = 0.05 for Beta(2, 2)
        assert abs(draws.var() - a * b / ((a + b) ** 2 * (a + b + 1))) < 0.01


def test_tau_deterministic_given_stream():
    a = sample_tau(RngStream(5, 5), ExperimentConfig(), size=16)
    b = sample_tau(RngStream(5, 5), ExperimentConfig(), size=16)
    np.testing.assert_array_equal(a, b)


# ------------------------------------------------------------------ targets

def test_targets_endpoints(rng):
    a = rng.normal((3, 4, 7))
    eps = rng.normal((3, 4, 7))
    a_tau, v = fm_training_targets(a, eps, 0.0)
    np.testing.assert_array_equal(a_tau, eps)
    a_tau, _ = fm_training_targets(a, eps, 1.0)
    np.testing.assert_array_equal(a_tau, a)
    np.testing.assert_array_equal(v, a - eps)


def test_targets_degenerate_noise_equals_actions(rng):
    a = rng.normal((2, 3, 5))
    for tau in (0.0, 0.3, 1.0):
        a_tau, v = fm_training_targets(a, a.copy(), tau)
        np.testing.assert_allclose(a_tau, a, atol=1e-15)
        np.testing.assert_array_equal(v, 0.0)


def test_targets_per_sample_tau(rng):
    a = rng.normal((2, 3, 5))
    eps = rng.normal((2, 3, 5))
    tau = np.array([0.0, 1.0])
    a_tau, _ = fm_training_targets(a, eps, tau)
    np.testing.assert_array_equal(a_tau[0], eps[0])
    np.testing.assert_array_equal(a_tau[1], a[1])


def test_targets_shape_mismatch(rng):
    with pytest.raises(ShapeError):
        fm_training_targets(rng.normal((2, 3, 5)), rng.normal((2, 3, 4)), 0.5)


# ------------------------------------------------------------------ loss

def test_loss_zero_iff_exact(rng):
    v = rng.normal((2, 3, 5))
    assert fm_loss(Tensor(v), v).item() == 0.0
    assert fm_loss(Tensor(v + 0.1), v).item() > 0.0


def test_loss_constant_offset(rng):
    v = rng.normal((2, 3, 5))
    assert abs(fm_loss(Tensor(v + 2.5), v).item() - 2.5**2) < 1e-12


def test_loss_matches_loop_oracle(rng):
    pred = rng.normal((2, 3, 4))
    target = rng.normal((2, 3, 4))
    acc = 0.0
    for b in range(2):
        for t in range(3):
            for d in range(4):
                acc += (pred[b, t, d] - target[b, t, d]) ** 2
    want = acc / (2 * 3 * 4)
    assert abs(fm_loss(Tensor(pred), target).item() - want) < 1e-12


# ------------------------------------------------------------------ euler

def test_euler_exact_for_constant_velocity(rng):
    """The true velocity of the linear interpolation path is the constant
    A - eps, so one Euler step is already exact at any step count."""
    target = rng.normal((3, 4, 7))
    for n in (1, 5, 10):
        cfg = ExperimentConfig(euler_steps=n)
        start = RngStream(21, 4).normal((3, 4, 7), cfg.noise_std)
        out = euler_integrate(lambda a, tau: target - start, (3, 4, 7),
                              RngStream(21, 4), cfg)
        assert np.max(np.abs(out - target)) < 1e-12


def test_euler_step_count_invariance_for_constant_field(rng):
    target = rng.normal((2, 2, 3))
    outs = []
    for n in (1, 10):
        start = RngStream(8, 8).normal((2, 2, 3))
        outs.append(euler_integrate(lambda a, tau: target - start, (2, 2, 3),
                                    RngStream(8, 8), ExperimentConfig(euler_steps=n)))
    assert np.max(np.abs(outs[0] - outs[1])) < 1e-12


def test_euler_zero_velocity_returns_initial_noise():
    cfg = ExperimentConfig(euler_steps=7)
    out = euler_integrate(lambda a, tau: np.zeros_like(a), (2, 3, 4),
                          RngStream(3, 9), cfg)
    np.testing.assert_array_equal(out, RngStream(3, 9).normal((2, 3, 4), cfg.noise_std))


def test_euler_left_endpoint_grid():
    """The velocity callback sees tau = 0, 1/N, ..., (N-1)/N exactly."""
    seen = []

    def vel(a, tau):
        seen.append(tau)
        return np.zeros_like(a)

    euler_integrate(vel, (1, 1, 1), RngStream(0, 0), ExperimentConfig(euler_steps=4))
    assert seen == [0.0, 0.25, 0.5, 0.75]


def test_euler_rejects_nonfinite_state():
    def vel(a, tau):
        return np.full_like(a, 1e308) * 1e10  # inf

    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
        euler_integrate(vel, (1, 2, 2), RngStream(1, 1), ExperimentConfig(euler_steps=2))

"""Flow-matching objective and Euler-integration inference.

Training draws a time tau from a Beta distribution, linearly interpolates
Gaussian noise with the ground-truth action chunk, and regresses the
constant per-sample velocity (target minus noise) with MSE.  Inference
integrates the learned velocity field from pure noise with left-endpoint
Euler steps on a uniform grid starting at tau=0.
"""
from __future__ import annotations

import numpy as np

from .config import ExperimentConfig
from .errors import NumericError, ShapeError
from .nn import mse
from .rng import RngStream
from .tensor import Tensor


def sample_tau(rng: RngStream, cfg: ExperimentConfig, size=None):
    """Beta(tau_alpha, tau_beta) flow time; per-sample when size is given."""
    return rng.beta(cfg.tau_alpha, cfg.tau_beta, size=size)


def fm_training_targets(actions: np.ndarray, eps: np.ndarray, tau):
    """Interpolant and velocity target: A_tau = (1-tau) eps + tau A, v = A - eps."""
    if actions.shape != eps.shape:
        raise ShapeError(f"actions {actions.shape} vs noise {eps.shape}")
    t = np.asarray(tau, dtype=np.float64)
    if t.ndim == 1:  # per-sample tau over the batch axis
        t = t[:, None, None]
    a_tau = (1.0 - t) * eps + t * actions
    v = actions - eps
    return a_tau, v


def fm_loss(v_pred: Tensor, v_target: np.ndarray) -> Tensor:
    """MSE over every batch/time/channel entry."""
    return mse(v_pred, Tensor(v_target))


def euler_integrate(velocity_fn, shape, rng: RngStream, cfg: ExperimentConfig) -> np.ndarray:
    """Integrate from noise: A <- A + (1/N) v(A, tau) for tau = 0, 1/N, ...
    with N = cfg.euler_steps.

    velocity_fn(a: ndarray, tau: float) -> ndarray of the same shape.
    """
    a = rng.normal(shape, cfg.noise_std)
    n = cfg.euler_steps
    for i in range(n):
        v = np.asarray(velocity_fn(a, i / n))
        a = a + v / n
        if not np.all(np.isfinite(a)):
            raise NumericError(f"non-finite action state at integration step {i}")
    return a

"""The optimizer's one path: warmup + cosine schedule, the bias-corrected
second-moment update, per-group peak learning rates, and parameters that
must not move."""
import numpy as np
import pytest

from geofuse.optim import BETA2, EPS, AdaptiveOptimizer
from geofuse.tensor import ParamSet


def test_lr_scale_warms_up_then_decays_to_zero():
    opt = AdaptiveOptimizer([], total_steps=100, warmup_frac=0.1)  # 10 warmup steps
    for t, want in [(0, 0.0), (5, 0.5), (10, 1.0), (55, 0.5), (100, 0.0), (150, 0.0)]:
        opt.t = t
        assert opt.lr_scale() == pytest.approx(want, abs=1e-15), t


def test_steps_match_closed_form_bias_corrected_update(rng):
    store = ParamSet()
    x0 = rng.normal((3, 4))
    p = store.new("p", x0.copy())
    opt = AdaptiveOptimizer([([p], 0.01)], total_steps=10, warmup_frac=0.5)  # 5 warmup steps
    x, v = x0, np.zeros_like(x0)
    for t in (1, 2):
        g = rng.normal((3, 4))
        p.value.grad = g
        opt.step()
        v = BETA2 * v + (1.0 - BETA2) * g * g
        x = x - (t / 5) * 0.01 * g / (np.sqrt(v / (1.0 - BETA2**t)) + EPS)
        np.testing.assert_allclose(p.value.data, x, rtol=1e-14, atol=0)


def test_each_group_uses_its_own_peak_lr(rng):
    store = ParamSet()
    data, grad = rng.normal((5,)), rng.normal((5,))
    slow, fast = store.new("slow", data.copy()), store.new("fast", data.copy())
    for p in (slow, fast):
        p.value.grad = grad.copy()
    AdaptiveOptimizer([([slow], 1e-3), ([fast], 4e-3)], total_steps=10,
                      warmup_frac=0.1).step()
    np.testing.assert_allclose(fast.value.data - data, 4 * (slow.value.data - data),
                               rtol=1e-12)
    assert np.all(slow.value.data != data)


def test_frozen_and_gradless_params_do_not_move(rng):
    store = ParamSet()
    frozen = store.new("frozen", rng.normal((2, 3)), trainable=False)
    frozen.value.grad = rng.normal((2, 3))
    gradless = store.new("gradless", rng.normal((2, 3)))
    before = [frozen.value.data.copy(), gradless.value.data.copy()]
    opt = AdaptiveOptimizer([([frozen, gradless], 0.1)], total_steps=10, warmup_frac=0.1)
    for _ in range(3):
        opt.step()
    assert frozen.value.data.tobytes() == before[0].tobytes()
    assert gradless.value.data.tobytes() == before[1].tobytes()

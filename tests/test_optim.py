"""The optimizer's one path: warmup + cosine schedule, the bias-corrected
second-moment update, per-group peak learning rates, and parameters that
must not move.  The update runs on the store's flat vector; a per-param
loop kept here is its oracle."""
import numpy as np
import pytest

from conftest import tiny_cfg
from geofuse.config import ARCHS, SCHEME_IDS
from geofuse.optim import BETA2, EPS, AdaptiveOptimizer
from geofuse.rng import RngStream
from geofuse.runner import build_datasets, build_policy
from geofuse.tensor import ParamSet


def test_lr_scale_warms_up_then_decays_to_zero():
    opt = AdaptiveOptimizer(ParamSet(), [], total_steps=100, warmup_frac=0.1)  # 10 warmup steps
    for t, want in [(0, 0.0), (5, 0.5), (10, 1.0), (55, 0.5), (100, 0.0), (150, 0.0)]:
        opt.t = t
        assert opt.lr_scale() == pytest.approx(want, abs=1e-15), t


def test_steps_match_closed_form_bias_corrected_update(rng):
    store = ParamSet()
    x0 = rng.normal((3, 4))
    p = store.new("p", x0.copy())
    opt = AdaptiveOptimizer(store, [([p], 0.01)], total_steps=10, warmup_frac=0.5)  # 5 warmup steps
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
    AdaptiveOptimizer(store, [([slow], 1e-3), ([fast], 4e-3)], total_steps=10,
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
    opt = AdaptiveOptimizer(store, [([frozen, gradless], 0.1)], total_steps=10, warmup_frac=0.1)
    for _ in range(3):
        opt.step()
    assert frozen.value.data.tobytes() == before[0].tobytes()
    assert gradless.value.data.tobytes() == before[1].tobytes()


class LoopOptimizer(AdaptiveOptimizer):
    """The reference: the same update as a loop over params, each with its
    own second moment, created at zeros on the param's first gradient."""

    def __init__(self, store, groups, total_steps, warmup_frac):
        super().__init__(store, groups, total_steps, warmup_frac)
        self.groups = [([p for p, _, _ in params], lr) for params, lr in self.groups]
        self.moments = {}

    def step(self):
        self.t += 1
        scale = self.lr_scale()
        bc2 = 1.0 - BETA2**self.t
        for params, lr in self.groups:
            for p in params:
                g = p.value.grad
                if g is None or not p.value.requires_grad:
                    continue
                v = self.moments.get(p.id)
                if v is None:
                    v = np.zeros_like(p.value.data)
                    self.moments[p.id] = v
                v *= BETA2
                v += (1.0 - BETA2) * g * g
                p.value.data -= scale * lr * g / (np.sqrt(v / bc2) + EPS)


ORACLE_CONFIGS = [dict(scheme=s, arch=a, sparse_k=1 if a == "pi" else 0)
                  for s in SCHEME_IDS for a in ARCHS] + [dict(scheme="gated_fusion",
                                                                 freeze_geo=False)]


@pytest.mark.parametrize("kw", ORACLE_CONFIGS,
                         ids=lambda kw: "-".join(str(v) for v in kw.values()))
def test_flat_update_matches_the_per_param_loop(kw):
    """Twenty training steps through the flat update leave every param and
    every second moment byte-identical to the loop's; a param with no
    gradient in a step keeps both, and a frozen param never moves."""
    cfg = tiny_cfg(**kw, batch_size=4, dataset_size=16, train_steps=20)
    runs = []
    for cls in (AdaptiveOptimizer, LoopOptimizer):
        policy = build_policy(cfg)
        backbone, rest = policy.param_groups()
        opt = cls(policy.store, [(backbone, 1e-2), (rest, 3e-2)],
                  total_steps=cfg.train_steps, warmup_frac=0.2)
        runs.append((policy, opt))
    (scenes, targets), _ = build_datasets(cfg)
    frozen = {p.id: p.value.data.copy() for p in runs[0][0].store if not p.value.requires_grad}
    gradless_seen = False
    data_rng, noise_rngs = RngStream(5, 0), [RngStream(6, 0), RngStream(6, 0)]
    for _ in range(cfg.train_steps):
        idx = data_rng.integers(0, len(scenes), size=cfg.batch_size)
        for (policy, opt), noise_rng in zip(runs, noise_rngs):
            loss, _ = policy.loss(scenes[idx], targets[idx], noise_rng)
            policy.store.zero_grad()
            loss.backward()
        policy, opt = runs[0]
        idle = [p for p in policy.store if p.value.requires_grad and p.value.grad is None]
        before = {p.id: (p.value.data.tobytes(), opt._v[slice(*policy.store.span(p.id))].tobytes())
                  for p in idle}
        for _, o in runs:
            o.step()
        for p in idle:
            gradless_seen = True
            after = (p.value.data.tobytes(), opt._v[slice(*policy.store.span(p.id))].tobytes())
            assert after == before[p.id], p.id
    (flat_policy, flat_opt), (loop_policy, loop_opt) = runs
    for p, q in zip(flat_policy.store, loop_policy.store):
        assert p.value.data.tobytes() == q.value.data.tobytes(), p.id
        v = loop_opt.moments.get(q.id, np.zeros_like(q.value.data))
        assert flat_opt._v[slice(*flat_policy.store.span(p.id))].tobytes() == v.tobytes(), p.id
        if p.id in frozen:
            assert p.value.data.tobytes() == frozen[p.id].tobytes(), p.id
    assert bool(frozen) == kw.get("freeze_geo", True)
    if kw["scheme"] == "gated_fusion" and kw.get("arch") == "pi":
        assert gradless_seen  # the gates sparse_k skips take no gradient


def test_a_param_without_a_gradient_splits_the_update(rng):
    """A gradless param between two that train keeps its value and second
    moment, while its neighbours move as they would alone."""
    store = ParamSet()
    ps = [store.new(n, rng.normal((2, 3))) for n in "abc"]
    ref_store = ParamSet()
    refs = [ref_store.new(p.id, p.value.data.copy()) for p in ps]
    opt = AdaptiveOptimizer(store, [(ps, 0.1)], total_steps=10, warmup_frac=0.1)
    ref = LoopOptimizer(ref_store, [(refs, 0.1)], total_steps=10, warmup_frac=0.1)
    for step in range(4):
        grads = [rng.normal((2, 3)) for _ in ps]
        if step == 2:
            grads[1] = None
        for p, q, g in zip(ps, refs, grads):
            p.value.grad = g
            q.value.grad = None if g is None else g.copy()
        b_before = (ps[1].value.data.tobytes(), opt._v[6:12].tobytes())
        opt.step()
        ref.step()
        if step == 2:
            assert (ps[1].value.data.tobytes(), opt._v[6:12].tobytes()) == b_before
        for p, q in zip(ps, refs):
            assert p.value.data.tobytes() == q.value.data.tobytes()
            assert opt._v[slice(*store.span(p.id))].tobytes() == ref.moments[q.id].tobytes()


def test_params_are_views_into_the_flat_vector(rng):
    store = ParamSet()
    a, b = store.new("a", rng.normal((2, 3))), store.new("b", rng.normal(()))
    before = np.concatenate([a.value.data.ravel(), [b.value.data]])
    flat = store.flat()
    assert flat.tobytes() == before.tobytes()
    assert a.value.data.base is flat and b.value.data.base is flat
    assert (store.span("a"), store.span("b")) == ((0, 6), (6, 7))
    a.value.data[0, 0] = 5.0
    assert flat[0] == 5.0
    c = store.new("c", np.ones(2))
    assert store.flat() is not flat and store.flat().size == 9
    assert all(p.value.data.base is store.flat() for p in (a, b, c))

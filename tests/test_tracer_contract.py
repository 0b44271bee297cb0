"""The benchmark tracer binds to the package by name: `perfbench/tracer.py`
wraps policy, backbone and action-expert methods, the scheme hooks and the
gating functions where their callers look them up.  This runs a tiny
traced loss, backward and predict for every scheme in both archs, so a
rename or a signature change that would break `perfbench/run.py --trace 1`
fails here too."""
import importlib.util
import pathlib

import numpy as np
import pytest

from conftest import make_scenes, tiny_policy
from geofuse import gating, policy, schemes
from geofuse.rng import RngStream
from geofuse.schemes import SCHEME_IDS

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_mod():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _step_and_predict(pol, scenes, actions):
    total, _ = pol.loss(scenes, actions, RngStream(13, 13))
    pol.store.zero_grad()
    total.backward()
    return total.item(), pol.predict(scenes, RngStream(5, 1))


def test_traced_runs_cover_every_layer_and_change_nothing(tracer_mod):
    scenes = make_scenes(RngStream(3, 0), 2, n_objects=2)
    actions = RngStream(3, 1).normal((len(scenes), 2, 4))
    originals = (policy.FusionPolicy.__dict__["loss"], gating.fuse_single,
                 schemes.layerwise_fuse)
    plain = {(sid, arch): _step_and_predict(tiny_policy(sid, arch), scenes, actions)
             for sid in SCHEME_IDS for arch in ("groot", "pi")}

    tr = tracer_mod.Tracer("contract")
    tr.install()
    try:
        traced = {key: _step_and_predict(tiny_policy(*key), scenes, actions) for key in plain}
    finally:
        tr.uninstall()

    assert (policy.FusionPolicy.__dict__["loss"], gating.fuse_single,
            schemes.layerwise_fuse) == originals
    for key, (loss, actions_out) in plain.items():
        assert traced[key][0] == loss, key
        np.testing.assert_array_equal(traced[key][1], actions_out)

    names = {s[2] for s in tr.spans()}
    for name in ("policy.loss", "policy.conditioning", "policy.predict",
                 "backbones.mllm_embed", "backbones.mllm_layers", "backbones.dit_forward",
                 "tensor.backward", "gating.fuse_single", "gating.layerwise_fuse",
                 "nn.cross_attention", "flow.euler_integrate",
                 *(f"schemes.{hook}" for hook in tracer_mod.SCHEME_HOOKS)):
        assert name in names, name
    metrics = tracer_mod.layer_metrics(tr, 1.0)
    assert metrics["gating.fused_layers_per_call"] > 0
    assert metrics["flow.euler_steps_per_predict"] > 0

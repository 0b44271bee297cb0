"""The work of one training step and one `predict`, counted exactly.

A step here is mostly fixed cost per graph node, and node counts are
integers that do not depend on the machine.  This test counts graph nodes
(outputs of `Tensor._make` that require grad) and `Tensor` constructions
per training step (`policy.loss` plus `backward`) and per `predict`, for
every scheme in both archs at tiny sizes and for the default gated/groot
run, and compares them with `tests/data/work_budget.json`.  Any difference,
up or down, fails: a change that alters the work rewrites that file with

    PYTHONPATH=src python tests/test_work_budget.py

and reports the old and new counts.
"""
import json

import pytest

from conftest import DATA_DIR, tiny_cfg
from geofuse.bench import make_dataset
from geofuse.config import SCHEME_IDS, ExperimentConfig
from geofuse.policy import FusionPolicy
from geofuse.rng import RngStream
from geofuse.tensor import Tensor

BUDGET_FILE = DATA_DIR / "work_budget.json"


def _budget_configs():
    for scheme in SCHEME_IDS:
        yield f"{scheme}/groot/tiny", tiny_cfg(scheme=scheme), 4
        yield f"{scheme}/pi/tiny", tiny_cfg(scheme=scheme, arch="pi", sparse_k=1), 4
    yield "gated_fusion/groot/default", ExperimentConfig(), 256


def _counted(fn) -> dict:
    """Run fn with Tensor constructions and graph nodes counted."""
    counts = {"nodes": 0, "tensors": 0}
    init, make = Tensor.__init__, Tensor._make

    def counting_init(obj, *args, **kwargs):
        counts["tensors"] += 1
        init(obj, *args, **kwargs)

    def counting_make(data, parents, backward):
        out = make(data, parents, backward)
        counts["nodes"] += out.requires_grad
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Tensor, "__init__", counting_init)
        mp.setattr(Tensor, "_make", staticmethod(counting_make))
        fn()
    return counts


def measure(cfg: ExperimentConfig, n_predict: int) -> dict:
    """Counts for one training step on a batch of `cfg.batch_size` and one
    `predict` over `n_predict` episodes."""
    policy = FusionPolicy(cfg, RngStream(cfg.seed, 0))
    scenes, targets = make_dataset(RngStream(cfg.seed, 1), max(cfg.batch_size, n_predict),
                                   cfg.n_objects, cfg.horizon, cfg.d_action)
    batch = slice(cfg.batch_size)

    def step():
        loss, _ = policy.loss(scenes[batch], targets[batch], RngStream(cfg.seed, 2))
        loss.backward()

    def predict():
        policy.predict(scenes[:n_predict], RngStream(cfg.seed, 3))

    return {"step": _counted(step), "predict": _counted(predict)}


def measure_all() -> dict:
    return {key: measure(cfg, n) for key, cfg, n in _budget_configs()}


def _flat(budget: dict) -> dict:
    return {f"{key} {phase} {what}": n for key, phases in budget.items()
            for phase, counts in phases.items() for what, n in counts.items()}


def test_work_per_step_and_predict_matches_the_budget():
    expected = _flat(json.loads(BUDGET_FILE.read_text()))
    actual = _flat(measure_all())
    diffs = [f"{k}: budget {expected.get(k)}, counted {actual.get(k)}"
             for k in sorted(expected.keys() | actual.keys()) if expected.get(k) != actual.get(k)]
    assert not diffs, "work differs from tests/data/work_budget.json:\n" + "\n".join(diffs)


if __name__ == "__main__":
    BUDGET_FILE.write_text(json.dumps(measure_all(), indent=1) + "\n")

"""End-to-end acceptance suite.

Each test verifies one headline property of the package and prints a
single PASS/FAIL line (visible even under captured output).  The
expensive trained-policy checks share one module-scoped fixture.
"""
import time

import numpy as np
import pytest

from conftest import TINY_RUN, grad_check, make_scenes, rows_from_csv, tiny_cfg, tiny_policy
from geofuse import gating
from geofuse.bench import dataset_hash, evaluate_policy, train_policy
from geofuse.checkpoint import load_checkpoint, save_checkpoint
from geofuse.config import ExperimentConfig
from geofuse.flow import euler_integrate, fm_training_targets
from geofuse.gating import fuse_single, gate_and_fuse, init_gate_params
from geofuse.nn import init_matrix, linear, mean_pool_seq, expand_seq
from geofuse.rng import RngStream
from geofuse.runner import (
    RunRecord,
    build_datasets,
    build_eval_dataset,
    build_policy,
    emit_table,
    loss_curves_csv,
    pilot_configs,
    records_to_rows,
    run_all,
    run_single,
    TASK_NAME,
    _STREAM_TRAIN,
    _STREAM_EVAL,
)
from geofuse.schemes import SCHEME_IDS
from geofuse.tensor import ParamSet, Tensor


@pytest.fixture
def announce(capsys):
    def _p(num, name, ok, detail=""):
        tail = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"\nacceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    return _p


# ---------------------------------------------------------------- 01 gate oracle

def _mix_oracle(h, f_vggt, w_proj, w_gate, w_s, w_g):
    """Independent per-position reimplementation of the gated fusion path."""
    bsz, seq, d = h.shape
    n = f_vggt.shape[1]
    out = np.zeros((bsz, seq + n, d))
    for b in range(bsz):
        s = h[b].mean(axis=0)
        out[b, :seq] = h[b]
        for j in range(n):
            f_geo = f_vggt[b, j] @ w_proj
            logit = np.concatenate([s, f_geo]) @ w_gate
            gate = 1.0 / (1.0 + np.exp(-logit))
            out[b, seq + j] = gate * (s @ w_s) + (1.0 - gate) * (f_geo @ w_g)
    return out


def test_gated_fusion_matches_position_loop_oracle(announce):
    t0 = time.perf_counter()
    rng = RngStream(31, 0)
    worst = 0.0
    for case in range(100):
        b = int(rng.integers(1, 3))
        l = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 6))
        dv = int(rng.integers(1, 6))
        store = ParamSet()
        r = rng.derive(case)
        w_proj = store.new("mix.w_proj", init_matrix(r, dv, d))
        gate = init_gate_params(store, r, "mix", d)
        gate.w_gate.value.data[:] = rng.normal((2 * d, d))
        h = Tensor(rng.normal((b, l, d)))
        f_vggt = Tensor(rng.normal((b, n, dv)))
        got = fuse_single(h, f_vggt, w_proj, gate).data
        want = _mix_oracle(h.data, f_vggt.data,
                           w_proj.value.data, gate.w_gate.value.data,
                           gate.w_s.value.data, gate.w_g.value.data)
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    announce(1, "gated fusion matches per-position oracle", ok,
             f"max err {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-12
    assert elapsed < 1.0


# ---------------------------------------------------------------- 02 gate extremes

def test_gate_saturation_selects_pure_streams(announce):
    rng = RngStream(32, 0)
    store = ParamSet()
    w_proj = store.new("mix.w_proj", init_matrix(rng, 6, 5))
    gate = init_gate_params(store, rng, "mix", 5)
    x = rng.normal((2, 4, 5))
    h = Tensor(x - x.mean(axis=2, keepdims=True) + 1.0)  # the pooled context sums to 5
    f_vggt = Tensor(rng.normal((2, 3, 6)))
    f_geo = linear(f_vggt, w_proj)
    s_b = expand_seq(mean_pool_seq(h), 3)

    def fuse_at(logit):
        """Fused tokens with the geometry rows of w_gate zeroed and every
        context row at logit / 5, so every gate logit is `logit`."""
        gate.w_gate.value.data[:5] = logit / 5
        gate.w_gate.value.data[5:] = 0.0
        return gate_and_fuse(h, f_geo, gate)[1]

    hi, lo = fuse_at(50.0), fuse_at(-50.0)
    err_hi = float(np.max(np.abs(hi.data - linear(s_b, gate.w_s).data)))
    err_lo = float(np.max(np.abs(lo.data - linear(f_geo, gate.w_g).data)))
    ok = err_hi < 1e-12 and err_lo < 1e-12
    announce(2, "saturated gates select the pure streams", ok,
             f"errs {err_hi:.2e}/{err_lo:.2e}")
    assert err_hi < 1e-12 and err_lo < 1e-12


# ---------------------------------------------------------------- 03 gradient suite

def test_every_scheme_passes_grad_check_in_both_archs(announce):
    t0 = time.perf_counter()
    scenes = make_scenes(RngStream(33, 0), 2, n_objects=2)
    actions = RngStream(33, 1).normal((len(scenes), 2, 4))
    worst = {}
    for sid in SCHEME_IDS:
        for arch in ("groot", "pi"):
            pol = tiny_policy(sid, arch)

            def loss():
                return pol.loss(scenes, actions, RngStream(13, 13))[0]

            worst[(sid, arch)] = grad_check(loss, pol.store, RngStream(17, 0),
                                            n_coords=50)
    elapsed = time.perf_counter() - t0
    worst_err = max(worst.values())
    ok = worst_err <= 1e-4 and elapsed < 60.0
    announce(3, "grad check over all schemes and both architectures", ok,
             f"worst rel err {worst_err:.2e}, {elapsed:.1f}s")
    for key, err in worst.items():
        assert err <= 1e-4, f"{key}: {err}"
    assert elapsed < 60.0


# ---------------------------------------------------------------- 04 flow exactness

def test_flow_matching_exactness(announce):
    rng = RngStream(34, 0)
    a = rng.normal((3, 4, 7))
    eps = rng.normal((3, 4, 7))
    a0, v = fm_training_targets(a, eps, 0.0)
    a1, _ = fm_training_targets(a, eps, 1.0)
    endpoints_ok = (np.array_equal(a0, eps) and np.array_equal(a1, a)
                    and np.array_equal(v, a - eps))
    worst = 0.0
    for n in (1, 5, 10):
        cfg = ExperimentConfig(euler_steps=n)
        start = RngStream(34, 4).normal((3, 4, 7), cfg.noise_std)
        out = euler_integrate(lambda x, tau: a - start, (3, 4, 7),
                              RngStream(34, 4), cfg)
        worst = max(worst, float(np.max(np.abs(out - a))))
    ok = endpoints_ok and worst < 1e-12
    announce(4, "flow interpolant endpoints and Euler exactness", ok,
             f"max integration err {worst:.2e}")
    assert endpoints_ok
    assert worst < 1e-12


# ---------------------------------------------------------------- 05 nullability

def _null_configured_policy(sid):
    """Each scheme's documented setting that collapses it to the base model."""
    if sid == "ae_fusion":
        pol = tiny_policy(sid)
        for blk in pol.scheme.block_params:
            blk["wo"].value.data[:] = 0.0
        return pol
    if sid in ("midlayer_injection", "spatial_forcing", "none"):
        return tiny_policy(sid)  # adapter scale starts at 0 / training-only
    pol = tiny_policy(sid)
    pol.scheme.null_geo = True
    return pol


def test_every_scheme_nulls_back_to_base_model(announce):
    scenes = make_scenes(RngStream(35, 0), 3, n_objects=2)
    base = tiny_policy("none").predict(scenes, RngStream(5, 1))
    bad = []
    for sid in SCHEME_IDS:
        out = _null_configured_policy(sid).predict(scenes, RngStream(5, 1))
        if not np.array_equal(out, base):
            bad.append(sid)
    announce(5, "every scheme has a null setting equal to the base model",
             not bad, f"failed: {bad}" if bad else "10/10 bit-identical")
    assert not bad


# ---------------------------------------------------------------- 06 zero overhead

def test_zero_overhead_schemes_never_read_geometry_at_inference(announce):
    scenes = make_scenes(RngStream(36, 0), 3, n_objects=2)
    bad = []
    for sid in ("spatial_forcing", "threed_tokens"):
        with_geo = tiny_policy(sid).predict(scenes, RngStream(5, 1))
        blind = tiny_policy(sid)
        blind.geo_encoder = None
        without = blind.predict(scenes, RngStream(5, 1))
        if not np.array_equal(with_geo, without):
            bad.append(sid)
    announce(6, "training-only schemes are geometry-free at inference",
             not bad, f"failed: {bad}" if bad else "")
    assert not bad


# ---------------------------------------------------------------- 07/08 benchmark

@pytest.fixture(scope="module")
def trained_runs():
    """Gated-fusion and base policies trained at full default budget on
    seeds 7, 8, 9 — shared by the fusion-benefit and corruption checks —
    with the seconds both runs of a seed took."""
    out = {}
    for seed in (7, 8, 9):
        cfg = ExperimentConfig(seed=seed)  # default scheme is gated_fusion
        t0 = time.perf_counter()
        rec_g, pol_g = run_single(cfg)
        rec_b, _ = run_single(cfg.replace(scheme="none"))
        out[seed] = (cfg, rec_g, pol_g, rec_b, time.perf_counter() - t0)
    return out


def test_gated_fusion_beats_position_blind_baseline(announce, trained_runs):
    cfg7, rec_g7, _, rec_b7, budget = trained_runs[7]
    g7 = rec_g7.metrics[TASK_NAME]["success_rate"]
    b7 = rec_b7.metrics[TASK_NAME]["success_rate"]
    gaps = {}
    for seed, (_, rec_g, _, rec_b, _) in trained_runs.items():
        gaps[seed] = (rec_g.metrics[TASK_NAME]["success_rate"]
                      - rec_b.metrics[TASK_NAME]["success_rate"])
    ok = (g7 >= 0.90 and b7 <= 0.30 and budget < 300.0
          and all(gap >= 0.40 for gap in gaps.values()))
    announce(7, "geometry fusion is necessary on the benchmark", ok,
             f"seed7 gated {g7:.3f} vs base {b7:.3f}; "
             f"gaps {[f'{v:.2f}' for v in gaps.values()]}; {budget:.0f}s")
    assert g7 >= 0.90
    assert b7 <= 0.30
    assert budget < 300.0
    for seed, gap in gaps.items():
        assert gap >= 0.40, f"seed {seed}: gap {gap}"


def test_corrupting_geometry_destroys_the_trained_policy(announce, trained_runs):
    margins = {}
    for seed, (cfg, rec_g, pol_g, _, _) in trained_runs.items():
        _, eval_eps = build_datasets(cfg)
        clean = rec_g.metrics[TASK_NAME]["success_rate"]
        for kind in ("zeros", "gaussian"):
            m = evaluate_policy(pol_g, eval_eps, RngStream(cfg.seed, _STREAM_EVAL),
                                cfg.replace(corruption=kind, corruption_sigma=1.0))
            margins[(seed, kind)] = clean - m["success_rate"]
    worst = min(margins.values())
    ok = worst >= 0.20
    announce(8, "corrupted geometry collapses success", ok,
             f"smallest drop {worst:.2f}")
    for key, margin in margins.items():
        assert margin >= 0.20, f"{key}: drop {margin}"


# ---------------------------------------------------------------- 09 sparse depth

def _record_for_policy(cfg, policy):
    train_eps, eval_eps = build_datasets(cfg)
    curve = train_policy(policy, train_eps, cfg, RngStream(cfg.seed, _STREAM_TRAIN))
    m = evaluate_policy(policy, eval_eps, RngStream(cfg.seed, _STREAM_EVAL), cfg)
    return RunRecord(cfg.to_dict(), {TASK_NAME: m}, curve, dataset_hash(train_eps))


def test_sparse_zero_equals_full_layerwise_fusion(announce):
    cfg = tiny_cfg(**TINY_RUN).replace(arch="pi", sparse_k=0, train_steps=20)
    rec_sparse = _record_for_policy(cfg, build_policy(cfg))
    full = build_policy(cfg)
    full.scheme.schedule = [True] * cfg.n_dit_layers  # explicit every-layer fusion
    rec_full = _record_for_policy(cfg, full)
    same_report = (emit_table(records_to_rows([rec_sparse]))
                   == emit_table(records_to_rows([rec_full])))
    same_curves = loss_curves_csv([rec_sparse]) == loss_curves_csv([rec_full])
    same_metrics = rec_sparse.metrics == rec_full.metrics
    ok = same_report and same_curves and same_metrics
    announce(9, "skip-free sparse schedule equals full layer-wise fusion", ok)
    assert same_report and same_curves and same_metrics


# ---------------------------------------------------------------- 10 report fixture

def test_report_fixtures_reproduce_reference_averages(announce):
    pilot = emit_table(rows_from_csv("table_pilot.csv"))
    lines = pilot.splitlines()
    pilot_ok = ("57.81" in lines[2] and "68.23" in lines[3]
                and "+10.42" in lines[3])
    backbones = emit_table(rows_from_csv("table_backbones.csv"))
    mean_ok = backbones.rstrip().endswith("Mean gain: 7.02")
    ok = pilot_ok and mean_ok
    announce(10, "committed score tables reproduce the reference averages", ok,
             "57.81 / 68.23 / +10.42 / mean 7.02" if ok else "")
    assert pilot_ok
    assert mean_ok


# ---------------------------------------------------------------- 11 determinism

def test_reports_are_reproducible_and_checkpoints_round_trip(announce, tmp_path):
    configs = pilot_configs(tiny_cfg(**TINY_RUN))
    reports = []
    curves = []
    for _ in range(2):
        records = run_all(configs)
        reports.append(emit_table(records_to_rows(records)))
        curves.append(loss_curves_csv(records))
    deterministic = reports[0] == reports[1] and curves[0] == curves[1]

    bad = []
    for sid in SCHEME_IDS:
        cfg = tiny_cfg(**TINY_RUN, scheme=sid)
        policy = build_policy(cfg)
        path = tmp_path / f"{sid}.bin"
        save_checkpoint(policy, cfg, path)
        loaded, _ = load_checkpoint(path)
        for p, q in zip(policy.store, loaded.store):
            if p.id != q.id or not np.array_equal(p.value.data, q.value.data):
                bad.append(sid)
                break
    ok = deterministic and not bad
    announce(11, "byte-identical reruns and bit-exact checkpoints", ok,
             f"round-trip failures: {bad}" if bad else "")
    assert deterministic
    assert not bad


# ---------------------------------------------------------------- 12 gate reads geometry

def test_the_trained_gate_reads_the_geometry(announce, trained_runs, monkeypatch):
    """Over each seed's eval scenes, the trained gate spreads out on clean
    geometry and goes flat, almost never above 0.9, on zeroed geometry."""
    gates = []

    def capture(h_mllm, f_geo, params):
        gate, fused = gate_and_fuse(h_mllm, f_geo, params)
        gates.append(gate.data.ravel())
        return gate, fused

    monkeypatch.setattr(gating, "gate_and_fuse", capture)
    stats = {}  # (seed, geometry) -> (gate std, share of gates above 0.9)
    for seed, (cfg, _, pol_g, _, _) in trained_runs.items():
        scenes, _ = build_eval_dataset(cfg)
        for kind, corrupter in (("clean", None), ("zeros", np.zeros_like)):
            gates.clear()
            pol_g.predict(scenes, RngStream(cfg.seed, _STREAM_EVAL), corrupter)
            g = np.concatenate(gates)
            stats[(seed, kind)] = (float(g.std()), float((g > 0.9).mean()))
    bad = [seed for seed in trained_runs
           if not (stats[(seed, "clean")][0] >= 2.0 * stats[(seed, "zeros")][0]
                   and stats[(seed, "clean")][1] >= 0.05
                   and stats[(seed, "zeros")][1] <= 0.01)]
    announce(12, "the trained gate reads the geometry", not bad,
             "; ".join(f"seed{seed} {kind} std {sd:.3f} >0.9 {hi:.1%}"
                       for (seed, kind), (sd, hi) in stats.items()))
    assert not bad, f"seeds {bad}: {stats}"

"""Runner orchestration (pilot, ablations, tables) and the CLI surface."""
import contextlib
import functools
import io
import json
import math
import operator
import tempfile
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TINY_RUN, rows_from_csv, tiny_cfg
from geofuse import cli, runner
from geofuse.config import ExperimentConfig
from geofuse.errors import ConfigError
from geofuse.runner import (
    ABLATIONS,
    RunRecord,
    TableRow,
    emit_table,
    loss_curves_csv,
    pilot_configs,
    records_to_rows,
    run_all,
    run_single,
)


def run_cfg(**kw):
    return tiny_cfg(**TINY_RUN).replace(**kw)


# ------------------------------------------------------------------ runs

def test_run_single_record_contents():
    rec, _ = run_single(run_cfg())
    assert len(rec.loss_curve) == TINY_RUN["train_steps"]
    m = rec.metrics["reach"]
    assert set(m) == {"success_rate", "mean_l2_error", "n_episodes"}
    assert m["n_episodes"] == TINY_RUN["eval_episodes"]
    assert len(rec.dataset_hash) == 64


def test_run_record_json_round_trip():
    rec, _ = run_single(run_cfg())
    back = RunRecord.from_json(rec.to_json())
    assert back.config == rec.config
    assert back.metrics == rec.metrics
    assert back.loss_curve == rec.loss_curve
    assert back.dataset_hash == rec.dataset_hash


def test_run_record_reads_older_records_with_wall_time():
    rec, _ = run_single(run_cfg())
    old = json.loads(rec.to_json())
    old["wall_time"] = 1.5  # records once carried their run time
    assert RunRecord.from_json(json.dumps(old)).to_json() == rec.to_json()


def test_pilot_covers_every_scheme():
    records = run_all(pilot_configs(run_cfg()))
    assert len(records) == 10
    schemes = [r.config["scheme"] for r in records]
    assert schemes[0] == "none" and len(set(schemes)) == 10
    hashes = {r.dataset_hash for r in records}
    assert len(hashes) == 1  # identical data protocol across schemes


def test_jobs_below_one_rejected(tmp_path, capsys):
    cfg_path = write_tiny_config(tmp_path)
    assert cli.main(["pilot", "--config", str(cfg_path), "--out", str(tmp_path / "p"),
                     "--jobs", "0"]) == 1
    assert "error: jobs" in capsys.readouterr().err


def test_corruption_ablation_three_records():
    records = run_all(ABLATIONS["corruption"](run_cfg()))
    assert [r.config["corruption"] for r in records] == ["none", "zeros", "gaussian"]


def _count_trainings(monkeypatch):
    calls, train = [], runner.train_policy

    def counted(*args):
        calls.append(args)
        return train(*args)

    monkeypatch.setattr(runner, "train_policy", counted)
    return calls


def test_corruption_ablation_trains_once(tmp_path, capsys, monkeypatch):
    """Training reads no corruption field, so `ablate --kind corruption`
    trains one policy, and each record is the one a separate run writes."""
    calls = _count_trainings(monkeypatch)
    out = tmp_path / "abl"
    assert cli.main(["ablate", "--kind", "corruption", "--config",
                     str(write_tiny_config(tmp_path)), "--out", str(out)]) == 0
    capsys.readouterr()
    assert len(calls) == 1
    written = [(out / f"record_{i:02d}.json").read_text() for i in range(3)]
    assert written == [run_single(cfg)[0].to_json() + "\n"
                       for cfg in ABLATIONS["corruption"](run_cfg())]


def test_run_all_trains_once_per_group_of_eval_only_differences(monkeypatch):
    base = run_cfg()
    configs = [base, base.replace(scheme="none"),
               base.replace(corruption="gaussian", corruption_sigma=0.5, eval_episodes=3,
                            euler_steps=3)]
    calls = _count_trainings(monkeypatch)
    records = run_all(configs)
    assert len(calls) == 2
    assert [r.to_json() for r in records] == [run_single(cfg)[0].to_json() for cfg in configs]


def test_sparse_depth_sweep_matches_single_runs():
    configs = ABLATIONS["sparse_depth"](run_cfg())
    assert [r.to_json() for r in run_all(configs)] == \
        [run_single(cfg)[0].to_json() for cfg in configs]


def test_run_all_holds_one_trained_policy_at_a_time(monkeypatch):
    """When a training starts, every policy trained before it is garbage,
    so a sweep's peak memory is that of one run."""
    trained, alive_at_start, train = [], [], runner.train_policy

    def watched(policy, *args):
        alive_at_start.append([ref() is not None for ref in trained])
        trained.append(weakref.ref(policy))
        return train(policy, *args)

    monkeypatch.setattr(runner, "train_policy", watched)
    run_all(pilot_configs(run_cfg())[:3])
    assert alive_at_start == [[], [False], [False, False]]


def test_unknown_ablation_kind(tmp_path, capsys):
    argv = ["ablate", "--kind", "lr_sweep", "--out", str(tmp_path / "abl")]
    assert cli.main(argv) == 2
    assert "invalid choice: 'lr_sweep'" in capsys.readouterr().err


# ------------------------------------------------------------------ tables

def test_pilot_fixture_table_numbers():
    out = emit_table(rows_from_csv("table_pilot.csv"))
    lines = out.splitlines()
    assert "57.81" in lines[2] and lines[2].endswith("|  |")
    assert "68.23" in lines[3] and "+10.42" in lines[3]


def test_backbone_fixture_mean_gain():
    out = emit_table(rows_from_csv("table_backbones.csv"))
    assert out.rstrip().endswith("Mean gain: 7.02")


def test_backbone_fixture_half_up_average():
    # one fused row averages exactly 65.625, which must display as 65.63
    out = emit_table(rows_from_csv("table_backbones.csv"))
    row = [l for l in out.splitlines() if "65.63" in l]
    assert len(row) == 1 and "+1.05" in row[0]


def test_csv_format_matches_markdown_numbers():
    out = emit_table(rows_from_csv("table_pilot.csv"), fmt="csv")
    assert out.splitlines()[0].startswith("Method,")
    assert ",68.23,+10.42" in out


def test_single_row_table_has_no_gain_column():
    out = emit_table([TableRow("solo", {"reach": 50.0})])
    assert "Gain" not in out and "Avg" in out


def test_table_rejects_heterogeneous_tasks():
    rows = [TableRow("a", {"reach": 1.0}), TableRow("b", {"grasp": 1.0})]
    with pytest.raises(ConfigError, match="different task set"):
        emit_table(rows)


def test_records_to_rows_marks_base():
    records = run_all(pilot_configs(run_cfg())[:2])
    rows = records_to_rows(records)
    assert rows[0].is_base and not rows[1].is_base
    assert rows[0].scores["reach"] == 100.0 * records[0].metrics["reach"]["success_rate"]


def test_loss_curves_csv_layout():
    records = run_all(pilot_configs(run_cfg())[:2])
    lines = loss_curves_csv(records).splitlines()
    assert lines[0].startswith("step,")
    assert len(lines) == 1 + TINY_RUN["train_steps"]
    assert lines[1].split(",")[0] == "0"


# ------------------------------------------------------------------ cli

def write_tiny_config(tmp_path, **kw):
    path = tmp_path / "exp.txt"
    path.write_text(run_cfg(**kw).to_text())
    return path


def test_cli_unknown_subcommand_exits_2(capsys):
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()


def test_cli_missing_required_arg_exits_2(capsys):
    assert cli.main(["train"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flag", [["--jobs", "2"], ["--format", "csv"]])
def test_cli_train_rejects_multi_run_flags(tmp_path, flag, capsys):
    argv = ["train", "--config", str(write_tiny_config(tmp_path)),
            "--out", str(tmp_path / "run"), *flag]
    assert cli.main(argv) == 2
    capsys.readouterr()


def test_cli_train_writes_run_directory(tmp_path, capsys):
    cfg_path = write_tiny_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    for name in ("config.txt", "record.json", "loss.csv", "checkpoint.bin"):
        assert (out / name).exists()
    assert "success=" in capsys.readouterr().out
    assert ExperimentConfig.from_file(out / "config.txt") == run_cfg()


def _tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("command", [["train"], ["pilot", "--jobs", "2"]])
def test_cli_reruns_write_identical_bytes(tmp_path, capsys, command):
    cfg_path = write_tiny_config(tmp_path, arch="pi", sparse_k=1)
    trees = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(command + ["--config", str(cfg_path), "--out", str(out)]) == 0
        trees.append(_tree_bytes(out))
    capsys.readouterr()
    assert trees[0] and trees[0] == trees[1]


def test_pilot_jobs_flag_has_no_effect(tmp_path, capsys):
    cfg_path = write_tiny_config(tmp_path, arch="pi", sparse_k=1)
    trees = []
    for name, flag in (("a", ["--jobs", "2"]), ("b", [])):
        out = tmp_path / name
        assert cli.main(["pilot", "--config", str(cfg_path), "--out", str(out), *flag]) == 0
        trees.append(_tree_bytes(out))
    capsys.readouterr()
    assert trees[0] and trees[0] == trees[1]


def test_cli_eval_prints_metrics(tmp_path, capsys):
    cfg_path = write_tiny_config(tmp_path)
    out = tmp_path / "run"
    cli.main(["train", "--config", str(cfg_path), "--out", str(out)])
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(out / "checkpoint.bin")]) == 0
    text = capsys.readouterr().out
    assert "success_rate=" in text and "mean_l2_error=" in text


def test_cli_eval_reproduces_record(tmp_path, capsys):
    cfg_path = write_tiny_config(tmp_path, train_steps=20, eval_episodes=8)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    m = json.loads((out / "record.json").read_text())["metrics"]["reach"]
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(out / "checkpoint.bin")]) == 0
    assert capsys.readouterr().out.split()[:2] == [
        f"success_rate={m['success_rate']:.4f}", f"mean_l2_error={m['mean_l2_error']:.4f}"]


def test_cli_eval_bad_checkpoint_exits_1(tmp_path, capsys):
    bad = tmp_path / "junk.bin"
    bad.write_bytes(b"not a checkpoint at all")
    assert cli.main(["eval", "--checkpoint", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_report_round_trips_table(tmp_path, capsys):
    cfg_path = write_tiny_config(tmp_path, scheme="none")
    out = tmp_path / "run"
    cli.main(["train", "--config", str(cfg_path), "--out", str(out)])
    capsys.readouterr()
    assert cli.main(["report", "--records", str(out)]) == 0
    first = capsys.readouterr().out
    assert cli.main(["report", "--records", str(out)]) == 0
    assert capsys.readouterr().out == first
    assert (out / "report.md").exists()


def test_cli_report_empty_dir_exits_1(tmp_path, capsys):
    assert cli.main(["report", "--records", str(tmp_path)]) == 1
    assert "no record files" in capsys.readouterr().err


def test_cli_report_record_without_loss_curve_exits_1(tmp_path, capsys):
    rec = {"config": run_cfg().to_dict(), "metrics": {}, "dataset_hash": ""}
    (tmp_path / "record.json").write_text(json.dumps(rec))
    assert cli.main(["report", "--records", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "record.json" in err and "loss_curve" in err


LABEL_KEYS = ("scheme", "arch", "corruption", "freeze_geo", "sparse_k")  # what a table reads


def _record(**parts):
    """A well-formed record as a JSON-ready dict, with `parts` replaced."""
    rec = {"config": run_cfg().to_dict(),
           "metrics": {"reach": {"success_rate": 0.5, "mean_l2_error": 0.1, "n_episodes": 4}},
           "loss_curve": [1.0, 0.5], "dataset_hash": ""}
    rec.update(parts)
    return rec


@pytest.mark.parametrize("parts", [
    {"metrics": {"reach": {}}},
    {"metrics": {}},
    {"metrics": [0.5]},
    {"config": {k: v for k, v in run_cfg().to_dict().items() if k != "arch"}},
    {"loss_curve": "1.0 0.5"},
], ids=["empty-task", "no-tasks", "metrics-list", "config-without-arch", "string-loss-curve"])
def test_cli_report_misshapen_record_exits_1(tmp_path, capsys, parts):
    (tmp_path / "record.json").write_text(json.dumps(_record(**parts)))
    assert cli.main(["report", "--records", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "record.json" in err


@pytest.mark.parametrize("score", ["Infinity", "-Infinity", "NaN", "1e999", "1.5", "-0.5"])
def test_cli_report_refuses_a_success_rate_outside_the_unit_interval(tmp_path, capsys, score):
    text = json.dumps(_record()).replace('"success_rate": 0.5', f'"success_rate": {score}')
    (tmp_path / "record.json").write_text(text)
    assert cli.main(["report", "--records", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "success_rate" in err


# any JSON value, with the floats a score must not take drawn often
JSON_VALUES = st.sampled_from([math.inf, -math.inf, math.nan, 1e300, -0.5, 1.5]) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids,
                                                              max_size=3),
    max_leaves=6)


def _paths(node, prefix=()):
    """The path to every value inside a JSON tree, the root's excluded."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cli_report_survives_any_record_mutation(data):
    """Drop a key or replace the value at any path of a valid record: the
    report either prints its table or stops with `error:` and exit 1."""
    rec = _record()
    rec["config"] = {k: rec["config"][k] for k in LABEL_KEYS}  # all a report reads
    path = data.draw(st.sampled_from(list(_paths(rec))))
    parent = functools.reduce(operator.getitem, path[:-1], rec)
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(JSON_VALUES)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as d:
        (Path(d) / "record.json").write_text(json.dumps(rec))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["report", "--records", d])
    assert (code, err.getvalue()[:7]) in ((0, ""), (1, "error: "))


def test_cli_report_reads_records_with_removed_config_keys(tmp_path, capsys):
    rec = _record()
    rec["config"].update(beta1=0.0, sparse_phase="first", midlayer_k=-1)
    (tmp_path / "record.json").write_text(json.dumps(rec))
    assert cli.main(["report", "--records", str(tmp_path)]) == 0
    assert "| gated_fusion groot | 50.00 | 50.00 |" in capsys.readouterr().out


def _never_run(*args, **kwargs):
    raise AssertionError("a run started")


@pytest.mark.parametrize("command", [["train"], ["pilot"], ["ablate", "--kind", "corruption"]],
                         ids=["train", "pilot", "ablate"])
def test_cli_out_naming_a_file_exits_1_before_any_run(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(cli, "run_single", _never_run)
    monkeypatch.setattr(runner, "run_single", _never_run)
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = command + ["--config", str(write_tiny_config(tmp_path)), "--out", str(taken)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("bound", ["d_action=3", "dataset_size=0", "eval_episodes=0"])
def test_cli_train_refuses_an_out_of_range_size_before_any_run(tmp_path, capsys, monkeypatch,
                                                               bound):
    monkeypatch.setattr(cli, "run_single", _never_run)
    key = bound.split("=")[0]
    lines = [ln for ln in run_cfg().to_text().splitlines() if not ln.startswith(key + "=")]
    cfg_path = tmp_path / "exp.txt"
    cfg_path.write_text("\n".join(lines + [bound]) + "\n")
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


@pytest.mark.parametrize("flag", ["--config", "--checkpoint"], ids=["train", "eval"])
def test_cli_missing_input_file_exits_1(tmp_path, capsys, flag):
    missing = str(tmp_path / "missing.txt")
    argv = (["train", flag, missing, "--out", str(tmp_path / "run")] if flag == "--config"
            else ["eval", flag, missing])
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing.txt" in err


def test_cli_report_out_naming_a_file_exits_1(tmp_path, capsys):
    (tmp_path / "record.json").write_text(json.dumps(_record()))
    taken = tmp_path / "taken"
    taken.write_text("")
    assert cli.main(["report", "--records", str(tmp_path), "--out", str(taken)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_report_non_json_record_exits_1(tmp_path, capsys):
    (tmp_path / "record_00.json").write_bytes(b"\xff not json")
    assert cli.main(["report", "--records", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "record_00.json" in err


def test_cli_report_creates_missing_out_dir(tmp_path, capsys):
    cfg_path = write_tiny_config(tmp_path, scheme="none")
    run = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(run)]) == 0
    out = tmp_path / "new" / "report"
    capsys.readouterr()
    assert cli.main(["report", "--records", str(run), "--out", str(out)]) == 0
    assert capsys.readouterr().out == (out / "report.md").read_text() + "\n"
    assert (out / "loss_curves.csv").read_text() == (run / "loss.csv").read_text()


def test_cli_ablate_writes_report(tmp_path, capsys):
    cfg_path = write_tiny_config(tmp_path)
    out = tmp_path / "abl"
    assert cli.main(["ablate", "--kind", "corruption", "--config", str(cfg_path),
                     "--out", str(out), "--format", "csv"]) == 0
    capsys.readouterr()
    assert (out / "report.csv").exists()
    assert len(list(out.glob("record_*.json"))) == 3


def test_cli_sweep_of_base_runs_reports_the_first_as_base(tmp_path, capsys):
    """Every corruption run of `scheme=none` is a `none` record: the first is
    the Gain column's base, and `report` rebuilds the same table."""
    out = tmp_path / "abl"
    assert cli.main(["ablate", "--kind", "corruption", "--out", str(out),
                     "--config", str(write_tiny_config(tmp_path, scheme="none"))]) == 0
    table = capsys.readouterr().out
    assert len(list(out.glob("record_*.json"))) == 3
    assert table.count("| +0.00 |") == 2  # `none` never reads the corrupted geometry
    assert cli.main(["report", "--records", str(out)]) == 0
    assert capsys.readouterr().out == table

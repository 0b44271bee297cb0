"""Experiment runner: single runs, sweeps (the scheme pilot, ablations), reports."""
from __future__ import annotations

import decimal
import json
from dataclasses import dataclass

from .bench import dataset_hash, evaluate_policy, make_dataset, train_policy
from .config import CORRUPTIONS, EVAL_ONLY_FIELDS, SCHEME_IDS, ExperimentConfig
from .errors import ConfigError
from .policy import FusionPolicy
from .rng import RngStream

TASK_NAME = "reach"

# rng stream ids, fixed so every path draws the same sequences
_STREAM_INIT = 1
_STREAM_DATA = 2
_STREAM_TRAIN = 3
_STREAM_EVAL = 4


def build_policy(cfg: ExperimentConfig) -> FusionPolicy:
    return FusionPolicy(cfg, RngStream(cfg.seed, _STREAM_INIT))


def build_datasets(cfg: ExperimentConfig):
    """(train, eval) datasets for a config, each a (scenes, targets) pair."""
    train = make_dataset(RngStream(cfg.seed, _STREAM_DATA).derive(0), cfg.dataset_size,
                         cfg.n_objects, cfg.horizon, cfg.d_action)
    return train, build_eval_dataset(cfg)


def build_eval_dataset(cfg: ExperimentConfig):
    """The eval split alone, drawn from the same stream `build_datasets` uses,
    so a saved checkpoint can be re-scored on exactly its record's episodes."""
    return make_dataset(RngStream(cfg.seed, _STREAM_DATA).derive(1), cfg.eval_episodes,
                        cfg.n_objects, cfg.horizon, cfg.d_action)


def evaluate_config(policy: FusionPolicy, cfg: ExperimentConfig, dataset):
    """Score `policy` on `dataset` with the config's eval stream and corruption."""
    return evaluate_policy(policy, dataset, RngStream(cfg.seed, _STREAM_EVAL), cfg)


@dataclass
class RunRecord:
    config: dict
    metrics: dict  # task name -> {success_rate, mean_l2_error, n_episodes}
    loss_curve: list
    dataset_hash: str

    def to_json(self) -> str:
        """Everything here is a function of the config, so reruns match byte for byte."""
        return json.dumps(
            {"config": self.config, "metrics": self.metrics,
             "loss_curve": self.loss_curve, "dataset_hash": self.dataset_hash},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text, source: str = "run record") -> "RunRecord":
        """Read a record from JSON text or bytes; unknown keys are ignored.  A
        record the report tables cannot read, or with a success_rate outside
        [0, 1], raises ConfigError naming `source`.  The config is not
        rebuilt, so records naming removed keys still load."""
        try:
            d = json.loads(text)
            rec = cls(d["config"], d["metrics"], d["loss_curve"], d["dataset_hash"])
            if not (rec.metrics and isinstance(rec.loss_curve, list)):
                raise TypeError("metrics names no task or loss_curve is not a list")
            row, = records_to_rows([rec])  # reads every config and metrics key a table reads
            if not all(0.0 <= s <= 100.0 for s in row.scores.values()):
                raise ValueError("a success_rate lies outside [0, 1]")
        except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
            raise ConfigError(f"{source}: not a run record ({type(exc).__name__}: {exc})") from exc
        return rec


def run_single(cfg: ExperimentConfig) -> tuple[RunRecord, FusionPolicy]:
    """Train and evaluate one configuration; returns its record and trained policy."""
    policy = build_policy(cfg)
    train, eval_set = build_datasets(cfg)
    curve = train_policy(policy, train, cfg, RngStream(cfg.seed, _STREAM_TRAIN))
    return _scored(policy, cfg, eval_set, curve, dataset_hash(train)), policy


def _scored(policy: FusionPolicy, cfg: ExperimentConfig, eval_set, curve,
            train_hash: str) -> RunRecord:
    """The record of `policy`, trained with loss `curve` on the set hashed
    `train_hash`, scored on `eval_set` as `cfg` says."""
    return RunRecord(cfg.to_dict(), {TASK_NAME: evaluate_config(policy, cfg, eval_set)},
                     curve, train_hash)


# A sweep maps a base config to the configs it runs.  Each differs from the
# base only on its axis, so every run of a sweep shares one protocol.

def pilot_configs(base: ExperimentConfig):
    """One config per scheme, in `SCHEME_IDS` order (`none` first)."""
    return [base.replace(scheme=s) for s in SCHEME_IDS]


ABLATIONS = {
    "frozen_vs_trainable": lambda base: [base.replace(freeze_geo=f) for f in (True, False)],
    "corruption": lambda base: [base.replace(corruption=c) for c in CORRUPTIONS],
    "sparse_depth": lambda base: [base.replace(arch="pi", sparse_k=k) for k in (0, 1, 2, 3)],
}


def run_all(configs) -> list[RunRecord]:
    """The records of `run_single` over configs, in order, one run at a
    time.  Configs that differ only in `EVAL_ONLY_FIELDS` share one
    training: `run_single` runs the first of them, and its trained policy
    is scored again under each of the others.  Each group runs in its own
    call, so no trained policy outlives its group.  `run_single` is looked
    up at call time, so a patched one (timers, tracers) sees every run."""
    groups = {}  # the fields training reads -> indices into configs
    for i, cfg in enumerate(configs):
        key = tuple((k, v) for k, v in cfg.to_dict().items() if k not in EVAL_ONLY_FIELDS)
        groups.setdefault(key, []).append(i)
    records = [None] * len(configs)

    def run_group(group):
        first, policy = run_single(configs[group[0]])
        records[group[0]] = first
        for i in group[1:]:
            policy.cfg = configs[i]  # `predict` reads euler_steps from the policy's config
            records[i] = _scored(policy, configs[i], build_eval_dataset(configs[i]),
                                 first.loss_curve, first.dataset_hash)

    for group in groups.values():
        run_group(group)
    return records


# ------------------------------------------------------------------ tables

@dataclass
class TableRow:
    method: str
    scores: dict  # task name -> score (percent scale)
    group: str = ""
    is_base: bool = False


def records_to_rows(records) -> list[TableRow]:
    """One row per record; the first `none` record is the base of the Gain column."""
    rows = []
    for rec in records:
        scores = {task: 100.0 * m["success_rate"] for task, m in rec.metrics.items()}
        is_base = rec.config["scheme"] == "none" and not any(r.is_base for r in rows)
        rows.append(TableRow(_record_label(rec), scores, is_base=is_base))
    return rows


def _record_label(rec: RunRecord) -> str:
    cfg = rec.config
    bits = [cfg["scheme"], cfg["arch"]]
    if cfg["corruption"] != "none":
        bits.append(f"corrupt={cfg['corruption']}")
    if not cfg["freeze_geo"]:
        bits.append("geo-trainable")
    if cfg["arch"] == "pi" and cfg["sparse_k"]:
        bits.append(f"k={cfg['sparse_k']}")
    return " ".join(bits)


def _round2(x: float) -> float:
    """Round half away from zero at 2 decimals, the convention the printed
    tables follow (printf half-even would turn 65.625 into 65.62)."""
    return float(decimal.Decimal(repr(x)).quantize(decimal.Decimal("0.01"),
                                                   rounding=decimal.ROUND_HALF_UP))


def emit_table(rows: list[TableRow], fmt: str = "markdown") -> str:
    """Render rows as a benchmark report table: per-task columns, an average
    column shown to 2 decimals, and a gain column vs the base row of the
    same group; a mean-gain footer appears when several gains exist.

    Gains are differences of the *displayed* (2-decimal) averages, so the
    table is internally consistent to the reader."""
    tasks = list(rows[0].scores)
    for r in rows:
        if list(r.scores) != tasks:
            raise ConfigError(f"row {r.method!r} has a different task set")

    base_avg = {r.group: _round2(_avg(r.scores)) for r in rows if r.is_base}
    has_gain = any(not r.is_base and r.group in base_avg for r in rows)

    gains = []
    body = []
    for r in rows:
        avg = _round2(_avg(r.scores))
        cells = [r.method] + [f"{r.scores[t]:.2f}" for t in tasks] + [f"{avg:.2f}"]
        if has_gain:
            if not r.is_base and r.group in base_avg:
                gain = _round2(avg - base_avg[r.group])
                gains.append(gain)
                cells.append(f"{gain:+.2f}")
            else:
                cells.append("")
        body.append(cells)

    header = ["Method"] + tasks + ["Avg"] + (["Gain"] if has_gain else [])
    lines = []
    if fmt == "markdown":
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "|".join(["---"] * len(header)) + "|")
        for cells in body:
            lines.append("| " + " | ".join(cells) + " |")
        if len(gains) > 1:
            lines.append("")
            lines.append(f"Mean gain: {_round2(sum(gains) / len(gains)):.2f}")
    else:
        lines.append(",".join(header))
        for cells in body:
            lines.append(",".join(cells))
        if len(gains) > 1:
            lines.append(f"mean_gain,{_round2(sum(gains) / len(gains)):.2f}")
    return "\n".join(lines) + "\n"


def _avg(scores: dict) -> float:
    return sum(scores.values()) / len(scores)


def loss_curves_csv(records) -> str:
    """Per-step losses of every record, one column per run."""
    labels = [_record_label(r) for r in records]
    n = max(len(r.loss_curve) for r in records)
    lines = ["step," + ",".join(labels)]
    for i in range(n):
        row = [str(i)]
        for r in records:
            row.append(repr(r.loss_curve[i]) if i < len(r.loss_curve) else "")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"

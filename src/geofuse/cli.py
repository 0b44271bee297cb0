"""Command-line entry point.

Subcommands: pilot, ablate, train, eval, report.  All randomness derives
from --seed (or the config's seed) and records carry no timing, so a
repeated invocation writes byte-identical files.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .checkpoint import load_checkpoint, save_checkpoint
from .config import CORRUPTIONS, ExperimentConfig
from .errors import ConfigError, GeofuseError
from .runner import (
    ABLATIONS,
    RunRecord,
    build_eval_dataset,
    emit_table,
    evaluate_config,
    loss_curves_csv,
    pilot_configs,
    records_to_rows,
    run_all,
    run_single,
)

SWEEPS = {"pilot": pilot_configs, **ABLATIONS}  # sweep name -> base config -> configs


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg = cfg.replace(seed=args.seed)
    return cfg


def _out_dir(path) -> Path:
    """The output directory, made before any run so a bad --out fails first."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {path}: cannot make the output directory ({exc})") from exc
    return out


def _write_run(out: Path, record: RunRecord, policy, cfg: ExperimentConfig):
    (out / "config.txt").write_text(cfg.to_text())
    (out / "record.json").write_text(record.to_json() + "\n")
    (out / "loss.csv").write_text(loss_curves_csv([record]))
    save_checkpoint(policy, cfg, out / "checkpoint.bin")


def _write_tables(out: Path, records, fmt: str) -> str:
    """Write the report table and `loss_curves.csv` into `out`; returns the table."""
    table = emit_table(records_to_rows(records), fmt)
    ext = "md" if fmt == "markdown" else "csv"
    (out / f"report.{ext}").write_text(table)
    (out / "loss_curves.csv").write_text(loss_curves_csv(records))
    return table


def _write_report(out: Path, records, fmt: str) -> str:
    """One `record_NN.json` per run, then `_write_tables`; returns the table.
    The records land first, so `report` can rebuild the tables from them."""
    for i, rec in enumerate(records):
        (out / f"record_{i:02d}.json").write_text(rec.to_json() + "\n")
    return _write_tables(out, records, fmt)


def cmd_train(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args.out)
    record, policy = run_single(cfg)
    _write_run(out, record, policy, cfg)
    m = record.metrics["reach"]
    print(f"trained {cfg.scheme} ({cfg.arch}): "
          f"success={m['success_rate']:.3f} l2={m['mean_l2_error']:.4f}")
    return 0


def cmd_eval(args) -> int:
    policy, cfg = load_checkpoint(args.checkpoint)
    if args.seed is not None:
        cfg = cfg.replace(seed=args.seed)
    if args.corruption:
        cfg = cfg.replace(corruption=args.corruption)
    m = evaluate_config(policy, cfg, build_eval_dataset(cfg))
    print(f"success_rate={m['success_rate']:.4f} mean_l2_error={m['mean_l2_error']:.4f} "
          f"n={m['n_episodes']}")
    return 0


def cmd_sweep(args) -> int:
    """`pilot` and `ablate`: run every config of the sweep, then write its report."""
    if args.jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {args.jobs}")
    cfg = _load_config(args)
    out = _out_dir(args.out)
    records = run_all(SWEEPS[args.sweep](cfg))
    print(_write_report(out, records, args.format))
    return 0


def cmd_report(args) -> int:
    paths = sorted(Path(args.records).glob("record*.json"))
    if not paths:
        raise GeofuseError(f"no record files under {args.records}")
    out = _out_dir(args.out or args.records)
    records = [RunRecord.from_json(p.read_bytes(), str(p)) for p in paths]
    print(_write_tables(out, records, args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="geofuse",
                                 description="gated geometric fusion lab")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", required=True, help="output directory")

    def multi_run(p):
        common(p)
        p.add_argument("--format", choices=("markdown", "csv"), default="markdown")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted but has no effect: runs go one at a time")

    p = sub.add_parser("pilot", help="train+eval the base model and all nine schemes")
    p.set_defaults(sweep="pilot")
    multi_run(p)
    p = sub.add_parser("ablate", help="run one ablation axis")
    p.add_argument("--kind", dest="sweep", choices=ABLATIONS, required=True)
    multi_run(p)
    common(sub.add_parser("train", help="train a single configuration"))
    p = sub.add_parser("eval", help="evaluate a saved checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--corruption", choices=CORRUPTIONS)
    p = sub.add_parser("report", help="re-emit tables from saved records")
    p.add_argument("--records", required=True, help="directory of record*.json files")
    p.add_argument("--out")
    p.add_argument("--format", choices=("markdown", "csv"), default="markdown")
    return ap


COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "pilot": cmd_sweep,
    "ablate": cmd_sweep,
    "report": cmd_report,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return COMMANDS[args.command](args)
    except GeofuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

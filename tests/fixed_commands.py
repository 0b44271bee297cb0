"""Run a fixed set of geofuse commands in-process and keep all they write.

    PYTHONPATH=src python tests/fixed_commands.py OUT

The set: a tiny `train` for every scheme x arch (`freeze_geo=false`,
`sparse_k=1`, `n_objects=2`), each followed by `eval` under every
corruption; a tiny `pilot --jobs 2` under pi; each `ablate` kind;
`report --format csv` over the pilot's records; a default
`train --seed 7`.  Every command runs with OUT as the working directory
and relative paths, so no output names OUT.  Each command's output
directory lands under OUT, next to `<name>.log`, which holds its exit
code, stdout and stderr.  Two source trees write the same bytes when
`diff -r` finds their OUT trees identical.
"""
import contextlib
import io
import os
import sys
from pathlib import Path

from geofuse import cli
from geofuse.config import ARCHS, CORRUPTIONS, SCHEME_IDS, ExperimentConfig

TINY = dict(d=8, n_layers=2, heads=2, vocab_size=16, n_patches=4, d_vggt=6,
            n_dit_layers=2, horizon=2, d_action=4, n_objects=2, train_steps=20,
            batch_size=4, dataset_size=32, eval_episodes=16, euler_steps=2)


def _config(name: str, **kw) -> str:
    path = Path("configs") / f"{name}.cfg"
    path.write_text(ExperimentConfig(**TINY, **kw).to_text())
    return str(path)


def commands():
    """(name, argv) of every command, in run order."""
    for scheme in SCHEME_IDS:
        for arch in ARCHS:
            name = f"train_{scheme}_{arch}"
            cfg = _config(name, scheme=scheme, arch=arch, freeze_geo=False, sparse_k=1)
            yield name, ["train", "--config", cfg, "--out", name]
            for c in CORRUPTIONS:
                yield (f"eval_{scheme}_{arch}_{c}",
                       ["eval", "--checkpoint", f"{name}/checkpoint.bin", "--corruption", c])
    cfg = _config("pilot", arch="pi", sparse_k=1)
    yield "pilot", ["pilot", "--config", cfg, "--out", "pilot", "--jobs", "2"]
    cfg = _config("ablate")
    for kind in cli.ABLATIONS:
        yield f"ablate_{kind}", ["ablate", "--kind", kind, "--config", cfg, "--out", f"ablate_{kind}"]
    yield "report", ["report", "--records", "pilot", "--out", "report", "--format", "csv"]
    yield "train_default_seed7", ["train", "--seed", "7", "--out", "train_default_seed7"]


def run(name: str, argv: list) -> int:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    Path(f"{name}.log").write_text(f"exit {code}\n--- stdout\n{stdout.getvalue()}"
                                   f"--- stderr\n{stderr.getvalue()}")
    return code


def main(out: str) -> int:
    Path(out, "configs").mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    failed = [name for name, argv in commands() if run(name, argv) != 0]
    for name in failed:
        print(f"{name}: non-zero exit, see {name}.log", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: fixed_commands.py OUT")
    sys.exit(main(sys.argv[1]))

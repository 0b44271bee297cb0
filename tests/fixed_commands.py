"""Run a fixed set of geofuse commands in-process and keep all they write,
or compare two such output trees.

    PYTHONPATH=src python tests/fixed_commands.py OUT
    PYTHONPATH=src python tests/fixed_commands.py --compare A B

The set: a tiny `train` for every scheme x arch (`freeze_geo=false`,
`sparse_k=1`, `n_objects=2`), each followed by `eval` under every
corruption; a tiny `pilot --jobs 2` under pi; each `ablate` kind;
`report --format csv` over the pilot's records; a default
`train --seed 7`.  Every command runs with OUT as the working directory
and relative paths, so no output names OUT.  Each command's output
directory lands under OUT, next to `<name>.log`, which holds its exit
code, stdout and stderr.  Two source trees write the same bytes when
`diff -r` finds their OUT trees identical.

`--compare A B` prints "bit-identical" when two OUT trees hold the same
files with the same bytes.  Otherwise it lists every file found on one
side only and, for each file that differs, the largest absolute and
relative difference between the numbers the two files hold: the values
of a JSON file, the float64 payload of a checkpoint, and every number
written in any other text file (CSV tables, logs).  A file whose text
around its numbers differs is reported as such.  The exit code is 0 when
the trees are bit-identical and 1 otherwise.
"""
import contextlib
import io
import json
import os
import re
import struct
import sys
from pathlib import Path

import numpy as np

from geofuse import cli
from geofuse.checkpoint import MAGIC
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


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _json_leaves(node, text, numbers):
    """Walk a parsed JSON value: numbers go to `numbers`, everything else
    (keys, strings, booleans, nulls, the shape of the tree) to `text`."""
    if isinstance(node, dict):
        for k in sorted(node):
            text.append(f"{k}:")
            _json_leaves(node[k], text, numbers)
        text.append("}")
    elif isinstance(node, list):
        for v in node:
            _json_leaves(v, text, numbers)
        text.append("]")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        numbers.append(float(node))
        text.append("#")
    else:
        text.append(repr(node))


def numbers_of(path: Path):
    """(everything but the numbers, the numbers as float64) of one output file."""
    raw = path.read_bytes()
    if raw.startswith(MAGIC):  # checkpoint: header, payload, digest
        hlen = struct.unpack_from("<Q", raw, len(MAGIC) + 4)[0]
        start = len(MAGIC) + 12 + hlen
        return [raw[:start]], np.frombuffer(raw[start:-32], dtype="<f8")
    text = raw.decode()
    if path.suffix == ".json":
        skeleton, numbers = [], []
        _json_leaves(json.loads(text), skeleton, numbers)
        return skeleton, np.array(numbers)
    return _NUMBER.split(text), np.array([float(m) for m in _NUMBER.findall(text)])


def compare(a: str, b: str) -> int:
    """Print how the OUT trees `a` and `b` differ; see the module docstring."""
    files = [{p.relative_to(root) for p in Path(root).rglob("*") if p.is_file()}
             for root in (a, b)]
    lines = [f"only in {root}: {rel}" for root, mine, other in ((a, *files), (b, *files[::-1]))
             for rel in sorted(mine - other)]
    common = sorted(files[0] & files[1])
    differ = 0
    for rel in common:
        pa, pb = Path(a, rel), Path(b, rel)
        if pa.read_bytes() == pb.read_bytes():
            continue
        differ += 1
        (ta, xa), (tb, xb) = numbers_of(pa), numbers_of(pb)
        if ta != tb or xa.shape != xb.shape:
            lines.append(f"{rel}: differs outside its numbers")
            continue
        diff = np.abs(xa - xb)
        scale = np.maximum(np.abs(xa), np.abs(xb))
        rel_diff = np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0)
        lines.append(f"{rel}: max abs {diff.max(initial=0.0):.3g}, "
                     f"max rel {rel_diff.max(initial=0.0):.3g}")
    if not lines:
        print(f"bit-identical: {len(common)} files")
        return 0
    print(f"{differ} of {len(common)} common files differ")
    print("\n".join(lines))
    return 1


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    if len(sys.argv) != 2:
        sys.exit("usage: fixed_commands.py OUT | fixed_commands.py --compare A B")
    sys.exit(main(sys.argv[1]))

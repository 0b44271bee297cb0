"""Flat key=value experiment configuration.

Every field has a typed default; unknown keys are rejected so stale
config files fail loudly.  `#` starts a comment; blank lines are ignored.
The serialized form round-trips exactly (repr floats).
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import ConfigError


@dataclass
class ExperimentConfig:
    scheme: str = "gated_fusion"
    arch: str = "groot"  # groot | pi
    seed: int = 7
    # scene / backbone sizes
    n_objects: int = 1
    n_patches: int = 8
    d: int = 32
    heads: int = 4
    n_layers: int = 4
    l_max: int = 32
    vocab_size: int = 64
    d_vggt: int = 48
    n_dit_layers: int = 4
    horizon: int = 4
    d_action: int = 7
    # flow matching
    tau_alpha: float = 1.0
    tau_beta: float = 1.0
    euler_steps: int = 10
    noise_std: float = 1.0
    # fusion knobs
    sparse_k: int = 0
    sparse_phase: str = "first"
    freeze_geo: bool = True
    align_weight: float = 0.1
    forcing_weight: float = 0.1
    midlayer_k: int = -1  # -1 selects the middle backbone layer
    # corruption at evaluation time
    corruption: str = "none"
    corruption_sigma: float = 1.0
    # training budget
    train_steps: int = 2000
    batch_size: int = 16
    dataset_size: int = 4096
    eval_episodes: int = 256
    lr_backbone: float = 1e-3
    lr_fusion: float = 1e-2
    warmup_frac: float = 0.05
    beta1: float = 0.0

    # fields that may legitimately differ between pilot runs
    PILOT_FREE_FIELDS = ("scheme",)

    @classmethod
    def from_dict(cls, overrides: dict) -> "ExperimentConfig":
        fields = {f.name: f for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, raw in overrides.items():
            if key not in fields:
                raise ConfigError(f"unknown config key {key!r}")
            kwargs[key] = _coerce(key, raw, fields[key].type)
        return cls(**kwargs)

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        overrides = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            if key in overrides:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            overrides[key] = val
        return cls.from_dict(overrides)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_text(fh.read())

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_text(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool):
                v = "true" if v else "false"
            elif isinstance(v, float):
                v = repr(v)
            lines.append(f"{f.name}={v}")
        return "\n".join(lines) + "\n"

    def replace(self, **kw) -> "ExperimentConfig":
        return dataclasses.replace(self, **kw)

    def shared_fields(self) -> dict:
        d = self.to_dict()
        for k in self.PILOT_FREE_FIELDS:
            d.pop(k)
        return d


def _coerce(key, raw, ftype):
    if not isinstance(raw, str):
        return raw
    ftype = str(ftype)
    try:
        if "bool" in ftype:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if "int" in ftype:
            return int(raw)
        if "float" in ftype:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as {ftype}") from exc

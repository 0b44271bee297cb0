"""Flat key=value experiment configuration.

`ExperimentConfig` is the one place a hyperparameter is named, defaulted
and validated: every component reads its fields directly and repeats
none of its bounds.  Unknown keys are rejected so stale config files
fail loudly, and every value is type- and range-checked on construction,
so a bad file or checkpoint header fails before any model is built.
`#` starts a comment; blank lines are ignored.  The serialized form
round-trips exactly (repr floats).
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ConfigError

SCHEME_IDS = (
    "none",
    "ae_fusion",
    "early_fusion",
    "concat_fusion",
    "crossattn_fusion",
    "gated_fusion",
    "threed_tokens",
    "midlayer_injection",
    "spatial_forcing",
    "visual_fusion",
)
OBJECT_ID_POOL = 16  # object ids are drawn without replacement from range(16)
ARCHS = ("groot", "pi")
CORRUPTIONS = ("none", "zeros", "gaussian")
# fields that training never reads, so configs differing only in them share a trained policy
EVAL_ONLY_FIELDS = ("corruption", "corruption_sigma", "eval_episodes", "euler_steps")

_TYPES = {"str": str, "int": int, "float": float, "bool": bool}


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
    vocab_size: int = 64  # >= OBJECT_ID_POOL, so every drawn object id has a token
    d_vggt: int = 48
    n_dit_layers: int = 4
    horizon: int = 4
    d_action: int = 7  # >= 4: three position deltas plus the grasp channel
    # flow matching
    tau_alpha: float = 1.0
    tau_beta: float = 1.0
    euler_steps: int = 10
    noise_std: float = 1.0
    # fusion knobs
    sparse_k: int = 0
    freeze_geo: bool = True
    align_weight: float = 0.1
    forcing_weight: float = 0.1
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

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = _check_type(f.name, getattr(self, f.name), f.type)
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
            setattr(self, f.name, value)
        if self.scheme not in SCHEME_IDS:
            raise ConfigError(
                f"unknown fusion scheme {self.scheme!r}; valid ids: {', '.join(SCHEME_IDS)}"
            )
        if self.arch not in ARCHS:
            raise ConfigError(f"unknown architecture {self.arch!r}; valid: {', '.join(ARCHS)}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be in [0, 2**64) (a Philox key word), got {self.seed}")
        if self.sparse_k < 0:
            raise ConfigError(f"sparse_k must be >= 0, got {self.sparse_k}")
        if self.corruption not in CORRUPTIONS:
            raise ConfigError(f"unknown corruption mode {self.corruption!r}")
        if self.corruption == "gaussian" and self.corruption_sigma <= 0:
            raise ConfigError("gaussian corruption needs corruption_sigma > 0")
        for name in ("d", "d_vggt", "n_layers", "n_dit_layers", "horizon", "batch_size",
                     "dataset_size", "eval_episodes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_action < 4:
            raise ConfigError(f"d_action must be >= 4 (3 deltas + grasp), got {self.d_action}")
        if self.train_steps < 0:
            raise ConfigError(f"train_steps must be >= 0, got {self.train_steps}")
        if self.vocab_size < OBJECT_ID_POOL:
            raise ConfigError(f"vocab_size must be >= {OBJECT_ID_POOL} (the object id pool), "
                              f"got {self.vocab_size}")
        if not 1 <= self.n_objects <= min(self.n_patches, OBJECT_ID_POOL):
            raise ConfigError(f"n_objects must be in [1, min(n_patches, {OBJECT_ID_POOL})], "
                              f"got {self.n_objects} with n_patches={self.n_patches}")
        if self.noise_std < 0:
            raise ConfigError(f"noise_std must be >= 0, got {self.noise_std}")
        if self.arch == "pi" and self.n_dit_layers > self.n_layers:
            raise ConfigError(f"arch=pi conditions each of the {self.n_dit_layers} action "
                              f"blocks on its own backbone layer, but n_layers={self.n_layers}")
        if self.heads < 1 or self.d % self.heads:
            raise ConfigError(f"d={self.d} not divisible by heads={self.heads}")
        if self.d % 2 or (self.scheme == "spatial_forcing" and self.d_vggt % 2):
            raise ConfigError(f"sin/cos tables need an even d (and d_vggt under "
                              f"spatial_forcing), got d={self.d}, d_vggt={self.d_vggt}")
        if self.tau_alpha <= 0 or self.tau_beta <= 0:
            raise ConfigError("Beta shape parameters tau_alpha, tau_beta must be positive")
        if self.euler_steps < 1:
            raise ConfigError("need at least one integration step (euler_steps >= 1)")

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
        try:
            with open(path) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config {path}: cannot read ({exc})") from exc
        return cls.from_text(text)

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


def _coerce(key, raw, ftype):
    """Parse a string value as the field's type; other values pass on to
    `_check_type`."""
    if not isinstance(raw, str) or ftype == "str":
        return raw
    try:
        if ftype == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if ftype == "int":
            return int(raw)
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as {ftype}") from exc


def _check_type(key, value, ftype):
    """`value` if it has the field's type; an int is widened for a float field."""
    want = _TYPES[ftype]
    # bool is an int subclass: it fills a bool field and nothing else
    if isinstance(value, bool) == (want is bool):
        if want is float and isinstance(value, int):
            try:
                return float(value)
            except OverflowError:
                pass
        elif isinstance(value, want):
            return value
    raise ConfigError(f"config key {key!r}: expected {ftype}, got {value!r}")

"""Config parsing/round-trips and binary checkpoint integrity."""
import dataclasses
import functools
import hashlib
import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, tiny_cfg
from geofuse.checkpoint import load_checkpoint, save_checkpoint
from geofuse.config import ARCHS, CORRUPTIONS, SCHEME_IDS, ExperimentConfig
from geofuse.errors import CheckpointError, ConfigError, GeofuseError
from geofuse.runner import ABLATIONS, build_policy, pilot_configs, run_single


# ------------------------------------------------------------------ config

def test_config_defaults_round_trip():
    cfg = ExperimentConfig()
    assert ExperimentConfig.from_text(cfg.to_text()) == cfg


def test_config_round_trip_with_awkward_float():
    cfg = ExperimentConfig(lr_fusion=0.1 + 0.2, noise_std=1e-7)
    assert ExperimentConfig.from_text(cfg.to_text()) == cfg


def test_config_parses_overrides_comments_and_blanks():
    text = """
    # experiment sweep
    scheme = crossattn_fusion
    seed=11        # trailing comment
    freeze_geo = false

    lr_fusion = 5e-3
    """
    cfg = ExperimentConfig.from_text(text)
    assert cfg.scheme == "crossattn_fusion"
    assert cfg.seed == 11
    assert cfg.freeze_geo is False
    assert cfg.lr_fusion == 5e-3
    assert cfg.d == ExperimentConfig().d  # untouched default


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        ExperimentConfig.from_text("learning_rate=0.1\n")


def test_config_rejects_bad_value():
    with pytest.raises(ConfigError, match="cannot parse"):
        ExperimentConfig.from_text("seed=seven\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        ExperimentConfig.from_text("freeze_geo=maybe\n")


def test_config_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate key"):
        ExperimentConfig.from_text("seed=1\nseed=2\n")


def test_config_rejects_malformed_line():
    with pytest.raises(ConfigError, match="key=value"):
        ExperimentConfig.from_text("just some words\n")


@pytest.mark.parametrize("text", [
    "scheme=nope", "arch=nope", "sparse_k=-1",
    "corruption=blur", "corruption=gaussian\ncorruption_sigma=0",
    "heads=3",  # d=32
    "euler_steps=0", "tau_alpha=0", "tau_beta=nan",
    "n_layers=0", "batch_size=0", "horizon=0", "d=0\nheads=1", "train_steps=-1",
    "n_dit_layers=0", "arch=pi\nn_dit_layers=5",  # n_layers=4
    "d_vggt=0", "d_action=0", "d_action=3",  # 3 position deltas plus the grasp channel
    "dataset_size=0", "eval_episodes=0",
    "noise_std=-1", "noise_std=nan", "lr_fusion=inf", "warmup_frac=nan",
    "seed=-1", "seed=18446744073709551616",  # seeds key a Philox generator: [0, 2**64)
    "n_objects=17\nn_patches=20",  # 16 object ids
    "n_objects=0", "n_objects=9",  # n_patches=8
    "vocab_size=15",  # an object id drawn from range(16) would have no token
    "d=9\nheads=3",  # sin/cos tables need an even width
    "d_vggt=5\nscheme=spatial_forcing",
])
def test_config_rejects_out_of_range_values_when_parsed(text):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text(text)


@pytest.mark.parametrize("text", ["beta1=0.0", "sparse_phase=first", "midlayer_k=-1"])
def test_config_refuses_removed_keys(text):
    with pytest.raises(ConfigError, match="unknown config key"):
        ExperimentConfig.from_text(text)


@st.composite
def valid_configs(draw):
    """Any config that passes validation: every field drawn from its type,
    with the coupled sizes drawn so that they agree."""
    choices = {"scheme": SCHEME_IDS, "arch": ARCHS, "corruption": CORRUPTIONS}
    kw = {}
    for f in dataclasses.fields(ExperimentConfig):
        if f.name in choices:
            kw[f.name] = draw(st.sampled_from(choices[f.name]))
        elif f.type == "bool":
            kw[f.name] = draw(st.booleans())
        elif f.type == "int":
            kw[f.name] = draw(st.integers(1, 64))
        else:  # positive and finite, so NaN never breaks equality
            kw[f.name] = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    kw["seed"] = draw(st.integers(0, 2**64 - 1))
    kw["d"] = math.lcm(kw["heads"], 2) * draw(st.integers(1, 8))
    if kw["scheme"] == "spatial_forcing":
        kw["d_vggt"] = 2 * draw(st.integers(1, 32))
    kw["d_action"] = draw(st.integers(4, 64))
    kw["n_dit_layers"] = draw(st.integers(1, kw["n_layers"]))
    kw["sparse_k"] = draw(st.integers(0, 64))
    kw["train_steps"] = draw(st.integers(0, 64))
    kw["n_objects"] = draw(st.integers(1, min(kw["n_patches"], 16)))
    kw["vocab_size"] = draw(st.integers(16, 64))
    return ExperimentConfig(**kw)


@given(valid_configs())
def test_config_text_round_trip_is_exact(cfg):
    text = cfg.to_text()
    back = ExperimentConfig.from_text(text)
    assert back == cfg
    assert back.to_text() == text


# the fields each ablation varies; every other field is the base's
ABLATION_AXES = {"frozen_vs_trainable": {"freeze_geo"}, "corruption": {"corruption"},
                 "sparse_depth": {"arch", "sparse_k"}}


def _sweep_or_none(make, base):
    """The sweep's configs, or None when building one raises ConfigError,
    which a command reports before any run starts."""
    try:
        return make(base)
    except ConfigError:
        return None


def _changed(base, cfg):
    return {k for k, v in cfg.to_dict().items() if base.to_dict()[k] != v}


@settings(max_examples=25, deadline=None)
@given(valid_configs())
def test_sweeps_vary_only_their_axis(base):
    """Every run of a sweep shares the base's protocol: each config differs
    from the base only in the sweep's own fields."""
    pilot = _sweep_or_none(pilot_configs, base)
    if pilot is not None:
        assert [c.scheme for c in pilot] == list(SCHEME_IDS) and pilot[0].scheme == "none"
        assert all(_changed(base, c) <= {"scheme"} for c in pilot)
    assert set(ABLATIONS) == set(ABLATION_AXES)
    for kind, axis in ABLATION_AXES.items():
        configs = _sweep_or_none(ABLATIONS[kind], base)
        if configs is not None:
            assert len(configs) >= 2
            assert all(_changed(base, c) <= axis for c in configs)


def test_config_widens_an_int_for_a_float_field():
    cfg = ExperimentConfig.from_dict({"tau_alpha": 2})
    assert type(cfg.tau_alpha) is float and cfg == ExperimentConfig(tau_alpha=2.0)


# ------------------------------------------------------------------ checkpoints

def write_ckpt(tmp_path):
    cfg = tiny_cfg()
    policy = build_policy(cfg)
    path = tmp_path / "model.bin"
    save_checkpoint(policy, cfg, path)
    return policy, cfg, path


def test_checkpoint_round_trip_bitwise(tmp_path):
    policy, cfg, path = write_ckpt(tmp_path)
    loaded, loaded_cfg = load_checkpoint(path)
    assert loaded_cfg == cfg
    for p, q in zip(policy.store, loaded.store):
        assert p.id == q.id
        np.testing.assert_array_equal(p.value.data, q.value.data)


def test_checkpoint_survives_a_save_load_save_cycle(tmp_path):
    _, cfg, path = write_ckpt(tmp_path)
    loaded, loaded_cfg = load_checkpoint(path)
    path2 = tmp_path / "again.bin"
    save_checkpoint(loaded, loaded_cfg, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    _, _, path = write_ckpt(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[:8] = b"NOTMINE!"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path):
    _, _, path = write_ckpt(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[8:12] = struct.pack("<I", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_truncated_header(tmp_path):
    _, _, path = write_ckpt(tmp_path)
    path.write_bytes(path.read_bytes()[:30])
    with pytest.raises(CheckpointError, match="truncated checkpoint header"):
        load_checkpoint(path)


def _resign(path, edit):
    """Replace the bytes before the SHA-256 trailer with `edit(bytes)` and sign
    the result, so a load gets past the digest to the check under test."""
    body = edit(path.read_bytes()[:-32])
    path.write_bytes(body + hashlib.sha256(body).digest())


def test_checkpoint_corrupt_header_json(tmp_path):
    _, _, path = write_ckpt(tmp_path)
    _resign(path, lambda b: b[:20] + b"!" + b[21:])  # clobber the JSON opening brace
    with pytest.raises(CheckpointError, match="corrupt checkpoint header"):
        load_checkpoint(path)


def test_checkpoint_truncated_payload(tmp_path):
    _, _, path = write_ckpt(tmp_path)
    _resign(path, lambda b: b[:-16])
    with pytest.raises(CheckpointError, match="truncated payload"):
        load_checkpoint(path)


def test_checkpoint_trailing_garbage(tmp_path):
    _, _, path = write_ckpt(tmp_path)
    _resign(path, lambda b: b + b"\x00" * 8)
    with pytest.raises(CheckpointError, match="trailing bytes"):
        load_checkpoint(path)


def _rewrite_header(path, mutate):
    def edit(body):
        (hlen,) = struct.unpack("<Q", body[12:20])
        header = json.loads(body[20:20 + hlen].decode())
        mutate(header)
        new = json.dumps(header, sort_keys=True).encode()
        return body[:12] + struct.pack("<Q", len(new)) + new + body[20 + hlen:]

    _resign(path, edit)


def test_checkpoint_manifest_shape_mismatch(tmp_path):
    _, _, path = write_ckpt(tmp_path)

    def mutate(header):
        shape = header["params"][0]["shape"]
        shape[0] += 1

    _rewrite_header(path, mutate)
    with pytest.raises(CheckpointError, match="shape mismatch"):
        load_checkpoint(path)


def test_checkpoint_manifest_param_list_mismatch(tmp_path):
    _, _, path = write_ckpt(tmp_path)
    _rewrite_header(path, lambda h: h["params"].pop())
    with pytest.raises(CheckpointError, match="manifest mismatch"):
        load_checkpoint(path)


@pytest.mark.parametrize("key,value", [
    ("d", [1]), ("seed", "7x"), ("seed", 7.5), ("freeze_geo", 3), ("tau_alpha", True),
    ("tau_alpha", 10**400), ("scheme", 5),
])
def test_checkpoint_config_of_the_wrong_type(tmp_path, key, value):
    _, _, path = write_ckpt(tmp_path)
    _rewrite_header(path, lambda h: h["config"].update({key: value}))
    with pytest.raises(ConfigError):
        load_checkpoint(path)


def test_checkpoint_naming_the_removed_l_max_is_refused(tmp_path):
    """`l_max` was dropped from the config; a header that still names it is
    refused like any unknown key, with no compatibility shim."""
    _, _, path = write_ckpt(tmp_path)
    _rewrite_header(path, lambda h: h["config"].update(l_max=32))
    with pytest.raises(ConfigError, match="unknown config key 'l_max'"):
        load_checkpoint(path)


def _float_shape(header):
    header["params"][0]["shape"] = [float(n) for n in header["params"][0]["shape"]]


@pytest.mark.parametrize("mutate", [
    lambda h: h["params"][0].pop("id"),
    lambda h: h["params"][0].pop("shape"),
    lambda h: h["params"][0].update(shape=3),
    _float_shape,
    lambda h: h["params"].__setitem__(0, 7),
    lambda h: h.update(params={"id": "mllm.tok_embed"}),
    lambda h: h.update(params="mllm.tok_embed"),
    lambda h: h.update(config=[1, 2]),
], ids=["no_id", "no_shape", "int_shape", "float_shape", "int_entry", "dict_params",
        "str_params", "list_config"])
def test_checkpoint_malformed_manifest(tmp_path, mutate):
    _, _, path = write_ckpt(tmp_path)
    _rewrite_header(path, mutate)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@functools.cache
def _ckpt_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as d:
        return write_ckpt(Path(d))[2].read_bytes()


@given(st.sets(st.sampled_from(["config", "params"]), min_size=1))
def test_checkpoint_header_missing_key(keys):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "model.bin"
        path.write_bytes(_ckpt_bytes())
        _rewrite_header(path, lambda h: [h.pop(k) for k in keys])
        with pytest.raises(CheckpointError, match="lacks a config or a param manifest"):
            load_checkpoint(path)


@given(st.data())
def test_checkpoint_truncated_anywhere(data):
    raw = _ckpt_bytes()
    cut = data.draw(st.integers(0, len(raw) - 1))
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "model.bin"
        path.write_bytes(raw[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


@given(st.data())
def test_checkpoint_any_flipped_bit_is_refused(data):
    """The SHA-256 trailer covers every byte before it, so no single-bit
    flip, in the header, the payload or the trailer itself, loads."""
    raw = bytearray(_ckpt_bytes())
    offset = data.draw(st.integers(0, len(raw) - 1))
    raw[offset] ^= 1 << data.draw(st.integers(0, 7))
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "model.bin"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def test_checkpoint_payload_flip_fails_the_digest(tmp_path):
    _, _, path = write_ckpt(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[-33] ^= 0x80  # the sign bit of the last payload float: still a valid value
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="digest mismatch"):
        load_checkpoint(path)


def _payload(path):
    """The float64 payload of a checkpoint file: after the header, before the digest."""
    raw = Path(path).read_bytes()
    _, hlen = struct.unpack_from("<IQ", raw, 8)
    return raw[20 + hlen:-32]


@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize("scheme", SCHEME_IDS)
def test_checkpoint_payload_is_the_per_param_join(tmp_path, scheme, arch):
    """The payload, written with one `tobytes` of the store's flat vector,
    equals the per-param join the format names, before and after layout."""
    cfg = tiny_cfg(scheme=scheme, arch=arch, freeze_geo=False)
    policy = build_policy(cfg)
    joined = b"".join(np.ascontiguousarray(p.value.data, dtype="<f8").tobytes()
                      for p in policy.store)
    save_checkpoint(policy, cfg, tmp_path / "model.bin")
    assert _payload(tmp_path / "model.bin") == joined
    assert b"".join(p.value.data.tobytes() for p in policy.store) == joined


def test_loaded_params_are_views_into_the_flat_vector(tmp_path):
    _, _, path = write_ckpt(tmp_path)
    loaded, _ = load_checkpoint(path)
    flat = loaded.store.flat()
    assert all(p.value.data.base is flat for p in loaded.store)
    assert flat.tobytes() == _payload(path)


def test_a_checkpoint_written_before_the_flat_vector_still_loads(tmp_path):
    """`checkpoint_v2_gated_pi.bin` was written by the per-param writer after
    five training steps (tiny gated_fusion, arch=pi, sparse_k=1).  It loads
    to the params it names, and saving them again writes the same bytes."""
    path = DATA_DIR / "checkpoint_v2_gated_pi.bin"
    loaded, cfg = load_checkpoint(path)
    assert (cfg.scheme, cfg.arch, cfg.sparse_k) == ("gated_fusion", "pi", 1)
    payload, lo = _payload(path), 0
    for p in loaded.store:
        n = 8 * p.value.data.size
        assert p.value.data.tobytes() == payload[lo:lo + n], p.id
        lo += n
    assert loaded.store.flat().tobytes() != build_policy(cfg).store.flat().tobytes()
    save_checkpoint(loaded, cfg, tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


# ------------------------------------------------------------------ config fuzz

FLOAT_FIELDS = ("tau_alpha", "tau_beta", "noise_std", "corruption_sigma", "align_weight",
                "forcing_weight", "lr_backbone", "lr_fusion", "warmup_frac")


@st.composite
def tiny_configs(draw):
    """Fields of a tiny run, drawn across the config's bounds so that some
    draws are refused; at most one float field takes any float at all."""
    heads = draw(st.integers(1, 2))
    kw = {"heads": heads, "d": 2 * heads * draw(st.integers(1, 2)),
          "seed": draw(st.integers(0, 2**64 - 1)),
          "scheme": draw(st.sampled_from(SCHEME_IDS)), "arch": draw(st.sampled_from(ARCHS)),
          "corruption": draw(st.sampled_from(CORRUPTIONS)), "freeze_geo": draw(st.booleans()),
          "vocab_size": draw(st.integers(16, 18)), "d_action": draw(st.integers(3, 8)),
          "n_layers": draw(st.integers(1, 4)), "n_patches": draw(st.integers(2, 4)),
          "sparse_k": draw(st.integers(0, 3)), "train_steps": draw(st.integers(2, 3))}
    for name in ("d_vggt", "n_dit_layers", "n_objects", "horizon", "euler_steps",
                 "batch_size", "dataset_size", "eval_episodes"):
        kw[name] = draw(st.integers(1, 3))
    for name in FLOAT_FIELDS:
        kw[name] = draw(st.floats(0.1, 2.0))
    wild = draw(st.sampled_from(FLOAT_FIELDS + ("",) * len(FLOAT_FIELDS)))
    if wild:
        kw[wild] = draw(st.floats())
    return kw


@settings(max_examples=25, deadline=None)
@given(tiny_configs())
def test_every_accepted_config_runs_and_its_checkpoint_round_trips(kw):
    """The config is the only gate: a config it accepts trains, evaluates
    and saves, failing at most with a typed error of the run itself."""
    try:
        cfg = ExperimentConfig(**kw)
    except ConfigError:
        return  # refused before any model is built
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # a wild float may overflow
            _, policy = run_single(cfg)
    except ConfigError as exc:
        pytest.fail(f"an accepted config was refused after construction: {exc}")
    except GeofuseError:
        return  # say a loss that diverged under a huge learning rate
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "model.bin"
        save_checkpoint(policy, cfg, path)
        loaded, loaded_cfg = load_checkpoint(path)
    assert loaded_cfg == cfg
    assert [p.value.data.tobytes() for p in loaded.store] == \
        [p.value.data.tobytes() for p in policy.store]

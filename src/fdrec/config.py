"""Run configuration: typed INI sections with fail-fast validation.

A run is fully described by one INI file.  Every key has a default, every
value is validated up front, and relative paths are resolved against the
directory containing the file, so a config can travel with its data.  The
content hash (12 hex chars) names the run directory together with the
training seed, which keeps artifacts from different configurations apart.
The ``[synth]``, ``[model]`` and ``[train]`` sections parse straight into
:class:`~fdrec.dataio.SynthConfig`, :class:`~fdrec.training.ModelSection` and
:class:`~fdrec.training.TrainSettings`.  Each key's type is its default's.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass

from .dataio import SECONDS_PER_DAY, SynthConfig, _check_synth, atomic_open
from .exprec import TRIGGERS
from .training import ModelSection, TrainSettings

__all__ = [
    "ConfigError",
    "DataSection",
    "ModelSection",
    "EvalSection",
    "RunConfig",
    "load_config",
    "write_config",
]


class ConfigError(ValueError):
    """Invalid or malformed run configuration."""


@dataclass(frozen=True)
class DataSection:
    interactions: str = ""
    stores: str = ""
    out: str = "runs"
    tz_offset_minutes: int = 0
    min_orders: int = 10
    valid_window_days: float = 4.0
    test_window_days: float = 4.0


@dataclass(frozen=True)
class EvalSection:
    k: int = 3
    seed: int = 0
    max_cases: int = 0


_SECTIONS = {
    "data": DataSection,
    "synth": SynthConfig,
    "model": ModelSection,
    "train": TrainSettings,
    "eval": EvalSection,
}


def _parse_value(section: str, key: str, raw: str, kind: type):
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is str:
            return raw
    except ValueError:
        raise ConfigError(
            f"[{section}] {key} = {raw!r} is not a valid {kind.__name__}"
        ) from None
    # tuple[str, ...]: whitespace- or comma-separated tokens
    return tuple(t for t in raw.replace(",", " ").split() if t)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration plus the location it was loaded from."""

    path: str
    data: DataSection
    synth: SynthConfig
    model: ModelSection
    train: TrainSettings
    eval: EvalSection

    @property
    def base_dir(self) -> str:
        return os.path.dirname(self.path) or "."

    def resolve(self, relpath: str) -> str:
        """Resolve a config-file-relative path."""
        if not relpath:
            raise ConfigError("cannot resolve an empty path")
        if os.path.isabs(relpath):
            return relpath
        return os.path.normpath(os.path.join(self.base_dir, relpath))

    def to_dict(self) -> dict:
        out = {}
        for name in _SECTIONS:
            section = dataclasses.asdict(getattr(self, name))
            for k, v in section.items():
                if isinstance(v, tuple):
                    section[k] = list(v)
            out[name] = section
        return out

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]

    def run_dir(self) -> str:
        name = f"{self.config_hash()}-s{self.train.seed}"
        return os.path.join(self.resolve(self.data.out), name)

    def valid_window_s(self) -> int:
        return int(round(self.data.valid_window_days * SECONDS_PER_DAY))

    def test_window_s(self) -> int:
        return int(round(self.data.test_window_days * SECONDS_PER_DAY))


def _validate(cfg: RunConfig) -> None:
    d, s, m, t, e = cfg.data, cfg.synth, cfg.model, cfg.train, cfg.eval
    for name in _SECTIONS:
        for key, v in dataclasses.asdict(getattr(cfg, name)).items():
            _require(not isinstance(v, float) or math.isfinite(v),
                     f"[{name}] {key} must be finite")

    _require(d.min_orders >= 1, "[data] min_orders must be >= 1")
    _require(d.valid_window_days > 0, "[data] valid_window_days must be positive")
    _require(d.test_window_days > 0, "[data] test_window_days must be positive")
    _require(bool(d.out), "[data] out must be a non-empty path")

    try:
        _check_synth(s)
    except ValueError as err:
        raise ConfigError(str(err)) from None

    for key in ("dim", "repeat_window", "history_window", "k_neighbors",
                "attn_dim"):
        _require(getattr(m, key) >= 1, f"[model] {key} must be >= 1")
    _require(m.budget >= 2, "[model] budget must be >= 2")
    _require(m.intent_weight >= 0, "[model] intent_weight must be >= 0")
    unknown = [a for a in m.ablate if a not in TRIGGERS]
    _require(not unknown,
             f"[model] ablate has unknown triggers {unknown}; "
             f"valid: {', '.join(TRIGGERS)}")
    _require(len(set(m.ablate)) < len(TRIGGERS),
             "[model] ablate cannot disable all four triggers")

    _require(t.lr > 0, "[train] lr must be positive")
    _require(t.weight_decay >= 0, "[train] weight_decay must be >= 0")
    _require(t.batch_size >= 1, "[train] batch_size must be >= 1")
    _require(t.patience >= 1, "[train] patience must be >= 1")
    _require(t.max_epochs >= 1, "[train] max_epochs must be >= 1")
    _require(t.seed >= 0, "[train] seed must be >= 0")
    _require(t.max_instances >= 1, "[train] max_instances must be >= 1")
    _require(t.val_max_cases >= 0, "[train] val_max_cases must be >= 0")

    _require(e.k >= 1, "[eval] k must be >= 1")
    _require(e.seed >= 0, "[eval] seed must be >= 0")
    _require(e.max_cases >= 0, "[eval] max_cases must be >= 0")


def load_config(path: str) -> RunConfig:
    """Parse and validate a run configuration file.

    Unknown sections or keys are errors: a typo must not silently fall back
    to a default.
    """
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as err:
        raise ConfigError(f"cannot parse {path}: {err}") from err

    unknown_sections = [s for s in parser.sections() if s not in _SECTIONS]
    if unknown_sections:
        raise ConfigError(
            f"unknown section(s) {unknown_sections}; "
            f"valid: {', '.join(_SECTIONS)}"
        )

    sections = {}
    for name, cls in _SECTIONS.items():
        fields = {f.name: f for f in dataclasses.fields(cls)}
        values = {}
        if parser.has_section(name):
            for key, raw in parser.items(name):
                if key not in fields:
                    raise ConfigError(
                        f"unknown key {key!r} in [{name}]; "
                        f"valid: {', '.join(fields)}"
                    )
                values[key] = _parse_value(name, key, raw, type(fields[key].default))
        sections[name] = cls(**values)

    cfg = RunConfig(path=os.path.abspath(path), **sections)
    _validate(cfg)
    return cfg


def write_config(path: str, overrides: dict[str, dict[str, object]] | None = None) -> None:
    """Write a complete config file: defaults merged with ``overrides``.

    Every key is written explicitly so the file is self-documenting and its
    hash does not depend on which defaults were in effect when it was made.
    """
    overrides = overrides or {}
    unknown = [s for s in overrides if s not in _SECTIONS]
    if unknown:
        raise ConfigError(f"unknown section(s) in overrides: {unknown}")
    parser = configparser.ConfigParser(interpolation=None)
    for name, cls in _SECTIONS.items():
        parser.add_section(name)
        values = dataclasses.asdict(cls())
        extra = overrides.get(name, {})
        bad = [k for k in extra if k not in values]
        if bad:
            raise ConfigError(f"unknown key(s) in overrides[{name!r}]: {bad}")
        values.update(extra)
        for key, value in values.items():
            if isinstance(value, (tuple, list)):
                value = " ".join(str(v) for v in value)
            parser.set(name, key, str(value))
    with atomic_open(path) as fh:
        parser.write(fh)

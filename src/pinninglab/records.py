"""Experiment configuration and run-record plumbing.

Configs are flat JSON objects with a mandatory seed (no wall-clock
defaults).  A run record is a single JSON document; tabular outputs go
to CSV files with `#`-prefixed provenance headers, and identical
(config, seed) pairs produce byte-identical CSV.
"""
from __future__ import annotations

import csv
import hashlib
import json
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError

VERSION = "0.1.0"


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int
    params: dict

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        if "experiment" not in raw:
            raise ConfigError("config must name an experiment")
        if "seed" not in raw:
            raise ConfigError("config must carry an explicit seed")
        seed = raw["seed"]
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
        params = {k: v for k, v in raw.items() if k not in ("experiment", "seed")}
        return cls(experiment=str(raw["experiment"]), seed=int(seed), params=params)

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        return {"experiment": self.experiment, "seed": self.seed, **self.params}

    @property
    def sha256(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def estimate(value: float, std_error: float | None = None) -> dict:
    if std_error is None:
        return {"value": float(value), "exact": True}
    return {"value": float(value), "std_error": float(std_error)}


@dataclass
class RunRecord:
    experiment: str
    seed: int
    config: dict
    config_sha256: str
    version: str = VERSION
    estimates: dict = field(default_factory=dict)
    baselines: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.__dict__, indent=indent, sort_keys=True, default=_jsonable)

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")


def _jsonable(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return str(obj)


def _cell(v) -> str:
    if isinstance(v, float):   # numpy floats too, whose repr names their type
        return repr(float(v))
    return str(v)


def write_csv(path: str | Path, header: list[str], rows, meta: dict) -> None:
    """`# key=value` lines, then the header and rows, quoted as RFC 4180 asks."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(f"# {k}={v}\n" for k, v in meta.items())
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows([_cell(v) for v in row] for row in rows)


def csv_meta(cfg: ExperimentConfig) -> dict:
    return {"version": VERSION, "seed": cfg.seed, "config_sha256": cfg.sha256}

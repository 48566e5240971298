"""Run configuration: numeric tolerances and search budgets.

Values are resolved in precedence order: explicit CLI flags, then a JSON config
file (``--config`` or the ``LOCCFORGE_CONFIG`` environment variable), then the
defaults below.
"""
from __future__ import annotations

import dataclasses
import json
import numbers
import os

from .errors import ConfigError

ENV_CONFIG = "LOCCFORGE_CONFIG"


@dataclasses.dataclass(frozen=True)
class Tolerances:
    """Numeric tolerances used throughout validation and search."""

    psd: float = 1e-9     # eigenvalue floor, relative to spectral radius
    lp: float = 1e-8      # residual tolerance on linear systems / LP checks

    def __post_init__(self):
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if not (_is(v, numbers.Real) and 0 < v < 1):
                raise ConfigError(f"tolerance {f.name} must be in (0, 1), got {v!r}")


def _is(v, kind) -> bool:
    """isinstance for config values; JSON true and false are not numbers."""
    return isinstance(v, kind) and not isinstance(v, bool)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Budgets and knobs for synthesis and no-go; bad values raise ConfigError."""

    rounds: int | None = None        # max merge rounds; None = run to a verdict
    delta: float = 1e-7              # strict-positivity floor for LP variables
    max_trees: int = 20000           # cap on trees built across the search
    max_lps: int | None = 50000      # cap on LP solves across the search; None = no cap
    partition_exhaustive_n: int = 16 # above this, partition no-go only tries small S1
    mode: str = "first"              # "first" stops at the first protocol; "exhaustive" keeps going
    tol: Tolerances = dataclasses.field(default_factory=Tolerances)

    def __post_init__(self):
        if self.rounds is not None and not (_is(self.rounds, numbers.Integral)
                                            and self.rounds >= 0):
            raise ConfigError(f"rounds must be an integer >= 0, got {self.rounds!r}")
        if not (_is(self.delta, numbers.Real) and 0 < self.delta < 1):
            raise ConfigError(f"delta must be in (0, 1), got {self.delta!r}")
        for name in ("max_trees", "max_lps", "partition_exhaustive_n"):
            v = getattr(self, name)
            # the search also runs without an LP budget: None (null) is no cap
            if not (v is None and name == "max_lps"
                    or _is(v, numbers.Integral) and v >= 1):
                raise ConfigError(f"{name} must be an integer >= 1, got {v!r}")
        if self.mode not in ("first", "exhaustive"):
            raise ConfigError(f"mode must be 'first' or 'exhaustive', got {self.mode!r}")


_TOL_KEYS = {f.name for f in dataclasses.fields(Tolerances)}
_RUN_KEYS = {f.name for f in dataclasses.fields(RunConfig)} - {"tol"}


def load_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus explicit overrides.

    ``path=None`` falls back to the LOCCFORGE_CONFIG environment variable.
    Override keys use the flat names of RunConfig plus Tolerances fields.
    """
    data: dict = {}
    if path is None:
        path = os.environ.get(ENV_CONFIG) or None
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as e:
            raise ConfigError(f"cannot read config file {path}: {e}") from e
        except ValueError as e:     # bad JSON or bad UTF-8
            raise ConfigError(f"config file {path} is not valid JSON: {e}") from e
        except RecursionError as e:
            raise ConfigError(f"config file {path} is nested too deeply") from e
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
    merged = dict(data)
    for k, v in (overrides or {}).items():
        if v is not None:
            merged[k] = v
    unknown = set(merged) - _RUN_KEYS - _TOL_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    tol = Tolerances(**{k: merged[k] for k in _TOL_KEYS if k in merged})
    return RunConfig(tol=tol, **{k: merged[k] for k in _RUN_KEYS if k in merged})

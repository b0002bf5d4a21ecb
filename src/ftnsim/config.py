"""Scenario configuration: dataclass, INI-style file format, validation, hashing."""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, fields, replace


class ConfigError(ValueError):
    """A scenario parameter violates an invariant."""


# section layout of the config file; every dataclass field appears exactly once
_SECTIONS = {
    "waveform": ["tau", "beta", "nu"],
    "pilot": ["P", "Q", "sia"],
    "channel": ["L"],
    "receiver": ["ce_criterion", "n_ista"],
    "sim": ["ebn0_grid_db", "tau_grid", "seed",
            "min_trials", "max_trials", "target_bit_errors", "se_convention"],
}


@dataclass(frozen=True)
class FtnConfig:
    """All scenario parameters, defaulting to the reference FTN setup."""

    tau: float = 0.8
    beta: float = 0.5
    nu: int = 10
    P: int = 8
    Q: int = 16
    sia: bool = True
    L: int = 8
    ce_criterion: str = "mmse"
    n_ista: int = 3
    ebn0_grid_db: tuple = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)
    tau_grid: tuple = ()
    seed: int = 12345
    min_trials: int = 100
    max_trials: int = 200_000
    target_bit_errors: int = 200
    se_convention: str = "info_dims"

    @property
    def N(self) -> int:
        """Block length: P pilot bins, each Q bins apart."""
        return self.P * self.Q

    def taus(self):
        return self.tau_grid if self.tau_grid else (self.tau,)

    def validate(self):
        errs = []
        if not 0.0 < self.tau <= 1.0:
            errs.append(f"tau={self.tau} outside (0, 1]")
        for t in self.tau_grid:
            if not 0.0 < t <= 1.0:
                errs.append(f"tau_grid entry {t} outside (0, 1]")
        if not 0.0 <= self.beta <= 1.0:
            errs.append(f"beta={self.beta} outside [0, 1]")
        if self.L < 1:
            errs.append(f"L={self.L} < 1")
        if self.P < self.L:
            errs.append(f"P={self.P} < L={self.L}")
        if self.L > self.nu:
            errs.append(f"L={self.L} > nu={self.nu}")
        if 2 * self.nu + 1 > self.N:
            errs.append(f"2*nu+1={2 * self.nu + 1} > N={self.N}")
        if self.Q < 2:
            errs.append(f"Q={self.Q} < 2 leaves the pilot power 1 - 1/Q at zero")
        if self.ce_criterion not in ("ls", "mmse", "perfect"):
            errs.append(f"ce_criterion={self.ce_criterion!r} not in (ls, mmse, perfect)")
        if self.se_convention not in ("info_dims", "paper_all_n"):
            errs.append(f"se_convention={self.se_convention!r} unknown")
        if not self.ebn0_grid_db:
            errs.append("ebn0_grid_db is empty")
        for e in self.ebn0_grid_db:
            if not math.isfinite(e):
                errs.append(f"ebn0_grid_db entry {e} not finite")
        if self.n_ista < 0:
            errs.append("n_ista must be >= 0")
        if self.seed < 0:
            errs.append(f"seed={self.seed} negative")
        if self.min_trials < 1 or self.max_trials < self.min_trials:
            errs.append("need 1 <= min_trials <= max_trials")
        # trial i of cell c draws from stream c * max_trials + i; past 2**32 the key's
        # trailing zero word is dropped: stream 2**32 + t, sub 0 is stream t, sub 1
        n_cells = len(self.taus()) * len(self.ebn0_grid_db)
        if n_cells * self.max_trials > 2**32:
            errs.append(f"{n_cells} cells * max_trials={self.max_trials} exceed the 2**32 "
                        "RNG streams; a larger stream repeats the draws of a smaller one")
        if self.target_bit_errors < 1:
            errs.append("target_bit_errors must be >= 1")
        if errs:
            raise ConfigError("; ".join(errs))
        return self


def _parse_value(name, raw, kind):
    raw = raw.strip()
    if kind is bool:
        try:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        except KeyError:
            raise ConfigError(f"{name}: expected on/off, got {raw!r}") from None
    try:
        if kind is tuple:
            return tuple(float(v) for v in raw.replace(",", " ").split())
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{name}: cannot parse {raw!r} as {kind.__name__}") from None


def load_config(path, overrides=()) -> FtnConfig:
    """Read a key = value config file; its entries, then ``overrides``, go to apply_overrides."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep keys like P and Q case sensitive
    with open(path) as fh:
        try:
            parser.read_file(fh)
            entries = [f"{key}={raw}" for section in parser.sections()
                       for key, raw in parser.items(section)]
        except configparser.Error as exc:  # no section header, duplicate key, ...
            raise ConfigError(str(exc)) from None
    return apply_overrides(FtnConfig(), [*entries, *overrides])


def apply_overrides(cfg: FtnConfig, overrides) -> FtnConfig:
    defaults = FtnConfig()
    types = {f.name: type(getattr(defaults, f.name)) for f in fields(FtnConfig)}
    for ov in overrides:
        if "=" not in ov:
            raise ConfigError(f"override {ov!r} is not of the form key=value")
        key, raw = ov.split("=", 1)
        key = key.strip()
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}")
        cfg = replace(cfg, **{key: _parse_value(key, raw, types[key])})
    return cfg


def _grid_entry(v) -> str:
    """``v`` as ``:g`` text where that reads back exactly, else its round-trip repr."""
    short = f"{v:g}"
    return short if float(short) == v else repr(float(v))


def dump_config(cfg: FtnConfig) -> str:
    """Canonical fully-resolved text form (also the hashing input)."""
    out = io.StringIO()
    for section, keys in _SECTIONS.items():
        out.write(f"[{section}]\n")
        for key in keys:
            val = getattr(cfg, key)
            if isinstance(val, bool):
                val = "on" if val else "off"
            elif isinstance(val, tuple):
                val = ", ".join(_grid_entry(v) for v in val)
            out.write(f"{key} = {val}\n")
        out.write("\n")
    return out.getvalue()


def scenario_hash(cfg: FtnConfig) -> str:
    return hashlib.sha256(dump_config(cfg).encode()).hexdigest()[:12]

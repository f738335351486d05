"""Flat key=value run configuration.

A config file holds one ``key = value`` pair per line; ``#`` starts a
comment and blank lines are skipped. Keys under the ``run.`` namespace
are reserved for result metadata and ignored on parse, so a run's
``run.meta`` file parses back to exactly the configuration that
produced it. String values that could not be written back that way,
those holding ``#`` or a line break or with surrounding whitespace, are
rejected by :func:`validate_config`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .shapes import MAX_SUBDIVISIONS
from .spherical import MAX_FILE_DEGREE, MIN_BANDLIMIT

__all__ = ["FlowConfig", "parse_config", "parse_config_text", "format_config", "validate_config"]


@dataclass
class FlowConfig:
    """Everything needed to reproduce a run.

    ``dt_policy`` is 'auto' (backend default scaled by ``safety``) or
    'fixed' (use ``dt_value``). ``epsilon0`` is the threshold of the
    paper's small-energy hypothesis: ``triheat simulate`` writes the
    initial record's int |A*|^2 to ``run.meta`` as ``run.ao2_initial``,
    and ``run.below_epsilon0 = yes`` when it lies below ``epsilon0``
    (else ``no``). It does not influence the dynamics. ``bandlimit``
    sizes a spectral state and ``shape_subdivisions`` a mesh; each
    backend ignores the other's.
    """

    backend: str = "spectral"
    bandlimit: int = 16
    mesh: str = ""
    shape_kind: str = "sphere"
    shape_radius: float = 1.0
    shape_perturb: str = ""
    shape_semiaxes: str = "1,1,1"
    shape_subdivisions: int = 4
    dt_policy: str = "auto"
    dt_value: float = 0.0
    safety: float = 1.0
    t_end: float = 1.0
    cadence: int = 10
    stop_ao_inf: float = 1e-8
    concentration_radius: float = 0.25
    epsilon0: float = 1.0
    out_dir: str = "out"


_KEYS = {
    "backend": ("backend", str),
    "bandlimit": ("bandlimit", int),
    "mesh": ("mesh", str),
    "shape.kind": ("shape_kind", str),
    "shape.radius": ("shape_radius", float),
    "shape.perturb": ("shape_perturb", str),
    "shape.semiaxes": ("shape_semiaxes", str),
    "shape.subdivisions": ("shape_subdivisions", int),
    "dt.policy": ("dt_policy", str),
    "dt.value": ("dt_value", float),
    "safety": ("safety", float),
    "t_end": ("t_end", float),
    "cadence": ("cadence", int),
    "stop.ao_inf": ("stop_ao_inf", float),
    "concentration.radius": ("concentration_radius", float),
    "epsilon0": ("epsilon0", float),
    "out.dir": ("out_dir", str),
}

_FIELD_TO_KEY = {attr: key for key, (attr, _) in _KEYS.items()}


def apply_setting(cfg: FlowConfig, key: str, raw: str) -> None:
    """Set one config entry from its file key and raw string value."""
    key = key.strip()
    if key.startswith("run."):
        return
    if key not in _KEYS:
        raise ValueError(f"unknown config key {key!r}")
    attr, typ = _KEYS[key]
    raw = raw.strip()
    try:
        value = typ(raw)
    except ValueError:
        raise ValueError(f"config key {key!r} expects {typ.__name__}, got {raw!r}")
    setattr(cfg, attr, value)


def parse_config_text(text: str, base: FlowConfig | None = None) -> FlowConfig:
    cfg = base if base is not None else FlowConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = line.split("=", 1)
        try:
            apply_setting(cfg, key, raw)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    validate_config(cfg)
    return cfg


def parse_config(path, base: FlowConfig | None = None) -> FlowConfig:
    with open(path) as fh:
        return parse_config_text(fh.read(), base)


def validate_config(cfg: FlowConfig) -> None:
    """Raise ValueError on inconsistent settings."""
    if cfg.backend not in ("spectral", "mesh"):
        raise ValueError(f"backend must be spectral or mesh, got {cfg.backend!r}")
    if not MIN_BANDLIMIT <= cfg.bandlimit <= MAX_FILE_DEGREE:
        raise ValueError(
            f"bandlimit must lie in [{MIN_BANDLIMIT}, {MAX_FILE_DEGREE}], "
            f"got {cfg.bandlimit}"
        )
    if not 0 <= cfg.shape_subdivisions <= MAX_SUBDIVISIONS:
        raise ValueError(f"shape.subdivisions must lie in [0, {MAX_SUBDIVISIONS}]")
    if cfg.dt_policy not in ("auto", "fixed"):
        raise ValueError(f"dt.policy must be auto or fixed, got {cfg.dt_policy!r}")
    if cfg.dt_policy == "fixed" and not cfg.dt_value > 0.0:
        raise ValueError("dt.policy=fixed needs a positive dt.value")
    if not cfg.t_end > 0.0:
        raise ValueError("t_end must be positive")
    if cfg.cadence < 1:
        raise ValueError("cadence must be at least 1")
    if not cfg.safety > 0.0:
        raise ValueError("safety must be positive")
    if not cfg.concentration_radius > 0.0:
        raise ValueError("concentration.radius must be positive")
    for attr, key in _FIELD_TO_KEY.items():
        val = getattr(cfg, attr)
        # a NaN threshold never fires, and NaN differs from its own echo
        if isinstance(val, float) and math.isnan(val):
            raise ValueError(f"config key {key!r} must be a number, got nan")
        # format_config writes one line per key, and parsing cuts comments
        # and strips the value, so such a value would not read back
        if isinstance(val, str) and (
            "#" in val or val != val.strip() or len(val.splitlines()) > 1
        ):
            raise ValueError(
                f"config key {key!r} cannot hold {val!r}: '#', line breaks and "
                "leading or trailing whitespace do not survive run.meta"
            )


def format_config(cfg: FlowConfig) -> str:
    """Canonical text form; floats keep full precision for exact round-trips."""
    validate_config(cfg)
    lines = []
    for f in fields(FlowConfig):
        key = _FIELD_TO_KEY[f.name]
        val = getattr(cfg, f.name)
        if isinstance(val, float):
            lines.append(f"{key} = {val:.17g}")
        else:
            lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"

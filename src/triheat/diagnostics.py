"""Conserved, monotone and asymptotic quantities of a flow state.

One :class:`DiagnosticsRecord` summarizes a surface at an instant:
area, enclosed volume, Willmore energy, tracefree curvature energy,
total Gauss curvature, the dissipation integrals, sup norms of the
tracefree form and of Delta^2 H, and the curvature concentration.
Records serialize to CSV with a fixed column order and full float
precision, so files from repeated runs are byte-comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import mesh as mesh_mod
from . import radial, spherical
from .mesh import TriangleMesh
from .radial import RadialGraphState

__all__ = [
    "DiagnosticsRecord",
    "CSV_COLUMNS",
    "compute_record",
    "energies",
    "concentration",
    "gap_residual",
    "codazzi_residual",
    "linearized_rate",
    "limiting_radius",
    "fit_exponential",
    "check_monotonicity",
    "MonotonicityReport",
    "csv_header",
    "write_csv",
    "read_csv",
]

CSV_COLUMNS = (
    "time",
    "area",
    "volume",
    "willmore",
    "ao2",
    "intK",
    "dH2",
    "gradDH2",
    "aoInf",
    "gapResidual",
    "alpha",
)

_FMT = "%.17g"


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Snapshot of the standard observables for one surface.

    Attributes map to CSV columns in the order of ``CSV_COLUMNS``:
    time, area, volume, Willmore energy (1/4 int H^2), tracefree energy
    int |A*|^2, total Gauss curvature, int |Delta H|^2,
    int |grad Delta H|^2, sup |A*|, sup |Delta^2 H| and the largest
    curvature mass alpha in a ball of the configured radius. The
    backend tag is carried alongside but not serialized.
    """

    time: float
    area: float
    volume: float
    willmore: float
    ao2: float
    int_gauss: float
    dh2: float
    grad_dh2: float
    ao_inf: float
    gap_residual: float
    alpha: float
    backend: str = ""

    def as_tuple(self):
        return (
            self.time,
            self.area,
            self.volume,
            self.willmore,
            self.ao2,
            self.int_gauss,
            self.dh2,
            self.grad_dh2,
            self.ao_inf,
            self.gap_residual,
            self.alpha,
        )

    def to_csv_row(self) -> str:
        return ",".join(_FMT % x for x in self.as_tuple())


def csv_header() -> str:
    return ",".join(CSV_COLUMNS)


def write_csv(records, path) -> None:
    with open(path, "w") as fh:
        fh.write(csv_header() + "\n")
        for rec in records:
            fh.write(rec.to_csv_row() + "\n")


def read_csv(path):
    """Read rows written by :func:`write_csv` back into records."""
    out = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != csv_header():
            raise ValueError(f"unexpected diagnostics header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != len(CSV_COLUMNS):
                raise ValueError(
                    f"line {lineno}: diagnostics row has {len(fields)} fields, "
                    f"expected {len(CSV_COLUMNS)} numbers ({csv_header()})"
                )
            try:
                vals = [float(x) for x in fields]
            except ValueError:
                raise ValueError(
                    f"line {lineno}: diagnostics row holds a non-numeric field, "
                    f"expected {len(CSV_COLUMNS)} numbers ({csv_header()})"
                ) from None
            out.append(DiagnosticsRecord(*vals))
    return out


# -- backends ----------------------------------------------------------------
# Every record formula is written once, over the primitives that _backend
# collects per call (so patched or traced layer functions take effect). A
# record has a curvature part and a Delta^2 H chain part; cheap queries skip
# the chain.


class _Backend(NamedTuple):
    name: str
    curvatures: Callable  # state -> (H, K, |A*|^2) at the nodes
    integrate: Callable  # (state, f) -> int f d mu
    dirichlet: Callable  # (state, u) -> int |grad u|^2 d mu
    chain: Callable  # state -> (H, Delta H, Delta^2 H)
    area: Callable
    volume: Callable
    alpha: Callable  # (state, radius) -> curvature concentration
    scale: Callable  # state -> length that sets the step: mean radius, min edge
    rescaled: Callable  # (state, factor, center) -> (state - center) / factor
    save: Callable  # (state, path)
    suffix: str


def _graph_curvatures(state: RadialGraphState):
    b = radial.curvature_bundle(state)
    return b.mean, b.gauss, b.norm_ao_sq


def _graph_dirichlet(state: RadialGraphState, u) -> float:
    cu = spherical.transform_for(state.grid).analyze(u)
    grad_sq = radial.gradient_norm_sq(state, cu)
    return radial.integrate(state, grad_sq)


def _graph_rescaled(state: RadialGraphState, factor: float, center):
    if center is not None and float(np.linalg.norm(center)) != 0.0:
        raise ValueError("radial graphs rescale about the origin only")
    return RadialGraphState(
        state.grid,
        coeffs=state.coeffs / factor,
        time=state.time / factor**6,
    )


def _mesh_rescaled(m: TriangleMesh, factor: float, center):
    x = np.zeros(3) if center is None else mesh_mod._point(center, "mesh center")
    return m._moved((m.vertices - x) / factor, m.time / factor**6)


def _backend(state) -> _Backend:
    """The primitives of a state's backend; TypeError for any other object."""
    if isinstance(state, RadialGraphState):
        return _Backend(
            name="spectral",
            curvatures=_graph_curvatures,
            integrate=radial.integrate,
            dirichlet=_graph_dirichlet,
            chain=radial.laplacian_chain,
            area=radial.area,
            volume=radial.volume,
            alpha=radial.concentration,
            scale=RadialGraphState.mean_radius,
            rescaled=_graph_rescaled,
            save=lambda s, path: spherical.write_coeffs_csv(s.coeffs, path),
            suffix=".csv",
        )
    if isinstance(state, TriangleMesh):
        return _Backend(
            name="mesh",
            curvatures=lambda m: (
                mesh_mod.mean_curvature(m),
                mesh_mod.gauss_curvature(m),
                mesh_mod.tracefree_norm_sq(m)[0],
            ),
            integrate=lambda m, f: float(mesh_mod.build_operators(m)[1] @ f),
            dirichlet=mesh_mod.dirichlet_energy,
            chain=mesh_mod.laplacian_chain,
            area=mesh_mod.area,
            volume=mesh_mod.signed_volume,
            alpha=mesh_mod.concentration,
            scale=mesh_mod.min_edge_length,
            rescaled=_mesh_rescaled,
            save=mesh_mod.save_obj,
            suffix=".obj",
        )
    raise TypeError(f"no backend for {type(state).__name__}")


def _curvature_fields(b: _Backend, state) -> dict:
    H, K, ao2 = b.curvatures(state)
    return {
        "area": b.area(state),
        "volume": b.volume(state),
        "willmore": 0.25 * b.integrate(state, H * H),
        "ao2": b.integrate(state, ao2),
        "int_gauss": b.integrate(state, K),
        "ao_inf": float(np.sqrt(ao2.max())),
    }


def _chain_fields(b: _Backend, state) -> dict:
    _, w1, w2 = b.chain(state)
    return {
        "dh2": b.integrate(state, w1 * w1),
        "grad_dh2": b.dirichlet(state, w1),
        "gap_residual": float(np.abs(w2).max()),
    }


def compute_record(state, concentration_radius: float = 0.25) -> DiagnosticsRecord:
    """Full diagnostics for a radial-graph state or a triangle mesh."""
    b = _backend(state)
    return DiagnosticsRecord(
        time=state.time,
        **_curvature_fields(b, state),
        **_chain_fields(b, state),
        alpha=b.alpha(state, concentration_radius),
        backend=b.name,
    )


def energies(state) -> dict:
    """Area, volume, Willmore and tracefree energies, as in a record."""
    f = _curvature_fields(_backend(state), state)
    return {k: f[k] for k in ("area", "volume", "willmore", "ao2")}


def concentration(state, radius: float) -> float:
    """Curvature concentration sup_x int_{B(x, r)} |A|^2 d mu."""
    return _backend(state).alpha(state, radius)


def gap_residual(state):
    """(sup |Delta^2 H|, int |grad Delta H|^2 d mu).

    Both vanish exactly on round spheres; away from them the pair
    measures the distance to stationarity in sup and energy norms.
    """
    f = _chain_fields(_backend(state), state)
    return f["gap_residual"], f["grad_dh2"]


def codazzi_residual(state) -> float:
    """int |grad H|^2 over 4 int |grad |A*||^2, reported as 0 when both vanish.

    For smooth closed surfaces the numerator is controlled by the
    denominator; the discrete ratio is a resolution diagnostic. Both
    integrals sit at rounding level on round spheres, where the ratio
    is defined as zero.
    """
    tiny = 1e-18
    b = _backend(state)
    H, _, ao2 = b.curvatures(state)
    num = b.dirichlet(state, H)
    den = 4.0 * b.dirichlet(state, np.sqrt(ao2))
    if abs(den) < tiny:
        return 0.0 if abs(num) < tiny else math.inf
    return num / den


# -- asymptotics -------------------------------------------------------------


def linearized_rate(l: int, rho_inf: float) -> float:
    """Decay rate of the degree-l graph mode about a sphere of radius rho_inf.

    The linearized operator acts on degree-l harmonics as
    -(l + 2)(l + 1)^2 l^2 (l - 1) / rho_inf^6; degrees 0 and 1 are
    neutral (volume shift and translations).
    """
    if l < 0:
        raise ValueError("degree must be nonnegative")
    if not rho_inf > 0.0:
        raise ValueError("rho_inf must be positive")
    # + 0.0 turns the l = 1 product's negative zero into plain zero
    return -(l + 2.0) * (l + 1.0) ** 2 * l**2 * (l - 1.0) / rho_inf**6 + 0.0


def limiting_radius(volume: float) -> float:
    """Radius of the round sphere with the given enclosed volume."""
    if not volume > 0.0:
        raise ValueError("volume must be positive")
    return (3.0 * volume / (4.0 * np.pi)) ** (1.0 / 3.0)


def fit_exponential(times, values, tail_fraction: float = 0.5):
    """Log-linear fit of values ~ amplitude * exp(rate * t) on the tail.

    The last ``tail_fraction`` of the samples (at least three) enter the
    fit; values must be positive there. Returns (rate, amplitude).
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1:
        raise ValueError("times and values must be matching 1-d arrays")
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must lie in (0, 1]")
    n = len(t)
    k = max(3, int(np.ceil(n * tail_fraction)))
    if k > n:
        raise ValueError(f"need at least 3 samples, got {n}")
    t = t[n - k :]
    v = v[n - k :]
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
        raise ValueError("tail times and values must be finite")
    if v.min() <= 0.0:
        raise ValueError("tail values must be positive for a log-linear fit")
    design = np.stack([t, np.ones_like(t)], axis=1)
    sol, *_ = np.linalg.lstsq(design, np.log(v), rcond=None)
    return float(sol[0]), float(np.exp(sol[1]))


@dataclass(frozen=True)
class MonotonicityReport:
    """Interval-by-interval audit of the flow's structural inequalities."""

    area_violations: tuple
    ao2_violations: tuple
    volume_drift: float
    lyapunov_fraction: float
    intervals: int

    @property
    def monotone(self) -> bool:
        return not self.area_violations and not self.ao2_violations


def check_monotonicity(records, slack: float = 0.1) -> MonotonicityReport:
    """Audit area and tracefree-energy decay across a record sequence.

    Area and int |A*|^2 must not increase between consecutive records
    (violations are indexed by the left record). Volume drift is the
    largest relative deviation from the initial volume. The Lyapunov
    fraction counts intervals on which the tracefree energy dissipates
    at least as fast as (1 - slack)/2 times the trapezoid average of
    int |grad Delta H|^2.
    """
    recs = list(records)
    if len(recs) < 2:
        raise ValueError("need at least two records")
    area_bad = []
    ao2_bad = []
    lyap_ok = 0
    v0 = recs[0].volume
    drift = 0.0
    n = len(recs) - 1
    for i in range(n):
        a, b = recs[i], recs[i + 1]
        if b.area > a.area:
            area_bad.append(i)
        if b.ao2 > a.ao2:
            ao2_bad.append(i)
        drift = max(drift, abs(b.volume / v0 - 1.0))
        dt = b.time - a.time
        if dt > 0.0:
            rate = (b.ao2 - a.ao2) / dt
            bound = -0.5 * (1.0 - slack) * 0.5 * (a.grad_dh2 + b.grad_dh2)
            if rate <= bound:
                lyap_ok += 1
    return MonotonicityReport(
        area_violations=tuple(area_bad),
        ao2_violations=tuple(ao2_bad),
        volume_drift=drift,
        lyapunov_fraction=lyap_ok / n,
        intervals=n,
    )

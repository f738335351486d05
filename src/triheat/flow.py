"""Time integration of the surface flow f_t = -(Delta^2 H) nu.

The spectral stepper treats the constant-coefficient part of the
linearization about the current mean sphere implicitly, which removes
the bandlimit^6 step-size barrier; its update keeps round spheres fixed
to the last bit. The enclosed volume drifts by an O(dt) splitting error,
quadratic in the perturbation amplitude. The mesh stepper is explicit
with step rejection: a step whose largest vertex displacement exceeds
half the minimum edge length, or which degenerates a face, is retried
with half the step until it fits or the step budget runs out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import diagnostics, mesh as mesh_mod, radial
from .diagnostics import DiagnosticsRecord
from .mesh import TriangleMesh
from .radial import ChartError, RadialGraphState
from .spherical import transform_for

__all__ = [
    "SPECTRAL_DT_COEFF",
    "MESH_DT_COEFF",
    "spectral_auto_dt",
    "mesh_auto_dt",
    "auto_dt",
    "step_spectral",
    "step_mesh",
    "TrajectoryEntry",
    "Trajectory",
    "run",
    "rescale",
]

# Calibrated on unit-sphere runs: the implicit factor keeps the update
# stable at any dt, so this bounds the O(dt) splitting bias (about 1%
# of the area-dissipation identity at the default).
SPECTRAL_DT_COEFF = 3e-5

# Explicit stability for the sixth-order operator needs dt ~ h^6; the
# cot-Laplacian spectral radius on icosphere-quality meshes gives
# dt* ~ h_min^6 / 108, and this default sits about 2x below it.
MESH_DT_COEFF = 0.005

_MAX_HALVINGS = 20


def spectral_auto_dt(state: RadialGraphState, safety: float = 1.0) -> float:
    """Default step for the spectral backend, scaling like mean radius^6."""
    return SPECTRAL_DT_COEFF * state.mean_radius() ** 6 * safety


def mesh_auto_dt(m: TriangleMesh, safety: float = 1.0) -> float:
    """Default explicit-Euler step, half the measured stability limit."""
    return MESH_DT_COEFF * mesh_mod.min_edge_length(m) ** 6 * safety


def auto_dt(state, safety: float = 1.0) -> float:
    if isinstance(state, RadialGraphState):
        return spectral_auto_dt(state, safety)
    if isinstance(state, TriangleMesh):
        return mesh_auto_dt(state, safety)
    raise TypeError(f"no stepper for {type(state).__name__}")


def step_spectral(state: RadialGraphState, dt: float) -> RadialGraphState:
    """One semi-implicit step of the radius coefficients.

    With v the full nonlinear radial velocity and Lhat the diagonal
    linearization about the mean sphere, the update is
    c' = c + dt vhat / (1 - dt Lhat), whose denominator is at least one
    because every Lhat eigenvalue is nonpositive. Raises ChartError if
    the stepped surface leaves the star-shaped chart.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    grid = state.grid
    tr = transform_for(grid)
    vhat = tr.analyze(radial.rho_velocity(state))
    rbar = state.mean_radius()
    l = np.arange(grid.bandlimit + 1, dtype=float)
    lam = -l * (l + 1.0)
    lhat = (lam**3 + 2.0 * lam**2) / rbar**6
    c = state.coeffs + dt * vhat / (1.0 - dt * lhat[:, None])
    return RadialGraphState(grid, coeffs=c, time=state.time + dt)


def step_mesh(m: TriangleMesh, dt: float) -> TriangleMesh:
    """One explicit Euler step of the vertex positions."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    _, _, w2 = mesh_mod.laplacian_chain(m)
    vel = -w2[:, None] * mesh_mod.vertex_normals(m)
    return TriangleMesh(m.vertices + dt * vel, m.faces, time=m.time + dt)


def _mesh_step_ok(old: TriangleMesh, new: TriangleMesh) -> bool:
    if not np.all(np.isfinite(new.vertices)):
        return False
    disp = np.linalg.norm(new.vertices - old.vertices, axis=1).max()
    if disp > 0.5 * mesh_mod.min_edge_length(old):
        return False
    if mesh_mod._face_double_areas(new.vertices, new.faces).min() <= 0.0:
        return False
    return mesh_mod.signed_volume(new) > 0.0


@dataclass(frozen=True)
class TrajectoryEntry:
    time: float
    state: object
    record: DiagnosticsRecord


@dataclass
class Trajectory:
    """Recorded states and diagnostics of one run.

    ``stop_reason`` is 'converged' (sup |A*| fell below the stop
    threshold at a record), 't_end' (final time reached) or 'singular'
    (the state left its chart or step rejection exhausted its budget;
    the last valid state is kept as the final entry, and
    ``meta["stop_detail"]`` says at which time and why).
    """

    entries: list = field(default_factory=list)
    stop_reason: str = ""
    meta: dict = field(default_factory=dict)

    @property
    def final_state(self):
        return self.entries[-1].state

    @property
    def records(self):
        return [e.record for e in self.entries]

    def times(self):
        return np.array([e.time for e in self.entries])


def run(
    state,
    t_end: float,
    dt: float | None = None,
    safety: float = 1.0,
    cadence: int = 10,
    stop_ao_inf: float = 1e-8,
    concentration_radius: float = 0.25,
) -> Trajectory:
    """Integrate the flow from a state until t_end, convergence or breakdown.

    Records (full diagnostics plus the state itself) are kept at the
    start, every ``cadence`` accepted steps and at the end. Convergence
    is only checked at records. The last partial step is clipped so a
    't_end' run finishes exactly at the requested time.
    """
    if isinstance(state, TriangleMesh):
        state.validate()
        name, step, step_ok = "mesh", step_mesh, _mesh_step_ok
    elif isinstance(state, RadialGraphState):
        # the implicit update is stable at any dt; chart exits raise
        name, step, step_ok = "spectral", step_spectral, lambda old, new: True
    else:
        raise TypeError(f"no stepper for {type(state).__name__}")
    if not t_end > state.time:
        raise ValueError("t_end must exceed the state's current time")
    if cadence < 1:
        raise ValueError("cadence must be at least 1")
    if dt is None:
        dt = auto_dt(state, safety)
    if not dt > 0.0:
        raise ValueError("dt must be positive")

    traj = Trajectory()
    halvings = 0
    steps = 0
    detail = None

    def record(st) -> DiagnosticsRecord:
        rec = diagnostics.compute_record(st, concentration_radius)
        traj.entries.append(TrajectoryEntry(st.time, st, rec))
        return rec

    rec = record(state)
    if rec.ao_inf < stop_ao_inf:
        traj.stop_reason = "converged"
    else:
        since_record = 0
        while True:
            remaining = t_end - state.time
            if remaining <= 1e-12 * max(t_end, dt):
                traj.stop_reason = "t_end"
                break
            tries = 0
            while True:
                dt_step = min(dt, remaining)
                try:
                    new = step(state, dt_step)
                except ChartError as exc:
                    detail = str(exc)
                    break
                if step_ok(state, new):
                    break
                tries += 1
                halvings += 1
                if tries > _MAX_HALVINGS:
                    detail = f"step rejected {tries} times at dt={dt_step:.17g}"
                    break
                dt = dt / 2.0
            if detail is not None:
                traj.stop_reason = "singular"
                break
            state = new
            steps += 1
            since_record += 1
            if since_record == cadence:
                since_record = 0
                rec = record(state)
                if rec.ao_inf < stop_ao_inf:
                    traj.stop_reason = "converged"
                    break
        if since_record:
            record(state)

    traj.meta = {
        "steps": steps,
        "halvings": halvings,
        "dt_final": dt,
        "backend": name,
    }
    if detail is not None:
        traj.meta["stop_detail"] = f"t={state.time:.17g}: {detail}"
    return traj


def rescale(state, factor: float, center=None):
    """Parabolic rescaling: positions shrink by factor, time by factor^6.

    Meshes may rescale about any center point; radial graphs only about
    the origin, which is the only choice preserving the graph chart.
    Area scales by factor^-2, volume by factor^-3, and the total
    curvature energy int |A|^2 d mu is invariant.
    """
    if not factor > 0.0:
        raise ValueError("factor must be positive")
    if isinstance(state, TriangleMesh):
        x = np.zeros(3) if center is None else np.asarray(center, dtype=float)
        return TriangleMesh(
            (state.vertices - x) / factor,
            state.faces,
            time=state.time / factor**6,
        )
    if isinstance(state, RadialGraphState):
        if center is not None and float(np.linalg.norm(center)) != 0.0:
            raise ValueError("radial graphs rescale about the origin only")
        return RadialGraphState(
            state.grid,
            coeffs=state.coeffs / factor,
            time=state.time / factor**6,
        )
    raise TypeError(f"cannot rescale {type(state).__name__}")

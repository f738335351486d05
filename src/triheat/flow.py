"""Time integration of the surface flow f_t = -(Delta^2 H) nu.

The spectral stepper treats the constant-coefficient part of the
linearization about the current mean sphere implicitly, which removes
the bandlimit^6 step-size barrier; its update keeps round spheres fixed
to the last bit. The enclosed volume drifts by an O(dt) splitting error,
quadratic in the perturbation amplitude. The mesh stepper is explicit
with step rejection: a step that leaves a vertex non-finite, moves one
by more than half the minimum edge length, degenerates a face or makes
the volume sign non-positive is retried with half the step until it
fits or the step budget runs out.
"""

from __future__ import annotations

import math
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


def auto_dt(state, safety: float = 1.0) -> float:
    """Default step: the backend's coefficient times its length scale^6."""
    if not 0.0 < safety < math.inf:
        raise ValueError("safety must be positive and finite")
    b = diagnostics._backend(state)
    coeff = {"spectral": SPECTRAL_DT_COEFF, "mesh": MESH_DT_COEFF}[b.name]
    return coeff * b.scale(state) ** 6 * safety


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
    return m._moved(m.vertices + dt * vel, m.time + dt)


def _mesh_step_ok(old: TriangleMesh, new: TriangleMesh) -> bool:
    if not np.all(np.isfinite(new.vertices)):
        return False
    disp = mesh_mod._row_norms((new.vertices - old.vertices).T).max()
    if disp > 0.5 * mesh_mod.min_edge_length(old):
        return False
    # one face pass: its numbers are checked before its arrays build the
    # operators and normals that the next step reads, so a collapsed face
    # is never divided by
    geo = mesh_mod._faces(new)
    if geo.min_dbl_area <= 0.0:
        return False
    # the sign of the volume from the normals at hand, with no second
    # cross product: p0 . (p1 x p2) = p0 . ((p1 - p0) x (p2 - p0))
    if not geo.six_volume > 0.0:
        return False
    mesh_mod._build(new, geo)
    return True


@dataclass(frozen=True)
class TrajectoryEntry:
    time: float
    state: object
    record: DiagnosticsRecord


@dataclass
class Trajectory:
    """Recorded states and diagnostics of one run.

    Each entry keeps its state's coordinates (coefficients and grid
    values, or vertices) but not the fields cached on it: the run drops
    those once it steps past a record, and the final entry's once its
    record is taken, so what a run returns grows by about the
    coordinates per record. On a mesh the dropped fields include the
    topology entry, which the running state hands on to the next one;
    the finished entries share only their faces and the concentration
    memo. A query on a recorded state rebuilds its fields, a mesh's
    topology entry included, to the bits the record was computed from,
    and a mesh's concentration is certified from the memo.

    ``stop_reason`` is 'converged' (sup |A*| fell below the stop
    threshold at a record; on a mesh only at a record where no vertex
    had |A*|^2 = H^2/2 - 2K clamped at zero, since a clamped zero says
    nothing about roundness), 't_end' (final time reached) or 'singular'
    (the state left its chart or step rejection exhausted its budget;
    the last valid state is kept as the final entry, and
    ``meta["stop_detail"]`` says at which time and why).

    A mesh that has stopped moving while every vertex stays clamped can
    therefore never stop as 'converged' and always runs to 't_end':
    ``run(shapes.icosphere(2), 1e-3)`` takes 454 steps there, with a
    stationarity residual sup |Delta^2 H| of 3.3e-11 at the end.
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


def _checked_dt(state, t_end, dt, safety, cadence, stop_ao_inf) -> float:
    """The step of a run from these settings; ValueError for a setting
    that would run no step or keep no in-run record (see ``run``)."""
    if not state.time < t_end < math.inf:
        raise ValueError("t_end must be finite and exceed the state's current time")
    if not (cadence >= 1 and cadence % 1 == 0):
        raise ValueError("cadence must be a whole number of at least 1")
    if not abs(stop_ao_inf) < math.inf:
        raise ValueError("stop_ao_inf must be finite")
    if dt is None:
        dt = auto_dt(state, safety)
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    return dt


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
    't_end' run finishes at the requested time, up to the rounding of
    the summed steps. A rejected step halves dt, which never grows
    again, and ``_MAX_HALVINGS + 1`` rejections in a row stop the run
    as 'singular'. Raises ValueError unless t_end is finite and past
    the state's time, dt (given or from ``auto_dt``) is positive and
    finite, cadence is a whole number of at least 1 and stop_ao_inf is
    finite.

    A recorded state drops its cached fields (``Trajectory``) once the
    run steps past it, and the final state once its record is taken; so
    does the given state, which is the first record. A later query of
    ``final_state``, or a run continued from it, rebuilds them once.
    """
    backend = diagnostics._backend(state)
    if backend.name == "mesh":
        # validation's face pass builds the first state's operators and
        # normals, which its record and first step read
        mesh_mod._build(state, mesh_mod._validated_faces(state))
        step, step_ok = step_mesh, _mesh_step_ok
        unclamped = lambda m: mesh_mod.tracefree_norm_sq(m)[1] == 0
    else:
        # the implicit update is stable at any dt; chart exits raise
        step, step_ok = step_spectral, lambda old, new: True
        unclamped = lambda st: True
    dt = _checked_dt(state, t_end, dt, safety, cadence, stop_ao_inf)

    traj = Trajectory()
    steps = halvings = tries = since_record = 0
    detail = None

    def record(st) -> bool:
        # records the state and says whether it has converged
        rec = diagnostics.compute_record(st, concentration_radius)
        traj.entries.append(TrajectoryEntry(st.time, st, rec))
        return rec.ao_inf < stop_ao_inf and unclamped(st)

    converged = record(state)
    while not converged:
        remaining = t_end - state.time
        if remaining <= 1e-12 * max(t_end, dt):
            break
        dt_step = min(dt, remaining)
        try:
            new = step(state, dt_step)
        except ChartError as exc:
            detail = str(exc)
            break
        if not step_ok(state, new):
            tries += 1
            halvings += 1
            if tries > _MAX_HALVINGS:
                detail = f"step rejected {tries} times at dt={dt_step:.17g}"
                break
            dt = dt / 2.0
            continue
        if state is traj.entries[-1].state:
            state.forget_fields()
        state, tries = new, 0
        steps += 1
        since_record = (since_record + 1) % cadence
        if not since_record:
            converged = record(state)
    if since_record:
        record(state)
    traj.entries[-1].state.forget_fields()
    traj.stop_reason = (
        "singular" if detail is not None else "converged" if converged else "t_end"
    )

    traj.meta = {
        "steps": steps,
        "halvings": halvings,
        "dt_final": dt,
        "backend": backend.name,
    }
    if detail is not None:
        traj.meta["stop_detail"] = f"t={state.time:.17g}: {detail}"
    return traj


def rescale(state, factor: float, center=None):
    """Parabolic rescaling: positions shrink by factor, time by factor^6.

    Meshes may rescale about any center point; radial graphs only about
    the origin, which is the only choice preserving the graph chart.
    Area scales by factor^-2, volume by factor^-3, and the total
    curvature energy int |A|^2 d mu is invariant. A factor that is not
    finite and positive, or whose sixth power overflows or underflows,
    raises ValueError.
    """
    try:
        ok = factor > 0.0 and 0.0 < math.pow(factor, 6) < math.inf
    except OverflowError:
        ok = False
    if not ok:
        raise ValueError(
            "factor must be positive, with a finite nonzero sixth power; "
            f"got {factor!r}"
        )
    return diagnostics._backend(state).rescaled(state, factor, center)

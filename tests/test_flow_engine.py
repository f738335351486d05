"""Time integration, run orchestration and parabolic rescaling.

Oracles: exact sphere stationarity, the degree-2 linear decay rate 144,
self-refinement in dt, and conservation/dissipation identities checked
on recorded trajectories.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from triheat import diagnostics, flow, mesh, radial, shapes
from triheat.mesh import TriangleMesh
from triheat.spherical import GridSpec

L = 16
GRID = GridSpec.for_bandlimit(L)


def mode_state(radius, modes):
    return shapes.perturbed_sphere_state(GRID, radius, modes)


# ---------------------------------------------------------------------------
# step size policy
# ---------------------------------------------------------------------------


def test_auto_dt_scales_with_sixth_power():
    s1 = shapes.sphere_state(GRID, 1.0)
    s2 = shapes.sphere_state(GRID, 2.0)
    assert flow.auto_dt(s2) == 64.0 * flow.auto_dt(s1)
    m = shapes.icosphere(2)
    big = TriangleMesh(2.0 * m.vertices, m.faces)
    assert flow.auto_dt(big) == 64.0 * flow.auto_dt(m)


def test_steppers_reject_bad_dt():
    s = shapes.sphere_state(GRID, 1.0)
    with pytest.raises(ValueError):
        flow.step_spectral(s, 0.0)
    with pytest.raises(ValueError):
        flow.step_mesh(shapes.icosphere(1), -1e-6)
    with pytest.raises(TypeError):
        flow.auto_dt(np.zeros(3))


@pytest.mark.parametrize(
    "state, step",
    [
        (shapes.sphere_state(GRID, 1.0), flow.step_spectral),
        (shapes.icosphere(1), flow.step_mesh),
    ],
    ids=["spectral", "mesh"],
)
def test_steppers_and_rescale_reject_nan(state, step):
    # ChartError is a ValueError too, so the message tells the checks apart
    with pytest.raises(ValueError, match="dt must be positive"):
        step(state, float("nan"))
    with pytest.raises(ValueError, match="factor must be positive"):
        flow.rescale(state, float("nan"))


# ---------------------------------------------------------------------------
# spectral stepper
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dt", [1e-6, 1e-3, 1.0])
def test_sphere_is_a_fixed_point(dt):
    s = shapes.sphere_state(GRID, 1.3)
    out = flow.step_spectral(s, dt)
    assert np.abs(out.coeffs - s.coeffs).max() <= 1e-12
    assert out.time == s.time + dt


def test_mode_decay_approaches_exponential():
    """The per-step multiplier of the (2,0) amplitude tends to
    exp(-144 dt); the defect is second order in dt."""
    st = mode_state(1.0, [(2, 0, 1e-3)])
    defects = []
    for dt in (1e-5, 5e-6, 2.5e-6):
        out = flow.step_spectral(st, dt)
        mult = out.coeffs[2, L] / st.coeffs[2, L]
        defect = abs(mult - np.exp(-144.0 * dt))
        assert defect <= 3e-3 * (1.0 - np.exp(-144.0 * dt))
        defects.append(defect)
    assert defects[0] > defects[1] > defects[2]


def test_convergence_order_against_fine_reference():
    st = mode_state(1.0, [(2, 0, 1e-3)])
    T = 1e-4
    ref = st
    for _ in range(2000):
        ref = flow.step_spectral(ref, T / 2000)
    errs = []
    for n in (50, 100, 200):
        cur = st
        for _ in range(n):
            cur = flow.step_spectral(cur, T / n)
        errs.append(np.abs(cur.coeffs - ref.coeffs).max())
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] / errs[1] >= 1.9
    assert errs[0] / errs[2] >= 4.0


# ---------------------------------------------------------------------------
# mesh stepper
# ---------------------------------------------------------------------------


def test_step_displacement_shrinks_under_refinement():
    """Spheres are stationary, so the per-step motion is pure
    discretization residual and must fall with resolution."""
    disp = []
    for n in (3, 4):
        m = shapes.icosphere(n)
        out = flow.step_mesh(m, flow.auto_dt(m))
        disp.append(np.linalg.norm(out.vertices - m.vertices, axis=1).max())
    assert disp[0] / disp[1] >= 1.5


def test_volume_drift_per_step():
    m = shapes.icosphere(5)
    out = flow.step_mesh(m, flow.auto_dt(m))
    v0 = mesh.signed_volume(m)
    assert abs(mesh.signed_volume(out) / v0 - 1.0) <= 1e-6


def test_perturbed_mesh_run_accepts_policy_dt():
    m = shapes.perturbed_sphere_mesh(4, 1.0, [(2, 0, 0.05)])
    dt = flow.auto_dt(m)
    traj = flow.run(m, m.time + 30.5 * dt, cadence=10)
    assert traj.stop_reason == "t_end"
    assert traj.meta["halvings"] == 0
    vols = [r.volume for r in traj.records]
    assert max(abs(v / vols[0] - 1.0) for v in vols) <= 1e-3
    areas = [r.area for r in traj.records]
    assert all(b <= a for a, b in zip(areas, areas[1:]))


# ---------------------------------------------------------------------------
# run orchestration
# ---------------------------------------------------------------------------


def test_run_rejects_bad_configuration():
    s = shapes.sphere_state(GRID, 1.0)
    with pytest.raises(ValueError):
        flow.run(s, 0.0)
    with pytest.raises(ValueError):
        flow.run(s, 1.0, cadence=0)
    with pytest.raises(ValueError):
        flow.run(s, 1.0, dt=-1e-5)
    with pytest.raises(TypeError):
        flow.run("not a state", 1.0)


@pytest.mark.parametrize(
    "kw",
    [
        {"t_end": float("nan")},
        {"dt": float("nan")},
        {"safety": float("nan")},
        # each of these would run zero steps and stop as 't_end'
        {"t_end": float("inf")},
        {"dt": float("inf")},
        {"safety": float("inf")},
        {"safety": 0.0},
        {"safety": -1.0},
        # the step count since a record never equals these, so no
        # in-run record would be kept
        {"cadence": 2.5},
        {"cadence": float("nan")},
        {"cadence": float("inf")},
        # an infinite threshold stops the run at its first record, and a
        # nan one never fires
        {"stop_ao_inf": float("inf")},
        {"stop_ao_inf": float("nan")},
    ],
)
def test_run_rejects_nan_settings(kw):
    args = {"t_end": 1e-3, **kw}
    for s in (mode_state(1.0, [(2, 0, 0.01)]), shapes.icosphere(2)):
        with pytest.raises(ValueError, match="must"):
            flow.run(s, **args)


def test_run_takes_a_whole_float_cadence():
    s = mode_state(1.0, [(2, 0, 0.01)])
    t_end = 5.5 * flow.auto_dt(s)
    want = flow.run(s, t_end, cadence=2)
    got = flow.run(s, t_end, cadence=2.0)
    assert len(got.records) == 4
    assert repr(got.records) == repr(want.records)


def test_sphere_run_converges_immediately():
    s = shapes.sphere_state(GRID, 1.3)
    traj = flow.run(s, 1.0)
    assert traj.stop_reason == "converged"
    assert len(traj.entries) == 1
    rstar = (3.0 * radial.volume(s) / (4.0 * np.pi)) ** (1.0 / 3.0)
    assert abs(traj.final_state.mean_radius() - rstar) <= 1e-10
    assert traj.meta["backend"] == "spectral"


def test_mesh_run_does_not_converge_through_the_clamp():
    m = shapes.icosphere(2)
    # angle-defect K exceeds H^2/4 at every vertex, so every |A*|^2 is
    # clamped to 0 and sup |A*| reads 0 on a mesh that is not stationary
    assert mesh.tracefree_norm_sq(m)[1] == m.n_vertices
    traj = flow.run(m, 1e-3)
    assert traj.records[0].ao_inf == 0.0
    assert traj.records[0].gap_residual > 0.1
    assert traj.stop_reason == "t_end"
    assert traj.final_state.time == 1e-3


def test_perturbed_run_converges_to_a_sphere(converged_l16_run):
    traj = converged_l16_run
    assert traj.stop_reason == "converged"
    fin = traj.final_state
    assert np.abs(fin.values - fin.mean_radius()).max() <= 1e-6
    areas = [r.area for r in traj.records]
    assert all(b <= a for a, b in zip(areas, areas[1:]))
    t = traj.times()
    assert np.all(np.diff(t) > 0.0)


def test_two_mode_run_dissipates_tracefree_energy():
    st = mode_state(1.0, [(2, 0, 1e-2), (3, 2, 1e-2)])
    traj = flow.run(st, 0.02, cadence=40)
    assert traj.stop_reason == "t_end"
    assert abs(traj.times()[-1] - 0.02) <= 1e-12
    ao2 = [r.ao2 for r in traj.records]
    assert all(b < a for a, b in zip(ao2, ao2[1:]))
    # quarter Willmore energy stays below the embeddedness bound
    assert max(0.25 * r.willmore for r in traj.records) < 8.0 * np.pi


def test_spectral_volume_conservation_rate():
    # near-sphere regime: the explicit nonlinear remainder carries the
    # volume error, which scales like amplitude^2 times dt
    st = mode_state(1.0, [(2, 0, 1e-4)])
    traj = flow.run(st, 0.01, cadence=50)
    vols = [r.volume for r in traj.records]
    tspan = traj.times()[-1] - traj.times()[0]
    drift = max(abs(v / vols[0] - 1.0) for v in vols)
    assert drift / tspan <= 1e-8


def test_area_derivative_matches_dissipation_integral():
    """Between records, (A(t2) - A(t1))/(t2 - t1) must equal the
    trapezoid average of -int |Delta H|^2 d mu within 1%."""
    st = mode_state(1.0, [(2, 0, 1e-3)])
    traj = flow.run(st, 0.002, safety=0.5, cadence=16)
    recs = traj.records
    ts = traj.times()
    assert len(recs) >= 4
    for a, b, t1, t2 in zip(recs, recs[1:], ts, ts[1:]):
        lhs = (b.area - a.area) / (t2 - t1)
        rhs = 0.5 * (a.dh2 + b.dh2)
        assert abs(lhs + rhs) <= 0.01 * rhs


def test_mesh_run_reports_singular_when_dt_cannot_recover():
    m = shapes.perturbed_sphere_mesh(3, 1.0, [(2, 0, 0.3)])
    traj = flow.run(m, m.time + 2e5, dt=1e5, cadence=1)
    assert traj.stop_reason == "singular"
    assert traj.meta["halvings"] == flow._MAX_HALVINGS + 1
    # the last valid state and its concentration are preserved
    assert len(traj.entries) >= 1
    assert traj.records[-1].alpha > 0.0
    traj.final_state.validate()


def test_mesh_run_recovers_after_halving():
    # dt = 1000 auto_dt is rejected until halvings bring it near auto_dt,
    # after which the run goes on at that dt to t_end
    m = shapes.perturbed_sphere_mesh(2, 1.0, [(2, 0, 0.05)])
    a = flow.auto_dt(m)
    dt, cadence, t_end = 1000 * a, 4, m.time + 2000 * a
    traj = flow.run(m, t_end, dt=dt, cadence=cadence)
    assert traj.stop_reason == "t_end"
    halvings, steps = traj.meta["halvings"], traj.meta["steps"]
    assert 1 <= halvings <= flow._MAX_HALVINGS
    assert traj.meta["dt_final"] == dt / 2**halvings
    # the summed steps round just short of t_end, inside the 1e-12
    # relative remainder at which a run stops
    assert abs(traj.final_state.time - t_end) <= 1e-12 * t_end
    assert len(traj.records) == steps // cadence + 1 + (steps % cadence > 0)


def test_singular_runs_explain_their_stop():
    m = shapes.perturbed_sphere_mesh(3, 1.0, [(2, 0, 0.3)])
    traj = flow.run(m, m.time + 2e5, dt=1e5, cadence=1)
    want = f"t=0: step rejected {flow._MAX_HALVINGS + 1} times at dt="
    assert traj.meta["stop_detail"].startswith(want)
    assert "stop_detail" not in flow.run(mode_state(1.0, []), 1e-4).meta


def test_spectral_run_reports_singular_when_the_chart_is_left():
    st = shapes.generate("perturbed", "spectral", bandlimit=16, perturb="2,0,2.5")
    traj = flow.run(st, 1.0, dt=1e-4, cadence=10)
    assert traj.stop_reason == "singular"
    assert traj.meta["steps"] == 0
    assert "chart" in traj.meta["stop_detail"]
    assert traj.final_state is st


def test_run_propagates_errors_that_are_not_chart_exits(monkeypatch):
    def broken(state):
        raise ValueError("not a chart exit")

    monkeypatch.setattr(radial, "rho_velocity", broken)
    with pytest.raises(ValueError, match="not a chart exit"):
        flow.run(mode_state(1.0, [(2, 0, 0.01)]), 1.0)


# ---------------------------------------------------------------------------
# parabolic rescaling
# ---------------------------------------------------------------------------


def test_rescale_spectral_invariants():
    st = mode_state(1.0, [(2, 0, 0.1)])
    e0 = diagnostics.energies(st)
    r = flow.rescale(st, 2.0)
    e2 = diagnostics.energies(r)
    int_a0 = e0["ao2"] + 2.0 * e0["willmore"]
    int_a2 = e2["ao2"] + 2.0 * e2["willmore"]
    assert abs(int_a2 / int_a0 - 1.0) <= 1e-12
    assert abs(e2["area"] / (e0["area"] / 4.0) - 1.0) <= 1e-12
    assert abs(e2["volume"] / (e0["volume"] / 8.0) - 1.0) <= 1e-12


def test_rescale_time_and_inverse():
    st = flow.step_spectral(mode_state(1.0, [(2, 0, 0.1)]), 1e-5)
    r = flow.rescale(st, 2.0)
    assert r.time == st.time / 64.0
    back = flow.rescale(r, 0.5)
    assert np.abs(back.coeffs - st.coeffs).max() <= 1e-12
    assert abs(back.time - st.time) <= 1e-25


def test_rescale_mesh_about_a_point():
    m = shapes.perturbed_sphere_mesh(3, 1.0, [(2, 0, 0.1)])
    e0 = diagnostics.energies(m)
    r = flow.rescale(m, 2.0, center=(0.3, -0.2, 0.1))
    e2 = diagnostics.energies(r)
    int_a0 = e0["ao2"] + 2.0 * e0["willmore"]
    int_a2 = e2["ao2"] + 2.0 * e2["willmore"]
    assert abs(int_a2 / int_a0 - 1.0) <= 1e-12
    assert abs(e2["area"] / (e0["area"] / 4.0) - 1.0) <= 1e-12
    assert abs(e2["volume"] / (e0["volume"] / 8.0) - 1.0) <= 1e-12


def test_rescale_rejects_off_center_graphs_and_bad_factor():
    st = shapes.sphere_state(GRID, 1.0)
    with pytest.raises(ValueError, match="origin"):
        flow.rescale(st, 2.0, center=(0.1, 0.0, 0.0))
    flow.rescale(st, 2.0, center=(0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        flow.rescale(st, 0.0)


@pytest.mark.parametrize(
    "factor", [np.inf, -np.inf, 1e-60, 1e60, -1e60], ids=str
)
@pytest.mark.parametrize(
    "state",
    [shapes.sphere_state(GRID, 1.0), shapes.icosphere(1)],
    ids=["spectral", "mesh"],
)
def test_rescale_rejects_a_factor_whose_sixth_power_is_not_finite_and_nonzero(
    state, factor
):
    with pytest.raises(ValueError, match="factor must be positive"):
        flow.rescale(state, factor)


@pytest.mark.parametrize(
    "center",
    [
        (0.1, float("nan"), 0.0),
        (float("inf"), 0.0, 0.0),
        (0.1, 0.2),
        np.full((shapes.icosphere(1).n_vertices, 3), 0.1),
    ],
    ids=["nan", "inf", "shape-2", "shape-n3"],
)
def test_rescale_mesh_rejects_a_center_that_is_no_finite_point(center):
    with pytest.raises(ValueError, match="finite x, y, z point"):
        flow.rescale(shapes.icosphere(1), 2.0, center=center)


def test_mesh_steps_equal_steps_on_meshes_built_afresh():
    m = shapes.perturbed_sphere_mesh(2, 1.0, [(2, 0, 0.1), (3, 1, 0.05)])
    dt = flow.auto_dt(m)
    cached = bare = m
    for _ in range(20):
        cached = flow.step_mesh(cached, dt)
        # a new mesh on a copy of the faces carries no cache and no topology
        bare = flow.step_mesh(TriangleMesh(bare.vertices, bare.faces.copy(), bare.time), dt)
        assert np.array_equal(cached.vertices, bare.vertices)
    assert cached.time == bare.time


def count_calls(monkeypatch, module, name):
    """A list that grows by one for each call of module.name."""
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_mesh_run_builds_its_topology_once(monkeypatch):
    make = lambda: shapes.perturbed_sphere_mesh(2, 1.0, [(2, 0, 0.1)])
    # dt from another copy, so that the run's mesh builds its own entry
    dt = flow.auto_dt(make())
    builds = count_calls(monkeypatch, mesh, "_closed_slots")
    traj = flow.run(make(), 30 * dt, dt=dt, cadence=10)
    assert traj.meta["steps"] == 30
    assert len(builds) == 1
    # a live mesh hands its entry on to every mesh made from it
    live = make()
    topo = mesh._topology(live)
    for made in (
        flow.step_mesh(live, dt),
        live.translated((0.1, 0.0, 0.0)),
        flow.rescale(live, 2.0),
    ):
        assert made._topology is topo


def test_a_mesh_run_takes_one_face_pass_per_state(monkeypatch):
    """Validation's face pass builds the first state's operators and
    normals, so its record and first step take no second pass; each
    stepped mesh takes the one of its step check."""
    make = lambda: shapes.perturbed_sphere_mesh(2, 1.0, [(2, 0, 0.1)])
    # dt from another copy: auto_dt reads the least edge length of a pass
    dt = flow.auto_dt(make())
    first = make()
    passes = []
    inner = mesh._faces

    def spy(m):
        passes.append(m)
        return inner(m)

    monkeypatch.setattr(mesh, "_faces", spy)
    traj = flow.run(first, 3 * dt, dt=dt, cadence=1)
    assert traj.meta["steps"] == 3
    assert sum(m is first for m in passes) == 1
    assert [m.time for m in passes[1:]] == [e.time for e in traj.entries[1:]]


# ---------------------------------------------------------------------------
# run memory: a recorded state drops its cached fields once stepped past
# ---------------------------------------------------------------------------


def cached_fields(st):
    """What a state caches besides its coordinates."""
    if isinstance(st, TriangleMesh):
        return set(st._cache)
    return set() if st._geo is None else set(st._geo)


@pytest.mark.parametrize(
    "state",
    [
        mode_state(1.0, [(2, 0, 0.05), (3, 1, 0.02), (5, -2, 0.01)]),
        shapes.perturbed_sphere_mesh(3, 1.0, [(2, 0, 0.05), (3, 1, 0.02), (5, -2, 0.01)]),
    ],
    ids=["spectral", "mesh"],
)
def test_a_finished_run_keeps_no_cached_fields(state):
    traj = flow.run(state, 20 * flow.auto_dt(state), cadence=5)
    assert len(traj.entries) == 5
    assert traj.entries[0].state is state
    for e in traj.entries:
        assert cached_fields(e.state) == set()
    # asked again, every recorded state gives back its record's bits
    for e in traj.entries:
        got = diagnostics.compute_record(e.state)
        assert got.as_tuple() == e.record.as_tuple()


def test_a_finished_mesh_run_holds_no_topology(monkeypatch):
    m = shapes.perturbed_sphere_mesh(3, 1.0, [(2, 0, 0.05), (3, 1, 0.02), (5, -2, 0.01)])
    traj = flow.run(m, 20 * flow.auto_dt(m), cadence=5)
    assert len(traj.entries) == 5
    assert all(e.state._topology is None for e in traj.entries)
    builds = count_calls(monkeypatch, mesh, "_closed_slots")
    passes = count_calls(monkeypatch, mesh, "_ball_sums")
    for k, e in enumerate(traj.entries, start=1):
        # the entry is rebuilt from the faces, and alpha certified from
        # the memo the run's meshes share
        got = diagnostics.compute_record(e.state)
        assert got.as_tuple() == e.record.as_tuple()
        assert len(builds) == k
    assert passes == []


@pytest.mark.parametrize("backend", ["spectral", "mesh"])
def test_a_finished_run_retains_about_its_coordinates(backend):
    modes = [(2, 0, 0.05), (3, 1, 0.02), (5, -2, 0.01)]
    if backend == "mesh":
        make = lambda: shapes.perturbed_sphere_mesh(3, 1.0, modes)
    else:
        make = lambda: mode_state(1.0, modes)
    # builds the transform tables, or imports scipy for the first full
    # concentration pass, whose allocations would swamp the count
    warm = make()
    flow.run(warm, 4 * flow.auto_dt(warm))
    # the run's state is fresh, so its mesh topology is built in the window
    st = make()
    dt = flow.auto_dt(make())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = flow.run(st, 20 * dt, dt=dt, cadence=5)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(traj.entries) == 5
    states = [e.state for e in traj.entries]
    if backend == "mesh":
        coords = sum(s.vertices.nbytes for s in states)
        # the alpha memo that the run's meshes share
        memo = st._memo["alpha"]
        coords += memo.density.nbytes + memo.padded.nbytes
    else:
        coords = sum(s.coeffs.nbytes + s.values.nbytes for s in states)
    # the final entry's cached fields alone would add 2.4-2.7 times this,
    # and a mesh's topology entry about 2.2 times
    assert held <= 1.25 * coords


def test_a_record_retains_about_its_coordinates():
    s = mode_state(1.0, [(2, 0, 0.05), (3, 1, 0.02)])
    dt = flow.auto_dt(s)
    flow.run(s, 4 * dt, dt=dt)  # builds the transform tables

    def retained(cadence):
        # the run's own state: fresh, so its first record is part of it
        st = mode_state(1.0, [(2, 0, 0.05), (3, 1, 0.02)])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            traj = flow.run(st, 40 * dt, dt=dt, cadence=cadence)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        return held, len(traj.entries)

    few, n_few = retained(20)
    many, n_many = retained(2)
    assert (n_few, n_many) == (3, 21)
    per_record = (many - few) / (n_many - n_few)
    # the coefficients and the grid values: (L+1)(2L+1) + nlat * nlon
    # doubles, 15.3 kB at L=16; with its cached fields a record held
    # 225 kB
    coords = 8 * (s.coeffs.size + s.values.size)
    assert coords <= per_record <= 1.25 * coords


# ---------------------------------------------------------------------------
# rescaling by random factors
# ---------------------------------------------------------------------------

STEPPED_GRAPH = flow.step_spectral(mode_state(1.0, [(2, 0, 0.1), (3, 1, 0.05)]), 1e-4)
_MESH0 = shapes.perturbed_sphere_mesh(3, 1.0, [(2, 0, 0.1), (3, 2, 0.05)])
STEPPED_MESH = flow.step_mesh(_MESH0, flow.auto_dt(_MESH0))
FACTORS = hst.floats(0.2, 5.0)
CENTERS = hst.tuples(*[hst.floats(-0.5, 0.5)] * 3)
PROPERTY = settings(max_examples=50, derandomize=True, database=None, deadline=None)


def _assert_parabolic_scaling(st, r, factor, ao2_rtol):
    def rel(a, b):
        return abs(a / b - 1.0)

    e0 = diagnostics.energies(st)
    e1 = diagnostics.energies(r)
    assert rel(e1["area"], e0["area"] / factor**2) <= 1e-12
    assert rel(e1["volume"], e0["volume"] / factor**3) <= 1e-12
    assert rel(r.time, st.time / factor**6) <= 1e-12
    int_a0 = e0["ao2"] + 2.0 * e0["willmore"]
    int_a1 = e1["ao2"] + 2.0 * e1["willmore"]
    assert rel(int_a1, int_a0) <= 1e-12
    assert rel(e1["ao2"], e0["ao2"]) <= ao2_rtol


@PROPERTY
@given(factor=FACTORS)
def test_rescale_graph_by_random_factors(factor):
    st = STEPPED_GRAPH
    r = flow.rescale(st, factor)
    _assert_parabolic_scaling(st, r, factor, ao2_rtol=1e-12)
    back = flow.rescale(r, 1.0 / factor)
    assert np.abs(back.coeffs - st.coeffs).max() <= 1e-12 * np.abs(st.coeffs).max()
    assert abs(back.time / st.time - 1.0) <= 1e-12


@PROPERTY
@given(factor=FACTORS, center=CENTERS)
def test_rescale_mesh_by_random_factors_about_random_centers(factor, center):
    m = STEPPED_MESH
    r = flow.rescale(m, factor, center=center)
    _assert_parabolic_scaling(m, r, factor, ao2_rtol=1e-11)
    back = flow.rescale(r, 1.0 / factor, center=-np.asarray(center) / factor)
    assert np.abs(back.vertices - m.vertices).max() <= 1e-12 * np.abs(m.vertices).max()
    assert abs(back.time / m.time - 1.0) <= 1e-12

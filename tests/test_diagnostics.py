"""Energy bookkeeping, decay-rate fits and monotonicity audits.

Oracles: exact sphere values, a closed-form ellipsoid curvature
quadrature at doubled resolution, synthetic exponential series, and
reversal of recorded trajectories.
"""

import dataclasses

import numpy as np
import pytest

from oracles import ellipsoid_curvatures, spherical_cap_area
from triheat import diagnostics, flow, radial, shapes
from triheat.spherical import GridSpec, transform_for

GRID = GridSpec.for_bandlimit(16)
AXES = (1.0, 1.0, 1.2)


def short_run(modes, t_end, cadence=10, **kw):
    st = shapes.perturbed_sphere_state(GRID, 1.0, modes)
    return flow.run(st, t_end, cadence=cadence, **kw)


# ---------------------------------------------------------------------------
# records and energies
# ---------------------------------------------------------------------------


def test_unit_sphere_record():
    rec = diagnostics.compute_record(shapes.sphere_state(GRID, 1.0), 0.25)
    assert abs(rec.willmore - 4.0 * np.pi) <= 1e-10
    assert abs(rec.int_gauss - 4.0 * np.pi) <= 1e-8
    assert rec.ao2 <= 1e-20
    assert rec.ao_inf <= 1e-12
    assert rec.dh2 == 0.0
    assert rec.grad_dh2 == 0.0
    assert rec.gap_residual == 0.0
    assert rec.backend == "spectral"


def test_mesh_sphere_record():
    rec = diagnostics.compute_record(shapes.icosphere(3), 0.25)
    assert rec.backend == "mesh"
    assert abs(rec.int_gauss - 4.0 * np.pi) <= 1e-10
    assert abs(rec.area - 4.0 * np.pi) <= 0.1
    assert rec.ao_inf == 0.0


def test_ellipsoid_willmore_against_fine_quadrature():
    """The state's Willmore energy at L = 24 must match a quadrature of
    the closed-form H^2 on the exact ellipsoid at L = 64."""
    gq = GridSpec.for_bandlimit(64)
    ref_state = shapes.ellipsoid_state(gq, AXES)
    tr = transform_for(gq)
    th, ph = tr.theta[:, None], tr.phi[None, :]
    rho = ref_state.values
    pts = np.stack(
        [rho * np.sin(th) * np.cos(ph), rho * np.sin(th) * np.sin(ph), rho * np.cos(th)],
        axis=-1,
    )
    h, _ = ellipsoid_curvatures(pts, AXES)
    want = 0.25 * radial.integrate(ref_state, h * h)
    st = shapes.ellipsoid_state(GridSpec.for_bandlimit(24), AXES)
    got = diagnostics.energies(st)["willmore"]
    assert abs(got / want - 1.0) <= 1e-6


def test_energies_rejects_unknown_states():
    with pytest.raises(TypeError):
        diagnostics.energies(np.zeros(3))


@pytest.mark.parametrize(
    "dispatch",
    [
        diagnostics.compute_record,
        lambda s: diagnostics.concentration(s, 0.25),
        diagnostics.gap_residual,
        diagnostics.codazzi_residual,
        flow.auto_dt,
        lambda s: flow.rescale(s, 2.0),
        lambda s: flow.run(s, 1.0),
    ],
    ids=[
        "compute_record",
        "concentration",
        "gap_residual",
        "codazzi_residual",
        "auto_dt",
        "rescale",
        "run",
    ],
)
def test_dispatchers_reject_unknown_states(dispatch):
    with pytest.raises(TypeError):
        dispatch(np.zeros(3))


@pytest.mark.parametrize(
    "state",
    [
        shapes.perturbed_sphere_state(GRID, 1.0, [(2, 0, 0.05), (3, 1, 0.02)]),
        shapes.perturbed_sphere_mesh(3, 1.0, [(2, 0, 0.1), (3, 2, 0.05)]),
    ],
    ids=["spectral", "mesh"],
)
def test_cheap_queries_equal_record_fields(state):
    rec = diagnostics.compute_record(state, 0.3)
    e = diagnostics.energies(state)
    assert e == {
        "area": rec.area,
        "volume": rec.volume,
        "willmore": rec.willmore,
        "ao2": rec.ao2,
    }
    assert diagnostics.gap_residual(state) == (rec.gap_residual, rec.grad_dh2)
    assert diagnostics.concentration(state, 0.3) == rec.alpha


def test_spectral_energies_skip_the_laplacian_chain(monkeypatch):
    modes = [(2, 0, 0.05), (3, 1, 0.02)]
    rec = diagnostics.compute_record(shapes.perturbed_sphere_state(GRID, 1.0, modes))

    def no_chain(state):
        raise AssertionError("energies ran the Delta^2 H chain")

    monkeypatch.setattr(radial, "laplacian_chain", no_chain)
    e = diagnostics.energies(shapes.perturbed_sphere_state(GRID, 1.0, modes))
    assert e == {
        "area": rec.area,
        "volume": rec.volume,
        "willmore": rec.willmore,
        "ao2": rec.ao2,
    }


# ---------------------------------------------------------------------------
# stationarity gap
# ---------------------------------------------------------------------------


def test_gap_residual_separates_spheres_from_ellipsoids():
    sup, grad = diagnostics.gap_residual(shapes.sphere_state(GRID, 1.0))
    assert sup < 1e-9
    assert grad < 1e-9
    st = shapes.ellipsoid_state(GridSpec.for_bandlimit(32), AXES)
    sup_e, grad_e = diagnostics.gap_residual(st)
    assert sup_e > 0.1
    assert grad_e > 0.1


def test_gap_residual_vanishes_after_convergence():
    traj = short_run([(2, 0, 1e-2)], 1.0, cadence=50, stop_ao_inf=1e-7)
    assert traj.stop_reason == "converged"
    sup, _ = diagnostics.gap_residual(traj.final_state)
    assert sup < 1e-4


# ---------------------------------------------------------------------------
# Codazzi-type ratio
# ---------------------------------------------------------------------------


def test_codazzi_sphere_convention():
    assert diagnostics.codazzi_residual(shapes.sphere_state(GRID, 1.0)) == 0.0


def test_codazzi_stable_under_refinement():
    vals = []
    for L in (16, 24):
        st = shapes.perturbed_sphere_state(
            GridSpec.for_bandlimit(L), 1.0, [(2, 0, 1e-3)]
        )
        vals.append(diagnostics.codazzi_residual(st))
    assert np.isfinite(vals).all()
    assert vals[0] > 0.0
    assert abs(vals[0] / vals[1] - 1.0) <= 1e-9


def test_codazzi_amplitude_independent_at_first_order():
    vals = []
    for eps in (1e-4, 1e-5):
        st = shapes.perturbed_sphere_state(GRID, 1.0, [(2, 0, eps)])
        vals.append(diagnostics.codazzi_residual(st))
    assert abs(vals[0] / vals[1] - 1.0) <= 1e-3


# ---------------------------------------------------------------------------
# linearized spectrum
# ---------------------------------------------------------------------------


def test_linearized_rates():
    assert diagnostics.linearized_rate(0, 1.0) == 0.0
    assert diagnostics.linearized_rate(1, 1.0) == 0.0
    # translations are exactly neutral, so the zero must be clean
    assert str(diagnostics.linearized_rate(1, 1.0)) == "0.0"
    assert diagnostics.linearized_rate(2, 1.0) == -144.0
    assert diagnostics.linearized_rate(3, 1.0) == -1440.0
    assert diagnostics.linearized_rate(3, 2.0) == -22.5
    assert diagnostics.linearized_rate(2, 2.0) == -2.25


def test_linearized_rate_radius_scaling():
    for l in (2, 3, 5):
        base = diagnostics.linearized_rate(l, 1.0)
        assert diagnostics.linearized_rate(l, 2.0) == base / 64.0


# ---------------------------------------------------------------------------
# exponential fits
# ---------------------------------------------------------------------------


def test_fit_recovers_synthetic_decay():
    t = np.linspace(0.0, 0.05, 40)
    rate, amp = diagnostics.fit_exponential(t, 3.0 * np.exp(-144.0 * t))
    assert abs(rate + 144.0) <= 1e-9
    assert abs(amp - 3.0) <= 1e-9


def test_fit_input_validation():
    t = np.linspace(0.0, 1.0, 10)
    with pytest.raises(ValueError, match="at least 3"):
        diagnostics.fit_exponential(t[:2], np.ones(2))
    bad = np.ones(10)
    bad[-1] = -1.0
    with pytest.raises(ValueError, match="positive"):
        diagnostics.fit_exponential(t, bad)


def test_fitted_run_rates_match_the_spectrum():
    """A small (2,0) perturbation decays at rate -144 and its tracefree
    energy, being quadratic in the amplitude, at twice that."""
    traj = short_run([(2, 0, 1e-3)], 0.01)
    ts = traj.times()
    c20 = np.array([e.state.coeffs[2, 16] for e in traj.entries])
    rate_mode, _ = diagnostics.fit_exponential(ts, c20)
    assert abs(rate_mode / -144.0 - 1.0) <= 0.02
    ao2 = np.array([r.ao2 for r in traj.records])
    rate_ao2, _ = diagnostics.fit_exponential(ts, ao2)
    assert abs(rate_ao2 / -288.0 - 1.0) <= 0.02


def test_limiting_radius():
    assert diagnostics.limiting_radius(4.0 * np.pi / 3.0) == 1.0
    assert diagnostics.limiting_radius(32.0 * np.pi / 3.0) == 2.0
    with pytest.raises(ValueError):
        diagnostics.limiting_radius(0.0)


# ---------------------------------------------------------------------------
# monotonicity audit
# ---------------------------------------------------------------------------


def test_flow_run_passes_the_audit():
    traj = short_run([(2, 0, 1e-3)], 0.01)
    rep = diagnostics.check_monotonicity(traj.records)
    assert rep.monotone
    assert rep.area_violations == ()
    assert rep.ao2_violations == ()
    assert rep.volume_drift <= 1e-8
    assert rep.lyapunov_fraction == 1.0
    assert rep.intervals == len(traj.records) - 1


def test_reversed_records_fail_the_audit():
    traj = short_run([(2, 0, 1e-3)], 0.01)
    rep = diagnostics.check_monotonicity(list(reversed(traj.records)))
    assert not rep.monotone
    assert len(rep.area_violations) == rep.intervals
    assert len(rep.ao2_violations) == rep.intervals


def test_constant_records_are_monotone():
    rec = diagnostics.compute_record(shapes.sphere_state(GRID, 1.0), 0.25)
    recs = [dataclasses.replace(rec, time=t) for t in (0.0, 0.1, 0.2)]
    rep = diagnostics.check_monotonicity(recs)
    assert rep.monotone
    assert rep.volume_drift == 0.0


def test_audit_needs_two_records():
    rec = diagnostics.compute_record(shapes.sphere_state(GRID, 1.0), 0.25)
    with pytest.raises(ValueError):
        diagnostics.check_monotonicity([rec])


# ---------------------------------------------------------------------------
# concentration (spectral backend)
# ---------------------------------------------------------------------------


def test_spectral_concentration_cap_oracle():
    st = shapes.sphere_state(GridSpec.for_bandlimit(32), 1.0)
    got = diagnostics.concentration(st, 0.25)
    want = 2.0 * spherical_cap_area(0.25)
    assert abs(got / want - 1.0) <= 0.10


def test_spectral_concentration_monotone():
    st = shapes.sphere_state(GridSpec.for_bandlimit(32), 1.0)
    vals = [diagnostics.concentration(st, r) for r in (0.15, 0.3, 0.6)]
    assert vals[0] <= vals[1] <= vals[2]


@pytest.mark.parametrize("radius", [0.0, -0.1, float("nan")])
def test_concentration_rejects_bad_radius_on_both_backends(radius):
    for state in (
        shapes.perturbed_sphere_state(GRID, 1.0, [(2, 0, 0.05)]),
        shapes.perturbed_sphere_mesh(2, 1.0, [(2, 0, 0.05)]),
    ):
        with pytest.raises(ValueError, match="radius must be positive"):
            diagnostics.concentration(state, radius)
        with pytest.raises(ValueError, match="radius must be positive"):
            diagnostics.compute_record(state, radius)


# ---------------------------------------------------------------------------
# record serialization
# ---------------------------------------------------------------------------


def test_csv_round_trip_is_bit_faithful(tmp_path):
    traj = short_run([(2, 0, 1e-3)], 0.002, cadence=20)
    path = tmp_path / "records.csv"
    diagnostics.write_csv(traj.records, path)
    back = diagnostics.read_csv(path)
    assert len(back) == len(traj.records)
    for a, b in zip(traj.records, back):
        assert a.as_tuple() == b.as_tuple()


def test_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,area,volume\n0.0,1.0,1.0\n")
    with pytest.raises(ValueError, match="header"):
        diagnostics.read_csv(path)

"""Transform-level checks for the spherical-harmonic backend.

The independent reference throughout is scipy's complex spherical
harmonics recombined into the real orthonormal basis (see oracles.py),
plus closed-form derivatives of low-degree zonal functions.
"""

import numpy as np
import pytest

from oracles import real_harmonic
from triheat.spherical import (
    GridSpec,
    SphericalField,
    analyze,
    coefficient,
    evaluate,
    laplacian_power,
    quadrature,
    read_coeffs_csv,
    surface_gradient_sq,
    surface_hessian,
    synthesize,
    transform_for,
    write_coeffs_csv,
    write_grid_csv,
)

L = 16
GRID = GridSpec.for_bandlimit(L)
SQRT4PI = np.sqrt(4.0 * np.pi)


def grid_angles(grid):
    tr = transform_for(grid)
    return np.meshgrid(tr.theta, tr.phi, indexing="ij")


def harmonic_field(grid, l, m):
    """Sample the scipy-built real harmonic on the grid."""
    th, ph = grid_angles(grid)
    return SphericalField(grid, values=real_harmonic(l, m, th, ph))


def random_coeffs(grid, seed, decay=0.0):
    """Random coefficients filling exactly the valid (l, m) triangle."""
    rng = np.random.default_rng(seed)
    lmax = grid.bandlimit
    c = np.zeros((lmax + 1, 2 * lmax + 1))
    for l in range(lmax + 1):
        c[l, lmax - l : lmax + l + 1] = rng.standard_normal(2 * l + 1) / (
            1.0 + l
        ) ** decay
    return c


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------


def test_grid_spec_rejects_underresolved():
    with pytest.raises(ValueError):
        GridSpec(bandlimit=3, nlat=8, nlon=16)
    with pytest.raises(ValueError):
        GridSpec(bandlimit=8, nlat=8, nlon=32)
    with pytest.raises(ValueError):
        GridSpec(bandlimit=8, nlat=16, nlon=16)


def test_field_requires_some_representation():
    with pytest.raises(ValueError):
        SphericalField(GRID)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("l,m", [(2, 0), (3, 1), (5, -4), (16, 16), (7, -7)])
def test_analyze_picks_out_single_harmonic(l, m):
    """Sampling one basis function must project onto exactly one slot."""
    f = analyze(harmonic_field(GRID, l, m))
    c = f.coeffs.copy()
    assert abs(c[l, L + m] - 1.0) <= 1e-12
    c[l, L + m] = 0.0
    assert np.abs(c).max() <= 1e-12


def test_analyze_constant_normalization():
    f = analyze(SphericalField(GRID, values=np.ones((GRID.nlat, GRID.nlon))))
    assert abs(coefficient(f, 0, 0) - SQRT4PI) <= 1e-13
    rest = f.coeffs.copy()
    rest[0, L] = 0.0
    assert np.abs(rest).max() <= 1e-12


def test_analyze_synthesize_analyze_fixed_point():
    values = synthesize(SphericalField(GRID, coeffs=random_coeffs(GRID, 11))).values
    first = analyze(SphericalField(GRID, values=values))
    second = analyze(synthesize(SphericalField(GRID, coeffs=first.coeffs)))
    assert np.abs(second.coeffs - first.coeffs).max() <= 1e-12


# ---------------------------------------------------------------------------
# synthesize
# ---------------------------------------------------------------------------


def test_synthesize_constant_from_degree_zero():
    c = np.zeros((L + 1, 2 * L + 1))
    c[0, L] = SQRT4PI
    v = synthesize(SphericalField(GRID, coeffs=c)).values
    assert np.abs(v - 1.0).max() <= 1e-13


def test_synthesize_degree_one_is_axial():
    """coeff(1,0) = 1 gives a multiple of cos(theta), positive at the north cap."""
    c = np.zeros((L + 1, 2 * L + 1))
    c[1, L] = 1.0
    v = synthesize(SphericalField(GRID, coeffs=c)).values
    tr = transform_for(GRID)
    expected = np.sqrt(3.0 / (4.0 * np.pi)) * np.cos(tr.theta)[:, None]
    assert np.abs(v - expected).max() <= 1e-13
    assert np.all(v[0, :] > 0.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_parseval(seed):
    c = random_coeffs(GRID, seed)
    f = synthesize(SphericalField(GRID, coeffs=c))
    total = (c**2).sum()
    assert abs(quadrature_of_square(f) - total) <= 1e-10 * total


def quadrature_of_square(f):
    return quadrature(SphericalField(f.grid, values=f.values**2))


# ---------------------------------------------------------------------------
# laplacian_power
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [-1, 0, 1])
def test_laplacian_degree_one_eigenvalue(m):
    f = harmonic_field(GRID, 1, m)
    lap = laplacian_power(analyze(f), 1)
    assert np.abs(lap.values - (-2.0) * f.values).max() <= 1e-11


def test_laplacian_cubed_degree_two():
    """Three applications on degree 2 scale by (-6)^3 = -216."""
    c = np.zeros((L + 1, 2 * L + 1))
    c[2, L] = 1.0
    f = synthesize(SphericalField(GRID, coeffs=c))
    lap3 = laplacian_power(f, 3)
    assert np.abs(lap3.values + 216.0 * f.values).max() <= 1e-12
    # the same input sampled from scipy carries analysis residue at the
    # rounding floor, which the sixth-order symbol amplifies by (L(L+1))^3
    sampled = analyze(harmonic_field(GRID, 2, 0))
    lap3s = laplacian_power(sampled, 3)
    assert np.abs(lap3s.values + 216.0 * sampled.values).max() <= 1e-7


def test_laplacian_kills_constants():
    c = np.zeros((L + 1, 2 * L + 1))
    c[0, L] = SQRT4PI
    for p in (1, 2, 3):
        out = laplacian_power(SphericalField(GRID, coeffs=c), p)
        assert np.all(out.values == 0.0)
        assert np.all(out.coeffs == 0.0)


def test_laplacian_power_rejects_nonpositive():
    f = SphericalField(GRID, coeffs=random_coeffs(GRID, 3))
    with pytest.raises(ValueError):
        laplacian_power(f, 0)
    with pytest.raises(ValueError):
        laplacian_power(f, -1)


# ---------------------------------------------------------------------------
# surface_gradient_sq
# ---------------------------------------------------------------------------


def test_gradient_sq_constant_is_exactly_zero():
    c = np.zeros((L + 1, 2 * L + 1))
    c[0, L] = 2.5
    g = surface_gradient_sq(SphericalField(GRID, coeffs=c))
    assert np.all(g.values == 0.0)


@pytest.mark.parametrize("seed", [4, 5])
def test_gradient_sq_integration_by_parts(seed):
    """int |grad u|^2 = -int u (lap u) on the round sphere."""
    f = synthesize(SphericalField(GRID, coeffs=random_coeffs(GRID, seed, decay=2.0)))
    lhs = quadrature(surface_gradient_sq(f))
    lap = laplacian_power(f, 1)
    rhs = -quadrature(SphericalField(GRID, values=f.values * lap.values))
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_gradient_sq_zonal_cosine():
    tr = transform_for(GRID)
    vals = np.cos(tr.theta)[:, None] * np.ones((1, GRID.nlon))
    g = surface_gradient_sq(SphericalField(GRID, values=vals))
    expected = (np.sin(tr.theta) ** 2)[:, None]
    assert np.abs(g.values - expected).max() <= 1e-10


# ---------------------------------------------------------------------------
# surface_hessian
# ---------------------------------------------------------------------------


def test_hessian_constant_is_exactly_zero():
    c = np.zeros((L + 1, 2 * L + 1))
    c[0, L] = -1.7
    h_tt, h_tp, h_pp = surface_hessian(SphericalField(GRID, coeffs=c))
    for comp in (h_tt, h_tp, h_pp):
        assert np.all(comp.values == 0.0)


@pytest.mark.parametrize("seed", [6, 7])
def test_hessian_trace_is_laplacian(seed):
    """sigma^{ij} hess_ij u = lap u, the defining trace identity."""
    f = SphericalField(GRID, coeffs=random_coeffs(GRID, seed, decay=2.0))
    h_tt, _, h_pp = surface_hessian(f)
    tr = transform_for(GRID)
    s2 = (tr.sin_t**2)[:, None]
    trace = h_tt.values + h_pp.values / s2
    lap = laplacian_power(f, 1).values
    assert np.abs(trace - lap).max() <= 1e-9


def test_hessian_zonal_cosine_components():
    """For u = cos(theta): hess_tt = -cos, hess_pp = -cos sin^2, mixed = 0."""
    tr = transform_for(GRID)
    vals = np.cos(tr.theta)[:, None] * np.ones((1, GRID.nlon))
    h_tt, h_tp, h_pp = surface_hessian(SphericalField(GRID, values=vals))
    ct = np.cos(tr.theta)[:, None]
    s2 = (tr.sin_t**2)[:, None]
    assert np.abs(h_tt.values + ct).max() <= 1e-10
    assert np.abs(h_tp.values).max() <= 1e-10
    assert np.abs(h_pp.values + ct * s2).max() <= 1e-10


@pytest.mark.parametrize("l, m", [(3, 2), (4, -3), (5, 5)])
def test_phi_derivatives_of_nonzonal_harmonics(l, m):
    """d/dphi Y_{l,m} = -m Y_{l,-m} for either sign of m, and d2/dphi2 Y = -m^2 Y.

    The second derivative is read off the Hessian through its Christoffel
    term: hess_pp = u_pp + sin cos u_theta.
    """
    th, ph = grid_angles(GRID)
    f = analyze(harmonic_field(GRID, l, m))
    u_t, u_p = transform_for(GRID).gradient_values(f.coeffs)
    _, _, h_pp = surface_hessian(f)
    u_pp = h_pp.values - np.sin(th) * np.cos(th) * u_t
    assert np.abs(u_p + m * real_harmonic(l, -m, th, ph)).max() <= 1e-11
    assert np.abs(u_pp + m * m * real_harmonic(l, m, th, ph)).max() <= 1e-11


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def test_quadrature_constant_gives_sphere_area():
    v = np.ones((GRID.nlat, GRID.nlon))
    total = quadrature(SphericalField(GRID, values=v))
    assert abs(total - 4.0 * np.pi) <= 1e-13 * 4.0 * np.pi


def test_quadrature_harmonic_has_zero_mean():
    f = harmonic_field(GRID, 2, 0)
    assert abs(quadrature(f)) <= 1e-13


def test_quadrature_harmonic_square_normalized():
    f = harmonic_field(GRID, 3, 1)
    assert abs(quadrature_of_square(f) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# operator-level properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [8, 9, 10])
def test_round_trip_componentwise(seed):
    c = random_coeffs(GRID, seed)
    back = analyze(synthesize(SphericalField(GRID, coeffs=c)))
    assert np.abs(back.coeffs - c).max() <= 1e-12


def test_laplacian_symmetry():
    u = synthesize(SphericalField(GRID, coeffs=random_coeffs(GRID, 12, decay=1.0)))
    v = synthesize(SphericalField(GRID, coeffs=random_coeffs(GRID, 13, decay=1.0)))
    lap_u = laplacian_power(u, 1).values
    lap_v = laplacian_power(v, 1).values
    a = quadrature(SphericalField(GRID, values=u.values * lap_v))
    b = quadrature(SphericalField(GRID, values=v.values * lap_u))
    assert abs(a - b) <= 1e-10 * max(abs(a), 1.0)


def test_laplacian_power_composition_is_bitwise():
    f = SphericalField(GRID, coeffs=random_coeffs(GRID, 14))
    direct = laplacian_power(f, 3)
    composed = laplacian_power(laplacian_power(f, 2), 1)
    assert np.array_equal(direct.coeffs, composed.coeffs)


def test_evaluate_matches_grid_synthesis():
    """Scattered-point evaluation at the grid nodes equals the grid transform."""
    c = random_coeffs(GRID, 15)
    f = synthesize(SphericalField(GRID, coeffs=c))
    th, ph = grid_angles(GRID)
    pts = evaluate(f, th.ravel(), ph.ravel())
    assert np.abs(pts - f.values.ravel()).max() <= 1e-11


def test_evaluate_matches_harmonic_sum_off_grid():
    """Scattered points, both poles included, against the scipy-built basis."""
    c = random_coeffs(GRID, 16)
    rng = np.random.default_rng(17)
    th = np.concatenate([[0.0, np.pi], rng.uniform(0.0, np.pi, 200)])
    ph = rng.uniform(0.0, 2.0 * np.pi, th.size)
    ref = sum(
        c[l, L + m] * real_harmonic(l, m, th, ph)
        for l in range(L + 1)
        for m in range(-l, l + 1)
    )
    pts = evaluate(SphericalField(GRID, coeffs=c), th, ph)
    assert np.abs(pts - ref).max() <= 1e-12


def test_coefficient_bounds_checked():
    f = SphericalField(GRID, coeffs=random_coeffs(GRID, 16))
    with pytest.raises(ValueError):
        coefficient(f, L + 1, 0)
    with pytest.raises(ValueError):
        coefficient(f, 2, 3)


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------


def test_coeffs_csv_round_trip(tmp_path):
    c = random_coeffs(GRID, 17)
    path = tmp_path / "c.csv"
    write_coeffs_csv(SphericalField(GRID, coeffs=c), path)
    back = read_coeffs_csv(path, GRID)
    assert np.array_equal(back.coeffs, c)


def test_coeffs_csv_header_and_order(tmp_path):
    path = tmp_path / "c.csv"
    write_coeffs_csv(SphericalField(GRID, coeffs=random_coeffs(GRID, 18)), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "l,m,value"
    assert lines[1].startswith("0,0,")
    assert lines[2].startswith("1,-1,")
    assert len(lines) == 1 + (L + 1) ** 2


def test_read_coeffs_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("m,l,value\n0,0,1.0\n")
    with pytest.raises(ValueError):
        read_coeffs_csv(path)


def test_read_coeffs_csv_rejects_repeated_rows(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("l,m,value\n0,0,3.5\n2,0,0.01\n2,0,0.05\n")
    with pytest.raises(ValueError, match="l=2, m=0"):
        read_coeffs_csv(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_read_coeffs_csv_rejects_non_finite_rows(tmp_path, value):
    path = tmp_path / "bad.csv"
    path.write_text(f"l,m,value\n0,0,3.5\n2,0,{value}\n")
    with pytest.raises(ValueError, match=f"non-finite coefficient in row '2,0,{value}"):
        read_coeffs_csv(path)


def test_grid_csv_layout(tmp_path):
    c = np.zeros((L + 1, 2 * L + 1))
    c[0, L] = SQRT4PI
    path = tmp_path / "g.csv"
    write_grid_csv(SphericalField(GRID, coeffs=c), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "theta,phi,value"
    assert len(lines) == 1 + GRID.nlat * GRID.nlon
    theta, phi, value = (float(t) for t in lines[1].split(","))
    tr = transform_for(GRID)
    assert theta == tr.theta[0] and phi == 0.0
    assert abs(value - 1.0) <= 1e-13

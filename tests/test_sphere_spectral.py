"""Transform-level checks for the spherical-harmonic backend.

The independent reference throughout is scipy's complex spherical
harmonics recombined into the real orthonormal basis (see oracles.py),
plus closed-form derivatives of low-degree zonal functions.
"""

import os
import re
from functools import partial

import numpy as np
import pytest

from oracles import real_harmonic
from triheat.radial import RadialGraphState
from triheat.spherical import (
    GridSpec,
    evaluate,
    read_coeffs_csv,
    transform_for,
    write_coeffs_csv,
    write_grid_csv,
)

L = 16
GRID = GridSpec.for_bandlimit(L)
TR = transform_for(GRID)
SQRT4PI = np.sqrt(4.0 * np.pi)


def grid_angles(grid):
    tr = transform_for(grid)
    return np.meshgrid(tr.theta, tr.phi, indexing="ij")


def harmonic_field(grid, l, m):
    """Sample the scipy-built real harmonic on the grid."""
    th, ph = grid_angles(grid)
    return real_harmonic(l, m, th, ph)


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


def gradient_sq(c):
    """Pointwise |grad u|^2 with respect to the round metric."""
    u_t, u_p = TR.gradient_values(c)
    return u_t**2 + (u_p / TR.sin_t[:, None]) ** 2


def laplacian(c, power=1):
    """Grid values of the round-sphere Laplacian applied power times."""
    return TR.synthesize(TR.laplacian_coeffs(c, power))


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
    with pytest.raises(ValueError, match="grid values or coefficients"):
        RadialGraphState(GRID)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("l,m", [(2, 0), (3, 1), (5, -4), (16, 16), (7, -7)])
def test_analyze_picks_out_single_harmonic(l, m):
    """Sampling one basis function must project onto exactly one slot."""
    c = TR.analyze(harmonic_field(GRID, l, m))
    assert abs(c[l, L + m] - 1.0) <= 1e-12
    c[l, L + m] = 0.0
    assert np.abs(c).max() <= 1e-12


def test_analyze_constant_normalization():
    c = TR.analyze(np.ones((GRID.nlat, GRID.nlon)))
    assert abs(c[0, L] - SQRT4PI) <= 1e-13
    rest = c.copy()
    rest[0, L] = 0.0
    assert np.abs(rest).max() <= 1e-12


def test_analyze_synthesize_analyze_fixed_point():
    values = TR.synthesize(random_coeffs(GRID, 11))
    first = TR.analyze(values)
    second = TR.analyze(TR.synthesize(first))
    assert np.abs(second - first).max() <= 1e-12


# ---------------------------------------------------------------------------
# synthesize
# ---------------------------------------------------------------------------


def test_synthesize_constant_from_degree_zero():
    c = np.zeros((L + 1, 2 * L + 1))
    c[0, L] = SQRT4PI
    v = TR.synthesize(c)
    assert np.abs(v - 1.0).max() <= 1e-13


def test_synthesize_degree_one_is_axial():
    """coeff(1,0) = 1 gives a multiple of cos(theta), positive at the north cap."""
    c = np.zeros((L + 1, 2 * L + 1))
    c[1, L] = 1.0
    v = TR.synthesize(c)
    expected = np.sqrt(3.0 / (4.0 * np.pi)) * np.cos(TR.theta)[:, None]
    assert np.abs(v - expected).max() <= 1e-13
    assert np.all(v[0, :] > 0.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_parseval(seed):
    c = random_coeffs(GRID, seed)
    f = TR.synthesize(c)
    total = (c**2).sum()
    assert abs(quadrature_of_square(f) - total) <= 1e-10 * total


def quadrature_of_square(f):
    return TR.quadrature(f**2)


# ---------------------------------------------------------------------------
# laplacian_coeffs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [-1, 0, 1])
def test_laplacian_degree_one_eigenvalue(m):
    f = harmonic_field(GRID, 1, m)
    lap = laplacian(TR.analyze(f), 1)
    assert np.abs(lap - (-2.0) * f).max() <= 1e-11


def test_laplacian_cubed_degree_two():
    """Three applications on degree 2 scale by (-6)^3 = -216."""
    c = np.zeros((L + 1, 2 * L + 1))
    c[2, L] = 1.0
    f = TR.synthesize(c)
    lap3 = laplacian(c, 3)
    assert np.abs(lap3 + 216.0 * f).max() <= 1e-12
    # the same input sampled from scipy carries analysis residue at the
    # rounding floor, which the sixth-order symbol amplifies by (L(L+1))^3
    sampled = harmonic_field(GRID, 2, 0)
    lap3s = laplacian(TR.analyze(sampled), 3)
    assert np.abs(lap3s + 216.0 * sampled).max() <= 1e-7


def test_laplacian_kills_constants():
    c = np.zeros((L + 1, 2 * L + 1))
    c[0, L] = SQRT4PI
    for p in (1, 2, 3):
        out = TR.laplacian_coeffs(c, p)
        assert np.all(TR.synthesize(out) == 0.0)
        assert np.all(out == 0.0)


def test_laplacian_coeffs_rejects_nonpositive():
    c = random_coeffs(GRID, 3)
    with pytest.raises(ValueError):
        TR.laplacian_coeffs(c, 0)
    with pytest.raises(ValueError):
        TR.laplacian_coeffs(c, -1)


# ---------------------------------------------------------------------------
# gradient_values
# ---------------------------------------------------------------------------


def test_gradient_sq_constant_is_exactly_zero():
    c = np.zeros((L + 1, 2 * L + 1))
    c[0, L] = 2.5
    g = gradient_sq(c)
    assert np.all(g == 0.0)


@pytest.mark.parametrize("seed", [4, 5])
def test_gradient_sq_integration_by_parts(seed):
    """int |grad u|^2 = -int u (lap u) on the round sphere."""
    c = random_coeffs(GRID, seed, decay=2.0)
    lhs = TR.quadrature(gradient_sq(c))
    rhs = -TR.quadrature(TR.synthesize(c) * laplacian(c, 1))
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_gradient_sq_zonal_cosine():
    vals = np.cos(TR.theta)[:, None] * np.ones((1, GRID.nlon))
    g = gradient_sq(TR.analyze(vals))
    expected = (np.sin(TR.theta) ** 2)[:, None]
    assert np.abs(g - expected).max() <= 1e-10


# ---------------------------------------------------------------------------
# derivative_values
# ---------------------------------------------------------------------------


def test_hessian_constant_is_exactly_zero():
    c = np.zeros((L + 1, 2 * L + 1))
    c[0, L] = -1.7
    h_tt, h_tp, h_pp = TR.derivative_values(c)[2:]
    for comp in (h_tt, h_tp, h_pp):
        assert np.all(comp == 0.0)


@pytest.mark.parametrize("seed", [6, 7])
def test_hessian_trace_is_laplacian(seed):
    """sigma^{ij} hess_ij u = lap u, the defining trace identity."""
    c = random_coeffs(GRID, seed, decay=2.0)
    h_tt, _, h_pp = TR.derivative_values(c)[2:]
    s2 = (TR.sin_t**2)[:, None]
    trace = h_tt + h_pp / s2
    lap = laplacian(c, 1)
    assert np.abs(trace - lap).max() <= 1e-9


def test_hessian_zonal_cosine_components():
    """For u = cos(theta): hess_tt = -cos, hess_pp = -cos sin^2, mixed = 0."""
    vals = np.cos(TR.theta)[:, None] * np.ones((1, GRID.nlon))
    h_tt, h_tp, h_pp = TR.derivative_values(TR.analyze(vals))[2:]
    ct = np.cos(TR.theta)[:, None]
    s2 = (TR.sin_t**2)[:, None]
    assert np.abs(h_tt + ct).max() <= 1e-10
    assert np.abs(h_tp).max() <= 1e-10
    assert np.abs(h_pp + ct * s2).max() <= 1e-10


@pytest.mark.parametrize("l, m", [(3, 2), (4, -3), (5, 5)])
def test_phi_derivatives_of_nonzonal_harmonics(l, m):
    """d/dphi Y_{l,m} = -m Y_{l,-m} for either sign of m, and d2/dphi2 Y = -m^2 Y.

    The second derivative is read off the Hessian through its Christoffel
    term: hess_pp = u_pp + sin cos u_theta.
    """
    th, ph = grid_angles(GRID)
    c = TR.analyze(harmonic_field(GRID, l, m))
    u_t, u_p = TR.gradient_values(c)
    h_pp = TR.derivative_values(c)[4]
    u_pp = h_pp - np.sin(th) * np.cos(th) * u_t
    assert np.abs(u_p + m * real_harmonic(l, -m, th, ph)).max() <= 1e-11
    assert np.abs(u_pp + m * m * real_harmonic(l, m, th, ph)).max() <= 1e-11


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def test_quadrature_constant_gives_sphere_area():
    v = np.ones((GRID.nlat, GRID.nlon))
    total = TR.quadrature(v)
    assert abs(total - 4.0 * np.pi) <= 1e-13 * 4.0 * np.pi


def test_quadrature_harmonic_has_zero_mean():
    f = harmonic_field(GRID, 2, 0)
    assert abs(TR.quadrature(f)) <= 1e-13


def test_quadrature_harmonic_square_normalized():
    f = harmonic_field(GRID, 3, 1)
    assert abs(quadrature_of_square(f) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# operator-level properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [8, 9, 10])
def test_round_trip_componentwise(seed):
    c = random_coeffs(GRID, seed)
    back = TR.analyze(TR.synthesize(c))
    assert np.abs(back - c).max() <= 1e-12


def test_laplacian_symmetry():
    cu = random_coeffs(GRID, 12, decay=1.0)
    cv = random_coeffs(GRID, 13, decay=1.0)
    lap_u = laplacian(cu, 1)
    lap_v = laplacian(cv, 1)
    a = TR.quadrature(TR.synthesize(cu) * lap_v)
    b = TR.quadrature(TR.synthesize(cv) * lap_u)
    assert abs(a - b) <= 1e-10 * max(abs(a), 1.0)


def test_laplacian_coeffs_composition_is_bitwise():
    c = random_coeffs(GRID, 14)
    direct = TR.laplacian_coeffs(c, 3)
    composed = TR.laplacian_coeffs(TR.laplacian_coeffs(c, 2), 1)
    assert np.array_equal(direct, composed)


def test_evaluate_matches_grid_synthesis():
    """Scattered-point evaluation at the grid nodes equals the grid transform."""
    c = random_coeffs(GRID, 15)
    f = TR.synthesize(c)
    th, ph = grid_angles(GRID)
    pts = evaluate(c, th.ravel(), ph.ravel())
    assert np.abs(pts - f.ravel()).max() <= 1e-11


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
    pts = evaluate(c, th, ph)
    assert np.abs(pts - ref).max() <= 1e-12


def test_evaluate_broadcasts_theta_against_phi():
    """One colatitude against many longitudes equals the call on equal
    shapes, either way round; shapes that do not broadcast are refused."""
    c = random_coeffs(GRID, 18)
    th, ph = np.array([0.1, 0.2, 0.3]), np.array([0.4, 1.5, 2.6])
    for a, b in ((0.3, ph), (th, 0.3), (th[:, None], ph[None, :])):
        want = evaluate(c, *(x.ravel() for x in np.broadcast_arrays(a, b)))
        got = evaluate(c, a, b)
        assert got.shape == np.broadcast_shapes(np.shape(a), np.shape(b))
        assert got.ravel().tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="do not broadcast"):
        evaluate(c, th, ph[:2])


# ---------------------------------------------------------------------------
# shape checks
# ---------------------------------------------------------------------------

VALUES_SHAPE = f"({GRID.nlat}, {GRID.nlon})"
COEFFS_SHAPE = f"({L + 1}, {2 * L + 1})"
BAD_VALUES = {
    "nlon+1": np.ones((GRID.nlat, GRID.nlon + 1)),
    "nlon-1": np.ones((GRID.nlat, GRID.nlon - 1)),
    "transposed": np.ones((GRID.nlon, GRID.nlat)),
}
BAD_COEFFS = {
    "L+2": np.zeros((L + 2, 2 * L + 3)),
    "2L": np.zeros((L + 1, 2 * L)),
    "flat": np.zeros((L + 1) * (2 * L + 1)),
}
# functions without a grid read the bandlimit from the row count, so a
# (L + 2, 2L + 3) array is a well-formed bandlimit-(L + 1) input there
BAD_GRIDLESS = {**BAD_COEFFS, "L+2": np.zeros((L + 2, 2 * L + 1))}


def _misshapen_cases():
    for name in ("analyze", "quadrature"):
        for label, v in BAD_VALUES.items():
            yield pytest.param(getattr(TR, name), v, VALUES_SHAPE, id=f"{name}-{label}")
    for name in ("synthesize", "gradient_values", "derivative_values", "laplacian_coeffs"):
        for label, c in BAD_COEFFS.items():
            yield pytest.param(getattr(TR, name), c, COEFFS_SHAPE, id=f"{name}-{label}")
    for power in (0, -1):
        call = partial(TR.laplacian_coeffs, power=power)
        coeffs = random_coeffs(GRID, 20)
        yield pytest.param(call, coeffs, "positive", id=f"laplacian_coeffs-power{power}")
    gridless = {
        "evaluate": lambda c: evaluate(c, [0.3, 2.0], [0.1, 4.0]),
        "write_coeffs_csv": lambda c: write_coeffs_csv(c, os.devnull),
    }
    for name, call in gridless.items():
        for label, c in BAD_GRIDLESS.items():
            n = len(c)
            yield pytest.param(call, c, f"({n}, {2 * n - 1})", id=f"{name}-{label}")


@pytest.mark.parametrize("call, array, expected", list(_misshapen_cases()))
def test_transform_rejects_misshapen_arrays(call, array, expected):
    with pytest.raises(ValueError, match=re.escape(expected)):
        call(array)


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------


def test_coeffs_csv_round_trip(tmp_path):
    c = random_coeffs(GRID, 17)
    path = tmp_path / "c.csv"
    write_coeffs_csv(c, path)
    grid, back = read_coeffs_csv(path, GRID)
    assert grid == GRID
    assert np.array_equal(back, c)


def test_coeffs_csv_header_and_order(tmp_path):
    path = tmp_path / "c.csv"
    write_coeffs_csv(random_coeffs(GRID, 18), path)
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


@pytest.mark.parametrize(
    "row", ["2,0", "2,0,0.01,7", "2,zero,0.01", "2,0,x"],
    ids=["short", "long", "non-numeric-order", "non-numeric-value"],
)
def test_read_coeffs_csv_names_the_line_and_layout_of_a_malformed_row(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"l,m,value\n0,0,3.5\n\n{row}\n")
    want = f"line 4: expected l,m,value with integers l and m, got '{row}'"
    with pytest.raises(ValueError) as got:
        read_coeffs_csv(path)
    assert str(got.value) == want


def test_grid_csv_layout(tmp_path):
    c = np.zeros((L + 1, 2 * L + 1))
    c[0, L] = SQRT4PI
    path = tmp_path / "g.csv"
    write_grid_csv(GRID, TR.synthesize(c), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "theta,phi,value"
    assert len(lines) == 1 + GRID.nlat * GRID.nlon
    theta, phi, value = (float(t) for t in lines[1].split(","))
    assert theta == TR.theta[0] and phi == 0.0
    assert abs(value - 1.0) <= 1e-13

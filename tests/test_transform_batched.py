"""The batched, parity-split Legendre sums against a per-order loop.

The transform keeps only the northern half of each Legendre table,
pairs order m with order L - m in one block of columns, and sums all
orders in one product per degree parity. The reference here loops over
the orders with full-height tables, as the sums are defined (oracles.py),
so the two meet only in the tables, which are checked against scipy's
harmonics elsewhere. The round-sphere Laplacian, formed from the spectra
of u and its theta-derivatives, is held against the eigenvalue sums.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from oracles import (
    analyze_by_order,
    derivative_values_by_order,
    laplacian_values_by_order,
    legendre_spectrum_by_order,
)
from triheat import flow, shapes
from triheat.spherical import GridSpec, _alf_tables, _Transform

TOL = 1e-13
# the Laplacian's spectrum adds terms up to m^2 / sin^2 times the field's
LAP_TOL = 1e-12


@hst.composite
def grids(draw):
    """Default grids (odd nlat for L = 5, 6, 9, 10) or any valid nlat, nlon."""
    L = draw(hst.integers(4, 12))
    if draw(hst.booleans()):
        return GridSpec.for_bandlimit(L)
    nlat = draw(hst.integers(L + 1, L + 8))
    return GridSpec(L, nlat, draw(hst.integers(2 * L + 1, 2 * L + 9)))


def random_coeffs(rng, L):
    c = rng.standard_normal((L + 1, 2 * L + 1))
    c[np.abs(np.arange(-L, L + 1)) > np.arange(L + 1)[:, None]] = 0.0
    return c


def assert_close(got, want, tol=TOL):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= tol * np.abs(want).max()


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(grid=grids(), seed=hst.integers(0, 2**32 - 1))
@example(grid=GridSpec.for_bandlimit(5), seed=1)  # nlat = 9
@example(grid=GridSpec(6, 13, 13), seed=2)  # odd nlat above need, odd nlon
@example(grid=GridSpec(8, 16, 19), seed=3)  # even nlat above need, odd nlon
def test_batched_sums_equal_the_per_order_loop(grid, seed):
    L = grid.bandlimit
    tr = _Transform(grid)
    tables = _alf_tables(L, tr.x)
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((L + 1, 2 * L + 1))
    c[np.abs(np.arange(-L, L + 1)) > np.arange(L + 1)[:, None]] = 0.0

    for got, table in zip(tr._spectra(c, 3), tables):
        assert_close(got, legendre_spectrum_by_order(table, c, grid.nlon))
    for got, want in zip(
        tr.derivative_values(c), derivative_values_by_order(tables, tr.x, c, grid.nlon)
    ):
        assert_close(got, want)
    values = rng.standard_normal((grid.nlat, grid.nlon))
    assert_close(tr.analyze(values), analyze_by_order(tables[0], tr.w, values))


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(grid=grids(), seed=hst.integers(0, 2**32 - 1))
@example(grid=GridSpec.for_bandlimit(5), seed=4)  # nlat = 9
@example(grid=GridSpec.for_bandlimit(8), seed=5)  # order 4 pairs with itself
@example(grid=GridSpec.for_bandlimit(64), seed=6)
@example(grid=GridSpec.for_bandlimit(128), seed=7)
def test_laplacian_from_the_spectra_equals_the_eigenvalue_sums(grid, seed):
    L, nlon = grid.bandlimit, grid.nlon
    tr = _Transform(grid)
    tables = _alf_tables(L, tr.x)
    rng = np.random.default_rng(seed)
    c = random_coeffs(rng, L)

    by_order = laplacian_values_by_order(tables[0], c, nlon)
    synthesized = tr.synthesize(tr.laplacian_coeffs(c))
    derivatives = tr.derivative_values(c, laplacian=True)
    gradient = tr.gradient_values(c, laplacian=True)
    assert len(derivatives) == 6 and len(gradient) == 3
    want = derivative_values_by_order(tables, tr.x, c, nlon)
    for got, w in zip((*derivatives[:5], *gradient[:2]), (*want, *want[:2])):
        assert_close(got, w)
    # asking for the Laplacian leaves the other fields' bits alone
    for got, want in zip(derivatives, tr.derivative_values(c)):
        assert np.array_equal(got, want)
    for got, want in zip(gradient, tr.gradient_values(c)):
        assert np.array_equal(got, want)
    for lap in (derivatives[5], gradient[2]):
        assert_close(lap, by_order, LAP_TOL)
        assert_close(lap, synthesized, LAP_TOL)


@pytest.mark.parametrize("L", [8, 9, 16, 17])
def test_each_order_of_a_paired_block_lands_in_its_own_column(L):
    # block p holds orders p and L - p; for even L, order L / 2 is alone
    grid = GridSpec.for_bandlimit(L)
    tr = _Transform(grid)
    tables = _alf_tables(L, tr.x)
    rng = np.random.default_rng(L)
    for m in range(L + 1):
        c = np.zeros((L + 1, 2 * L + 1))
        c[m:, L + m] = rng.standard_normal(L + 1 - m)
        if m > 0:
            c[m:, L - m] = rng.standard_normal(L + 1 - m)
        for got, table in zip(tr._spectra(c, 3), tables):
            assert_close(got, legendre_spectrum_by_order(table, c, grid.nlon))
            assert not np.any(np.delete(got, m, axis=1))
        values = tr.synthesize(c)
        spectrum = legendre_spectrum_by_order(tables[0], c, grid.nlon)
        assert_close(values, np.fft.irfft(spectrum, n=grid.nlon, axis=1))
        assert_close(tr.analyze(values), c)


def test_sphere_is_an_exact_fixed_point_on_an_odd_grid():
    grid = GridSpec.for_bandlimit(5)
    assert grid.nlat % 2 == 1
    s = shapes.sphere_state(grid, 1.3)
    out = flow.step_spectral(s, 1e-3)
    assert np.array_equal(out.coeffs, s.coeffs)

"""The batched, parity-split Legendre sums against a per-order loop.

The transform keeps only the northern half of each Legendre table and
sums all orders in one product per degree parity. The reference here
loops over the orders with full-height tables, as the sums are defined
(oracles.py), so the two meet only in the tables, which are checked
against scipy's harmonics elsewhere.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from oracles import (
    analyze_by_order,
    derivative_values_by_order,
    legendre_spectrum_by_order,
)
from triheat import flow, shapes
from triheat.spherical import GridSpec, _alf_tables, _Transform

TOL = 1e-13


@hst.composite
def grids(draw):
    """Default grids (odd nlat for L = 5, 6, 9, 10) or any valid nlat, nlon."""
    L = draw(hst.integers(4, 12))
    if draw(hst.booleans()):
        return GridSpec.for_bandlimit(L)
    nlat = draw(hst.integers(L + 1, L + 8))
    return GridSpec(L, nlat, draw(hst.integers(2 * L + 1, 2 * L + 9)))


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= TOL * np.abs(want).max()


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


def test_sphere_is_an_exact_fixed_point_on_an_odd_grid():
    grid = GridSpec.for_bandlimit(5)
    assert grid.nlat % 2 == 1
    s = shapes.sphere_state(grid, 1.3)
    out = flow.step_spectral(s, 1e-3)
    assert np.array_equal(out.coeffs, s.coeffs)

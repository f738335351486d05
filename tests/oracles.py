"""Independent reference values used across the test suite.

Everything here is computed from closed forms or from scipy, never from
the package under test, so agreement is evidence rather than tautology.
The per-order transform loops take their Legendre tables from the
caller and check only how the sums over degrees and orders are taken.
The one exception, ``ring_ball_sums``, runs the package's exact
ring-window kernel over every node, the exhaustive side that the
concentration tests hold its bounds and its maximum against.
"""

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import sph_harm_y


def real_harmonic(l, m, theta, phi):
    """Real orthonormal spherical harmonic built from scipy's complex ones.

    Convention: m > 0 pairs with cos(m phi), m < 0 with sin(|m| phi),
    both carrying a sqrt(2) so the basis stays unit-norm in L^2 of the
    sphere. The Condon-Shortley phase of the complex harmonics is kept.
    """
    if m == 0:
        return sph_harm_y(l, 0, theta, phi).real
    if m > 0:
        return np.sqrt(2.0) * sph_harm_y(l, m, theta, phi).real
    return np.sqrt(2.0) * sph_harm_y(l, -m, theta, phi).imag


def ellipsoid_curvatures(points, semiaxes):
    """Mean and Gauss curvature of x^2/a^2 + y^2/b^2 + z^2/c^2 = 1.

    points has shape (..., 3) and must lie on the ellipsoid. The sign
    convention makes a round sphere of radius R come out at H = 2/R.
    """
    a, b, c = semiaxes
    x, y, z = points[..., 0], points[..., 1], points[..., 2]
    w2 = x**2 / a**4 + y**2 / b**4 + z**2 / c**4
    w = np.sqrt(w2)
    trace = 1.0 / a**2 + 1.0 / b**2 + 1.0 / c**2
    s6 = x**2 / a**6 + y**2 / b**6 + z**2 / c**6
    H = (w2 * trace - s6) / w**3
    K = 1.0 / ((a * b * c) ** 2 * w2**2)
    return H, K


def spherical_cap_area(chord_radius):
    """Area of the unit-sphere cap cut out by a Euclidean ball.

    A ball of radius r centered on the surface meets the sphere in a cap
    of opening angle 2 arcsin(r / 2).
    """
    return 2.0 * np.pi * (1.0 - np.cos(2.0 * np.arcsin(chord_radius / 2.0)))


def legendre_spectrum_by_order(table, coeffs, nlon):
    """Row-wise rfft spectrum of real-basis coefficients, one order at a time.

    table[m] has shape (nlat, L - m + 1) with columns l = m .. L and
    holds Q_l^m or one of its theta-derivatives at every grid row.
    """
    L = len(table) - 1
    S = np.zeros((table[0].shape[0], nlon // 2 + 1), dtype=complex)
    S[:, 0] = nlon * (table[0] @ coeffs[:, L])
    for m in range(1, L + 1):
        pair = coeffs[m:, L + m] - 1j * coeffs[m:, L - m]
        S[:, m] = (nlon / 2.0) * np.sqrt(2.0) * (table[m] @ pair)
    return S


def analyze_by_order(Q, weights, values):
    """Gauss-Legendre projection of grid values, one order at a time."""
    L = len(Q) - 1
    nlon = values.shape[1]
    F = np.fft.rfft(values, axis=1)
    c = np.zeros((L + 1, 2 * L + 1))
    fac = 2.0 * np.pi / nlon
    for m in range(L + 1):
        proj = Q[m].T @ (weights * F[:, m])
        if m == 0:
            c[:, L] = fac * proj.real
        else:
            c[m:, L + m] = np.sqrt(2.0) * fac * proj.real
            c[m:, L - m] = -np.sqrt(2.0) * fac * proj.imag
    return c


def derivative_values_by_order(tables, x, coeffs, nlon):
    """(u_theta, u_phi, h_theta-theta, h_theta-phi, h_phi-phi) on the grid.

    tables are the per-order (Q, dQ, d2Q) at the nodes x = cos theta; the
    Hessian carries the round-sphere Christoffel terms.
    """
    S, S_t, S_tt = (legendre_spectrum_by_order(t, coeffs, nlon) for t in tables)
    im = 1j * np.arange(nlon // 2 + 1)
    s = np.sqrt(1.0 - x * x)[:, None]
    x = x[:, None]

    def values(spectrum):
        return np.fft.irfft(spectrum, n=nlon, axis=1)

    u_t = values(S_t)
    u_p = values(im * S)
    h_tp = values(im * S_t) - (x / s) * u_p
    h_pp = values(im * im * S) + s * x * u_t
    return u_t, u_p, values(S_tt), h_tp, h_pp


def tree_ball_max(points, centers, density, radius):
    """Largest sum of density over the balls of the radius about the
    centers, each ball listed by scipy's kd-tree."""
    balls = cKDTree(points).query_ball_point(centers, radius)
    return max(density[ball].sum() for ball in balls)


def dense_ball_sums(points, centers, density, radius, block=256):
    """Sum of density over the ball of the radius about every center.

    Every center is tested against every point, a block of centers at a
    time, by ((c - x) ** 2).sum() <= radius ** 2 with the coordinates
    added in order x, y, z.
    """
    r2 = radius * radius
    out = np.empty(len(centers))
    for start in range(0, len(centers), block):
        c = centers[start : start + block]
        d2 = (c[:, None, 0] - points[None, :, 0]) ** 2
        d2 += (c[:, None, 1] - points[None, :, 1]) ** 2
        d2 += (c[:, None, 2] - points[None, :, 2]) ** 2
        out[start : start + block] = np.where(d2 <= r2, density, 0.0).sum(axis=1)
    return out


def ring_ball_sums(grid, rho, pts, density, radius):
    """Sum of density over the ball of the radius about every grid node.

    Settles every node with ``radial._RingBalls``, a chunk of rings at a
    time; a node's sum does not depend on which nodes share its chunk.
    """
    from triheat import radial

    balls = radial._RingBalls(grid, rho, pts, density, radius)
    step = radial._RING_BLOCK * grid.nlon
    nodes = np.arange(rho.size)
    return np.concatenate([balls.settle(nodes[a : a + step]) for a in nodes[::step]])

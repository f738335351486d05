"""Correctness checks made apart from triheat, run outside the timed region.

Each check compares an output of the program with a computation done
here in plain numpy/scipy, or with a property the flow must have. None
compares against a stored copy of an earlier output. Every function
returns a list of failure messages; an empty list means the check held.
"""

from __future__ import annotations

import numpy as np

from workloads import gauss_grid, real_harmonic, radius_from_modes

FOURPI = 4.0 * np.pi
# identities that hold to rounding in the program's float64 arithmetic
ROUNDING = 1e-10
# the concentration radius flow.run and compute_record use by default
ALPHA_RADIUS = 0.25


def initial_volume(modes, lmax: int) -> float:
    """V0 = int rho^3 / 3 d sigma by scipy Gauss-Legendre quadrature.

    rho^3 has degree at most 3 lmax, which this grid integrates exactly.
    """
    n = 3 * lmax // 2 + 2
    theta, phi, weights = gauss_grid(n, 2 * n)
    rho = radius_from_modes(modes, theta, phi)
    return float(np.sum(weights * rho**3) / 3.0)


def limiting_radius(volume: float) -> float:
    return (3.0 * volume / FOURPI) ** (1.0 / 3.0)


def radius_values(coeffs, theta, phi):
    """Evaluate rho from triheat's (L + 1, 2L + 1) coefficient layout."""
    L = coeffs.shape[0] - 1
    rho = np.zeros(np.broadcast(theta, phi).shape)
    for l in range(L + 1):
        for m in range(-l, l + 1):
            c = coeffs[l, L + m]
            if c != 0.0:
                rho = rho + c * real_harmonic(l, m, theta, phi)
    return rho


def max_ball_sum_dense(points, centers, density, radius, chunk=256) -> float:
    """Largest density mass within a Euclidean ball, by brute force.

    Every center is measured against every point whose z lies within the
    radius of the chunk's z range; the others are outside the ball.
    """
    order = np.argsort(points[:, 2])
    points, density = points[order], density[order]
    centers = centers[np.argsort(centers[:, 2])]
    best = -np.inf
    r2 = radius * radius
    for i in range(0, len(centers), chunk):
        c = centers[i : i + chunk]
        lo, hi = np.searchsorted(points[:, 2], [c[0, 2] - radius, c[-1, 2] + radius])
        p = points[lo : hi + 1]
        d2 = (c[:, 0:1] - p[:, 0]) ** 2
        d2 += (c[:, 1:2] - p[:, 1]) ** 2
        d2 += (c[:, 2:3] - p[:, 2]) ** 2
        sums = np.where(d2 <= r2, density[lo : hi + 1], 0.0).sum(axis=1)
        best = max(best, float(sums.max()))
    return best


def check_volume(volume, v0: float, spectral: bool) -> list:
    """The first record's volume against V0 from the input modes.

    A spectral state holds the same bandlimited surface, so the two agree
    to rounding. A mesh inscribed in the smooth surface encloses less,
    by a relative amount of order h^2, under 1e-3 at 20480 faces.
    """
    rel = (v0 - volume) / v0
    if spectral and abs(rel) > 1e-12:
        return [f"initial volume {volume!r} differs from V0 {v0!r}"]
    if not spectral and not 0.0 < rel < 1e-3:
        return [f"mesh volume {volume!r} is not just inside V0 {v0!r}"]
    return []


def check_records(records, spectral: bool) -> list:
    """Gauss-Bonnet, Willmore >= 4 pi and area decay on every record;
    on spectral states also ao2 = 2 willmore - 2 int_gauss."""
    bad = []
    for i, r in enumerate(records):
        if abs(r.int_gauss - FOURPI) > ROUNDING * FOURPI:
            bad.append(f"record {i}: int_gauss - 4 pi = {r.int_gauss - FOURPI:.3g}")
        if r.willmore < FOURPI * (1.0 - ROUNDING):
            bad.append(f"record {i}: willmore {r.willmore!r} below 4 pi")
        if spectral:
            gap = r.ao2 - (2.0 * r.willmore - 2.0 * r.int_gauss)
            if abs(gap) > ROUNDING * FOURPI:
                bad.append(f"record {i}: ao2 - 2 W + 2 int_gauss = {gap:.3g}")
    for i in range(len(records) - 1):
        a, b = records[i].area, records[i + 1].area
        if b > a * (1.0 + ROUNDING):
            bad.append(f"area grows between records {i} and {i + 1}: {a!r} -> {b!r}")
    return bad


def check_alpha_spectral(triheat, state, alpha, radius=ALPHA_RADIUS) -> list:
    pts, wts = triheat.radial.node_cloud(state)
    dens = triheat.radial.curvature_bundle(state).norm_a_sq.ravel() * wts
    return _compare_alpha(max_ball_sum_dense(pts, pts, dens, radius), alpha)


def check_alpha_mesh(triheat, m, alpha, radius=ALPHA_RADIUS) -> list:
    """Brute force over the vertices and each distinct edge midpoint."""
    mesh = triheat.mesh
    H = mesh.mean_curvature(m)
    ao2, _ = mesh.tracefree_norm_sq(m)
    _, M = mesh.build_operators(m)
    dens = (ao2 + 0.5 * H * H) * M
    f = m.faces
    edges = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
    edges = np.unique(np.sort(edges, axis=1), axis=0)
    v = m.vertices
    centers = np.concatenate([v, 0.5 * (v[edges[:, 0]] + v[edges[:, 1]])])
    return _compare_alpha(max_ball_sum_dense(v, centers, dens, radius), alpha)


def _compare_alpha(dense, alpha) -> list:
    if abs(dense - alpha) > 1e-12 * abs(dense):
        return [f"alpha {alpha!r} differs from the dense ball sum {dense!r}"]
    return []


def check_converged(traj, v0: float, lmax: int) -> list:
    """Limit radius within 1e-6 of (3 V0 / 4 pi)^(1/3); the l = 2 norm
    decays within 3% of -(l+2)(l+1)^2 l^2 (l-1) / r^6."""
    bad = []
    if traj.stop_reason != "converged":
        return [f"stop reason {traj.stop_reason!r}, expected 'converged'"]
    r_inf = limiting_radius(v0)
    theta, phi, _ = gauss_grid(lmax + 8, 2 * lmax + 16)
    rho = radius_values(traj.final_state.coeffs, theta, phi)
    dev = float(np.abs(rho - r_inf).max())
    if dev >= 1e-6:
        bad.append(f"final radius deviates {dev:.3g} from the limit {r_inf!r}")
    l, L = 2, lmax
    t = np.array([e.time for e in traj.entries])
    amp = np.array(
        [np.linalg.norm(e.state.coeffs[l, L - l : L + l + 1]) for e in traj.entries]
    )
    tail = slice(len(t) // 2, None)
    rate = np.polyfit(t[tail], np.log(amp[tail]), 1)[0]
    expect = -(l + 2) * (l + 1) ** 2 * l**2 * (l - 1) / r_inf**6
    if abs(rate / expect - 1.0) > 0.03:
        bad.append(f"fitted l=2 rate {rate:.6g}, linearized rate {expect:.6g}")
    return bad


def check_replay(in_run, replayed) -> list:
    """A record of a fresh copy equals the record the run made."""
    a, b = np.array(in_run.as_tuple()), np.array(replayed.as_tuple())
    if not np.allclose(a, b, rtol=1e-12, atol=0.0):
        return [f"replayed record at t={in_run.time!r} differs from the run's"]
    return []

"""Geometry of star-shaped surfaces written as radial graphs.

A closed surface star-shaped about the origin is parameterized over the
unit sphere as f(p) = rho(p) p with rho > 0.  Conventions: the normal nu
points outward, the second fundamental form is A_ij = -<d_ij f, nu>, and
the mean curvature is the trace H = g^{ij} A_ij, so a round sphere of
radius R has H = 2 / R and Gauss curvature 1 / R^2.

All fields live on the Gauss-Legendre grid of the state; rho itself is
the bandlimited synthesis of the stored coefficients.  Intermediate
smooth fields are re-expanded about a reference value before spectral
differentiation, and constants are removed from Laplacian inputs up
front.  Without this the sixth-order operator chain amplifies rounding
noise roughly like bandlimit^6; with it, round spheres sit in the kernel
of every operator here to the last bit.

Each state caches its fields on first use. A flow step reads only the
metric part (``_geometry``): rho, its sphere gradient and Hessian,
lap_rho, Phi, sqrt(Phi) and the area density, which the quotient-route
mean curvature and the divergence-form Laplacian are built from. The
inverse metric and the shape operator (H, K, |A|^2, |A*|^2) wait for a
record: ``curvature_bundle`` and ``gradient_norm_sq`` add them to the
cache through ``_shape``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spherical import GridSpec, _check_coeffs, transform_for

__all__ = [
    "ChartError",
    "RadialGraphState",
    "CurvatureBundle",
    "phi_factor",
    "mean_curvature",
    "curvature_bundle",
    "area",
    "volume",
    "integrate",
    "induced_laplacian",
    "laplacian_chain",
    "flow_speed",
    "rho_velocity",
    "gradient_norm_sq",
    "node_cloud",
    "concentration",
]

_SQRT4PI = np.sqrt(4.0 * np.pi)

# Center rings per block of the ring-window bounds: a block's temporaries
# hold a window row of nlon values per (center ring, kept point ring) pair.
_RING_BLOCK = 8

# Zone decisions stay this fraction of rho_max^2 away from r^2, about
# 4500 ulps and far beyond the rounding of either distance, so a node
# whose membership rounding could decide is always tested directly.
_MARGIN = 1e-12


class ChartError(ValueError):
    """The radius is not finite and positive: the surface has left the chart."""


class RadialGraphState:
    """A star-shaped surface rho(p) p together with its flow time.

    Parameters
    ----------
    grid : GridSpec
        Transform resolution for the radius field.
    coeffs : array, optional
        Harmonic coefficients of rho, shape (L + 1, 2L + 1).
    values : array, optional
        Grid samples of rho; they are projected onto the bandlimit, so
        the stored surface is always exactly bandlimited.
    time : float
        Flow time carried along by the integrator.

    Raises
    ------
    ChartError
        If the synthesized radius is not finite and strictly positive,
        i.e. the surface has left the star-shaped chart.
    """

    __slots__ = ("grid", "coeffs", "values", "time", "_geo")

    def __init__(self, grid: GridSpec, coeffs=None, values=None, time: float = 0.0):
        if values is None and coeffs is None:
            raise ValueError("field needs grid values or coefficients")
        tr = transform_for(grid)
        if coeffs is None:
            coeffs = tr.analyze(np.asarray(values, dtype=float))
        coeffs = np.asarray(coeffs, dtype=float)
        values = tr.synthesize(coeffs)
        if not np.all(np.isfinite(values)):
            raise ChartError(
                "radius field contains non-finite values; the surface has "
                "left the star-shaped chart"
            )
        rmin = float(values.min())
        if rmin <= 0.0:
            raise ChartError(
                f"radius reaches {rmin:.6g}; the surface has left the "
                "star-shaped chart"
            )
        self.grid = grid
        self.coeffs = coeffs
        self.values = values
        self.time = float(time)
        self._geo = None

    def forget_fields(self) -> None:
        """Drop the cached metric and shape fields; the next query rebuilds
        them from the coefficients, to the same bits."""
        self._geo = None

    def mean_radius(self) -> float:
        """Degree-zero radius, (4 pi)^{-1/2} c_00."""
        L = self.grid.bandlimit
        return float(self.coeffs[0, L] / _SQRT4PI)

    def __repr__(self):
        return (
            f"RadialGraphState(L={self.grid.bandlimit}, "
            f"rbar={self.mean_radius():.6g}, t={self.time:.6g})"
        )


@dataclass(frozen=True)
class CurvatureBundle:
    """Pointwise curvature data on the grid of a radial graph.

    Attributes
    ----------
    mean : ndarray
        Mean curvature H (trace of the shape operator).
    gauss : ndarray
        Gauss curvature, det of the shape operator.
    norm_a_sq : ndarray
        |A|^2, squared Frobenius norm of the second fundamental form.
    norm_ao_sq : ndarray
        |A*|^2 for the tracefree part A* = A - (H/2) g, assembled
        componentwise rather than as |A|^2 - H^2/2 so that the value
        decays to rounding level instead of cancelling catastrophically
        on nearly round surfaces.
    measure : ndarray
        Area density d mu / d sigma = rho sqrt(Phi).
    phi : ndarray
        The graph factor Phi = rho^2 + |grad rho|^2.
    """

    mean: np.ndarray
    gauss: np.ndarray
    norm_a_sq: np.ndarray
    norm_ao_sq: np.ndarray
    measure: np.ndarray
    phi: np.ndarray


def _geometry(state: RadialGraphState) -> dict:
    """The metric fields of a state, cached in ``state._geo``.

    These are what a flow step reads: rho with its sphere gradient and
    round-sphere Hessian, lap_rho, the graph factor Phi, sqrt(Phi) and
    the area density J = rho sqrt(Phi). The shape operator waits for a
    record (see ``_shape``).
    """
    if state._geo is not None:
        return state._geo
    tr = transform_for(state.grid)
    c = state.coeffs
    rho = state.values
    r_t, r_p, h_tt, h_tp, h_pp, lap_rho = tr.derivative_values(c, laplacian=True)
    S = tr.sin_t[:, None]
    Phi = rho * rho + r_t * r_t + (r_p / S) ** 2
    sqPhi = np.sqrt(Phi)
    state._geo = {
        "rho": rho,
        "r_t": r_t,
        "r_p": r_p,
        "h_tt": h_tt,
        "h_tp": h_tp,
        "h_pp": h_pp,
        "lap_rho": lap_rho,
        "Phi": Phi,
        "sqPhi": sqPhi,
        "J": rho * sqPhi,
    }
    return state._geo


def _shape(state: RadialGraphState) -> dict:
    """The metric fields plus the inverse metric and the shape operator.

    Adds g^{ij}, H, K, |A|^2 and |A*|^2 to ``state._geo`` on first use;
    records read them, steps do not.
    """
    geo = _geometry(state)
    if "H" in geo:
        return geo
    tr = transform_for(state.grid)
    rho, r_t, r_p = geo["rho"], geo["r_t"], geo["r_p"]
    h_tt, h_tp, h_pp = geo["h_tt"], geo["h_tp"], geo["h_pp"]
    Phi, sqPhi = geo["Phi"], geo["sqPhi"]
    S = tr.sin_t[:, None]
    S2 = S * S
    A_tt = -(rho * h_tt - 2.0 * r_t * r_t - rho * rho) / sqPhi
    A_tp = -(rho * h_tp - 2.0 * r_t * r_p) / sqPhi
    A_pp = -(rho * h_pp - 2.0 * r_p * r_p - rho * rho * S2) / sqPhi

    # inverse metric via g^{ij} = rho^{-2} (sigma^{ij} - Phi^{-1} grad^i rho grad^j rho)
    gt = r_t
    gp = r_p / S2
    ir2 = 1.0 / (rho * rho)
    gi_tt = ir2 * (1.0 - gt * gt / Phi)
    gi_tp = ir2 * (-gt * gp / Phi)
    gi_pp = ir2 * (1.0 / S2 - gp * gp / Phi)

    Wtt = gi_tt * A_tt + gi_tp * A_tp
    Wtp = gi_tt * A_tp + gi_tp * A_pp
    Wpt = gi_tp * A_tt + gi_pp * A_tp
    Wpp = gi_tp * A_tp + gi_pp * A_pp

    H = Wtt + Wpp
    K = Wtt * Wpp - Wtp * Wpt
    normA2 = Wtt * Wtt + 2.0 * Wtp * Wpt + Wpp * Wpp
    # g^{-1} A* = W - (H/2) I, whose squared norm is (k1 - k2)^2 / 2; taken
    # componentwise, not as |A|^2 - H^2/2, which cancels near round spheres
    normAo2 = 0.5 * (Wtt - Wpp) ** 2 + 2.0 * Wtp * Wpt

    geo.update(
        gi_tt=gi_tt,
        gi_tp=gi_tp,
        gi_pp=gi_pp,
        H=H,
        K=K,
        normA2=normA2,
        normAo2=normAo2,
    )
    return geo


def phi_factor(state: RadialGraphState) -> np.ndarray:
    """Phi = rho^2 + |grad rho|^2 on the grid."""
    return _geometry(state)["Phi"]


def curvature_bundle(state: RadialGraphState) -> CurvatureBundle:
    """All pointwise curvature fields of the graph, from the shape operator."""
    geo = _shape(state)
    return CurvatureBundle(
        mean=geo["H"],
        gauss=geo["K"],
        norm_a_sq=geo["normA2"],
        norm_ao_sq=geo["normAo2"],
        measure=geo["J"],
        phi=geo["Phi"],
    )


def mean_curvature(state: RadialGraphState) -> np.ndarray:
    """Mean curvature by the direct graph formula.

    This is the quotient expression in rho and its sphere derivatives.
    It agrees with ``curvature_bundle(state).mean`` up to resolution
    error and serves as an independent route for cross-checks.
    """
    geo = _geometry(state)
    tr = transform_for(state.grid)
    S2 = (tr.sin_t[:, None]) ** 2
    rho = geo["rho"]
    Phi = geo["Phi"]
    sqPhi = geo["sqPhi"]
    gp = geo["r_p"] / S2
    hess_pair = (
        geo["r_t"] * geo["r_t"] * geo["h_tt"]
        + 2.0 * geo["r_t"] * gp * geo["h_tp"]
        + gp * gp * geo["h_pp"]
    )
    grad2 = geo["r_t"] ** 2 + geo["r_p"] ** 2 / S2
    return (
        -geo["lap_rho"] / (rho * sqPhi)
        + hess_pair / (rho * Phi * sqPhi)
        + 2.0 / sqPhi
        + grad2 / (Phi * sqPhi)
    )


def integrate(state: RadialGraphState, values: np.ndarray) -> float:
    """Surface integral of a grid field against the induced area measure."""
    geo = _geometry(state)
    tr = transform_for(state.grid)
    return tr.quadrature(values * geo["J"])


def area(state: RadialGraphState) -> float:
    """Surface area, int rho sqrt(Phi) d sigma."""
    geo = _geometry(state)
    return transform_for(state.grid).quadrature(geo["J"])


def volume(state: RadialGraphState) -> float:
    """Enclosed volume, int rho^3 / 3 d sigma."""
    tr = transform_for(state.grid)
    return tr.quadrature(state.values**3) / 3.0


def _lap_from_coeffs(state: RadialGraphState, coeffs: np.ndarray) -> np.ndarray:
    geo = _geometry(state)
    tr = transform_for(state.grid)
    L = state.grid.bandlimit
    S2 = (tr.sin_t[:, None]) ** 2

    cu = np.array(coeffs, dtype=float)
    cu[0, L] = 0.0  # constants lie in the kernel; enforce that exactly
    u_t, u_p, lap_u = tr.gradient_values(cu, laplacian=True)

    if "a" not in geo:  # sqrt(Phi)/rho and its gradient, the same on every call
        a = geo["sqPhi"] / geo["rho"]
        geo["a"] = (a, *tr.gradient_values(tr.analyze(a - a.flat[0])))
    a, a_t, a_p = geo["a"]

    # the terms go through one buffer and are added left to right as in
    # the formulas below: another order would change the last bits, which
    # the golden records pin
    t = np.empty_like(u_t)

    def term(x, y, over_s2=False):
        np.multiply(x, y, out=t)
        if over_s2:
            np.divide(t, S2, out=t)
        return t

    # cfun = (r_t u_t + r_p u_p / S2) / (rho sqPhi)
    cfun = geo["r_t"] * u_t
    cfun += term(geo["r_p"], u_p, True)
    cfun /= term(geo["rho"], geo["sqPhi"])
    cc = tr.analyze(np.subtract(cfun, cfun.flat[0], out=t))
    c_t, c_p = tr.gradient_values(cc)

    # a lap_u + a_t u_t + a_p u_p / S2 - cfun lap_rho - c_t r_t - c_p r_p / S2
    num = a * lap_u
    num += term(a_t, u_t)
    num += term(a_p, u_p, True)
    num -= term(cfun, geo["lap_rho"])
    num -= term(c_t, geo["r_t"])
    num -= term(c_p, geo["r_p"], True)
    num /= geo["J"]
    return num


def induced_laplacian(state: RadialGraphState, coeffs) -> np.ndarray:
    """Laplace-Beltrami operator of the surface metric applied to a scalar.

    Takes the scalar's coefficients and returns grid values. Uses the
    divergence form, so the result integrates to zero against the area
    measure up to quadrature exactness, and constants map to exact zero
    at every bandlimit.
    """
    _check_coeffs(coeffs, state.grid.bandlimit)
    return _lap_from_coeffs(state, coeffs)


def laplacian_chain(state: RadialGraphState):
    """Mean curvature with its first and second surface Laplacians.

    Returns
    -------
    (H, lap_H, lap2_H) : tuple of ndarray
        Grid values of H, Delta H and Delta^2 H in the induced metric.
    """
    geo = _geometry(state)
    if "chain" in geo:
        return geo["chain"]
    tr = transform_for(state.grid)
    # the quotient-route H is exactly constant on round spheres, which the
    # shape-operator trace is not at rounding level; the chain needs that
    H = mean_curvature(state)
    # constants lie in the Laplacian's kernel, and _lap_from_coeffs zeroes
    # the mean coefficient, so only the variation is analyzed
    w1 = _lap_from_coeffs(state, tr.analyze(H - H.flat[0]))
    w2 = _lap_from_coeffs(state, tr.analyze(w1 - w1.flat[0]))
    # the chain is cached, so the shared fields would only hold memory
    del geo["a"]
    geo["chain"] = (H, w1, w2)
    return geo["chain"]


def flow_speed(state: RadialGraphState) -> np.ndarray:
    """Normal speed magnitude Delta^2 H on the grid.

    The surface moves by -(Delta^2 H) nu, so positive values push the
    surface inward along the outward normal.
    """
    return laplacian_chain(state)[2]


def rho_velocity(state: RadialGraphState) -> np.ndarray:
    """Time derivative of the radius field under the flow.

    The normal velocity -(Delta^2 H) nu projects onto the radial
    direction with factor <p, nu> = rho / sqrt(Phi), giving
    rho_t = -(sqrt(Phi) / rho) Delta^2 H.
    """
    geo = _geometry(state)
    return -(geo["sqPhi"] / geo["rho"]) * flow_speed(state)


def gradient_norm_sq(state: RadialGraphState, coeffs) -> np.ndarray:
    """Pointwise |grad u|^2 in the induced metric, g^{ij} d_i u d_j u."""
    L = state.grid.bandlimit
    _check_coeffs(coeffs, L)
    geo = _shape(state)
    tr = transform_for(state.grid)
    cu = np.array(coeffs, dtype=float)
    cu[0, L] = 0.0
    u_t, u_p = tr.gradient_values(cu)
    return (
        geo["gi_tt"] * u_t * u_t
        + 2.0 * geo["gi_tp"] * u_t * u_p
        + geo["gi_pp"] * u_p * u_p
    )


def node_cloud(state: RadialGraphState):
    """Embedded grid nodes with their area weights.

    Returns
    -------
    points : ndarray, shape (nlat * nlon, 3)
        Positions rho(p) p of the grid nodes in space.
    weights : ndarray, shape (nlat * nlon,)
        Quadrature weight times area density per node, so that
        ``weights @ f.ravel()`` integrates a grid field over the surface.
    """
    xyz, weights = _nodes(state)
    return xyz.T.copy(), weights


def _nodes(state: RadialGraphState):
    """The embedded grid nodes as x, y and z rows, shape (3, nlat * nlon),
    and their weights: ``node_cloud``'s points are these rows transposed."""
    tr = transform_for(state.grid)
    rho = state.values
    st = tr.sin_t[:, None]
    ct = np.cos(tr.theta)[:, None]
    xyz = np.stack([rho * st * np.cos(tr.phi), rho * st * np.sin(tr.phi), rho * ct])
    weights = tr.area_weights[:, None] * _geometry(state)["J"]
    return xyz.reshape(3, -1), weights.ravel()


def concentration(state: RadialGraphState, radius: float) -> float:
    """Curvature concentration sup_x int_{B(x, r)} |A|^2 d mu over the nodes.

    Centers and points are the embedded grid nodes of ``node_cloud``,
    which carry |A|^2 times their area weight; the ball is Euclidean.
    The maximum is exact and found in two stages (see ``_RingBalls``):

    - bound: every node gets a cheap upper bound on its ball sum, from
      one window width per pair of latitude rings;
    - settle: exact ball sums are taken in decreasing order of the
      bound, one ring's worth of centers at a time, and stop once no
      bound left can reach the best sum.

    At L=64 and r=0.25, 342 to 806 of the 19208 nodes are settled on the
    rotations of seeds 1 to 20 of the three-mode benchmark state, 368 on
    the state itself and 392 on a round sphere, in chunks of 196 centers:
    the same counts as chunks of eight rings' worth, since the best sum
    is found in the first ring's worth on these states. The radius must
    be positive (infinity is allowed); a ball that reaches across the
    bounding box of the nodes returns the total.
    """
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    xyz, density = _nodes(state)
    density *= curvature_bundle(state).norm_a_sq.ravel()
    if radius >= np.linalg.norm(xyz.max(axis=1) - xyz.min(axis=1)):
        return float(density.sum())
    return _RingBalls(state.grid, state.values, xyz.T, density, radius).max()[0]


class _RingBalls:
    """Ball sums of a density over the nodes of a grid, ring by ring.

    ``pts`` are the nodes rho(p) p, flattened as in ``node_cloud``; rho
    may be any positive grid field. Latitude ring b holds nlon nodes at
    phi_k = 2 pi k / nlon, so a node offset by d along ring b lies at
    the angle with cosine ct_a ct_b + st_a st_b cos(2 pi d / nlon) from
    a center on ring a, and its distance grows with |d| for any radius
    in ring b's range [lo_b, hi_b]. For each center and each point ring
    that can reach the ball (a row), the offsets split into three zones:

    - inside, |d| <= d_in: in the ball for every radius in [lo_b, hi_b];
      one difference of cyclic prefix sums adds the whole window;
    - band, d_in < |d| <= d_out: each node is tested with the squared
      coordinate differences a brute-force ball sum uses;
    - outside, |d| > d_out: out of the ball for every such radius.

    d_in and d_out come from a cos(2 pi d / nlon) table by searchsorted;
    both zone tests keep a margin scaled to rho_max^2. A center's sum
    adds its rows in ring order, so it is the same bits whichever
    centers share its chunk. ``max`` settles one ring's worth of centers
    (nlon) at a time, ``bounds`` takes ``_RING_BLOCK`` center rings at a
    time, and band nodes go in spans of about as many nodes as a chunk
    has rows, so memory stays bounded at any bandlimit and radius.

    The upper bounds replace the radius of the center by its ring's
    range: d_out <= D_ab for every center on ring a, where D_ab is the
    reach of the least cosine threshold over [lo_a, hi_a] x [lo_b, hi_b].
    A center's bound sums max(density, 0) over |d| <= D_ab on each
    ring b, so it holds for signed densities too.
    """

    def __init__(self, grid: GridSpec, rho, pts, density, radius: float):
        tr = transform_for(grid)
        nlat, n = grid.nlat, grid.nlon
        rho = rho.reshape(nlat, n)
        self.n = n
        self.rho = rho.ravel()
        self.w = density.ravel()
        # rows of the (N, 3) points: views, contiguous when pts is itself
        # the transpose of (3, N) rows, as concentration passes them
        self.x, self.y, self.z = pts.T
        self.r2 = radius * radius
        self.margin = _MARGIN * float(rho.max()) ** 2
        self.lo, self.hi = rho.min(axis=1), rho.max(axis=1)
        st, ct = tr.sin_t, np.cos(tr.theta)
        # |x - y|^2 >= 4 rho rho' sin^2(dtheta / 2) rules out whole ring pairs
        half_dth = 0.5 * (tr.theta[:, None] - tr.theta[None, :])
        keep = 4.0 * np.outer(self.lo, self.lo) * np.sin(half_dth) ** 2
        keep = keep <= self.r2 + self.margin
        # the kept pairs of center ring a are pa, pb[first[a] : first[a + 1]]
        self.pa, self.pb = np.nonzero(keep)
        self.first = np.r_[0, np.cumsum(keep.sum(axis=1))]
        self.cc, self.ss = ct[self.pa] * ct[self.pb], st[self.pa] * st[self.pb]
        self.neg_cos = -np.cos(2.0 * np.pi * np.arange(n // 2 + 1) / n)
        self.prefix = self._prefix(self.w, 2).ravel()
        # a sum or a bound adds one window per ring, each a difference of
        # two prefix sums of at most 3 nlon terms, and the band nodes; by
        # the usual bound on rounded sums, either is then within
        # 20 (nlon + nlat) ulps of the density's absolute total
        self.slack = 40.0 * (n + nlat) * np.finfo(float).eps * np.abs(self.w).sum()

    def _prefix(self, w, laps):
        # prefix[b, k]: ring b summed over its first k nodes, going around
        # the ring laps times, so a cyclic window is one difference
        n = self.n
        w = w.reshape(-1, n)
        prefix = np.empty((len(w), laps * n + 1))
        prefix[:, 0] = 0.0
        for k in range(laps):
            prefix[:, 1 + k * n : 1 + (k + 1) * n] = w
        np.cumsum(prefix[:, 1:], axis=1, out=prefix[:, 1:])
        return prefix

    def _reach(self, g, cc, ss):
        # the largest d with cos(2 pi d / n) >= (g - cc) / ss, or -1
        return np.searchsorted(self.neg_cos, (cc - g) / ss, "right") - 1

    def bounds(self) -> np.ndarray:
        """An upper bound on every node's ball sum, within ``slack``."""
        n, r2, m2 = self.n, self.r2, 2.0 * self.margin
        lo, hi, pa, pb, first = self.lo, self.hi, self.pa, self.pb, self.first

        def cosine(rc, rp):
            return (rc * rc + rp * rp - r2 - m2) / (2.0 * rc * rp)

        def nearest(c, lo_, hi_):
            return np.clip(np.sqrt(np.maximum(c * c - r2 - m2, 0.0)), lo_, hi_)

        # the threshold has no critical point inside the box of the two ring
        # ranges, so its least value lies on an edge, at the radius that
        # minimizes it along that edge; the doubled margin covers rounding
        la, ha, lb, hb = lo[pa], hi[pa], lo[pb], hi[pb]
        g = np.minimum.reduce([
            cosine(la, nearest(la, lb, hb)),
            cosine(ha, nearest(ha, lb, hb)),
            cosine(nearest(lb, la, ha), lb),
            cosine(nearest(hb, la, ha), hb),
        ])
        reach = self._reach(g, self.cc, self.ss)
        # three laps: the window j - D .. j + D of ring b starts at column
        # n + j - D, so for one pair of rings the windows about j = 0 .. n - 1
        # start at one run of columns
        prefix = self._prefix(np.maximum(self.w, 0.0), 3)
        runs = np.lib.stride_tricks.sliding_window_view(prefix, n, axis=1)
        start = n - reach
        stop = start + np.clip(2 * reach + 1, 0, n)
        ub = np.empty((len(lo), n))
        for a0 in range(0, len(lo), _RING_BLOCK):
            a1 = min(a0 + _RING_BLOCK, len(lo))
            p = slice(first[a0], first[a1])
            win = runs[pb[p], stop[p]]
            win -= runs[pb[p], start[p]]
            ub[a0:a1] = np.add.reduceat(win, first[a0:a1] - first[a0])
        return ub.ravel()

    def max(self):
        """The largest ball sum and the number of centers settled for it.

        Centers are settled in decreasing order of their bounds, one ring's
        worth (nlon) at a time: first the nlon largest bounds, then, of the
        centers whose bound still reaches the best sum so far, the nlon
        largest, until no bound left can exceed it.
        """
        ub = self.bounds()
        settled = np.zeros(ub.size, dtype=bool)
        chunk = np.argpartition(ub, ub.size - self.n)[ub.size - self.n :]
        best = -np.inf
        while chunk.size:
            best = max(best, float(self.settle(chunk).max()))
            settled[chunk] = True
            left = np.flatnonzero(~settled & (ub >= best - self.slack))
            chunk = left[np.argsort(-ub[left])[: self.n]]
        return best, int(settled.sum())

    def settle(self, centers) -> np.ndarray:
        """Exact ball sums about the nodes of the given flat indices."""
        n, r2, margin = self.n, self.r2, self.margin
        w, x, y, z = self.w, self.x, self.y, self.z
        a = centers // n
        # one row per (center, kept point ring) pair, in ring order
        count = self.first[a + 1] - self.first[a]
        node = np.repeat(centers, count)
        cr = np.repeat(np.arange(centers.size), count)
        offset = np.repeat(self.first[a] - np.cumsum(count) + count, count)
        pair = np.arange(node.size) + offset
        pb, cc, ss = self.pb[pair], self.cc[pair], self.ss[pair]
        lo_b, hi_b = self.lo[pb], self.hi[pb]
        rc = self.rho[node]
        rc2 = rc * rc
        cj = node % n

        def cosine(rp, slack):
            # the cosine of the angle at which radius rp lies at r^2 + slack
            return (rc2 + rp * rp - r2 + slack) / (2.0 * rc * rp)

        # inside at both ends of [lo_b, hi_b] is inside for all of it; outside
        # is tested at the radius that minimizes g, sqrt(rc^2 - r^2 - margin)
        g_in = np.maximum(cosine(lo_b, margin), cosine(hi_b, margin))
        d_in = self._reach(g_in, cc, ss)
        nearest = np.clip(np.sqrt(np.maximum(rc2 - r2 - margin, 0.0)), lo_b, hi_b)
        d_out = np.maximum(self._reach(cosine(nearest, -margin), cc, ss), d_in)
        len_in = np.clip(2 * d_in + 1, 0, n)
        start = pb * (2 * n + 1) + (cj - d_in) % n
        rows = self.prefix[start + len_in] - self.prefix[start]

        # band: the out-window [j - d_out, j + d_out] less the in-window,
        # which starts d_out - d_in nodes into it; taken in spans of rows
        # holding about as many band nodes as there are rows
        count = np.clip(2 * d_out + 1, 0, n) - len_in
        end = np.cumsum(count)
        first = end - count
        skip = d_out - d_in
        ring, shift = pb * n, cj - d_out
        n_rows = count.size
        spans = n_rows * np.arange(1, end[-1] // n_rows + 1)
        cuts = np.searchsorted(end, spans, "right")
        bounds = np.unique(np.r_[0, cuts, n_rows])
        for r0, r1 in zip(bounds[:-1], bounds[1:]):
            row = np.repeat(np.arange(r0, r1), count[r0:r1])
            t = np.arange(row.size) + first[r0] - first[row]
            t += len_in[row] * (t >= skip[row])
            p = node[row]
            q = ring[row] + (shift[row] + t) % n
            d2 = (x[p] - x[q]) ** 2
            d2 += (y[p] - y[q]) ** 2
            d2 += (z[p] - z[q]) ** 2
            hit = d2 <= r2
            rows[r0:r1] += np.bincount(row[hit] - r0, w[q][hit], r1 - r0)
        return np.bincount(cr, rows, centers.size)

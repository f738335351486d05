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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spherical
from .spherical import GridSpec, SphericalField, transform_for

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
]

_SQRT4PI = np.sqrt(4.0 * np.pi)


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
        field = SphericalField(grid, values=values, coeffs=coeffs)
        if not field.has_coeffs:
            field = spherical.analyze(field)
        field = spherical.synthesize(field)
        if not np.all(np.isfinite(field.values)):
            raise ChartError(
                "radius field contains non-finite values; the surface has "
                "left the star-shaped chart"
            )
        rmin = float(field.values.min())
        if rmin <= 0.0:
            raise ChartError(
                f"radius reaches {rmin:.6g}; the surface has left the "
                "star-shaped chart"
            )
        self.grid = grid
        self.coeffs = field.coeffs
        self.values = field.values
        self.time = float(time)
        self._geo = None

    def radius_field(self) -> SphericalField:
        return SphericalField(self.grid, values=self.values, coeffs=self.coeffs)

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
    if state._geo is not None:
        return state._geo
    tr = transform_for(state.grid)
    c = state.coeffs
    rho = state.values
    r_t, r_p, h_tt, h_tp, h_pp = tr.derivative_values(c)
    lap_rho = tr.synthesize(tr.laplacian_coeffs(c))
    S = tr.sin_t[:, None]
    S2 = S * S
    Phi = rho * rho + r_t * r_t + (r_p / S) ** 2
    sqPhi = np.sqrt(Phi)

    A_tt = -(rho * h_tt - 2.0 * r_t * r_t - rho * rho) / sqPhi
    A_tp = -(rho * h_tp - 2.0 * r_t * r_p) / sqPhi
    A_pp = -(rho * h_pp - 2.0 * r_p * r_p - rho * rho * S2) / sqPhi

    g_tt = rho * rho + r_t * r_t
    g_tp = r_t * r_p
    g_pp = rho * rho * S2 + r_p * r_p

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

    Ao_tt = A_tt - 0.5 * g_tt * H
    Ao_tp = A_tp - 0.5 * g_tp * H
    Ao_pp = A_pp - 0.5 * g_pp * H
    Wott = gi_tt * Ao_tt + gi_tp * Ao_tp
    Wotp = gi_tt * Ao_tp + gi_tp * Ao_pp
    Wopt = gi_tp * Ao_tt + gi_pp * Ao_tp
    Wopp = gi_tp * Ao_tp + gi_pp * Ao_pp
    normAo2 = Wott * Wott + 2.0 * Wotp * Wopt + Wopp * Wopp

    geo = {
        "rho": rho,
        "r_t": r_t,
        "r_p": r_p,
        "h_tt": h_tt,
        "h_tp": h_tp,
        "h_pp": h_pp,
        "lap_rho": lap_rho,
        "Phi": Phi,
        "sqPhi": sqPhi,
        "gi_tt": gi_tt,
        "gi_tp": gi_tp,
        "gi_pp": gi_pp,
        "H": H,
        "K": K,
        "normA2": normA2,
        "normAo2": normAo2,
        "J": rho * sqPhi,
    }
    state._geo = geo
    return geo


def phi_factor(state: RadialGraphState) -> np.ndarray:
    """Phi = rho^2 + |grad rho|^2 on the grid."""
    return _geometry(state)["Phi"]


def curvature_bundle(state: RadialGraphState) -> CurvatureBundle:
    """All pointwise curvature fields of the graph, from the shape operator."""
    geo = _geometry(state)
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
    u_t, u_p = tr.gradient_values(cu)
    lap_u = tr.synthesize(tr.laplacian_coeffs(cu))

    a = geo["sqPhi"] / geo["rho"]
    ca = tr.analyze(a - a.flat[0])
    a_t, a_p = tr.gradient_values(ca)

    pair_rho_u = geo["r_t"] * u_t + geo["r_p"] * u_p / S2
    cfun = pair_rho_u / (geo["rho"] * geo["sqPhi"])
    cc = tr.analyze(cfun - cfun.flat[0])
    c_t, c_p = tr.gradient_values(cc)

    num = (
        a * lap_u
        + a_t * u_t
        + a_p * u_p / S2
        - cfun * geo["lap_rho"]
        - c_t * geo["r_t"]
        - c_p * geo["r_p"] / S2
    )
    return num / geo["J"]


def induced_laplacian(state: RadialGraphState, field: SphericalField) -> SphericalField:
    """Laplace-Beltrami operator of the surface metric applied to a scalar.

    Uses the divergence form, so the result integrates to zero against
    the area measure up to quadrature exactness, and constants map to
    exact zero at every bandlimit.
    """
    if not field.has_coeffs:
        field = spherical.analyze(field)
    vals = _lap_from_coeffs(state, field.coeffs)
    return SphericalField(state.grid, values=vals)


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
    L = state.grid.bandlimit
    # the quotient-route H is exactly constant on round spheres, which the
    # shape-operator trace is not at rounding level; the chain needs that
    H = mean_curvature(state)
    cH = tr.analyze(H - H.flat[0])
    cH[0, L] += H.flat[0] * _SQRT4PI
    w1 = _lap_from_coeffs(state, cH)
    cw = tr.analyze(w1 - w1.flat[0])
    cw[0, L] += w1.flat[0] * _SQRT4PI
    w2 = _lap_from_coeffs(state, cw)
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


def gradient_norm_sq(state: RadialGraphState, field: SphericalField) -> np.ndarray:
    """Pointwise |grad u|^2 in the induced metric, g^{ij} d_i u d_j u."""
    if not field.has_coeffs:
        field = spherical.analyze(field)
    geo = _geometry(state)
    tr = transform_for(state.grid)
    L = state.grid.bandlimit
    cu = np.array(field.coeffs, dtype=float)
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
    tr = transform_for(state.grid)
    geo = _geometry(state)
    st = tr.sin_t[:, None]
    ct = np.cos(tr.theta)[:, None]
    cp = np.cos(tr.phi)[None, :]
    sp = np.sin(tr.phi)[None, :]
    rho = state.values
    pts = np.stack(
        [(rho * st * cp).ravel(), (rho * st * sp).ravel(), (rho * ct).ravel()],
        axis=1,
    )
    w2d = tr.area_weights[:, None] * np.ones_like(rho)
    return pts, (w2d * geo["J"]).ravel()

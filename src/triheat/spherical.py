"""Real spherical harmonics on Gauss-Legendre / equiangular grids.

Scalar fields on the unit sphere are carried either as grid values
(colatitude rows, longitude columns) or as coefficients in the real
orthonormal basis

    Y_{l,0}               = Q_l^0(cos th)
    Y_{l,m}  (m > 0)      = sqrt(2) Q_l^m(cos th) cos(m ph)
    Y_{l,-m} (m > 0)      = sqrt(2) Q_l^m(cos th) sin(m ph)

where Q_l^m are the fully normalized associated Legendre functions
(Condon-Shortley phase), so that int Y_{l,m} Y_{l',m'} dsigma =
delta_{ll'} delta_{mm'} and the constant function 1 has coefficient
sqrt(4 pi) at (0, 0).

Colatitude nodes are Gauss-Legendre (poles are never sampled), so
quadrature of a product of two bandlimited fields is exact whenever
nlat is at least bandlimit + 1.  Longitudes are equispaced and the
longitudinal transform is an FFT.

Synthesis sums each order m against a Legendre table to get the row-wise
rfft spectrum, then inverts the FFT.  A phi-derivative multiplies mode m
by i m, so u_phi, u_theta-phi and u_phi-phi reuse the spectra of u and
u_theta instead of needing sums of their own.  One Legendre recurrence,
run one order at a time, builds the grid tables and serves evaluation at
scattered points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "GridSpec",
    "SphericalField",
    "analyze",
    "synthesize",
    "laplacian_power",
    "surface_gradient_sq",
    "surface_hessian",
    "quadrature",
    "coefficient",
    "evaluate",
    "write_coeffs_csv",
    "read_coeffs_csv",
    "write_grid_csv",
]

FLOAT_FMT = "%.17g"


@dataclass(frozen=True)
class GridSpec:
    """Bandlimit plus grid resolution for one transform setup.

    Parameters
    ----------
    bandlimit : int
        Maximum spherical-harmonic degree L kept by analysis. At least 4.
    nlat : int
        Number of Gauss-Legendre colatitude nodes, at least bandlimit + 1.
    nlon : int
        Number of equispaced longitudes, at least 2 * bandlimit + 1.
    """

    bandlimit: int
    nlat: int
    nlon: int

    def __post_init__(self):
        if self.bandlimit < 4:
            raise ValueError(f"bandlimit must be >= 4, got {self.bandlimit}")
        if self.nlat < self.bandlimit + 1:
            raise ValueError(
                f"nlat={self.nlat} under-resolves bandlimit {self.bandlimit}; "
                f"need nlat >= {self.bandlimit + 1}"
            )
        if self.nlon < 2 * self.bandlimit + 1:
            raise ValueError(
                f"nlon={self.nlon} under-resolves bandlimit {self.bandlimit}; "
                f"need nlon >= {2 * self.bandlimit + 1}"
            )

    @classmethod
    def for_bandlimit(cls, bandlimit: int) -> "GridSpec":
        """Grid with 3/2 oversampling so quadratic products de-alias on re-analysis."""
        nlat = (3 * (bandlimit + 1) + 1) // 2
        return cls(bandlimit, nlat, 2 * nlat)


class SphericalField:
    """A scalar field on the sphere with grid values, coefficients, or both.

    Either representation may be supplied; the missing one is produced on
    demand by :func:`analyze` / :func:`synthesize`. Arrays are treated as
    immutable once handed over.
    """

    __slots__ = ("grid", "values", "coeffs")

    def __init__(self, grid: GridSpec, values=None, coeffs=None):
        if values is None and coeffs is None:
            raise ValueError("field needs grid values or coefficients")
        if values is not None:
            values = np.asarray(values, dtype=float)
            if values.shape != (grid.nlat, grid.nlon):
                raise ValueError(
                    f"values shape {values.shape} does not match grid "
                    f"({grid.nlat}, {grid.nlon})"
                )
        if coeffs is not None:
            coeffs = np.asarray(coeffs, dtype=float)
            L = grid.bandlimit
            if coeffs.shape != (L + 1, 2 * L + 1):
                raise ValueError(
                    f"coeffs shape {coeffs.shape} does not match bandlimit {L}; "
                    f"expected ({L + 1}, {2 * L + 1})"
                )
        self.grid = grid
        self.values = values
        self.coeffs = coeffs

    @property
    def has_values(self) -> bool:
        return self.values is not None

    @property
    def has_coeffs(self) -> bool:
        return self.coeffs is not None

    def __repr__(self):
        tags = []
        if self.has_values:
            tags.append("values")
        if self.has_coeffs:
            tags.append("coeffs")
        return f"SphericalField(L={self.grid.bandlimit}, {'+'.join(tags)})"


def _legendre_orders(L: int, x: np.ndarray, s: np.ndarray):
    """Yield the normalized Q_l^m(x) one order m = 0 .. L at a time.

    Entry m has shape (L - m + 1,) + x.shape with rows l = m .. L;
    s = sin theta is passed in because the grid tables and scattered
    evaluation each compute it their own way.
    """
    qmm = np.full(x.shape, 1.0 / np.sqrt(4.0 * np.pi))
    for m in range(L + 1):
        if m > 0:
            qmm = -np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * s * qmm
        q = np.empty((L - m + 1,) + x.shape)
        q[0] = qmm
        if m < L:
            q[1] = np.sqrt(2.0 * m + 3.0) * x * qmm
        for l in range(m + 2, L + 1):
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            q[l - m] = a * (x * q[l - m - 1] - b * q[l - m - 2])
        yield q


def _alf_tables(L: int, x: np.ndarray):
    """Normalized associated Legendre functions and their theta-derivatives.

    Returns three lists indexed by order m; entry m has shape
    (len(x), L - m + 1) with columns l = m .. L.  The derivatives use
    sin Q' = l x Q - eps Q_{l-1} and Q'' = -l Q + (l x Q' - eps Q'_{l-1})/sin
    - (x/sin) Q', which stay stable because the nodes exclude the poles.
    """
    s = np.sqrt(1.0 - x * x)[:, None]
    cot = x[:, None] / s
    Q = [np.ascontiguousarray(q.T) for q in _legendre_orders(L, x, s[:, 0])]
    dQ, d2Q = [], []
    for m, q in enumerate(Q):
        l = np.arange(m, L + 1)
        eps = np.sqrt((l * l - m * m) * (2.0 * l + 1.0) / (2.0 * l - 1.0))[1:]
        t = l * x[:, None] * q
        t[:, 1:] -= eps * q[:, :-1]
        dq = t / s
        t = l * x[:, None] * dq
        t[:, 1:] -= eps * dq[:, :-1]
        dQ.append(dq)
        d2Q.append(-l * q + t / s - cot * dq)
    return Q, dQ, d2Q


class _Transform:
    """Precomputed node/weight/Legendre tables for one GridSpec."""

    def __init__(self, grid: GridSpec):
        L = grid.bandlimit
        x, w = np.polynomial.legendre.leggauss(grid.nlat)
        order = np.argsort(-x)  # colatitude increasing from the north pole
        self.x = x[order]
        self.w = w[order]
        self.theta = np.arccos(np.clip(self.x, -1.0, 1.0))
        self.sin_t = np.sin(self.theta)
        self.phi = 2.0 * np.pi * np.arange(grid.nlon) / grid.nlon
        self.grid = grid
        self.Q, self.dQ, self.d2Q = _alf_tables(L, self.x)
        self.area_weights = (2.0 * np.pi / grid.nlon) * self.w  # per-row dsigma weight
        self._m = np.arange(grid.nlon // 2 + 1)

    # -- core transforms -------------------------------------------------

    def analyze(self, values: np.ndarray) -> np.ndarray:
        g = self.grid
        L = g.bandlimit
        F = np.fft.rfft(values, axis=1)
        c = np.zeros((L + 1, 2 * L + 1))
        fac = 2.0 * np.pi / g.nlon
        root2 = np.sqrt(2.0)
        for m in range(L + 1):
            proj = self.Q[m].T @ (self.w * F[:, m])
            if m == 0:
                c[:, L] = fac * proj.real
            else:
                c[m:, L + m] = root2 * fac * proj.real
                c[m:, L - m] = root2 * fac * (-proj.imag)
        return c

    def _spectrum(self, coeffs: np.ndarray, table) -> np.ndarray:
        """Row-wise rfft of the synthesis of coeffs against one Legendre table."""
        g = self.grid
        L = g.bandlimit
        S = np.zeros((g.nlat, g.nlon // 2 + 1), dtype=complex)
        root2 = np.sqrt(2.0)
        S[:, 0] = g.nlon * (table[0] @ coeffs[:, L])
        for m in range(1, L + 1):
            S[:, m] = (g.nlon / 2.0) * root2 * (
                table[m] @ (coeffs[m:, L + m] - 1j * coeffs[m:, L - m])
            )
        return S

    def _values(self, spectrum: np.ndarray) -> np.ndarray:
        return np.fft.irfft(spectrum, n=self.grid.nlon, axis=1)

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        return self._values(self._spectrum(coeffs, self.Q))

    def laplacian_coeffs(self, coeffs: np.ndarray, power: int = 1) -> np.ndarray:
        L = self.grid.bandlimit
        ls = np.arange(L + 1, dtype=float)
        eig = -ls * (ls + 1.0)
        # repeated multiplication keeps composed applications bitwise
        # identical to a single higher-power call
        out = coeffs
        for _ in range(power):
            out = eig[:, None] * out
        return out

    def gradient_values(self, coeffs: np.ndarray):
        """(d/dtheta u, d/dphi u) on the grid."""
        u_t = self._values(self._spectrum(coeffs, self.dQ))
        u_p = self._values(1j * self._m * self._spectrum(coeffs, self.Q))
        return u_t, u_p

    def derivative_values(self, coeffs: np.ndarray):
        """Gradient and covariant Hessian (round metric) on the grid.

        Returns (d/dtheta u, d/dphi u, theta-theta, theta-phi, phi-phi)
        from three Legendre sums: d/dphi multiplies longitude mode m by i m.
        """
        S, S_t, S_tt = (self._spectrum(coeffs, t) for t in (self.Q, self.dQ, self.d2Q))
        im = 1j * self._m
        u_t = self._values(S_t)
        u_p = self._values(im * S)
        s = self.sin_t[:, None]
        x = self.x[:, None]
        h_tt = self._values(S_tt)
        h_tp = self._values(im * S_t) - (x / s) * u_p
        h_pp = self._values(-(self._m**2) * S) + s * x * u_t
        return u_t, u_p, h_tt, h_tp, h_pp

    def quadrature(self, values: np.ndarray) -> float:
        return float(self.area_weights @ values.sum(axis=1))


@lru_cache(maxsize=16)
def transform_for(grid: GridSpec) -> _Transform:
    """Shared, immutable transform tables for a grid (cached)."""
    return _Transform(grid)


# -- public field operations ----------------------------------------------


def analyze(field: SphericalField) -> SphericalField:
    """Project grid values onto the real harmonic basis.

    Returns a new field carrying both representations; content above the
    bandlimit is discarded by the projection.
    """
    if not field.has_values:
        raise ValueError("analyze needs grid values")
    c = transform_for(field.grid).analyze(field.values)
    return SphericalField(field.grid, values=field.values, coeffs=c)


def synthesize(field: SphericalField) -> SphericalField:
    """Evaluate coefficients on the grid; returns a field with both representations."""
    if not field.has_coeffs:
        raise ValueError("synthesize needs coefficients")
    v = transform_for(field.grid).synthesize(field.coeffs)
    return SphericalField(field.grid, values=v, coeffs=field.coeffs)


def laplacian_power(field: SphericalField, power: int = 1) -> SphericalField:
    """Apply the round-sphere Laplacian spectrally, power times.

    Each degree-l coefficient is scaled by (-l(l+1))^power.
    """
    if power < 1:
        raise ValueError("power must be a positive integer")
    if not field.has_coeffs:
        field = analyze(field)
    c = transform_for(field.grid).laplacian_coeffs(field.coeffs, power)
    return synthesize(SphericalField(field.grid, coeffs=c))


def surface_gradient_sq(field: SphericalField) -> SphericalField:
    """Pointwise |grad u|^2 with respect to the round metric."""
    if not field.has_coeffs:
        field = analyze(field)
    tr = transform_for(field.grid)
    u_t, u_p = tr.gradient_values(field.coeffs)
    vals = u_t**2 + (u_p / tr.sin_t[:, None]) ** 2
    return SphericalField(field.grid, values=vals)


def surface_hessian(field: SphericalField):
    """Covariant Hessian components (theta-theta, theta-phi, phi-phi).

    The mixed and phi-phi components include the round-sphere
    Christoffel corrections (Gamma^phi_{theta phi} = cot theta,
    Gamma^theta_{phi phi} = -sin theta cos theta).
    """
    if not field.has_coeffs:
        field = analyze(field)
    tr = transform_for(field.grid)
    h_tt, h_tp, h_pp = tr.derivative_values(field.coeffs)[2:]
    g = field.grid
    return (
        SphericalField(g, values=h_tt),
        SphericalField(g, values=h_tp),
        SphericalField(g, values=h_pp),
    )


def quadrature(field: SphericalField) -> float:
    """Integral of the field over the unit sphere (dsigma measure)."""
    if not field.has_values:
        field = synthesize(field)
    return transform_for(field.grid).quadrature(field.values)


def coefficient(field: SphericalField, l: int, m: int) -> float:
    """Single coefficient accessor; m > 0 are cosine terms, m < 0 sine terms."""
    if not field.has_coeffs:
        field = analyze(field)
    L = field.grid.bandlimit
    if not (0 <= l <= L and -l <= m <= l):
        raise ValueError(f"(l={l}, m={m}) outside bandlimit {L}")
    return float(field.coeffs[l, L + m])


def evaluate(field: SphericalField, theta, phi) -> np.ndarray:
    """Evaluate a coefficient field at scattered (theta, phi) points.

    Runs the Legendre recurrences at the requested colatitudes, so points
    need not lie on any grid. Memory stays O(npoints * bandlimit) by
    accumulating one order m at a time.
    """
    if not field.has_coeffs:
        field = analyze(field)
    L = field.grid.bandlimit
    c = field.coeffs
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    out = np.zeros_like(theta)
    root2 = np.sqrt(2.0)
    for m, q in enumerate(_legendre_orders(L, np.cos(theta), np.sin(theta))):
        acc_a = c[m, L + m] * q[0]
        acc_b = c[m, L - m] * q[0]
        for l in range(m + 1, L + 1):
            acc_a = acc_a + c[l, L + m] * q[l - m]
            acc_b = acc_b + c[l, L - m] * q[l - m]
        if m == 0:
            out += acc_a
        else:
            out += root2 * (acc_a * np.cos(m * phi) + acc_b * np.sin(m * phi))
    return out


# -- CSV interchange --------------------------------------------------------


def write_coeffs_csv(field: SphericalField, path) -> None:
    """Dump coefficients as CSV rows l,m,value (all l <= bandlimit, |m| <= l)."""
    if not field.has_coeffs:
        field = analyze(field)
    L = field.grid.bandlimit
    with open(path, "w") as fh:
        fh.write("l,m,value\n")
        for l in range(L + 1):
            for m in range(-l, l + 1):
                fh.write(f"{l},{m},{FLOAT_FMT % field.coeffs[l, L + m]}\n")


def read_coeffs_csv(path, grid: GridSpec | None = None) -> SphericalField:
    """Read an l,m,value CSV into a field.

    When grid is omitted, the smallest valid bandlimit covering the rows
    (at least 4) is used with default oversampling.
    """
    rows = {}
    with open(path) as fh:
        header = fh.readline().strip()
        if header.replace(" ", "") != "l,m,value":
            raise ValueError(f"expected header 'l,m,value', got {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            l_s, m_s, v_s = line.split(",")
            key = (int(l_s), int(m_s))
            if key in rows:
                raise ValueError(f"repeated row l={key[0]}, m={key[1]}: {line!r}")
            rows[key] = float(v_s)
    if not rows:
        raise ValueError("no coefficient rows found")
    lmax = max(l for l, _ in rows)
    if grid is None:
        grid = GridSpec.for_bandlimit(max(lmax, 4))
    L = grid.bandlimit
    if lmax > L:
        raise ValueError(f"file holds degree {lmax}, above bandlimit {L}")
    c = np.zeros((L + 1, 2 * L + 1))
    for (l, m), v in rows.items():
        if abs(m) > l:
            raise ValueError(f"invalid row l={l}, m={m}")
        c[l, L + m] = v
    return SphericalField(grid, coeffs=c)


def write_grid_csv(field: SphericalField, path) -> None:
    """Dump grid values as CSV rows theta,phi,value."""
    if not field.has_values:
        field = synthesize(field)
    tr = transform_for(field.grid)
    with open(path, "w") as fh:
        fh.write("theta,phi,value\n")
        for i, th in enumerate(tr.theta):
            for j, ph in enumerate(tr.phi):
                fh.write(
                    f"{FLOAT_FMT % th},{FLOAT_FMT % ph},"
                    f"{FLOAT_FMT % field.values[i, j]}\n"
                )

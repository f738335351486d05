"""Real spherical harmonics on Gauss-Legendre / equiangular grids.

Scalar fields on the unit sphere are plain arrays: grid values
(colatitude rows, longitude columns) or coefficients in the real
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

Synthesis sums the coefficients against Legendre tables to get the
row-wise rfft spectrum, then inverts the FFT.  The Gauss-Legendre nodes
are symmetric about the equator, so the tables hold only the northern
rows, split by the parity of l - m, with order m and order L - m sharing
one block of columns; all orders are summed in one batched product per
parity, on real arithmetic (see _Transform), for one field or for two
whose values are wanted together.  A phi-derivative multiplies mode m
by i m, so u_phi, u_theta-phi and u_phi-phi reuse the spectra of u and
u_theta instead of needing sums of their own.  One Legendre recurrence,
run one order at a time, builds the grid tables and serves evaluation
at scattered points.

One transform per grid, from :func:`transform_for`, takes arrays in and
gives arrays out; it rejects values that are not (nlat, nlon) and
coefficients that are not (L + 1, 2L + 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "GridSpec",
    "transform_for",
    "evaluate",
    "write_coeffs_csv",
    "read_coeffs_csv",
    "write_grid_csv",
]

FLOAT_FMT = "%.17g"

# Highest degree a coefficient file, a config's bandlimit or a
# perturbation mode may name. The transform tables grow as L^3 and take
# about 10 GB at L = 1024, so a higher degree is refused before any array
# is sized from it.
MAX_FILE_DEGREE = 1024


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


def _check_values(values, grid: GridSpec) -> None:
    if np.shape(values) != (grid.nlat, grid.nlon):
        raise ValueError(
            f"values shape {np.shape(values)} does not match grid "
            f"({grid.nlat}, {grid.nlon})"
        )


def _check_coeffs(coeffs, L: int) -> None:
    if np.shape(coeffs) != (L + 1, 2 * L + 1):
        raise ValueError(
            f"coeffs shape {np.shape(coeffs)} does not match bandlimit {L}; "
            f"expected ({L + 1}, {2 * L + 1})"
        )


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
    """Precomputed node/weight/Legendre tables for one GridSpec.

    The Gauss-Legendre nodes come in exact mirror pairs, x[nlat-1-i] ==
    -x[i], and Q_l^m(-x) = (-1)^(l-m) Q_l^m(x), so the tables keep only the
    h = ceil(nlat / 2) northern rows, the equator included when nlat is
    odd.  Their columns are split by the parity of l - m, E for the even
    and O for the odd degrees; the northern rows are E + O and their
    southern mirrors E - O, negated for the theta-derivative dQ, which is
    odd under the reflection.

    Order m has about (L - m) / 2 degrees of each parity, so block p of
    a table pairs order p with order L - p: ``_even[k, p]`` holds table
    k (Q, dQ, d2Q) on the northern rows, its first columns at the even
    degrees l = p, p + 2, ... and the next ones at l = L - p, L - p + 2,
    ...; ``_odd`` starts each run one degree higher.  There are
    L // 2 + 1 blocks, and when L is even order L / 2 pairs with itself
    and fills only the first run.  A Legendre sum is one batched product
    per parity, whose right-hand side has a (cos, sin) column pair per
    order of the block and per coefficient set, zero in the rows of the
    other order; rows of the sums land in the rfft spectra at m = p and
    m = L - p.
    """

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
        self.area_weights = (2.0 * np.pi / grid.nlon) * self.w  # per-row dsigma weight
        self._m = np.arange(grid.nlon // 2 + 1)
        self._im = 1j * self._m

        h = (grid.nlat + 1) // 2
        P = L // 2 + 1
        # the orders of each block's two runs; -1 where block L / 2 has no second
        pairs = np.stack([np.arange(P), L - np.arange(P)], axis=1)
        pairs[pairs[:, 1] == pairs[:, 0], 1] = -1
        root2 = np.sqrt(2.0)
        # synthesis turns (cos, sin) sums into (re, im) of the rfft spectrum,
        # analysis turns (re, im) projections into (cos, sin) coefficients
        synthesis = np.full(L + 1, (grid.nlon / 2.0) * root2)
        synthesis[0] = grid.nlon
        analysis = np.full(L + 1, root2 * (2.0 * np.pi / grid.nlon))
        analysis[0] = 2.0 * np.pi / grid.nlon

        n_coeffs = (L + 1) * (2 * L + 1)
        alf = _alf_tables(L, self.x[:h])
        paired, takes = [], []
        for par in (0, 1):
            # degrees l = m + par, m + par + 2, ... <= L of each run, first
            # run then second run along the columns j of block p
            count = np.where(pairs < 0, 0, (L - pairs - par) // 2 + 1)
            table = np.zeros((3, P, h, count.sum(axis=1).max()))
            for k, t in enumerate(alf):
                runs = zip(pairs.tolist(), count.tolist())
                for p, ((m, n), (c, d)) in enumerate(runs):
                    table[k, p, :, :c] = t[m][:, par::2]
                    if n >= 0:
                        table[k, p, :, c : c + d] = t[n][:, par::2]
            paired.append(table)
            # flat positions in coeffs of the (cos, sin) pair of each entry,
            # in columns (set, run, cos/sin) for two stacked sets, of which
            # one set reads the first; padding, the other run's rows and
            # the m = 0 sine point at a zero slot past the end of the sets
            j = np.arange(table.shape[3])
            first = count[:, :1]
            run = (j >= first).astype(int)
            m = pairs[np.arange(P)[:, None], run]
            l = m + par + 2 * np.where(run, j - first, j)
            p_at, j_at = np.nonzero((m >= 0) & (l <= L))
            m, l, run = m[p_at, j_at], l[p_at, j_at], run[p_at, j_at]
            start = np.array([0, n_coeffs])  # of each set in the flat array
            take = np.full((P, len(j), 2, 2, 2), -1)
            take[p_at, j_at, :, run, 0] = (l * (2 * L + 1) + L + m)[:, None] + start
            sine = m > 0
            take[p_at[sine], j_at[sine], :, run[sine], 1] = (
                l * (2 * L + 1) + L - m
            )[sine, None] + start
            takes.append(take)
        self._even, self._odd = paired
        self._take = {
            k: [np.ascontiguousarray(t[:, :, :k]).reshape(P, -1, 4 * k) for t in takes]
            for k in (1, 2)
        }
        # full size, as a broadcast over the trailing columns runs slowly
        fac = synthesis[np.maximum(pairs, 0)][:, None, None, :, None]
        north = np.broadcast_to(fac * np.array([1.0, -1.0]), (P, h, 2, 2, 2))
        self._north_scale = {
            k: np.ascontiguousarray(north[:, :, :k]).reshape(P, h, 4 * k)
            for k in (1, 2)
        }
        # the south rows are E - O for Q and d2Q and O - E for dQ
        sign = np.array([1.0, -1.0, 1.0])[:, None, None, None]
        self._south_scale = {k: sign * v for k, v in self._north_scale.items()}
        # analysis reads the folded (re, im) rows of both orders of a block
        # (block L / 2 twice), parity by parity, from a (2, h, L + 1) array
        order = np.where(pairs < 0, pairs[:, :1], pairs)[None, :, None, :, None]
        row = np.arange(2)[:, None, None, None, None] * h + np.arange(h)[:, None, None]
        self._fold_take = ((row * (L + 1) + order) * 2 + np.arange(2)).reshape(
            2, P, h, 4
        )
        fac = analysis[np.maximum(pairs, 0)][:, None, :, None]
        self._analysis_scale = [
            np.broadcast_to(fac * np.array([1.0, -1.0]), (P, t.shape[1], 2, 2))
            .reshape(P, -1, 4)
            .copy()
            for t in self._take[1]
        ]

    # -- core transforms -------------------------------------------------

    def analyze(self, values: np.ndarray) -> np.ndarray:
        """Project grid values onto the real harmonic basis; content above
        the bandlimit is discarded."""
        g = self.grid
        _check_values(values, g)
        L = g.bandlimit
        h = self._even.shape[2]
        # weighted row spectra, one row per node
        F = np.fft.rfft(values, axis=1)[:, : L + 1] * self.w[:, None]
        # fold each south row onto its northern mirror, as the sum for the
        # even and the difference for the odd degrees; an odd grid's
        # equator row has no mirror and counts once
        folded = np.empty((2, h, L + 1), dtype=complex)
        folded[:] = F[:h]
        mirror = F[: h - 1 : -1]
        folded[0, : g.nlat - h] += mirror
        folded[1, : g.nlat - h] -= mirror
        # (re, im) of the two orders of each block, as the tables pair them
        sym, anti = folded.view(float).ravel()[self._fold_take]
        flat = np.zeros((L + 1) * (2 * L + 1) + 1)
        tables = (self._even[0], self._odd[0])
        for table, take, scale, rows in zip(
            tables, self._take[1], self._analysis_scale, (sym, anti)
        ):
            proj = table.transpose(0, 2, 1) @ rows
            flat[take] = scale * proj
        return flat[:-1].reshape(L + 1, 2 * L + 1)

    def _spectra(self, coeffs, tables: int, out=None, slots=None) -> np.ndarray:
        """Row-wise rfft spectra against the first `tables` of Q, dQ, d2Q.

        coeffs is one coefficient array or a tuple of two, summed in one
        product.  Set s against table t goes to out[slots[t, s]], by
        default a new (tables * sets, nlat, nlon // 2 + 1) array in the
        order (t, s); entries above the bandlimit are left as out has them.
        """
        g = self.grid
        L = g.bandlimit
        sets = coeffs if isinstance(coeffs, tuple) else (coeffs,)
        k = len(sets)
        P, h = self._even.shape[1:3]
        if out is None:
            out = np.zeros((tables * k, g.nlat, g.nlon // 2 + 1), dtype=complex)
            slots = np.arange(tables * k).reshape(tables, k)
        flat = np.empty(k * (L + 1) * (2 * L + 1) + 1)
        for dst, c in zip(flat[:-1].reshape(k, L + 1, 2 * L + 1), sets):
            _check_coeffs(c, L)
            dst[:] = c
        flat[-1] = 0.0
        take_even, take_odd = self._take[k]
        E = self._even[:tables] @ flat[take_even]
        O = self._odd[:tables] @ flat[take_odd]
        # (cos, sin) sums to complex spectrum entries, columns (set, run)
        north = E + O
        north *= self._north_scale[k]
        E -= O
        E *= self._south_scale[k][:tables]
        north = north.view(complex).reshape(tables, P, h, k, 2)
        south = E.view(complex).reshape(tables, P, h, k, 2)[:, :, g.nlat - h - 1 :: -1]
        # first runs go to columns m = p, second runs to m = L - p, which
        # is faster written in increasing m
        out[slots, :h, :P] = north[..., 0].transpose(0, 3, 2, 1)
        out[slots, :h, P : L + 1] = north[:, L - P :: -1, :, :, 1].transpose(0, 3, 2, 1)
        out[slots, h:, :P] = south[..., 0].transpose(0, 3, 2, 1)
        out[slots, h:, P : L + 1] = south[:, L - P :: -1, :, :, 1].transpose(0, 3, 2, 1)
        return out

    def _fields(self, coeffs, extra, tables: int, slots) -> np.ndarray:
        """A spectra buffer holding coeffs against the first `tables` tables
        at slots[:, 0] and, if given, extra at slots[:, 1]; the derived
        spectra go into the free slots, and extra's derivatives are scratch."""
        g = self.grid
        sets = (coeffs,) if extra is None else (coeffs, extra)
        slots = slots[:, : len(sets)]
        S = np.empty((slots.max() + 1, g.nlat, g.nlon // 2 + 1), dtype=complex)
        S[:, :, g.bandlimit + 1 :] = 0.0
        return self._spectra(sets, tables, S, slots)

    def _values(self, spectra: np.ndarray) -> np.ndarray:
        """Grid values of row-wise rfft spectra, several fields in one call."""
        return np.fft.irfft(spectra, n=self.grid.nlon, axis=-1)

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        return self._values(self._spectra(coeffs, 1)[0])

    def laplacian_coeffs(self, coeffs: np.ndarray, power: int = 1) -> np.ndarray:
        """The round-sphere Laplacian applied power times: each degree-l
        coefficient is scaled by (-l(l+1))^power."""
        L = self.grid.bandlimit
        _check_coeffs(coeffs, L)
        if power < 1:
            raise ValueError("power must be a positive integer")
        ls = np.arange(L + 1, dtype=float)
        eig = -ls * (ls + 1.0)
        # repeated multiplication keeps composed applications bitwise
        # identical to a single higher-power call
        out = coeffs
        for _ in range(power):
            out = eig[:, None] * out
        return out

    def gradient_values(self, coeffs: np.ndarray, extra=None):
        """(d/dtheta u, d/dphi u) on the grid.

        With extra coefficients, their grid values follow, from the same
        Legendre sums.
        """
        # u_t, u_p, extra; u_p starts as the spectrum of u
        S = self._fields(coeffs, extra, 2, _GRADIENT_SLOTS)
        np.multiply(self._im, S[1], out=S[1])
        return tuple(self._values(S[: 2 if extra is None else 3]))

    def derivative_values(self, coeffs: np.ndarray, extra=None):
        """Gradient and covariant Hessian (round metric) on the grid.

        Returns (d/dtheta u, d/dphi u, theta-theta, theta-phi, phi-phi)
        from three Legendre sums: d/dphi multiplies longitude mode m by i m.
        With extra coefficients, their grid values follow, from the same
        Legendre sums.
        """
        # u_t, u_p, h_tt, h_tp, h_pp, extra; h_pp starts as the spectrum of u
        S = self._fields(coeffs, extra, 3, _DERIVATIVE_SLOTS)
        np.multiply(self._im, S[4], out=S[1])
        np.multiply(self._im, S[0], out=S[3])
        np.multiply(-(self._m**2), S[4], out=S[4])
        u_t, u_p, h_tt, h_tp, h_pp, *rest = self._values(S[: 5 if extra is None else 6])
        s = self.sin_t[:, None]
        x = self.x[:, None]
        h_tp -= (x / s) * u_p
        h_pp += s * x * u_t
        return (u_t, u_p, h_tt, h_tp, h_pp, *rest)

    def quadrature(self, values: np.ndarray) -> float:
        """Integral of grid values over the unit sphere (dsigma measure)."""
        _check_values(values, self.grid)
        return float(self.area_weights @ values.sum(axis=1))


# where _spectra puts set s against table t, slots[t, s], for the fields of
# gradient_values and derivative_values; slots past the fields are scratch
_GRADIENT_SLOTS = np.array([[1, 2], [0, 3]])
_DERIVATIVE_SLOTS = np.array([[4, 5], [0, 6], [2, 7]])


@lru_cache(maxsize=16)
def transform_for(grid: GridSpec) -> _Transform:
    """Shared, immutable transform tables for a grid (cached)."""
    return _Transform(grid)


def evaluate(coeffs, theta, phi) -> np.ndarray:
    """Evaluate coefficients of shape (L + 1, 2L + 1) at scattered (theta, phi).

    Runs the Legendre recurrences at the requested colatitudes, so points
    need not lie on any grid. Memory stays O(npoints * bandlimit) by
    accumulating one order m at a time.
    """
    c = np.asarray(coeffs, dtype=float)
    L = len(c) - 1
    _check_coeffs(c, L)
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


def write_coeffs_csv(coeffs, path) -> None:
    """Dump coefficients as CSV rows l,m,value (all l <= bandlimit, |m| <= l)."""
    L = len(coeffs) - 1
    _check_coeffs(coeffs, L)
    with open(path, "w") as fh:
        fh.write("l,m,value\n")
        for l in range(L + 1):
            for m in range(-l, l + 1):
                fh.write(f"{l},{m},{FLOAT_FMT % coeffs[l, L + m]}\n")


def read_coeffs_csv(path, grid: GridSpec | None = None):
    """Read an l,m,value CSV; returns (grid, coeffs).

    When grid is omitted, the smallest valid bandlimit covering the rows
    (at least 4) is used with default oversampling. A repeated (l, m)
    row, a non-finite value, an order with |m| > l or a degree above
    ``MAX_FILE_DEGREE`` raises ValueError.
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
            l, m = int(l_s), int(m_s)
            if not abs(m) <= l <= MAX_FILE_DEGREE:
                raise ValueError(
                    f"invalid row l={l}, m={m}: need |m| <= l <= {MAX_FILE_DEGREE}"
                )
            if (l, m) in rows:
                raise ValueError(f"repeated row l={l}, m={m}: {line!r}")
            value = float(v_s)
            if not np.isfinite(value):
                raise ValueError(f"non-finite coefficient in row {line!r}")
            rows[l, m] = value
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
        c[l, L + m] = v
    return grid, c


def write_grid_csv(grid: GridSpec, values, path) -> None:
    """Dump grid values as CSV rows theta,phi,value."""
    _check_values(values, grid)
    tr = transform_for(grid)
    with open(path, "w") as fh:
        fh.write("theta,phi,value\n")
        for i, th in enumerate(tr.theta):
            for j, ph in enumerate(tr.phi):
                fh.write(
                    f"{FLOAT_FMT % th},{FLOAT_FMT % ph},"
                    f"{FLOAT_FMT % values[i, j]}\n"
                )

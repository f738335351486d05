"""The three benchmark workloads and the seeded inputs they feed triheat.

Inputs are made here, apart from the program. A seeded random rotation
of the sphere turns each workload's perturbation modes into rotated
coefficients of the same degrees and the same amplitude per degree, so
the work stays the same from seed to seed while the numbers differ. The
program only ever sees the resulting ``perturb`` text.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.transform import Rotation
from scipy.special import roots_legendre, sph_harm_y


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``steps`` is the fixed number of steps of one flow run; ``None`` runs
    to ``stop_reason == "converged"``. ``cadence`` is the record spacing
    in steps, so a fixed-step run records at 0, cadence, 2 cadence, ...
    """

    name: str
    backend: str
    modes: tuple
    bandlimit: int = 16
    subdivisions: int = 0
    steps: int | None = None
    cadence: int = 50

    @property
    def size(self) -> int:
        """Bandlimit of a spectral state, subdivision count of a mesh."""
        return self.bandlimit if self.backend == "spectral" else self.subdivisions


WORKLOADS = {
    # the paper's headline as time to solution; spectral steps dominate. It
    # is one 18-39 s flow run, too long to repeat within a run, so it is
    # not among the workloads BENCHMARK.json lists (see README.md)
    "converge_l16": Workload(
        "converge_l16", "spectral", ((2, 0, 0.01),), bandlimit=16, cadence=50
    ),
    # records dominate: alpha over the 19208-node Gauss-Legendre cloud
    "records_l64": Workload(
        "records_l64",
        "spectral",
        ((2, 0, 0.05), (3, 1, 0.02), (5, -2, 0.01)),
        bandlimit=64,
        steps=20,
        cadence=5,
    ),
    # the explicit mesh stepper on 20480 faces, records at start, middle, end
    "mesh_20k": Workload(
        "mesh_20k", "mesh", ((2, 0, 0.05),), subdivisions=5, steps=200, cadence=100
    ),
}


def real_harmonic(l, m, theta, phi):
    """Real orthonormal harmonic from scipy's complex ones.

    m > 0 pairs with cos(m phi), m < 0 with sin(|m| phi), both with a
    factor sqrt(2); the Condon-Shortley phase is kept. This is the basis
    triheat documents for its coefficients.
    """
    if m == 0:
        return sph_harm_y(l, 0, theta, phi).real
    if m > 0:
        return np.sqrt(2.0) * sph_harm_y(l, m, theta, phi).real
    return np.sqrt(2.0) * sph_harm_y(l, -m, theta, phi).imag


def gauss_grid(nlat: int, nlon: int):
    """scipy Gauss-Legendre colatitudes by equispaced longitudes.

    Returns (theta, phi, weights) as 2-d arrays; the weights integrate
    over the unit sphere and are exact for degree < min(2 nlat, nlon).
    """
    x, w = roots_legendre(nlat)
    phi = 2.0 * np.pi * np.arange(nlon) / nlon
    theta = np.arccos(x)[:, None] * np.ones((1, nlon))
    weights = (w * 2.0 * np.pi / nlon)[:, None] * np.ones((1, nlon))
    return theta, phi[None, :] * np.ones((nlat, 1)), weights


def rotated_modes(modes, seed: int):
    """Rotate the perturbation modes by a rotation drawn from the seed.

    A degree-l harmonic rotates into degree-l harmonics, so each mode
    becomes 2l + 1 coefficients whose squares sum to its squared
    amplitude. They are found by projecting the rotated function with a
    quadrature that is exact at these degrees.
    """
    rot = Rotation.random(random_state=np.random.default_rng(abs(int(seed))))
    theta, phi, weights = gauss_grid(12, 24)
    pts = np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)],
        axis=-1,
    )
    back = rot.inv().apply(pts.reshape(-1, 3)).reshape(pts.shape)
    theta_b = np.arccos(np.clip(back[..., 2], -1.0, 1.0))
    phi_b = np.mod(np.arctan2(back[..., 1], back[..., 0]), 2.0 * np.pi)
    out = {}
    for l, m, amp in modes:
        f = amp * real_harmonic(l, m, theta_b, phi_b)
        for mm in range(-l, l + 1):
            c = float(np.sum(weights * f * real_harmonic(l, mm, theta, phi)))
            out[(l, mm)] = out.get((l, mm), 0.0) + c
    return tuple((l, m, c) for (l, m), c in sorted(out.items()))


def perturb_text(modes) -> str:
    """The 'l,m,amplitude;...' text triheat's shape generator parses."""
    return ";".join(f"{l},{m},{a!r}" for l, m, a in modes)


def radius_from_modes(modes, theta, phi):
    """rho = 1 + sum amp Y_lm, evaluated apart from the program."""
    rho = np.ones(np.broadcast(theta, phi).shape)
    for l, m, amp in modes:
        rho = rho + amp * real_harmonic(l, m, theta, phi)
    return rho

"""Initial surfaces for both backends.

Spectral states are radial graphs; sphere and harmonic perturbations are
written directly into coefficients (exact to the last bit), ellipsoids
are sampled and projected. Mesh surfaces come from subdivided
icosahedra; a perturbed one is rescaled radially by its mode
coefficients evaluated at the vertex directions, so no spectral grid or
transform is built for a mesh.
"""

from __future__ import annotations

import numpy as np

from . import spherical
from .mesh import TriangleMesh, load_obj
from .radial import RadialGraphState
from .spherical import GridSpec

__all__ = [
    "icosahedron",
    "subdivide",
    "icosphere",
    "sphere_state",
    "perturbed_sphere_state",
    "ellipsoid_radius",
    "ellipsoid_state",
    "perturbed_sphere_mesh",
    "ellipsoid_mesh",
    "sample_graph_mesh",
    "parse_modes",
    "parse_semiaxes",
    "generate",
]

_SQRT4PI = np.sqrt(4.0 * np.pi)


def icosahedron():
    """Unit icosahedron vertices and outward-oriented faces."""
    g = (1.0 + np.sqrt(5.0)) / 2.0
    v = np.array(
        [
            [-1, g, 0], [1, g, 0], [-1, -g, 0], [1, -g, 0],
            [0, -1, g], [0, 1, g], [0, -1, -g], [0, 1, -g],
            [g, 0, -1], [g, 0, 1], [-g, 0, -1], [-g, 0, 1],
        ],
        dtype=float,
    )
    v /= np.linalg.norm(v[0])
    f = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    return v, f


def subdivide(vertices: np.ndarray, faces: np.ndarray):
    """One 4-to-1 split with new vertices projected to the unit sphere.

    Face (a, b, c) becomes (a, ab, ca), (b, bc, ab), (c, ca, bc) and
    (ab, bc, ca). The midpoint of each edge is numbered after the
    vertices, in the order the edges first appear going through the
    faces, each as (a, b), (b, c), (c, a).
    """
    n = len(vertices)
    a, b = faces, np.roll(faces, -1, axis=1)
    keys = (np.minimum(a, b) * n + np.maximum(a, b)).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    ends = first[order]
    p = vertices[a.ravel()[ends]] + vertices[b.ravel()[ends]]
    # |p| through matmul's vector dot, which adds as np.linalg.norm(row)
    # does; norm(p, axis=1) and einsum add in other orders
    p /= np.sqrt((p[:, None, :] @ p[:, :, None]).ravel())[:, None]
    ab, bc, ca = (n + rank[inverse]).reshape(-1, 3).T
    f0, f1, f2 = faces.T
    out = np.stack([f0, ab, ca, f1, bc, ab, f2, ca, bc, ab, bc, ca], axis=1)
    return np.concatenate([vertices, p]), out.reshape(-1, 3)


# Most subdivisions an icosphere or a config may ask for: 327680 faces. Each
# level has 4x the faces; at 81920 the first alpha pass alone takes ~70 MB
MAX_SUBDIVISIONS = 7


def icosphere(subdivisions: int, radius: float = 1.0) -> TriangleMesh:
    """Subdivided icosahedron; 20 * 4^n faces, all vertices at the given radius."""
    if not 0 <= subdivisions <= MAX_SUBDIVISIONS:
        raise ValueError(f"subdivisions must lie in [0, {MAX_SUBDIVISIONS}]")
    v, f = icosahedron()
    for _ in range(subdivisions):
        v, f = subdivide(v, f)
    return TriangleMesh(radius * v, f)


def sphere_state(grid: GridSpec, radius: float = 1.0) -> RadialGraphState:
    c = np.zeros((grid.bandlimit + 1, 2 * grid.bandlimit + 1))
    c[0, grid.bandlimit] = radius * _SQRT4PI
    return RadialGraphState(grid, coeffs=c)


def parse_modes(text: str):
    """Parse 'l,m,amplitude' triples separated by semicolons."""
    modes = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 3:
            raise ValueError(f"mode {chunk!r} is not 'l,m,amplitude'")
        l, m, amp = int(parts[0]), int(parts[1]), float(parts[2])
        if not np.isfinite(amp):
            raise ValueError(f"mode {chunk!r} has a non-finite amplitude")
        if not abs(m) <= l <= spherical.MAX_FILE_DEGREE:
            raise ValueError(
                f"mode (l={l}, m={m}) is invalid: need |m| <= l <= "
                f"{spherical.MAX_FILE_DEGREE}"
            )
        modes.append((l, m, amp))
    if not modes:
        raise ValueError("no perturbation modes given")
    return modes


def parse_semiaxes(text: str):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError("semiaxes must be 'a,b,c'")
    axes = tuple(float(p) for p in parts)
    # an infinite semiaxis is no ellipsoid: bandlimited, it is a cylinder
    if not all(0.0 < a < np.inf for a in axes):
        raise ValueError("semiaxes must be positive and finite")
    return axes


def _mode_coeffs(L: int, radius: float, modes) -> np.ndarray:
    """Coefficients of rho = radius + sum of amp * Y_{l, m} at bandlimit L."""
    c = np.zeros((L + 1, 2 * L + 1))
    c[0, L] = radius * _SQRT4PI
    for l, m, amp in modes:
        if l > L:
            raise ValueError(f"mode degree {l} above bandlimit {L}")
        c[l, L + m] += amp
    return c


def perturbed_sphere_state(
    grid: GridSpec, radius: float, modes
) -> RadialGraphState:
    """rho = radius + sum of amp * Y_{l, m}, written straight into coefficients."""
    return RadialGraphState(grid, coeffs=_mode_coeffs(grid.bandlimit, radius, modes))


def ellipsoid_radius(theta, phi, semiaxes) -> np.ndarray:
    """Radial support function of the ellipsoid x^2/a^2 + y^2/b^2 + z^2/c^2 = 1."""
    a, b, c = semiaxes
    st = np.sin(theta)
    q = (
        (st * np.cos(phi) / a) ** 2
        + (st * np.sin(phi) / b) ** 2
        + (np.cos(theta) / c) ** 2
    )
    return 1.0 / np.sqrt(q)


def ellipsoid_state(grid: GridSpec, semiaxes) -> RadialGraphState:
    """Ellipsoid sampled on the grid and projected onto the bandlimit.

    The radius field is analytic, so the projection error decays
    geometrically in the bandlimit; near-round axes are resolved to
    machine precision by moderate grids.
    """
    tr = spherical.transform_for(grid)
    th = tr.theta[:, None]
    ph = tr.phi[None, :]
    return RadialGraphState(grid, values=ellipsoid_radius(th, ph, semiaxes))


def perturbed_sphere_mesh(subdivisions: int, radius: float, modes) -> TriangleMesh:
    """Icosphere scaled radially by radius + sum amp * Y_{l, m}.

    The modes' coefficients, up to their largest degree, are evaluated
    at the vertex directions; no grid or transform is built.
    """
    c = _mode_coeffs(max(l for l, _, _ in modes), radius, modes)
    return _radial_scale(icosphere(subdivisions), c)


def ellipsoid_mesh(subdivisions: int, semiaxes) -> TriangleMesh:
    base = icosphere(subdivisions)
    return TriangleMesh(base.vertices * np.asarray(semiaxes, float), base.faces)


def sample_graph_mesh(state: RadialGraphState, subdivisions: int) -> TriangleMesh:
    """Triangulate a radial graph by radially displacing an icosphere."""
    m = _radial_scale(icosphere(subdivisions), state.coeffs)
    m.time = state.time
    return m


def _radial_scale(base: TriangleMesh, coeffs) -> TriangleMesh:
    """Scale each vertex of base by the radius the coefficients give in its direction."""
    v = base.vertices
    theta = np.arccos(np.clip(v[:, 2] / np.linalg.norm(v, axis=1), -1.0, 1.0))
    phi = np.mod(np.arctan2(v[:, 1], v[:, 0]), 2.0 * np.pi)
    rho = spherical.evaluate(coeffs, theta, phi)
    if not rho.min() > 0.0:
        raise ValueError("radius field is not positive at mesh directions")
    return TriangleMesh(rho[:, None] * v, base.faces)


def generate(
    kind: str,
    backend: str,
    *,
    bandlimit: int = 16,
    subdivisions: int = 4,
    radius: float = 1.0,
    perturb: str = "",
    semiaxes=(1.0, 1.0, 1.0),
    mesh_path: str | None = None,
):
    """Build an initial state for a named shape on the requested backend.

    kind is one of 'sphere', 'perturbed', 'ellipsoid', 'obj'; backend is
    'spectral' or 'mesh'. OBJ input is mesh-only and validated on load.
    bandlimit sizes spectral states only and subdivisions meshes only.
    """
    if backend not in ("spectral", "mesh"):
        raise ValueError(f"unknown backend {backend!r}")
    if kind == "obj":
        if backend != "mesh":
            raise ValueError("obj input requires the mesh backend")
        if not mesh_path:
            raise ValueError("obj input needs a mesh file path")
        m = load_obj(mesh_path)
        m.validate()
        return m
    if backend == "spectral":
        grid = GridSpec.for_bandlimit(bandlimit)
        if kind == "sphere":
            return sphere_state(grid, radius)
        if kind == "perturbed":
            return perturbed_sphere_state(grid, radius, parse_modes(perturb))
        if kind == "ellipsoid":
            return ellipsoid_state(grid, semiaxes)
        raise ValueError(f"unknown shape kind {kind!r}")
    if kind == "sphere":
        m = icosphere(subdivisions, radius)
    elif kind == "perturbed":
        m = perturbed_sphere_mesh(subdivisions, radius, parse_modes(perturb))
    elif kind == "ellipsoid":
        m = ellipsoid_mesh(subdivisions, semiaxes)
    else:
        raise ValueError(f"unknown shape kind {kind!r}")
    m.validate()
    return m

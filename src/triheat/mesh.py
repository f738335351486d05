"""Discrete curvature operators on closed triangle meshes.

The stiffness matrix uses cotangent weights and the mass matrix is the
lumped mixed-Voronoi area, so vertex masses sum exactly to the surface
area. Mean curvature comes from the discrete Laplacian of the embedding,
Gauss curvature from angle defects; the angle defects always sum to
4 pi on a closed genus-zero mesh, which pins the total curvature
independently of resolution.

Sign conventions match the smooth side: outward normals, round spheres
have H = 2 / R > 0. The stiffness matrix W is negative semidefinite
with zero row sums and Delta u = M^{-1} W u.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

__all__ = [
    "TriangleMesh",
    "build_operators",
    "vertex_normals",
    "mean_curvature",
    "laplacian_chain",
    "gauss_curvature",
    "tracefree_norm_sq",
    "area",
    "signed_volume",
    "min_edge_length",
    "dirichlet_energy",
    "concentration",
    "max_ball_sum",
    "load_obj",
    "save_obj",
]


class TriangleMesh:
    """Vertex positions, triangle indices and a flow time.

    Construction only checks array shapes; call :meth:`validate` to
    verify the mesh is a closed oriented manifold surface of sphere
    topology with nondegenerate faces. The flow loop validates once up
    front and then steps without re-checking topology, which never
    changes during a run.
    """

    __slots__ = ("vertices", "faces", "time", "_cache")

    def __init__(self, vertices, faces, time: float = 0.0):
        vertices = np.asarray(vertices, dtype=float)
        faces = np.asarray(faces, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise ValueError(f"vertices must be (n, 3), got {vertices.shape}")
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise ValueError(f"faces must be (m, 3) triangles, got {faces.shape}")
        self.vertices = vertices
        self.faces = faces
        self.time = float(time)
        self._cache = {}

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]

    def validate(self) -> None:
        """Raise ValueError unless the mesh is a closed oriented 2-sphere.

        Checks: indices in range, every vertex used, no degenerate or
        repeated directed edges, every directed edge matched by its
        reverse (closed, consistently oriented, manifold), Euler
        characteristic 2, and a positive enclosed volume (faces oriented
        outward).
        """
        v, f = self.vertices, self.faces
        if not np.all(np.isfinite(v)):
            raise ValueError("mesh has non-finite vertex positions")
        if f.min(initial=0) < 0 or f.max(initial=-1) >= len(v):
            raise ValueError("face indices out of range")
        if np.any(f[:, 0] == f[:, 1]) or np.any(f[:, 1] == f[:, 2]) or np.any(
            f[:, 2] == f[:, 0]
        ):
            raise ValueError("mesh has degenerate faces (repeated vertex)")
        used = np.zeros(len(v), dtype=bool)
        used[f.ravel()] = True
        if not used.all():
            raise ValueError(f"{int((~used).sum())} vertices are not referenced")
        edges = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
        keys = edges[:, 0] * len(v) + edges[:, 1]
        uniq, counts = np.unique(keys, return_counts=True)
        if counts.max(initial=1) > 1:
            raise ValueError("directed edge repeats; mesh is not an oriented manifold")
        rev = set((edges[:, 1] * len(v) + edges[:, 0]).tolist())
        if rev != set(uniq.tolist()):
            raise ValueError("mesh has boundary or inconsistent orientation")
        n_edges = len(uniq) // 2
        euler = len(v) - n_edges + len(f)
        if euler != 2:
            raise ValueError(f"Euler characteristic {euler}, expected 2 (sphere)")
        if _face_double_areas(v, f).min() <= 0.0:
            raise ValueError("mesh has zero-area faces")
        if signed_volume(self) <= 0.0:
            raise ValueError(
                "mesh faces are oriented inward; the enclosed volume is not positive"
            )

    def translated(self, offset) -> "TriangleMesh":
        return TriangleMesh(self.vertices + np.asarray(offset, float), self.faces, self.time)

    def __repr__(self):
        return (
            f"TriangleMesh({self.n_vertices} vertices, {self.n_faces} faces, "
            f"t={self.time:.6g})"
        )


def _face_corners(v: np.ndarray, f: np.ndarray):
    p0 = v[f[:, 0]]
    p1 = v[f[:, 1]]
    p2 = v[f[:, 2]]
    return p0, p1, p2


def _face_double_areas(v: np.ndarray, f: np.ndarray) -> np.ndarray:
    p0, p1, p2 = _face_corners(v, f)
    return np.linalg.norm(np.cross(p1 - p0, p2 - p0), axis=1)


def build_operators(mesh: TriangleMesh):
    """Cotangent stiffness and lumped mixed-Voronoi mass.

    Returns
    -------
    W : scipy.sparse.csr_matrix, shape (n, n)
        Negative semidefinite, symmetric, zero row sums. The discrete
        Laplacian is Delta u = W u / M.
    M : ndarray, shape (n,)
        Vertex masses; M.sum() equals the surface area exactly.
    """
    if "ops" in mesh._cache:
        return mesh._cache["ops"]
    v, f = mesh.vertices, mesh.faces
    n = len(v)
    p0, p1, p2 = _face_corners(v, f)
    e0 = p2 - p1  # edge opposite vertex 0
    e1 = p0 - p2
    e2 = p1 - p0
    dblA = np.linalg.norm(np.cross(e1, e2), axis=1)
    # cot at corner k = dot of adjacent edges / (2 * face area)
    cot0 = np.einsum("ij,ij->i", -e1, e2) / dblA
    cot1 = np.einsum("ij,ij->i", -e2, e0) / dblA
    cot2 = np.einsum("ij,ij->i", -e0, e1) / dblA

    i0, i1, i2 = f[:, 0], f[:, 1], f[:, 2]
    I = np.concatenate([i1, i2, i2, i0, i0, i1])
    J = np.concatenate([i2, i1, i0, i2, i1, i0])
    data = 0.5 * np.concatenate([cot0, cot0, cot1, cot1, cot2, cot2])
    W = sp.coo_matrix((data, (I, J)), shape=(n, n)).tocsr()
    W = W - sp.diags(np.asarray(W.sum(axis=1)).ravel())

    sq0 = np.einsum("ij,ij->i", e0, e0)
    sq1 = np.einsum("ij,ij->i", e1, e1)
    sq2 = np.einsum("ij,ij->i", e2, e2)
    fA = 0.5 * dblA
    vor0 = (sq2 * cot2 + sq1 * cot1) / 8.0
    vor1 = (sq0 * cot0 + sq2 * cot2) / 8.0
    vor2 = (sq1 * cot1 + sq0 * cot0) / 8.0
    # obtuse triangles get the area/2 - area/4 - area/4 split instead
    ob0 = cot0 < 0.0
    ob1 = cot1 < 0.0
    ob2 = cot2 < 0.0
    obtuse = ob0 | ob1 | ob2
    vor0 = np.where(obtuse, np.where(ob0, fA / 2.0, fA / 4.0), vor0)
    vor1 = np.where(obtuse, np.where(ob1, fA / 2.0, fA / 4.0), vor1)
    vor2 = np.where(obtuse, np.where(ob2, fA / 2.0, fA / 4.0), vor2)
    M = np.zeros(n)
    np.add.at(M, i0, vor0)
    np.add.at(M, i1, vor1)
    np.add.at(M, i2, vor2)

    mesh._cache["ops"] = (W, M)
    return W, M


def vertex_normals(mesh: TriangleMesh) -> np.ndarray:
    """Outward unit normals by area-weighted face-normal averaging."""
    if "normals" in mesh._cache:
        return mesh._cache["normals"]
    v, f = mesh.vertices, mesh.faces
    p0, p1, p2 = _face_corners(v, f)
    fn = np.cross(p1 - p0, p2 - p0)  # length 2 * area, outward for ccw faces
    acc = np.zeros_like(v)
    for k in range(3):
        np.add.at(acc, f[:, k], fn)
    nrm = acc / np.linalg.norm(acc, axis=1, keepdims=True)
    mesh._cache["normals"] = nrm
    return nrm


def mean_curvature(mesh: TriangleMesh) -> np.ndarray:
    """Vertex mean curvature from the Laplacian of the embedding.

    Delta f = -H nu, so H = -<Delta f, nu> with the outward vertex
    normal; positive on convex surfaces.
    """
    if "H" in mesh._cache:
        return mesh._cache["H"]
    W, M = build_operators(mesh)
    lap = (W @ mesh.vertices) / M[:, None]
    H = -np.einsum("ij,ij->i", lap, vertex_normals(mesh))
    mesh._cache["H"] = H
    return H


def laplacian_chain(mesh: TriangleMesh):
    """Vertex values (H, Delta H, Delta^2 H), with Delta u = W u / M."""
    if "chain" in mesh._cache:
        return mesh._cache["chain"]
    W, M = build_operators(mesh)
    H = mean_curvature(mesh)
    w1 = (W @ H) / M
    w2 = (W @ w1) / M
    mesh._cache["chain"] = (H, w1, w2)
    return H, w1, w2


def gauss_curvature(mesh: TriangleMesh) -> np.ndarray:
    """Vertex Gauss curvature, angle defect over mixed-Voronoi mass."""
    if "K" in mesh._cache:
        return mesh._cache["K"]
    v, f = mesh.vertices, mesh.faces
    defect = np.full(len(v), 2.0 * np.pi)
    p0, p1, p2 = _face_corners(v, f)
    for k, (a, b, c) in enumerate(((p0, p1, p2), (p1, p2, p0), (p2, p0, p1))):
        u = b - a
        w = c - a
        cosang = np.einsum("ij,ij->i", u, w) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(w, axis=1)
        )
        ang = np.arccos(np.clip(cosang, -1.0, 1.0))
        np.add.at(defect, f[:, k], -ang)
    _, M = build_operators(mesh)
    K = defect / M
    mesh._cache["K"] = K
    return K


def tracefree_norm_sq(mesh: TriangleMesh):
    """|A*|^2 at the vertices, with the number of clamped values.

    Discretely H^2 / 2 - 2K can dip below zero even though the smooth
    quantity cannot, mainly because angle-defect Gauss curvature carries
    a positive bias on coarse meshes; such values are clamped to zero
    and counted.
    """
    H = mean_curvature(mesh)
    K = gauss_curvature(mesh)
    raw = 0.5 * H * H - 2.0 * K
    clamped = int((raw < 0.0).sum())
    return np.maximum(raw, 0.0), clamped


def area(mesh: TriangleMesh) -> float:
    return float(_face_double_areas(mesh.vertices, mesh.faces).sum() / 2.0)


def signed_volume(mesh: TriangleMesh) -> float:
    """Enclosed volume, positive for outward-oriented meshes."""
    p0, p1, p2 = _face_corners(mesh.vertices, mesh.faces)
    return float(np.einsum("ij,ij->i", p0, np.cross(p1, p2)).sum() / 6.0)


def min_edge_length(mesh: TriangleMesh) -> float:
    if "hmin" in mesh._cache:
        return mesh._cache["hmin"]
    v, f = mesh.vertices, mesh.faces
    p0, p1, p2 = _face_corners(v, f)
    h = min(
        np.linalg.norm(p1 - p0, axis=1).min(),
        np.linalg.norm(p2 - p1, axis=1).min(),
        np.linalg.norm(p0 - p2, axis=1).min(),
    )
    mesh._cache["hmin"] = float(h)
    return float(h)


def dirichlet_energy(mesh: TriangleMesh, u: np.ndarray) -> float:
    """int |grad u|^2 d mu as the quadratic form u^T (-W) u."""
    W, _ = build_operators(mesh)
    return float(u @ (-(W @ u)))


def concentration(mesh: TriangleMesh, radius: float) -> float:
    """Largest curvature mass in a ball: sup_x int_{B(x, r)} |A|^2 d mu.

    Candidate centers are the vertices and the edge midpoints, each
    undirected edge once; the ball is Euclidean with the given radius
    and vertices carry their lumped mass.
    """
    H = mean_curvature(mesh)
    ao2, _ = tracefree_norm_sq(mesh)
    _, M = build_operators(mesh)
    density = (ao2 + 0.5 * H * H) * M
    v, f = mesh.vertices, mesh.faces
    # sorted index pairs give each undirected edge one midpoint, also on
    # meshes that were never validated
    edges = np.sort(np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]]), axis=1)
    keys = np.unique(edges[:, 0] * len(v) + edges[:, 1])
    mids = (v[keys // len(v)] + v[keys % len(v)]) / 2.0
    centers = np.concatenate([v, mids])
    return max_ball_sum(v, centers, density, radius)


def max_ball_sum(points, centers, density, radius: float) -> float:
    """Largest sum of per-point density over a Euclidean ball of centers.

    The radius must be positive (infinity is allowed). When the centers
    begin with the points themselves (``centers[:len(points)]`` equals
    ``points``, as for a node cloud or a mesh's vertices followed by its
    edge midpoints), those ball sums come from one self-join of the
    point tree, which lists each unordered pair within the radius once:
    every point adds its density to its partner's sum and to its own.
    The remaining centers are joined against the point tree and reduced
    with one bincount. A center with no point in range sums to 0.
    """
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    points = np.asarray(points, dtype=float)
    centers = np.asarray(centers, dtype=float)
    density = np.asarray(density, dtype=float)
    # a ball that covers the joint bounding box covers every point; skip
    # the pair query, whose size would grow as radius^3
    lo = np.minimum(points.min(axis=0), centers.min(axis=0))
    hi = np.maximum(points.max(axis=0), centers.max(axis=0))
    if radius >= np.linalg.norm(hi - lo):
        return float(density.sum())
    tree = cKDTree(points)
    n = len(points)
    best = -np.inf
    if np.array_equal(centers[:n], points):
        i, j = tree.query_pairs(radius, output_type="ndarray").T
        sums = density + np.bincount(i, density[j], n) + np.bincount(j, density[i], n)
        best = sums.max()
        centers = centers[n:]
    if len(centers):
        pairs = cKDTree(centers).sparse_distance_matrix(
            tree, radius, output_type="ndarray"
        )
        sums = np.bincount(pairs["i"], density[pairs["j"]], len(centers))
        best = max(best, sums.max())
    return float(best)


# -- OBJ interchange ---------------------------------------------------------


def load_obj(path) -> TriangleMesh:
    """Read a triangles-only Wavefront OBJ mesh.

    Accepts only v and f records (plus comments and blank lines); f
    entries may carry /texture/normal suffixes, which are ignored.
    Raises on other record types, non-triangle faces and out-of-range
    indices.
    """
    verts = []
    faces = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            tag = parts[0]
            if tag == "v":
                if len(parts) != 4:
                    raise ValueError(f"line {lineno}: v record needs 3 coordinates")
                verts.append([float(x) for x in parts[1:]])
            elif tag == "f":
                if len(parts) != 4:
                    raise ValueError(f"line {lineno}: only triangle faces supported")
                idx = []
                for tok in parts[1:]:
                    i = int(tok.split("/")[0])
                    if i <= 0:
                        raise ValueError(
                            f"line {lineno}: face indices must be positive"
                        )
                    idx.append(i - 1)
                faces.append(idx)
            else:
                raise ValueError(f"line {lineno}: unsupported record {tag!r}")
    if not verts or not faces:
        raise ValueError("OBJ file holds no complete mesh")
    faces = np.asarray(faces, dtype=np.int64)
    if faces.max() >= len(verts):
        raise ValueError("face index exceeds vertex count")
    return TriangleMesh(np.asarray(verts, dtype=float), faces)


def save_obj(mesh: TriangleMesh, path) -> None:
    """Write vertices and 1-based triangle faces."""
    with open(path, "w") as fh:
        for p in mesh.vertices:
            fh.write(f"v {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")
        for a, b, c in mesh.faces + 1:
            fh.write(f"f {a} {b} {c}\n")

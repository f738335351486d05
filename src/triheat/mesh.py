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

from typing import NamedTuple

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

    Index arrays that depend only on the faces (the sparsity pattern of
    the stiffness matrix, the face corners, the edge list) live in one
    topology entry, built on first use and handed on to every mesh that
    a step, translation or rescaling makes from this one. The face
    geometry of the vertex positions is built once, into ``_cache``.
    """

    __slots__ = ("vertices", "faces", "time", "_cache", "_topology")

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
        self._topology = None

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
        # the keys are distinct, so the reversed keys are too: the two sets
        # agree exactly when the sorted reversed keys equal uniq
        rev = np.sort(edges[:, 1] * len(v) + edges[:, 0])
        if not np.array_equal(rev, uniq):
            raise ValueError("mesh has boundary or inconsistent orientation")
        n_edges = len(uniq) // 2
        euler = len(v) - n_edges + len(f)
        if euler != 2:
            raise ValueError(f"Euler characteristic {euler}, expected 2 (sphere)")
        if _faces(self).dbl_areas.min() <= 0.0:
            raise ValueError("mesh has zero-area faces")
        if signed_volume(self) <= 0.0:
            raise ValueError(
                "mesh faces are oriented inward; the enclosed volume is not positive"
            )

    def translated(self, offset) -> "TriangleMesh":
        return self._moved(self.vertices + np.asarray(offset, float), self.time)

    def _moved(self, vertices, time: float) -> "TriangleMesh":
        """A mesh of new vertices on these faces, sharing the topology entry."""
        out = TriangleMesh(vertices, self.faces, time)
        out._topology = self._topology
        return out

    def __repr__(self):
        return (
            f"TriangleMesh({self.n_vertices} vertices, {self.n_faces} faces, "
            f"t={self.time:.6g})"
        )


class _Topology(NamedTuple):
    """Index arrays fixed by a faces array, shared by the meshes on it."""

    faces: np.ndarray  # the array this entry was built from
    corners: np.ndarray  # f.T.ravel(): corner k of every face, k = 0, 1, 2
    indptr: np.ndarray  # CSR pattern of W, diagonal included
    indices: np.ndarray
    slots: np.ndarray  # where each of the 6F cotangent terms lands in W.data
    diag: np.ndarray  # where each row's diagonal lies in W.data
    off: np.ndarray  # the off-diagonal positions of W.data, row by row
    rows: np.ndarray  # rows with off-diagonal entries
    starts: np.ndarray  # where each of those rows begins in W.data[off]
    edges: np.ndarray  # undirected edges (a, b), a < b, sorted by a * n + b


def _topology(mesh: TriangleMesh) -> _Topology:
    """The mesh's topology entry, built here if it has none for its faces."""
    topo = mesh._topology
    if topo is not None and topo.faces is mesh.faces:
        return topo
    f, n = mesh.faces, mesh.n_vertices
    i0, i1, i2 = f[:, 0], f[:, 1], f[:, 2]
    I = np.concatenate([i1, i2, i2, i0, i0, i1])
    J = np.concatenate([i2, i1, i0, i2, i1, i0])
    d = np.arange(n)
    keys = np.concatenate([I * n + J, d * (n + 1)])
    # np.unique(keys, return_inverse=True) with less overhead: one argsort,
    # and a flag where each run of equal sorted keys starts
    order = np.argsort(keys)
    keys = np.take(keys, order)
    run = np.empty(len(keys), dtype=bool)
    run[0] = True
    np.not_equal(keys[1:], keys[:-1], out=run[1:])
    inv = np.empty(len(keys), dtype=np.intp)
    inv[order] = np.cumsum(run) - 1
    keys = np.take(keys, np.flatnonzero(run))
    r, c = np.divmod(keys, n)
    # scipy picks the index dtype once, so filling W later copies nothing
    pattern = sp.csr_matrix(
        (np.zeros(len(keys)), c, np.searchsorted(r, np.arange(n + 1))), shape=(n, n)
    )
    off_indptr = pattern.indptr - np.arange(n + 1)
    rows = np.flatnonzero(np.diff(off_indptr))
    topo = _Topology(
        faces=f,
        corners=f.T.ravel(),
        indptr=pattern.indptr,
        indices=pattern.indices,
        slots=inv[: len(I)],
        diag=inv[len(I) :],
        off=np.flatnonzero(r != c),
        rows=rows,
        starts=off_indptr[rows],
        edges=np.stack([r[r < c], c[r < c]], axis=1),
    )
    mesh._topology = topo
    return topo


class _FaceGeometry(NamedTuple):
    corners: tuple  # p0, p1, p2, each (F, 3)
    edges: tuple  # e0 = p2 - p1, e1 = p0 - p2, e2 = p1 - p0: e_k faces corner k
    lengths: tuple  # |e0|, |e1|, |e2|
    dots: tuple  # at corner k, the dot of the two edges leaving it
    normals: np.ndarray  # cross(p1 - p0, p2 - p0), length 2 * area, outward
    dbl_areas: np.ndarray


def _norms(x: np.ndarray) -> np.ndarray:
    """Row lengths of an (n, 3) array, bit for bit as np.linalg.norm(x, axis=1)."""
    s = x * x
    return np.sqrt(s[:, 0] + s[:, 1] + s[:, 2])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross products of (n, 3) arrays, bit for bit as np.cross(a, b)."""
    a0, a1, a2 = a.T
    b0, b1, b2 = b.T
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=1)


def _faces(mesh: TriangleMesh) -> _FaceGeometry:
    """Per-face geometry of this vertex set, computed once."""
    if "faces" in mesh._cache:
        return mesh._cache["faces"]
    corners = np.take(mesh.vertices, _topology(mesh).corners, axis=0)
    p0, p1, p2 = corners.reshape(3, -1, 3)
    e0, e1, e2 = p2 - p1, p0 - p2, p1 - p0
    # p2 - p0 is -e1 to the last bit, since rounding is symmetric, so
    # cross(e2, -e1) = cross(e1, e2) to the last bit too
    fn = _cross(e1, e2)
    geo = _FaceGeometry(
        corners=(p0, p1, p2),
        edges=(e0, e1, e2),
        lengths=(_norms(e0), _norms(e1), _norms(e2)),
        dots=(
            np.einsum("ij,ij->i", -e1, e2),
            np.einsum("ij,ij->i", -e2, e0),
            np.einsum("ij,ij->i", -e0, e1),
        ),
        normals=fn,
        dbl_areas=_norms(fn),
    )
    mesh._cache["faces"] = geo
    return geo


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
    n = mesh.n_vertices
    topo = _topology(mesh)
    geo = _faces(mesh)
    e0, e1, e2 = geo.edges
    dblA = geo.dbl_areas
    # cot at corner k = dot of adjacent edges / (2 * face area)
    cot0, cot1, cot2 = (d / dblA for d in geo.dots)

    terms = 0.5 * np.concatenate([cot0, cot0, cot1, cot1, cot2, cot2])
    data = np.bincount(topo.slots, terms, len(topo.indices))
    # each diagonal is minus its row's off-diagonal sum, added in column
    # order as scipy's row sum adds them
    rowsum = np.zeros(n)
    rowsum[topo.rows] = np.add.reduceat(data[topo.off], topo.starts)
    data[topo.diag] = -rowsum
    W = sp.csr_matrix((data, topo.indices, topo.indptr), shape=(n, n))

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
    M = np.bincount(topo.corners, np.concatenate([vor0, vor1, vor2]), n)

    mesh._cache["ops"] = (W, M)
    return W, M


def vertex_normals(mesh: TriangleMesh) -> np.ndarray:
    """Outward unit normals by area-weighted face-normal averaging."""
    if "normals" in mesh._cache:
        return mesh._cache["normals"]
    corners = _topology(mesh).corners
    n = mesh.n_vertices
    acc = np.stack(
        [np.bincount(corners, np.tile(x, 3), n) for x in _faces(mesh).normals.T], axis=1
    )
    nrm = acc / _norms(acc)[:, None]
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
    f = mesh.faces
    defect = np.full(mesh.n_vertices, 2.0 * np.pi)
    geo = _faces(mesh)
    l0, l1, l2 = geo.lengths
    # corner k lies between the edges e_{k+2} and -e_{k+1}
    for k, (dot, la, lb) in enumerate(zip(geo.dots, (l2, l0, l1), (l1, l2, l0))):
        cosang = dot / (la * lb)
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
    return float(_faces(mesh).dbl_areas.sum() / 2.0)


def signed_volume(mesh: TriangleMesh) -> float:
    """Enclosed volume, positive for outward-oriented meshes."""
    p0, p1, p2 = _faces(mesh).corners
    return float(np.einsum("ij,ij->i", p0, _cross(p1, p2)).sum() / 6.0)


def min_edge_length(mesh: TriangleMesh) -> float:
    # the norms, not the square root of the least squared length, which
    # can differ in the last bit and so move auto_dt
    return float(min(x.min() for x in _faces(mesh).lengths))


def dirichlet_energy(mesh: TriangleMesh, u: np.ndarray) -> float:
    """int |grad u|^2 d mu as the quadratic form u^T (-W) u."""
    W, _ = build_operators(mesh)
    return float(u @ (-(W @ u)))


def concentration(mesh: TriangleMesh, radius: float) -> float:
    """Largest curvature mass in a ball: sup_x int_{B(x, r)} |A|^2 d mu.

    Candidate centers are the vertices and the edge midpoints, each
    undirected edge once; the ball is Euclidean with the given radius
    and vertices carry their lumped mass. Each midpoint is anchored at
    its edge's lower-index end, half the edge's length away, so
    :func:`max_ball_sum` needs no nearest-vertex query (its docstring
    gives the join and distance-test counts at 20480 faces); when some
    half-edge is longer than the radius it finds the nearest vertices
    itself.
    """
    H = mean_curvature(mesh)
    ao2, _ = tracefree_norm_sq(mesh)
    _, M = build_operators(mesh)
    density = (ao2 + 0.5 * H * H) * M
    v = mesh.vertices
    # the topology lists each undirected edge once, also on meshes that
    # were never validated
    a, b = _topology(mesh).edges.T
    centers = np.concatenate([v, (v[a] + v[b]) / 2.0])
    return max_ball_sum(v, centers, density, radius, anchors=a)


# extra centers joined against the point tree at once in max_ball_sum
_CENTER_BLOCK = 4096
# pairs of the widened self-join reduced at once in max_ball_sum
_PAIR_CHUNK = 65536


def _sq_dists(p, i, q, j) -> np.ndarray:
    """|p[:, i] - q[:, j]|^2 of coordinate rows, summed as ((x - y) ** 2).sum()."""
    sq = None
    for k in range(3):
        # in place: each temporary dropped is a pass over memory saved
        d = np.take(p[k], i)
        d -= np.take(q[k], j)
        d *= d
        sq = d if sq is None else np.add(sq, d, out=sq)
    return sq


def max_ball_sum(points, centers, density, radius: float, anchors=None) -> float:
    """Largest sum of per-point density over a Euclidean ball of centers.

    The radius r must be positive (infinity is allowed). A center with
    no point in range sums to 0. Centers that do not begin with the
    points are joined against the point tree ``_CENTER_BLOCK`` at a
    time, so the pairs held at once stay bounded.

    When they do (a node cloud, or a mesh's vertices and then its edge
    midpoints), each further center c is anchored at a point p at
    distance d <= r. ``anchors`` may name that point, one index into the
    points per further center; without it, or when some named point
    lies farther than r from its center, c is anchored at its nearest
    point instead, and if that too lies farther than r its ball is
    empty. A point in just one of B(c) and B(p) lies in the shell
    r - d < |x - p| <= r + d. So one self-join of the points at
    r + d_max, d_max the largest d, gives every point's ball sum, every
    anchor's core sum within r - d_max, which B(c) holds too, p itself
    included, and the shell pairs beyond: c adds the shell points inside
    B(c) to its anchor's core. The join is reduced ``_PAIR_CHUNK`` pairs
    at a time, each shell pair tested once against every center of its
    anchor. On the 20480-face ``mesh_20k`` benchmark state (seed 1) at
    r = 0.25, with the edge-end anchors of :func:`concentration`, that
    is 964384 join pairs, 290150 in the shell and 1741937 distance tests.
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
    if np.array_equal(centers[:n], points):
        if anchors is not None and np.shape(anchors) != (len(centers) - n,):
            raise ValueError("anchors must name one point per center past the points")
        return _anchored_max(tree, points, centers[n:], density, radius, anchors)
    best = -np.inf
    for start in range(0, len(centers), _CENTER_BLOCK):
        block = centers[start : start + _CENTER_BLOCK]
        pairs = cKDTree(block).sparse_distance_matrix(tree, radius, output_type="ndarray")
        sums = np.bincount(pairs["i"], density[pairs["j"]], len(block))
        best = max(best, sums.max())
    return float(best)


def _anchored_max(tree, points, extra, density, radius: float, anchor) -> float:
    """max_ball_sum over the points and then the extra centers."""
    n, r2, pt, ex = len(points), radius * radius, points.T.copy(), extra.T.copy()
    every = np.arange(len(extra))
    if anchor is not None:
        anchor = np.asarray(anchor, dtype=np.intp)
        d2 = _sq_dists(ex, every, pt, anchor)
        near = d2 <= r2
    if anchor is None or not near.all():
        anchor = tree.query(extra, k=1)[1]
        d2 = _sq_dists(ex, every, pt, anchor)
        near = d2 <= r2
    # the centers of anchor p become first[p], ..., first[p] + cnt[p] - 1
    order = every[near][np.argsort(anchor[near], kind="stable")]
    anchor, ex = anchor[order], ex[:, order]
    cnt = np.bincount(anchor, minlength=n)
    first = np.cumsum(cnt) - cnt
    d_max = np.sqrt(d2[near].max(initial=0.0))
    # both bounds moved out by a relative 1e-12 against rounding
    inner2 = max(radius * (1.0 - 1e-12) - d_max, 0.0) ** 2
    pairs = tree.query_pairs((radius + d_max) * (1.0 + 1e-12), output_type="ndarray")
    core, rim, fix = density.copy(), np.zeros(n), np.zeros(len(anchor))
    for start in range(0, len(pairs), _PAIR_CHUNK):
        # contiguous copies: gathers through the strided columns of pairs
        # take about twice as long
        a, b = pairs[start : start + _PAIR_CHUNK].T.copy()
        d2 = _sq_dists(pt, a, pt, b)
        wa, wb = np.take(density, a), np.take(density, b)
        inn = d2 <= inner2
        core += np.bincount(a, wb * inn, n)
        core += np.bincount(b, wa * inn, n)
        # the shell pairs both ways round, as (anchor p, point x) of weight w
        s = np.flatnonzero(~inn)
        sa, sb = np.take(a, s), np.take(b, s)
        p, x = np.concatenate([sa, sb]), np.concatenate([sb, sa])
        w = np.concatenate([np.take(wb, s), np.take(wa, s)])
        rim += np.bincount(p, w * (np.tile(np.take(d2, s), 2) <= r2), n)
        # every pair once per center of its anchor: pair e[t] and center k[t]
        c = np.take(cnt, p)
        e = np.repeat(np.arange(len(p)), c)
        k = np.take(np.take(first, p) - (np.cumsum(c) - c), e)
        k += np.arange(len(e))
        we = np.take(w, e)
        we *= _sq_dists(pt, np.take(x, e), ex, k) <= r2
        fix += np.bincount(k, we, len(fix))
    # a center farther than the radius from every point has an empty ball
    empty = -np.inf if near.all() else 0.0
    return float(max((core + rim).max(), (core[anchor] + fix).max(initial=empty)))


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
    # before the int64 conversion, which overflows on huge indices
    if max(map(max, faces)) >= len(verts):
        raise ValueError("face index exceeds vertex count")
    return TriangleMesh(np.asarray(verts, dtype=float), np.asarray(faces, np.int64))


def save_obj(mesh: TriangleMesh, path) -> None:
    """Write vertices and 1-based triangle faces."""
    with open(path, "w") as fh:
        for p in mesh.vertices:
            fh.write(f"v {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")
        for a, b, c in mesh.faces + 1:
            fh.write(f"f {a} {b} {c}\n")

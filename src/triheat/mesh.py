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

The per-state kernels (face geometry, operators, vertex normals,
volume) work on coordinate rows: x, y and z of the F corners, edges or
normals are each one contiguous array, taken once from a (3, n) copy
of the vertices. They give the same bits as the (F, 3) expressions
they replace by adding in the same order: norms add (x + y) + z, as
np.linalg.norm(x, axis=1) does, and dot products (x + z) + y, as
np.einsum("ij,ij->i", a, b) does on C-ordered arrays.

Each mesh caches the index arrays its faces fix (:class:`_Topology`),
which list neither the corners nor the edges: the corners are the
faces' columns, and the edges are read from the stiffness matrix's
sparsity pattern (:func:`_edges`). The index arrays come from scipy's
COO -> CSR conversion, which sorts each row by column: of the corner
numbers at their vertices, and of the half-edge numbers at each
directed edge and at its reverse (:func:`_closed_slots`). The face
geometry (:class:`_FaceGeometry`) lives for one pass, which builds the
stiffness matrix, the masses and the vertex normals together
(:func:`_build`); the mesh keeps four numbers of it (:class:`_Measures`).

scipy is imported where it is used, so only the mesh backend loads it:
scipy.sparse in _topology, _closed_slots and _build, which build the
sparse matrices, and scipy.spatial in _task_pairs, for the
kd-tree joins of concentration's full pass, and in _ball_sums, for its
nearest-point fallback. The joins run on at most two threads, started
by the pass and joined before it returns.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

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
    "load_obj",
    "save_obj",
]


class TriangleMesh:
    """Vertex positions, triangle indices and a flow time.

    Construction only checks array shapes, that the vertices are real and
    that the faces hold integers; call :meth:`validate` to
    verify the mesh is a closed oriented manifold surface of sphere
    topology with nondegenerate faces. The flow loop validates once up
    front and then steps without re-checking topology, which never
    changes during a run. The operators reject faces that do not close
    up into an oriented manifold with validate's error, since they
    assume every directed edge has one reverse.

    Index arrays that depend only on the faces (the sparsity pattern of
    the stiffness matrix and the vertex sums of corner and face values;
    the corners and the edge list are read from the faces and the
    pattern) live in one topology entry, built on first use and handed
    on to every mesh that a step, translation or rescaling makes from
    this one, together with the memo of the last full concentration
    pass (:func:`concentration`). ``_cache`` holds what the vertex
    positions fix: the operators and vertex normals, built together from
    one pass over the face geometry, the four numbers of that geometry
    that the step and record read, and the curvatures. No array in it
    has a value per face. :meth:`forget_fields` drops the cache and the
    topology entry, not the memo.
    """

    __slots__ = ("vertices", "faces", "time", "_cache", "_topology", "_memo")

    def __init__(self, vertices, faces, time: float = 0.0):
        if np.iscomplexobj(vertices):
            raise ValueError("vertices must be real")
        vertices = np.asarray(vertices, dtype=float)
        given = np.asarray(faces)
        if given.dtype.kind not in "iuf":
            raise ValueError(f"faces must hold integers, got dtype {given.dtype}")
        # integral floats pass; a fraction, nan or out-of-range value does not
        with np.errstate(invalid="ignore"):
            faces = given.astype(np.int64, copy=False)
        if faces is not given and not np.array_equal(faces, given):
            raise ValueError("faces must hold integers")
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise ValueError(f"vertices must be (n, 3), got {vertices.shape}")
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise ValueError(f"faces must be (m, 3) triangles, got {faces.shape}")
        self.vertices = vertices
        self.faces = faces
        self.time = float(time)
        self._cache = {}
        self._topology = None
        self._memo = {}

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
        characteristic 2, finite face geometry (squared edge lengths,
        corner dots, areas and volume), no zero-area face, and a positive
        enclosed volume (faces oriented outward).
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
        # the topology pairs each directed edge with its reverse, and
        # raises when the edges repeat or do not close up
        topo = _topology(self)
        # W has a slot for each vertex and for each directed edge, and
        # every undirected edge is two directed ones
        euler = len(v) - (len(topo.indices) - len(v)) // 2 + len(f)
        if euler != 2:
            raise ValueError(f"Euler characteristic {euler}, expected 2 (sphere)")
        # large coordinates overflow: the squared areas are fourth powers
        # of them, the volume terms cubes
        with np.errstate(over="ignore", invalid="ignore"):
            geo = _faces(self)
            volume = signed_volume(self)
        fields = (geo.sq_lengths, geo.dots, geo.dbl_areas, volume)
        if not all(np.isfinite(x).all() for x in fields):
            raise ValueError("mesh face geometry overflows to a non-finite value")
        if geo.dbl_areas.min() <= 0.0:
            raise ValueError("mesh has zero-area faces")
        if volume <= 0.0:
            raise ValueError(
                "mesh faces are oriented inward; the enclosed volume is not positive"
            )

    def forget_fields(self) -> None:
        """Drop the cached geometry, operators and curvatures, and this
        mesh's hold on the topology entry; the next query rebuilds them
        from the vertices and faces, to the same bits. Meshes already made
        from this one keep the entry, and all keep the concentration memo,
        from which a later concentration can still be certified."""
        self._cache = {}
        self._topology = None

    def translated(self, offset) -> "TriangleMesh":
        return self._moved(self.vertices + _point(offset, "offset"), self.time)

    def _moved(self, vertices, time: float) -> "TriangleMesh":
        """A mesh of new vertices on these faces, sharing the topology entry
        and the concentration memo."""
        out = TriangleMesh(vertices, self.faces, time)
        out._topology = self._topology
        out._memo = self._memo
        return out

    def __repr__(self):
        return (
            f"TriangleMesh({self.n_vertices} vertices, {self.n_faces} faces, "
            f"t={self.time:.6g})"
        )


def _point(x, name: str) -> np.ndarray:
    """x as one finite x, y, z point: an (n, 3) array would move each vertex
    by its own row, and a nan poison a whole coordinate."""
    x = np.asarray(x, dtype=float)
    if x.shape != (3,) or not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be a finite x, y, z point")
    return x


class _Topology(NamedTuple):
    """Index arrays fixed by a faces array, shared by the meshes on it.

    The corners of the faces are the faces' columns, and the undirected
    edges the slots of W above its diagonal (:func:`_edges`), so the
    entry keeps neither. W's off-diagonal pattern and ``pairs`` are the
    CSR matrices of :func:`_closed_slots`, with each row's diagonal
    inserted after the columns below it.
    """

    faces: np.ndarray  # the array this entry was built from
    # 0/1 matrices, (n, 3F) and (n, F), on one data array of ones and one
    # indptr: row v picks the corners of v, corner k of face f at
    # k * F + f, and the faces of those corners, in corner order. A
    # product sums as np.bincount(f.T.ravel(), x) does: from 0.0, in
    # corner order
    vertex_corners: sp.csr_matrix
    vertex_faces: sp.csr_matrix
    indptr: np.ndarray  # CSR pattern of W, diagonal included
    indices: np.ndarray
    # the two terms of each off-diagonal slot as (2, off) indices into
    # the 3F half-cotangents (:func:`_closed_slots`)
    pairs: np.ndarray
    diag: np.ndarray  # where each row's diagonal lies in W.data
    off: np.ndarray  # the off-diagonal positions of W.data, row by row
    rows: np.ndarray  # rows with off-diagonal entries
    starts: np.ndarray  # where each of those rows begins in W.data[off]


def _closed_slots(I, J, n: int):
    """The slots of W and their terms on a closed oriented manifold.

    I -> J are the 3F half-edges of the faces, that of corner k of face f
    at k * F + f, which carries that corner's half-cotangent. On a closed
    oriented manifold every directed edge i -> j is the half-edge of one
    face and j -> i that of one other, so the off-diagonal slots are the
    half-edges, and the slot (i, j) gets the terms of i -> j and j -> i.

    scipy's COO -> CSR conversion sorts each row by column and sums
    repeated entries. So the half-edge numbers put at (I, J) and at
    (J, I) give, slot by slot in CSR order, the two terms of each slot.
    A repeated directed edge leaves fewer slots than half-edges, and one
    without a reverse makes the two patterns differ. Returns the two
    CSR matrices; their ``data``, stacked, are the (2, 3F) pairs of
    terms. Raises ValueError, with the message of
    :meth:`TriangleMesh.validate`, when a directed edge joins a vertex
    to itself, repeats, or has no reverse.
    """
    import scipy.sparse as sp

    if np.any(I == J):
        raise ValueError("mesh has degenerate faces (repeated vertex)")
    halves = np.arange(len(I))
    fwd = sp.csr_matrix((halves, (I, J)), shape=(n, n))
    if fwd.nnz < len(I):
        raise ValueError("directed edge repeats; mesh is not an oriented manifold")
    rev = sp.csr_matrix((halves, (J, I)), shape=(n, n))
    if not (
        np.array_equal(fwd.indptr, rev.indptr)
        and np.array_equal(fwd.indices, rev.indices)
    ):
        raise ValueError("mesh has boundary or inconsistent orientation")
    return fwd, rev


def _topology(mesh: TriangleMesh) -> _Topology:
    """The mesh's topology entry, built here if it has none for its faces
    (a new mesh, or one whose fields were forgotten)."""
    topo = mesh._topology
    if topo is not None and topo.faces is mesh.faces:
        return topo
    import scipy.sparse as sp

    f, n = mesh.faces, mesh.n_vertices
    # the face geometry gathers without a range check
    if f.min(initial=0) < 0 or f.max(initial=-1) >= n:
        raise ValueError("face indices out of range")
    F = len(f)
    # corner k of face f at k * F + f, summed in corner order
    vertex_corners = sp.csr_matrix(
        (np.ones(3 * F), (f.T.ravel(), np.arange(3 * F))), shape=(n, 3 * F)
    )
    i0, i1, i2 = f[:, 0], f[:, 1], f[:, 2]
    I, J = np.concatenate([i1, i2, i0]), np.concatenate([i2, i0, i1])
    fwd, rev = _closed_slots(I, J, n)
    # W's pattern is fwd's with each row's diagonal after the columns below it
    counts = np.diff(fwd.indptr)
    r = np.repeat(np.arange(n), counts)
    above = fwd.indices > r
    diag = fwd.indptr[:-1] + np.bincount(r[~above], minlength=n) + np.arange(n)
    # a slot moves past the diagonals of the rows before it, and past its
    # own row's when its column lies above that diagonal
    off = np.arange(len(r)) + r + above
    indices = np.empty(len(off) + n, dtype=fwd.indices.dtype)
    indices[off] = fwd.indices
    indices[diag] = np.arange(n)
    rows = np.flatnonzero(counts)
    topo = _Topology(
        faces=f,
        vertex_corners=vertex_corners,
        # on vertex_corners' ones and indptr: scipy has picked the index
        # dtype already, so it copies neither
        vertex_faces=sp.csr_matrix(
            (vertex_corners.data, vertex_corners.indices % F, vertex_corners.indptr),
            shape=(n, F),
        ),
        # in the index dtype scipy picked for fwd, so filling W copies nothing
        indptr=fwd.indptr + np.arange(n + 1, dtype=fwd.indptr.dtype),
        indices=indices,
        pairs=np.stack([fwd.data, rev.data]),
        diag=diag,
        off=off,
        rows=rows,
        starts=fwd.indptr[rows],
    )
    mesh._topology = topo
    return topo


class _FaceGeometry(NamedTuple):
    """Face geometry on coordinate rows: x, y and z each one contiguous row.

    It lives for one pass (:func:`_faces`), and the mesh keeps only its
    four numbers, as :class:`_Measures`. ``normals`` is an (F, 3)
    view of (3, F) rows, so ``.T`` gives the rows back without a copy.
    Edge k, e_k, faces corner k: e0 = p2 - p1, e1 = p0 - p2,
    e2 = p1 - p0 (``_EDGE_ENDS``).
    """

    sq_lengths: np.ndarray  # (3, F): |e_k|^2 summed (x0 + x2) + x1
    dots: np.ndarray  # (3, F): at corner k, the dot of the two edges leaving it
    normals: np.ndarray  # cross(p1 - p0, p2 - p0), length 2 * area, outward
    dbl_areas: np.ndarray
    # the least |e_k|, its squares summed (x0 + x1) + x2 as np.linalg.norm
    # sums them: the square root rounds monotonically, so it is the least
    # of the norms to the bit
    min_length: float
    # the sum of p0 . normals, six times the volume, whose sign the step
    # checks; p0 . (p1 x p2) = p0 . ((p1 - p0) x (p2 - p0)), and
    # signed_volume takes the left side
    six_volume: float
    area: float  # the sum of dbl_areas, halved
    min_dbl_area: float  # the least of dbl_areas, which the step checks


class _Measures(NamedTuple):
    """The numbers of a mesh's face geometry that its step and record
    read, kept in ``_cache`` when the geometry's arrays are dropped."""

    min_length: float
    six_volume: float
    area: float
    min_dbl_area: float


# the ends (a, b) of edge e_k = p_a - p_b, k = 0, 1, 2
_EDGE_ENDS = ((2, 1), (0, 2), (1, 0))


def _row_norms(x: np.ndarray) -> np.ndarray:
    """|x| of (3, n) coordinate rows, summed (x0 + x1) + x2.

    That is bit for bit np.linalg.norm(x.T, axis=1).
    """
    s = x[0] * x[0]
    s += x[1] * x[1]
    s += x[2] * x[2]
    return np.sqrt(s, out=s)


def _row_dots(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """a . b of (3, n) coordinate rows, summed (x0 + x2) + x1.

    That is the order np.einsum("ij,ij->i", a.T, b.T) adds in when the
    (n, 3) arrays are C-ordered (numpy 2.4; on F-ordered ones it adds
    (x0 + x1) + x2). The reference tests of the mesh operators pin it.
    """
    s = np.multiply(a[0], b[0], out=out)
    s += a[2] * b[2]
    s += a[1] * b[1]
    return s


def _row_cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """cross(a, b) of (3, n) coordinate rows, bit for bit as np.cross."""
    out = np.empty((3, a.shape[1]))
    for k, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[i], b[j], out=out[k])
        out[k] -= a[j] * b[i]
    return out


def _edges(mesh: TriangleMesh):
    """The undirected edges as (a, b), a < b, each once, sorted by a * n + b.

    They are the slots of W above its diagonal, in CSR order.
    """
    topo = _topology(mesh)
    rows = np.repeat(np.arange(mesh.n_vertices), np.diff(topo.indptr))
    up = rows < topo.indices
    return rows[up], topo.indices[up].astype(np.intp)


def _corner_rows(mesh: TriangleMesh):
    """p0, p1, p2: the three corners of every face as (3, F) coordinate rows."""
    # the topology checks the indices, and a take into out= that may raise
    # buffers
    _topology(mesh)
    f, F = mesh.faces, mesh.n_faces
    vt = mesh.vertices.T.copy()
    # p[c][k]: coordinate k of corner c of every face, each corner an array
    # of its own
    p = tuple(np.empty((3, F)) for _ in range(3))
    for c in range(3):
        # np.take copies a strided index array on every call: copy it once
        corner = f[:, c].copy()
        for k in range(3):
            np.take(vt[k], corner, out=p[c][k], mode="clip")
    return p


def _edge_rows(p) -> np.ndarray:
    """e[j, k]: coordinate k of edge j of every face, from the corner rows."""
    e = np.empty((3, 3, p[0].shape[1]))
    for j, (a, b) in enumerate(_EDGE_ENDS):
        np.subtract(p[a], p[b], out=e[j])
    return e


def _corner_dots(e: np.ndarray) -> np.ndarray:
    """(3, F): at corner k, the dot of the two edges leaving it, -e_{k+1}
    and e_{k+2}: the sum of the plain products, negated, since rounding is
    symmetric."""
    dots = np.empty(e.shape[1:])
    for k in range(3):
        _row_dots(e[(k + 1) % 3], e[(k + 2) % 3], out=dots[k])
    return np.negative(dots, out=dots)


def _faces(mesh: TriangleMesh) -> _FaceGeometry:
    """Per-face geometry of this vertex set, for one pass; the mesh keeps
    its :class:`_Measures`."""
    p = _corner_rows(mesh)
    e = _edge_rows(p)
    # the squares serve both orders: norms add (x0 + x1) + x2, as
    # np.linalg.norm does, and squared lengths (x0 + x2) + x1, as np.einsum
    s = e * e
    norm_sq = np.add(s[:, 0], s[:, 1])
    norm_sq += s[:, 2]
    min_length = float(np.sqrt(norm_sq.min()))
    sq = np.add(s[:, 0], s[:, 2], out=norm_sq)
    sq += s[:, 1]
    del s
    # p2 - p0 is -e1 to the last bit too, so cross(e2, -e1) = cross(e1, e2)
    fn = _row_cross(e[1], e[2])
    dbl_areas = _row_norms(fn)
    geo = _FaceGeometry(
        sq_lengths=sq,
        dots=_corner_dots(e),
        normals=fn.T,
        dbl_areas=dbl_areas,
        min_length=min_length,
        six_volume=float(_row_dots(p[0], fn).sum()),
        area=float(dbl_areas.sum() / 2.0),
        min_dbl_area=float(dbl_areas.min()),
    )
    mesh._cache["measures"] = _Measures(
        geo.min_length, geo.six_volume, geo.area, geo.min_dbl_area
    )
    return geo


def _measures(mesh: TriangleMesh) -> _Measures:
    """The kept numbers of the mesh's face geometry, from a face pass if
    none has run on these vertices."""
    if "measures" not in mesh._cache:
        _faces(mesh)
    return mesh._cache["measures"]


def _edge_lengths(mesh: TriangleMesh):
    """|e0|, |e1|, |e2| of every face, summed (x0 + x1) + x2 as the face
    geometry sums them for its least length."""
    return tuple(_row_norms(x) for x in _edge_rows(_corner_rows(mesh)))


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
    if "ops" not in mesh._cache:
        _build(mesh, _faces(mesh))
    return mesh._cache["ops"]


def vertex_normals(mesh: TriangleMesh) -> np.ndarray:
    """Outward unit normals by area-weighted face-normal averaging."""
    if "normals" not in mesh._cache:
        _build(mesh, _faces(mesh))
    return mesh._cache["normals"]


def _build(mesh: TriangleMesh, geo: _FaceGeometry) -> None:
    """W, M and the vertex normals, into ``_cache``, from one face pass
    on the mesh's vertices; the pass's arrays are not kept."""
    import scipy.sparse as sp

    n = mesh.n_vertices
    topo = _topology(mesh)
    dblA = geo.dbl_areas
    # cot at corner k = dot of adjacent edges / (2 * face area)
    cot = geo.dots / dblA
    half = 0.5 * cot.reshape(-1)

    # the off-diagonal and the diagonal slots cover W.data between them
    data = np.empty(len(topo.indices))
    # a sum of two terms has no order; + 0.0 turns -0.0 + -0.0 into the
    # +0.0 that a sum from a zero start gives
    offdata = np.take(half, topo.pairs[0])
    offdata += np.take(half, topo.pairs[1])
    offdata += 0.0
    data[topo.off] = offdata
    # each diagonal is minus its row's off-diagonal sum, added in column
    # order as scipy's row sum adds them
    rowsum = np.zeros(n)
    rowsum[topo.rows] = np.add.reduceat(offdata, topo.starts)
    data[topo.diag] = -rowsum
    W = sp.csr_matrix((data, topo.indices, topo.indptr), shape=(n, n))

    # (|e_a|^2 cot_a + |e_b|^2 cot_b) / 8 over the two edges a, b at a
    # corner; times 0.125 rounds as / 8 does
    sc = geo.sq_lengths * cot
    vor = np.empty_like(sc)
    for k in range(3):
        np.add(sc[(k + 2) % 3], sc[(k + 1) % 3], out=vor[k])
    vor *= 0.125
    # obtuse triangles get the area/2 - area/4 - area/4 split instead
    obtuse = cot < 0.0
    ob = np.flatnonzero(obtuse.any(axis=0))
    if len(ob):
        fA = 0.5 * np.take(dblA, ob)
        vor[:, ob] = np.where(obtuse[:, ob], fA / 2.0, fA / 4.0)
    M = topo.vertex_corners @ vor.reshape(-1)
    mesh._cache["ops"] = (W, M)

    sums = topo.vertex_faces
    acc = np.stack([sums @ x for x in geo.normals.T])
    # C-ordered (n, 3), as the vertices the step adds them to
    nrm = np.divide(acc.T, _row_norms(acc)[:, None], out=np.empty((n, 3)))
    mesh._cache["normals"] = nrm


def mean_curvature(mesh: TriangleMesh) -> np.ndarray:
    """Vertex mean curvature from the Laplacian of the embedding.

    Delta f = -H nu, so H = -<Delta f, nu> with the outward vertex
    normal; positive on convex surfaces.
    """
    if "H" in mesh._cache:
        return mesh._cache["H"]
    W, M = build_operators(mesh)
    lap = (W @ mesh.vertices) / M[:, None]
    H = -_row_dots(lap.T, vertex_normals(mesh).T)
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
    # the corner dots of the face geometry, taken again from the corners
    e = _edge_rows(_corner_rows(mesh))
    l0, l1, l2 = (_row_norms(x) for x in e)
    # corner k lies between the edges e_{k+2} and -e_{k+1}
    for k, (dot, la, lb) in enumerate(zip(_corner_dots(e), (l2, l0, l1), (l1, l2, l0))):
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
    return _measures(mesh).area


def signed_volume(mesh: TriangleMesh) -> float:
    """Enclosed volume, positive for outward-oriented meshes."""
    p0, p1, p2 = _corner_rows(mesh)
    return float(_row_dots(p0, _row_cross(p1, p2)).sum() / 6.0)


def min_edge_length(mesh: TriangleMesh) -> float:
    # the least of the norms, not the square root of the least squared
    # length, which adds in another order, can differ in the last bit and
    # so move auto_dt
    return _measures(mesh).min_length


def dirichlet_energy(mesh: TriangleMesh, u: np.ndarray) -> float:
    """int |grad u|^2 d mu as the quadratic form u^T (-W) u."""
    W, _ = build_operators(mesh)
    return float(u @ (-(W @ u)))


def concentration(mesh: TriangleMesh, radius: float) -> float:
    """Largest curvature mass in a ball: sup_x int_{B(x, r)} |A|^2 d mu.

    Candidate centers are the vertices and the edge midpoints, each
    undirected edge once; the ball is Euclidean with the given radius
    and vertices carry their lumped mass. The result is the largest of
    the centers' exact sums (:func:`_exact_sums`), so it depends on the
    vertices, faces and radius only, whichever pass below finds it. A
    ball about the vertex nearest the box center that holds every vertex
    gives the total mass at once (:func:`_covered`).

    The full pass, :func:`_ball_sums`, sums every ball in one self-join
    of the vertices, each midpoint anchored at its edge's lower-index
    end, or at its nearest vertex where a half-edge is longer than the
    radius (its docstring gives the join and distance-test counts at
    20480 faces). A join sum and an exact sum each round by less than
    n 2^-53 times the mass, so the exact maximum lies among the centers
    whose join sum is within n 2^-50 times the mass of the best, twice
    the window needed, and those are summed exactly. The pass also
    gives every center's mass within r (1 + _ETA), kept with the
    vertices and the density in a memo that the meshes a step,
    translation or rescaling makes from this one share. A later mesh
    whose vertices all lie within _ETA r / 2 of the memo's is certified
    from it (:func:`_settled_max`): exact sums are taken only at the few
    centers whose bound reaches the best of them. A mesh that moved
    farther, or whose bounds leave more than _SETTLE_CAP centers, runs
    the full pass and refreshes the memo.
    """
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    H = mean_curvature(mesh)
    ao2, _ = tracefree_norm_sq(mesh)
    _, M = build_operators(mesh)
    density = (ao2 + 0.5 * H * H) * M
    v = mesh.vertices
    if _covered(v, density, radius):
        return float(density.sum())
    a, b = _edges(mesh)
    n = len(v)
    centers = np.empty((n + len(a), 3))
    centers[:n] = v
    # the edge midpoints, written in place: no copy of them outlives this
    np.add(np.take(v, a, axis=0), np.take(v, b, axis=0), out=centers[n:])
    centers[n:] /= 2.0
    alpha = _settled_max(mesh._memo.get("alpha"), v, centers, density, radius)
    if alpha is not None:
        return alpha
    alpha, sums, padded = _ball_sums(v, centers, density, radius, a)
    if padded is not None:
        mesh._memo["alpha"] = _Memo(radius, v, density, padded)
    # a nan density leaves no ties, and the pass's own value stands
    ties = np.flatnonzero(sums >= alpha - len(v) * 2.0**-50 * density.sum())
    if len(ties):
        alpha = float(_exact_sums(v, centers[ties], density, radius).max())
    return alpha


# The padded sums of the full pass reach r (1 + _ETA), and a mesh whose
# vertices moved by at most _ETA r / 2 is certified: 1.25e-4 at r = 0.25.
# mesh_20k moves its vertices by 1.8e-6 between records, and the 5120-
# face three-mode mesh by 1.2e-5 in 20 steps. The margin widens every
# bound: on the two mesh_20k runs (seeds 1, 2) a record settles 10 and 56
# centers at 1e-3 and 8 and 18 at 1e-4; at 1e-2 one record passes the
# cap below and the others settle 740 to 920.
_ETA = 1e-3
# Centers that a certified state settles at most. One exact sum takes
# about 1/2500 of a full pass at 20480 faces (27 us against 68 ms), so
# settling this many costs under half of one.
_SETTLE_CAP = 1024
# centers of largest bound whose exact sums set the first lower bound
_TOP = 8


class _Memo(NamedTuple):
    """The last full concentration pass on a run's meshes."""

    radius: float
    # the vertices it ran on: a mesh's vertices are never changed in
    # place, as its cached geometry assumes too
    points: np.ndarray
    density: np.ndarray  # their curvature mass
    padded: np.ndarray  # every center's mass within radius * (1 + _ETA)


def _bounds(memo, points, density, radius: float):
    """Upper bounds on every center's ball sum from the memo, or None.

    With delta the largest vertex displacement since the memo, a point
    inside a center's ball lay within r + 2 delta of that center then:
    an edge midpoint moves by no more than its ends. When 2 delta fits
    in _ETA r, less a margin of 1e-12 (r + the largest coordinate) for
    the rounding of the distance tests and of the midpoints, the point
    lay in the padded ball. So, the density being nonnegative, each
    center's sum is at most its padded sum plus Delta, the sum of
    |w - w_memo| over the vertices. Sums of at most n terms round by
    less than n 2^-53 times their mass, so the bound adds n 2^-50 times
    both total masses, four times the first-order rounding of the
    padded sum, the exact sum and Delta. None when the memo is for
    another radius, the density has a negative or nan value, or the
    vertices moved too far.
    """
    if memo is None or memo.radius != radius or memo.points.shape != points.shape:
        return None
    if not density.min() >= 0.0:
        return None
    delta = _row_norms((points - memo.points).T).max()
    extent = max(np.abs(points).max(), np.abs(memo.points).max())
    if not 2.0 * delta + 1e-12 * (radius + extent) <= _ETA * radius:
        return None
    slack = len(points) * 2.0**-50 * (density.sum() + memo.density.sum())
    return memo.padded + (np.abs(density - memo.density).sum() + slack)


def _settled_max(memo, points, centers, density, radius: float):
    """The largest ball sum from the memo's bounds and a few exact sums.

    The centers with the _TOP largest bounds are summed first; no center
    whose bound stays below the best of those sums can beat it, and the
    others are summed too. None when the memo gives no bounds or more
    than _SETTLE_CAP centers are left.
    """
    bound = _bounds(memo, points, density, radius)
    if bound is None:
        return None
    top = np.argpartition(bound, -min(_TOP, len(bound)))[-_TOP:]
    best = _exact_sums(points, centers[top], density, radius).max()
    rest = np.flatnonzero(bound >= best)
    rest = rest[~np.isin(rest, top)]
    if len(rest) > _SETTLE_CAP:
        return None
    rest = _exact_sums(points, centers[rest], density, radius)
    return float(max(best, rest.max(initial=-np.inf)))


def _covered(points, density, radius: float) -> bool:
    """Whether the ball about the point nearest the box center holds every
    point, by the squared-difference test of the full pass: its exact
    count is n. With no negative or nan density no ball then holds more,
    and that ball's exact sum, every term kept, is the density's sum."""
    if not density.min() >= 0.0:
        return False
    mid = (points.max(axis=0) + points.min(axis=0)) / 2.0
    near = points[np.argmin(_row_norms((points - mid).T))]
    ones = np.ones(len(points))
    return _exact_sums(points, near[None], ones, radius)[0] == len(points)


def _exact_sums(points, centers, density, radius: float) -> np.ndarray:
    """Ball sums of a few centers over all the points, blocks of centers
    at a time, by the squared-difference test of the full pass. Each row
    is summed on its own, so a center's sum does not depend on the
    centers that share its block, as a matrix product's can."""
    pt, r2 = points.T.copy(), radius * radius
    block = max(_TEST_BLOCK // len(points), 1)
    out = np.empty(len(centers))
    for start in range(0, len(centers), block):
        c = centers[start : start + block]
        sq = None
        for k in range(3):
            d = np.subtract.outer(c[:, k], pt[k])
            d *= d
            sq = d if sq is None else np.add(sq, d, out=sq)
        out[start : start + block] = np.where(sq <= r2, density, 0.0).sum(axis=1)
    return out


# center-point tests held at once in _exact_sums
_TEST_BLOCK = 65536
# pairs of the widened self-join reduced at once in _ball_sums, and the
# most shell tests a chunk runs at once. Each thread frees its temporaries
# into an allocator arena of its own: at 65536 the pass at 20480 faces
# faulted in about twice the pages and raised maxrss by 8 MB more
_PAIR_CHUNK = 32768
# _ball_sums cuts a cell of the points in two while it holds more than
# this many: one cell for small clouds, 8 at 20480 faces
_CELL = 2048


def _workers() -> int:
    """Threads of a full pass: two, or one where the process has one core."""
    if hasattr(os, "sched_getaffinity"):
        return min(2, len(os.sched_getaffinity(0)))
    return min(2, os.cpu_count() or 1)


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


def _split(d2, r2: float, big2: float):
    """(d2 <= r2, where r2 < d2 <= big2), so that d2 need not outlive the
    tests."""
    inside = d2 <= r2
    return inside, np.flatnonzero(inside != (d2 <= big2))


def _tasks(points, reach: float, cell=None) -> list:
    """Joins that between them list every pair of points within reach once.

    The cell, all the points by default, is cut at the median of its
    widest coordinate, and each half again while it holds more than _CELL
    points. A leaf ``(cell, None)`` joins its points with each other. A cut
    ``(low, high)`` joins the points of each half that lie within reach of
    the other half in that coordinate: a pair is listed by the cut that
    parts its ends, or by the leaf that holds both. The list is in a fixed
    order, so the sums made from it do not depend on how it is run.
    """
    if cell is None:
        cell = np.arange(len(points))
    if len(cell) <= _CELL:
        return [(cell, None)]
    x = np.take(points, cell, axis=0)
    k = np.argmax(x.max(axis=0) - x.min(axis=0))
    order = np.argsort(x[:, k], kind="stable")
    c, half = x[order, k], len(cell) // 2
    low, high = np.take(cell, order[:half]), np.take(cell, order[half:])
    # a pair across the cut differs by at most reach in coordinate k; a
    # rounded difference is no larger than reach when the exact one is not
    band = (low[c[half] - c[:half] <= reach], high[c[half:] - c[half - 1] <= reach])
    cut = [band] if len(band[0]) and len(band[1]) else []
    return cut + _tasks(points, reach, low) + _tasks(points, reach, high)


def _task_pairs(points, task, reach: float):
    """The pairs within reach that one of _tasks' joins lists, as (i, j,
    low, high): the pair t is points low[i[t]] and high[j[t]]."""
    from scipy.spatial import cKDTree

    low, high = task
    tree = cKDTree(np.take(points, low, axis=0))
    if high is None:
        pairs = tree.query_pairs(reach, output_type="ndarray")
        return pairs[:, 0], pairs[:, 1], low, low
    other = cKDTree(np.take(points, high, axis=0))
    join = tree.sparse_distance_matrix(other, reach, output_type="ndarray")
    return join["i"], join["j"], low, high


def _ball_sums(points, centers, density, radius: float, anchors):
    """The full pass of :func:`concentration`: the largest sum of the
    per-point density over a Euclidean ball of the radius about a center,
    every center's ball sum, and every center's padded sum, its mass
    within radius * (1 + _ETA).

    The centers are the points and then further centers (a mesh's
    vertices and then its edge midpoints). Each further center c is
    anchored at a point p at distance d <= r, which ``anchors`` names,
    one index into the points per further center. When some named point
    lies farther than r from its center, every further center is
    anchored at its nearest point instead, and if that too lies farther
    than r its ball is empty and sums to 0; the padded sums are then
    None, since an empty ball says nothing about the padded one.

    A point in just one of B(c) and B(p) lies in the shell
    r - d < |x - p| <= r + d. So one self-join of the points at
    r + d_max, d_max the largest d, gives every point's ball sum, every
    anchor's core sum within r - d_max, which B(c) holds too, p itself
    included, and the shell pairs beyond: c adds the shell points inside
    B(c) to its anchor's core. The join reaches r (1 + _ETA) + d_max,
    for the padded sums. It is split into the independent joins of
    :func:`_tasks`, which run on :func:`_workers` threads. Each reduces
    its pairs ``_PAIR_CHUNK`` at a time into sums of its own, and returns
    them only at the entries it touched. A chunk's
    shell pairs are tested once against every center of their anchor,
    about 1.8 tests per pair of the chunk at 20480 faces: those tests run
    ``_PAIR_CHUNK`` at a time too, once the chunk's pair arrays are freed,
    each run's sums added on their own. The tasks' sums are added in the
    order of the list, so the bits do not depend on the thread count;
    :func:`concentration` takes exact sums at the near-ties, so its
    alpha does not depend on this summation order either. On the
    20480-face ``mesh_20k`` benchmark state (seed 1) at r = 0.25, with
    the edge-end anchors of :func:`concentration`, that is 15 joins (8
    cells and 7 cuts) listing 966352 pairs, 292118 in the shell, and
    1753490 distance tests.
    """
    n, r2 = len(points), radius * radius
    extra = centers[n:]
    pt, ex = points.T.copy(), extra.T.copy()
    big = radius * (1.0 + _ETA)
    big2 = big * big
    every = np.arange(len(extra))
    anchor = np.asarray(anchors, dtype=np.intp)
    d2 = _sq_dists(ex, every, pt, anchor)
    near = d2 <= r2
    if not near.all():
        from scipy.spatial import cKDTree

        anchor = cKDTree(points).query(extra, k=1)[1]
        d2 = _sq_dists(ex, every, pt, anchor)
        near = d2 <= r2
    # the centers of anchor p become first[p], ..., first[p] + cnt[p] - 1
    order = every[near][np.argsort(anchor[near], kind="stable")]
    anchor, ex = anchor[order], ex[:, order]
    m = len(anchor)
    cnt = np.bincount(anchor, minlength=n)
    first = np.cumsum(cnt) - cnt
    d_max = np.sqrt(d2[near].max(initial=0.0))
    anchored = bool(near.all())
    # freed before the joins, which need none of them
    del every, d2, near
    # both bounds moved out by a relative 1e-12 against rounding
    inner2 = max(radius * (1.0 - 1e-12) - d_max, 0.0) ** 2
    reach = (big + d_max) * (1.0 + 1e-12)
    # core, rim, rim_out, fix, fix_out of concentration's sums, back to back
    cuts = [n, 2 * n, 3 * n, 3 * n + m]

    def reduce(task):
        i, j, low, high = _task_pairs(points, task, reach)
        part = np.zeros(3 * n + 2 * m)
        core, rim, rim_out, fix, fix_out = np.split(part, cuts)
        for start in range(0, len(i), _PAIR_CHUNK):
            # the join's indices mapped a chunk at a time: mapping them all
            # at once made a copy of every pair, faulted in afresh by each pass
            a = np.take(low, i[start : start + _PAIR_CHUNK])
            b = np.take(high, j[start : start + _PAIR_CHUNK])
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
            # the mass beyond the radius but within big: the few tests that
            # land in that thin shell are gathered apart
            inside, out = _split(np.take(d2, s), r2, big2)
            rim += np.bincount(p, w * np.tile(inside, 2), n)
            out = np.concatenate([out, out + len(s)])
            rim_out += np.bincount(np.take(p, out), np.take(w, out), n)
            # freed before the shell tests, which need only p, x and w
            del a, b, d2, wa, wb, inn, s, sa, sb, inside, out
            # every pair once per center of its anchor: test t is of pair
            # e[t] and center k[t], run _PAIR_CHUNK tests at a time
            c = np.take(cnt, p)
            ends = np.cumsum(c)
            base = np.take(first, p) - (ends - c)
            tests = int(c.sum())
            for t0 in range(0, tests, _PAIR_CHUNK):
                t1 = min(t0 + _PAIR_CHUNK, tests)
                lo, hi = np.searchsorted(ends, [t0, t1 - 1], side="right")
                skip = t0 - (ends[lo] - c[lo])
                e = np.repeat(np.arange(lo, hi + 1), c[lo : hi + 1])[skip:][: t1 - t0]
                k = np.take(base, e)
                k += np.arange(t0, t1)
                we = np.take(w, e)
                inside, out = _split(_sq_dists(pt, np.take(x, e), ex, k), r2, big2)
                fix_out += np.bincount(np.take(k, out), np.take(we, out), m)
                we *= inside
                fix += np.bincount(k, we, m)
        # the sums at the entries the task touched, which a finished task's
        # result holds until its turn to be added: adding a zero is a no-op
        touched = np.flatnonzero(part)
        return touched, part[touched]

    from concurrent.futures import ThreadPoolExecutor

    total = np.zeros(3 * n + 2 * m)
    total[:n] = density
    with ThreadPoolExecutor(_workers()) as pool:
        for touched, values in pool.map(reduce, _tasks(points, reach)):
            total[touched] += values
    core, rim, rim_out, fix, fix_out = np.split(total, cuts)
    # a center farther than the radius from every point has an empty ball
    sums = np.zeros(len(centers))
    sums[:n] = core + rim
    sums[n + order] = np.take(core, anchor) + fix
    padded = None
    if anchored:
        padded = sums.copy()
        padded[:n] += rim_out
        padded[n + order] += fix_out
    return float(sums.max()), sums, padded


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
                try:
                    x, y, z = map(float, parts[1:])
                except ValueError:
                    raise ValueError(
                        f"line {lineno}: v record needs 3 coordinates, got {line!r}"
                    ) from None
                verts.append([x, y, z])
            elif tag == "f":
                if len(parts) != 4:
                    raise ValueError(f"line {lineno}: only triangle faces supported")
                try:
                    idx = [int(tok.split("/")[0]) - 1 for tok in parts[1:]]
                except ValueError:
                    raise ValueError(
                        f"line {lineno}: f record needs 3 integer vertex indices, "
                        f"got {line!r}"
                    ) from None
                if min(idx) < 0:
                    raise ValueError(f"line {lineno}: face indices must be positive")
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

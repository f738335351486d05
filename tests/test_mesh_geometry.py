"""Discrete curvature and measure on closed triangle meshes.

Oracles: round spheres and closed-form ellipsoid curvatures, spherical
cap areas for concentration, and exact combinatorial identities
(Gauss-Bonnet, orientation flip, translation invariance).
"""

import multiprocessing
import os
import sys
import threading
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist
from hypothesis import given, settings
from hypothesis import strategies as hst

from oracles import dense_ball_sums, ellipsoid_curvatures, spherical_cap_area
from triheat import diagnostics, flow, mesh, shapes
from triheat.mesh import TriangleMesh

AXES = (1.0, 1.0, 1.2)


def min_face_angle_deg(m):
    v, f = m.vertices, m.faces
    e1 = v[f[:, 1]] - v[f[:, 0]]
    e2 = v[f[:, 2]] - v[f[:, 1]]
    e3 = v[f[:, 0]] - v[f[:, 2]]

    def angles(a, b):
        cosv = (a * b).sum(axis=1)
        cosv /= np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
        return np.degrees(np.arccos(np.clip(cosv, -1.0, 1.0)))

    return min(
        angles(e1, -e3).min(), angles(e2, -e1).min(), angles(e3, -e2).min()
    )


def tetrahedron():
    v = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
    ) / np.sqrt(3.0)
    f = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])
    return TriangleMesh(v, f)


# ---------------------------------------------------------------------------
# mesh validity
# ---------------------------------------------------------------------------


def reference_subdivide(vertices, faces):
    """The 4-to-1 split as a loop over the faces, numbering midpoints as met."""
    verts = list(vertices)
    cache = {}

    def midpoint(a, b):
        key = (a, b) if a < b else (b, a)
        if key not in cache:
            p = verts[a] + verts[b]
            verts.append(p / np.linalg.norm(p))
            cache[key] = len(verts) - 1
        return cache[key]

    out = []
    for a, b, c in faces:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        out.extend([[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]])
    return np.asarray(verts), np.asarray(out, dtype=np.int64)


def test_subdivide_equals_the_loop_reference():
    v, f = shapes.icosahedron()
    for _ in range(5):
        got_v, got_f = shapes.subdivide(v, f)
        v, f = reference_subdivide(v, f)
        assert np.array_equal(got_v, v)
        assert np.array_equal(got_f, f) and got_f.dtype == f.dtype


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_icosphere_counts(n):
    m = shapes.icosphere(n)
    m.validate()
    assert len(m.vertices) == 10 * 4**n + 2
    assert len(m.faces) == 20 * 4**n


def test_validate_rejects_boundary():
    m = shapes.icosphere(1)
    with pytest.raises(ValueError, match="boundary"):
        TriangleMesh(m.vertices, m.faces[:-1]).validate()


def test_validate_rejects_inconsistent_orientation():
    m = shapes.icosphere(1)
    f = m.faces.copy()
    f[0] = f[0][[0, 2, 1]]
    with pytest.raises(ValueError, match="directed edge"):
        TriangleMesh(m.vertices, f).validate()


def test_validate_rejects_unreferenced_vertex():
    m = shapes.icosphere(1)
    v = np.vstack([m.vertices, [5.0, 5.0, 5.0]])
    with pytest.raises(ValueError, match="not referenced"):
        TriangleMesh(v, m.faces).validate()


def test_validate_rejects_nonfinite_and_degenerate():
    m = shapes.icosphere(1)
    v = m.vertices.copy()
    v[3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        TriangleMesh(v, m.faces).validate()
    f = m.faces.copy()
    f[0, 1] = f[0, 0]
    with pytest.raises(ValueError, match="repeated vertex"):
        TriangleMesh(m.vertices, f).validate()
    f = m.faces.copy()
    f[0, 0] = 999
    with pytest.raises(ValueError, match="out of range"):
        TriangleMesh(m.vertices, f).validate()


def test_validate_rejects_inward_orientation():
    for m in (shapes.icosphere(1), shapes.perturbed_sphere_mesh(2, 1.0, [(2, 0, 0.1)])):
        inward = TriangleMesh(m.vertices, m.faces[:, [0, 2, 1]])
        with pytest.raises(ValueError, match="oriented inward"):
            inward.validate()
    with pytest.raises(ValueError, match="oriented inward"):
        shapes.generate("sphere", "mesh", subdivisions=1, radius=-1.0)


def test_construction_rejects_faces_that_are_not_integers():
    m = shapes.icosphere(1)
    # integral floats, as np.loadtxt gives them, are indices
    assert np.array_equal(TriangleMesh(m.vertices, m.faces * 1.0).faces, m.faces)
    for faces in (m.faces + 0.5, np.where(m.faces == 3, np.nan, m.faces)):
        with pytest.raises(ValueError, match="faces must hold integers"):
            TriangleMesh(m.vertices, faces)
    with pytest.raises(ValueError, match="faces must hold integers"):
        TriangleMesh(m.vertices, m.faces.astype(complex))


def test_construction_rejects_vertices_that_are_not_real():
    m = shapes.icosphere(1)
    with pytest.raises(ValueError, match="vertices must be real"):
        TriangleMesh(m.vertices + 1e-3j, m.faces)
    # a zero imaginary part is refused too: the dtype is what is checked
    with pytest.raises(ValueError, match="vertices must be real"):
        TriangleMesh(m.vertices.astype(complex), m.faces)


def test_validate_rejects_face_geometry_that_overflows():
    # finite vertices whose squared edge lengths, areas and volume do not
    # fit in a double: each check against zero is False for nan
    with pytest.raises(ValueError, match="non-finite"):
        shapes.generate("sphere", "mesh", subdivisions=1, radius=1e200)


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------


def test_stiffness_rows_sum_to_zero_on_tetrahedron():
    W, _ = mesh.build_operators(tetrahedron())
    assert np.abs(np.asarray(W.sum(axis=1))).max() == 0.0


def test_mass_is_positive_and_sums_to_area():
    t = tetrahedron()
    _, mass = mesh.build_operators(t)
    assert np.all(mass > 0.0)
    assert abs(mass.sum() - mesh.area(t)) <= 1e-14
    m3 = shapes.icosphere(3)
    _, mass3 = mesh.build_operators(m3)
    assert abs(mass3.sum() - mesh.area(m3)) <= 1e-12


def test_vertex_normals_equal_the_add_at_reference():
    m = shapes.perturbed_sphere_mesh(3, 1.0, [(2, 0, 0.1), (3, 2, 0.05)])
    v, f = m.vertices, m.faces
    fn = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
    acc = np.zeros_like(v)
    for k in range(3):
        np.add.at(acc, f[:, k], fn)
    want = acc / np.linalg.norm(acc, axis=1, keepdims=True)
    assert np.array_equal(mesh.vertex_normals(m), want)


def reference_operators(m):
    """W and M assembled on their own, with a COO -> CSR sum of the terms."""
    v, f = m.vertices, m.faces
    n = len(v)
    p0, p1, p2 = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
    e0, e1, e2 = p2 - p1, p0 - p2, p1 - p0
    dblA = np.linalg.norm(np.cross(e1, e2), axis=1)
    cot0 = np.einsum("ij,ij->i", -e1, e2) / dblA
    cot1 = np.einsum("ij,ij->i", -e2, e0) / dblA
    cot2 = np.einsum("ij,ij->i", -e0, e1) / dblA
    i0, i1, i2 = f[:, 0], f[:, 1], f[:, 2]
    I = np.concatenate([i1, i2, i2, i0, i0, i1])
    J = np.concatenate([i2, i1, i0, i2, i1, i0])
    data = 0.5 * np.concatenate([cot0, cot0, cot1, cot1, cot2, cot2])
    W = sp.coo_matrix((data, (I, J)), shape=(n, n)).tocsr()
    W = W - sp.diags(np.asarray(W.sum(axis=1)).ravel())
    sq0, sq1, sq2 = (np.einsum("ij,ij->i", e, e) for e in (e0, e1, e2))
    fA = 0.5 * dblA
    vor = [
        (sq2 * cot2 + sq1 * cot1) / 8.0,
        (sq0 * cot0 + sq2 * cot2) / 8.0,
        (sq1 * cot1 + sq0 * cot0) / 8.0,
    ]
    obs = [cot0 < 0.0, cot1 < 0.0, cot2 < 0.0]
    obtuse = obs[0] | obs[1] | obs[2]
    M = np.zeros(n)
    for k in range(3):
        vor_k = np.where(obtuse, np.where(obs[k], fA / 2.0, fA / 4.0), vor[k])
        np.add.at(M, f[:, k], vor_k)
    return W, M


def reference_normals(m):
    v, f = m.vertices, m.faces
    fn = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
    acc = np.zeros_like(v)
    for k in range(3):
        np.add.at(acc, f[:, k], fn)
    return acc / np.linalg.norm(acc, axis=1, keepdims=True)


def reference_min_edge_length(m):
    v, f = m.vertices, m.faces
    p0, p1, p2 = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
    return float(
        min(np.linalg.norm(b - a, axis=1).min() for a, b in ((p0, p1), (p1, p2), (p2, p0)))
    )


def reference_gauss_curvature(m):
    v, f = m.vertices, m.faces
    defect = np.full(len(v), 2.0 * np.pi)
    p0, p1, p2 = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
    for k, (a, b, c) in enumerate(((p0, p1, p2), (p1, p2, p0), (p2, p0, p1))):
        u, w = b - a, c - a
        cosang = np.einsum("ij,ij->i", u, w) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(w, axis=1)
        )
        np.add.at(defect, f[:, k], -np.arccos(np.clip(cosang, -1.0, 1.0)))
    return defect / reference_operators(m)[1]


def assert_operators_equal_the_reference(m):
    W, M = mesh.build_operators(m)
    W_ref, M_ref = reference_operators(m)
    assert np.array_equal(W.indptr, W_ref.indptr)
    assert np.array_equal(W.indices, W_ref.indices)
    assert np.array_equal(W.data, W_ref.data)
    assert np.array_equal(M, M_ref)
    assert np.array_equal(mesh.vertex_normals(m), reference_normals(m))
    assert mesh.min_edge_length(m) == reference_min_edge_length(m)
    assert np.array_equal(mesh.gauss_curvature(m), reference_gauss_curvature(m))


@pytest.mark.parametrize("jitter", [False, True], ids=["round", "jittered"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cached_operators_equal_a_standalone_reference(n, jitter):
    # unjittered icosphere(4) is where the square root of the least
    # squared edge length is one ulp off the least norm
    m = shapes.icosphere(n)
    if jitter:
        rng = np.random.default_rng(n)
        h = reference_min_edge_length(m)
        m = TriangleMesh(m.vertices + 0.1 * h * rng.normal(size=m.vertices.shape), m.faces)
    assert_operators_equal_the_reference(m)


def bipyramid(k):
    """k equator vertices on the unit circle and two poles, each of valence k."""
    t = 2.0 * np.pi * np.arange(k) / k
    ring = np.stack([np.cos(t), np.sin(t), np.zeros(k)], axis=1)
    v = np.vstack([ring, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
    a = np.arange(k)
    b = (a + 1) % k
    top = np.stack([a, b, np.full(k, k)], axis=1)
    bottom = np.stack([b, a, np.full(k, k + 1)], axis=1)
    return TriangleMesh(v, np.vstack([top, bottom]))


@pytest.mark.parametrize("jitter", [False, True], ids=["plain", "jittered"])
@pytest.mark.parametrize("k", [8, 16, 40])
def test_operators_at_high_valence_equal_a_standalone_reference(k, jitter):
    # a pole's row holds k + 1 slots, where an icosphere's hold at most 7:
    # this pins the column order of long rows and their diagonal's sum
    m = bipyramid(k)
    m.validate()
    if jitter:
        rng = np.random.default_rng(k)
        h = reference_min_edge_length(m)
        m = TriangleMesh(m.vertices + 0.1 * h * rng.normal(size=m.vertices.shape), m.faces)
        m.validate()
    assert np.diff(mesh.build_operators(m)[0].indptr).max() == k + 1
    assert_operators_equal_the_reference(m)


@pytest.mark.parametrize("jitter", [False, True], ids=["round", "jittered"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_face_geometry_equals_the_norm_and_cross_reference(n, jitter):
    m = shapes.icosphere(n)
    if jitter:
        rng = np.random.default_rng(100 + n)
        h = reference_min_edge_length(m)
        noise = 0.1 * h * rng.normal(size=m.vertices.shape)
        m = TriangleMesh(m.vertices + noise, m.faces)
    v, f = m.vertices, m.faces
    p0, p1, p2 = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
    fn = np.cross(p1 - p0, p2 - p0)
    geo = mesh._faces(m)
    ends = ((p1, p2), (p2, p0), (p0, p1))
    lengths = [np.linalg.norm(b - a, axis=1) for a, b in ends]
    for got, want in zip(mesh._edge_lengths(m), lengths):
        assert np.array_equal(got, want)
    assert geo.min_length == min(x.min() for x in lengths)
    assert np.array_equal(geo.normals, fn)
    assert np.array_equal(geo.dbl_areas, np.linalg.norm(fn, axis=1))
    volume = float(np.einsum("ij,ij->i", p0, np.cross(p1, p2)).sum() / 6.0)
    assert mesh.signed_volume(m) == volume
    assert np.array_equal(mesh.vertex_normals(m), reference_normals(m))
    assert mesh.min_edge_length(m) == reference_min_edge_length(m)


def _flip_first_face(f):
    f = f.copy()
    f[0] = f[0, ::-1]
    return f


def _collapse_first_face(f):
    f = f.copy()
    f[0, 1] = f[0, 0]
    return f


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda f: f[1:], "boundary"),
        (_flip_first_face, "directed edge"),
        (_collapse_first_face, "repeated vertex"),
    ],
    ids=["face-removed", "face-flipped", "vertex-repeated"],
)
def test_a_mesh_that_does_not_close_up_is_rejected_with_validates_error(
    change, message
):
    m = shapes.icosphere(2)
    faces = change(m.faces)
    with pytest.raises(ValueError, match=message) as want:
        TriangleMesh(m.vertices, faces).validate()
    calls = [
        mesh.build_operators,
        lambda b: mesh.concentration(b, 0.25),
        diagnostics.compute_record,
        lambda b: flow.step_mesh(b, 1e-6),
    ]
    for call in calls:
        # a new mesh for each call, so none reuses another's topology
        with pytest.raises(ValueError) as got:
            call(TriangleMesh(m.vertices, faces))
        assert str(got.value) == str(want.value)


def test_topology_rejects_face_indices_out_of_range():
    m = shapes.icosphere(1)
    f = m.faces.copy()
    f[3, 2] = m.n_vertices
    with pytest.raises(ValueError, match="out of range"):
        mesh.build_operators(TriangleMesh(m.vertices, f))


def reference_step(m, dt):
    """One explicit step and its acceptance check, from the references."""
    v, f = m.vertices, m.faces
    W, M = reference_operators(m)
    nrm = reference_normals(m)
    H = -np.einsum("ij,ij->i", (W @ v) / M[:, None], nrm)
    w2 = (W @ ((W @ H) / M)) / M
    new = v + dt * (-w2[:, None] * nrm)
    p0, p1, p2 = new[f[:, 0]], new[f[:, 1]], new[f[:, 2]]
    ok = (
        np.all(np.isfinite(new))
        and np.linalg.norm(new - v, axis=1).max() <= 0.5 * reference_min_edge_length(m)
        and np.linalg.norm(np.cross(p1 - p0, p2 - p0), axis=1).min() > 0.0
        and np.einsum("ij,ij->i", p0, np.cross(p1, p2)).sum() / 6.0 > 0.0
    )
    return new, ok


@pytest.mark.parametrize("jitter", [False, True], ids=["round", "jittered"])
def test_a_step_equals_a_step_from_the_references(jitter):
    m = shapes.icosphere(3)
    if jitter:
        rng = np.random.default_rng(7)
        h = reference_min_edge_length(m)
        m = TriangleMesh(m.vertices + 0.1 * h * rng.normal(size=m.vertices.shape), m.faces)
    dt = flow.auto_dt(m)
    new = flow.step_mesh(m, dt)
    want, ok = reference_step(m, dt)
    assert np.array_equal(new.vertices, want)
    assert flow._mesh_step_ok(m, new) == ok


def test_twenty_steps_equal_steps_from_the_references():
    m = shapes.perturbed_sphere_mesh(3, 1.0, [(2, 0, 0.05), (3, 1, 0.02), (5, -2, 0.01)])
    dt = flow.auto_dt(m)
    ref = m
    for _ in range(20):
        new = flow.step_mesh(m, dt)
        want, ok = reference_step(ref, dt)
        assert np.array_equal(new.vertices, want)
        assert ok and flow._mesh_step_ok(m, new)
        m, ref = new, TriangleMesh(want, ref.faces)


def test_a_mesh_on_other_faces_builds_its_own_topology():
    m = shapes.perturbed_sphere_mesh(2, 1.0, [(2, 0, 0.1)])
    mesh.build_operators(m)
    # face 0's corners cycled: the same directed edges in another array
    f = m.faces.copy()
    f[0] = f[0, [1, 2, 0]]
    cycled = TriangleMesh(m.vertices, f)
    assert mesh._topology(cycled) is not mesh._topology(m)
    assert_operators_equal_the_reference(cycled)
    # a mesh made from m by a move shares the entry, until its faces change
    moved = m.translated((0.1, 0.0, 0.0))
    assert mesh._topology(moved) is mesh._topology(m)
    moved.faces = f
    assert mesh._topology(moved) is not mesh._topology(m)
    assert_operators_equal_the_reference(moved)


@pytest.mark.parametrize(
    "offset",
    [(0.1, float("nan"), 0.0), (0.1, 0.2), np.full((642, 3), 0.1)],
    ids=["nan", "shape-2", "shape-n3"],
)
def test_translated_rejects_an_offset_that_is_no_finite_point(offset):
    m = shapes.icosphere(3)
    assert m.n_vertices == 642
    with pytest.raises(ValueError, match="offset must be a finite x, y, z point"):
        m.translated(offset)


def test_laplacian_of_coordinate_converges():
    """On the unit sphere Delta z = -2 z; the defect must shrink under
    one subdivision by at least 1.5 (observed factor is close to 4)."""
    errs = []
    for n in (3, 4):
        m = shapes.icosphere(n)
        W, mass = mesh.build_operators(m)
        u = m.vertices[:, 2]
        errs.append(np.abs(W @ u / mass + 2.0 * u).max())
    assert errs[0] / errs[1] >= 1.5
    assert errs[1] <= 0.01


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def test_sphere_mean_curvature():
    h = mesh.mean_curvature(shapes.icosphere(4))
    assert np.abs(h / 2.0 - 1.0).max() <= 0.02


def test_mean_curvature_scaling_is_exact():
    m = shapes.icosphere(3)
    h = mesh.mean_curvature(m)
    hs = mesh.mean_curvature(TriangleMesh(2.0 * m.vertices, m.faces))
    assert np.array_equal(hs, h / 2.0)


def test_ellipsoid_mean_curvature():
    m = shapes.ellipsoid_mesh(6, AXES)
    assert len(m.faces) >= 50_000
    href, _ = ellipsoid_curvatures(m.vertices, AXES)
    assert np.abs(mesh.mean_curvature(m) / href - 1.0).max() <= 0.03


def test_gauss_bonnet_is_exact():
    for m in (shapes.icosphere(4), shapes.ellipsoid_mesh(4, AXES)):
        k = mesh.gauss_curvature(m)
        _, mass = mesh.build_operators(m)
        assert abs((k * mass).sum() - 4.0 * np.pi) <= 1e-10


def test_sphere_gauss_curvature():
    m = shapes.icosphere(4)
    k = mesh.gauss_curvature(TriangleMesh(2.0 * m.vertices, m.faces))
    assert np.abs(k / 0.25 - 1.0).max() <= 0.02


def test_ellipsoid_gauss_curvature():
    m = shapes.ellipsoid_mesh(6, AXES)
    _, kref = ellipsoid_curvatures(m.vertices, AXES)
    assert np.abs(mesh.gauss_curvature(m) / kref - 1.0).max() <= 0.03


def test_curvature_errors_shrink_under_refinement():
    ratios = []
    for vals, exact in ((mesh.mean_curvature, 2.0), (mesh.gauss_curvature, 1.0)):
        errs = [
            np.abs(vals(shapes.icosphere(n)) - exact).max() for n in (3, 4)
        ]
        ratios.append(errs[0] / errs[1])
    assert min(ratios) >= 1.5


# ---------------------------------------------------------------------------
# tracefree second fundamental form
# ---------------------------------------------------------------------------


def test_sphere_tracefree_is_tiny():
    m = shapes.icosphere(4)
    ao2, _ = mesh.tracefree_norm_sq(m)
    h = mesh.mean_curvature(m)
    assert np.all(ao2 <= 0.01 * h**2)


def test_ellipsoid_tracefree_integral():
    """Mesh integral of |A*|^2 against a high-order quadrature of the
    closed-form value on the exact ellipsoid."""
    from triheat import radial
    from triheat.spherical import GridSpec, transform_for

    m = shapes.ellipsoid_mesh(5, AXES)
    ao2, _ = mesh.tracefree_norm_sq(m)
    _, mass = mesh.build_operators(m)
    got = (ao2 * mass).sum()

    grid = GridSpec.for_bandlimit(48)
    state = shapes.ellipsoid_state(grid, AXES)
    tr = transform_for(grid)
    th, ph = tr.theta[:, None], tr.phi[None, :]
    rho = state.values
    pts = np.stack(
        [rho * np.sin(th) * np.cos(ph), rho * np.sin(th) * np.sin(ph), rho * np.cos(th)],
        axis=-1,
    )
    h, k = ellipsoid_curvatures(pts, AXES)
    want = radial.integrate(state, 0.5 * h**2 - 2.0 * k)
    assert abs(got / want - 1.0) <= 0.05


def test_tracefree_scale_invariance():
    m = shapes.ellipsoid_mesh(4, AXES)
    ao2, _ = mesh.tracefree_norm_sq(m)
    _, mass = mesh.build_operators(m)
    scaled = TriangleMesh(2.0 * m.vertices, m.faces)
    ao2s, _ = mesh.tracefree_norm_sq(scaled)
    _, mass_s = mesh.build_operators(scaled)
    assert np.array_equal(ao2s, ao2 / 4.0)
    assert abs((ao2s * mass_s).sum() / (ao2 * mass).sum() - 1.0) <= 1e-12


def test_clamp_rate_is_small_on_good_meshes():
    # triaxial semiaxes keep umbilic points isolated, so only a few
    # vertices sit where discretization noise can push the value negative
    m = shapes.ellipsoid_mesh(4, (1.0, 1.2, 1.5))
    assert min_face_angle_deg(m) > 20.0
    ao2, clamped = mesh.tracefree_norm_sq(m)
    assert clamped / len(ao2) < 0.01


# ---------------------------------------------------------------------------
# area, volume, concentration
# ---------------------------------------------------------------------------


def test_sphere_area_and_volume():
    m = shapes.icosphere(4)
    assert abs(mesh.area(m) / (4.0 * np.pi) - 1.0) <= 0.005
    assert abs(mesh.signed_volume(m) / (4.0 * np.pi / 3.0) - 1.0) <= 0.005


def test_orientation_flip_negates_volume_exactly():
    m = shapes.icosphere(3)
    flipped = TriangleMesh(m.vertices, m.faces[:, [0, 2, 1]])
    assert mesh.signed_volume(flipped) == -mesh.signed_volume(m)


def test_volume_translation_invariance():
    m = shapes.icosphere(3)
    v0 = mesh.signed_volume(m)
    rng = np.random.default_rng(7)
    for _ in range(3):
        t = rng.uniform(-5.0, 5.0, size=3)
        assert abs(mesh.signed_volume(m.translated(t)) - v0) <= 1e-10 * abs(v0)


def test_concentration_full_cover():
    m = shapes.icosphere(3)
    h = mesh.mean_curvature(m)
    ao2, _ = mesh.tracefree_norm_sq(m)
    _, mass = mesh.build_operators(m)
    total = ((ao2 + 0.5 * h**2) * mass).sum()
    assert mesh.concentration(m, 4.0) == total
    # a radius between the diameter and the bounding-box diagonal covers
    # everything too
    assert abs(mesh.concentration(m, 2.5) / total - 1.0) <= 1e-12


def test_concentration_cap_oracle():
    """On the unit sphere the ball mass is |A|^2 = 2 times the area of
    the spherical cap cut by a chordal ball."""
    got = mesh.concentration(shapes.icosphere(5), 0.25)
    want = 2.0 * spherical_cap_area(0.25)
    assert abs(got / want - 1.0) <= 0.10


def test_concentration_monotone_in_radius():
    m = shapes.icosphere(4)
    values = [mesh.concentration(m, r) for r in (0.2, 0.35, 0.6, 3.0)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def dense_concentration(m, radius):
    """(largest ball sum over the vertices and every edge midpoint, largest
    half-edge), by a dense sum."""
    h = mesh.mean_curvature(m)
    ao2, _ = mesh.tracefree_norm_sq(m)
    _, mass = mesh.build_operators(m)
    density = (ao2 + 0.5 * h**2) * mass
    v = m.vertices
    pairs = m.faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    edges = np.unique(np.sort(pairs, axis=1), axis=0)
    ends = v[edges[:, 0]], v[edges[:, 1]]
    centers = np.concatenate([v, (ends[0] + ends[1]) / 2.0])
    d2 = sum((centers[:, None, k] - v[None, :, k]) ** 2 for k in range(3))
    want = np.where(d2 <= radius**2, density, 0.0).sum(axis=1).max()
    return want, np.linalg.norm(ends[0] - ends[1], axis=1).max() / 2.0


@pytest.mark.parametrize("radius", [0.05, 0.12, 0.25, 0.6])
def test_concentration_matches_a_dense_sum(radius):
    m = shapes.perturbed_sphere_mesh(3, 1.0, [(2, 0, 0.05), (3, 1, 0.02)])
    want, half_edge = dense_concentration(m, radius)
    # the smallest radius lies below the largest half-edge
    assert 0.05 < half_edge
    assert abs(mesh.concentration(m, radius) - want) <= 1e-12 * want


@pytest.mark.parametrize("radius", [0.1, 0.25, 0.6])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_concentration_on_coarse_meshes_matches_a_dense_sum(n, radius):
    m = shapes.icosphere(n)
    if n == 2:
        rng = np.random.default_rng(7)
        noise = 0.1 * reference_min_edge_length(m) * rng.normal(size=m.vertices.shape)
        m = TriangleMesh(m.vertices + noise, m.faces)
    want, half_edge = dense_concentration(m, radius)
    # here a midpoint lies farther than the radius from its edge's ends,
    # so _ball_sums anchors the midpoints at their nearest vertices
    if n < 2 and radius < 0.5:
        assert half_edge > radius
    assert abs(mesh.concentration(m, radius) - want) <= 1e-12 * want


def test_concentration_rejects_bad_radius():
    m = shapes.icosphere(2)
    with pytest.raises(ValueError):
        mesh.concentration(m, 0.0)
    with pytest.raises(ValueError):
        mesh.concentration(m, -0.1)
    with pytest.raises(ValueError):
        mesh.concentration(m, float("nan"))


def test_concentration_centers_each_edge_midpoint_once(monkeypatch):
    seen = []
    ball_sum = mesh._ball_sums

    def spy(points, centers, density, radius, anchors=None):
        seen.append(len(centers))
        return ball_sum(points, centers, density, radius, anchors=anchors)

    monkeypatch.setattr(mesh, "_ball_sums", spy)
    m = shapes.icosphere(2)
    n_edges = 3 * m.n_faces // 2
    mesh.concentration(m, 0.25)
    # face 0's corners cycled: the same mesh on another faces array
    f = m.faces.copy()
    f[0] = f[0, [1, 2, 0]]
    mesh.concentration(TriangleMesh(m.vertices, f), 0.25)
    assert seen == [m.n_vertices + n_edges] * 2


THREE_MODES = [(2, 0, 0.05), (3, 1, 0.02), (5, -2, 0.01)]


def fresh_copy(m):
    """The mesh on copies of its arrays, with no cache, topology or memo."""
    return TriangleMesh(m.vertices.copy(), m.faces.copy(), m.time)


def count_full_passes(monkeypatch):
    """A list that grows by one for each full pass of concentration."""
    calls = []
    full = mesh._ball_sums

    def counted(*args, **kwargs):
        calls.append(1)
        return full(*args, **kwargs)

    monkeypatch.setattr(mesh, "_ball_sums", counted)
    return calls


def test_mesh_run_records_equal_records_of_fresh_copies(monkeypatch):
    calls = count_full_passes(monkeypatch)
    m = shapes.perturbed_sphere_mesh(4, 1.0, THREE_MODES)
    traj = flow.run(m, 20 * flow.auto_dt(m), cadence=5)
    # one full pass: the later records are certified from its memo
    assert len(traj.entries) == 5 and len(calls) == 1
    for e in traj.entries:
        rec = diagnostics.compute_record(fresh_copy(e.state))
        assert e.record.as_tuple() == rec.as_tuple()
        # asked again, the recorded state keeps its bits
        assert diagnostics.concentration(e.state, 0.25) == e.record.alpha
    # fresh copies carry no memo
    assert len(calls) == 1 + len(traj.entries)


def _stepped(m, steps):
    dt = flow.auto_dt(m)
    for _ in range(steps):
        m = flow.step_mesh(m, dt)
    return m


@pytest.mark.parametrize(
    "move",
    [
        lambda m: m.translated([0.0, 0.06, 0.08]),
        lambda m: flow.rescale(m, 2.0),
        lambda m: _stepped(m, 50),
    ],
    ids=["translated", "rescaled", "50-steps"],
)
def test_a_mesh_moved_past_the_margin_takes_the_full_pass(monkeypatch, move):
    m = shapes.perturbed_sphere_mesh(3, 1.0, THREE_MODES)
    mesh.concentration(m, 0.25)
    moved = move(m)
    assert moved._memo is m._memo
    shift = np.linalg.norm(moved.vertices - m.vertices, axis=1).max()
    assert shift > mesh._ETA * 0.25 / 2.0
    calls = count_full_passes(monkeypatch)
    got = mesh.concentration(moved, 0.25)
    assert len(calls) == 1
    assert got == mesh.concentration(fresh_copy(moved), 0.25)


def test_certified_and_full_pass_alpha_of_the_same_vertices_are_equal(monkeypatch):
    m = shapes.perturbed_sphere_mesh(3, 1.0, [(2, 0, 0.05)])
    full = mesh.concentration(m, 0.25)
    # the same vertices, sharing the memo of that pass: certified from it
    same = m.translated([0.0, 0.0, 0.0])
    assert same._memo is m._memo
    calls = count_full_passes(monkeypatch)
    assert mesh.concentration(same, 0.25) == full
    assert not calls


MEMO_MESH = shapes.perturbed_sphere_mesh(4, 1.0, THREE_MODES)


def curvature_mass(m):
    """The per-vertex density that concentration sums."""
    H = mesh.mean_curvature(m)
    ao2, _ = mesh.tracefree_norm_sq(m)
    _, mass = mesh.build_operators(m)
    return (ao2 + 0.5 * H * H) * mass


def centers_of(v, m):
    """Vertices v, then the midpoints of m's edges, as concentration lists them."""
    a, b = mesh._edges(m)
    return np.concatenate([v, (v[a] + v[b]) / 2.0])


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(
    seed=hst.integers(0, 2**32 - 1),
    reach=hst.floats(0.0, 0.999),
    change=hst.one_of(hst.just(0.0), hst.floats(0.0, 0.5)),
)
def test_memo_bounds_hold_and_the_settled_max_is_exact(seed, reach, change):
    """Vertices moved by up to reach * _ETA r / 2 and a density scaled
    by up to 1 +- change keep every ball sum within the memo's bounds."""
    radius = 0.25
    v, a = MEMO_MESH.vertices, mesh._edges(MEMO_MESH)[0]
    density = curvature_mass(MEMO_MESH)
    _, _, padded = mesh._ball_sums(v, centers_of(v, MEMO_MESH), density, radius, a)
    memo = mesh._Memo(radius, v.copy(), density, padded)
    rng = np.random.default_rng(seed)
    step = rng.normal(size=v.shape)
    step *= rng.uniform(0.0, 1.0, (len(v), 1)) / np.linalg.norm(step, axis=1)[:, None]
    moved = v + reach * mesh._ETA * radius / 2.0 * step
    w = density * (1.0 + change * rng.uniform(-1.0, 1.0, len(v)))
    mids = centers_of(moved, MEMO_MESH)
    best, sums, _ = mesh._ball_sums(moved, mids, w, radius, a)
    bound = mesh._bounds(memo, moved, w, radius)
    assert bound is not None
    assert np.all(sums <= bound)
    with pytest.MonkeyPatch.context() as mp:
        # a large density change leaves more centers than the cap to settle
        mp.setattr(mesh, "_SETTLE_CAP", len(mids))
        got = mesh._settled_max(memo, moved, mids, w, radius)
    assert abs(got - best) <= 1e-13 * best


def brute_ball_max(points, centers, density, radius):
    """Largest ball sum by a double loop over centers and points."""
    best = -np.inf
    for c in centers:
        total = 0.0
        for p, w in zip(points, density):
            if np.sqrt(((p - c) ** 2).sum()) <= radius:
                total += w
        best = max(best, total)
    return best


def random_cloud(seed, n):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return rng, pts * rng.uniform(0.9, 1.1, size=(n, 1)), rng.uniform(0.0, 1.0, n)


def assert_ball_max(points, centers, density, radius, anchors):
    got, _, _ = mesh._ball_sums(points, centers, density, radius, anchors)
    want = brute_ball_max(points, centers, density, radius)
    assert abs(got - want) <= 1e-12 * abs(want)


def nearest_points(points, centers):
    """Index of each center's nearest point, by brute force."""
    d2 = sum((centers[:, None, k] - points[None, :, k]) ** 2 for k in range(3))
    return d2.argmin(axis=1)


# The largest ball sum: over the points and then further centers by
# mesh._ball_sums, the full pass of concentration, and past the diameter
# of a mesh's vertices by concentration, which alone checks the radius


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("radius", [0.1, 0.3, 0.8])
def test_max_ball_sum_centers_are_the_points(seed, radius):
    _, pts, dens = random_cloud(seed, 150)
    assert_ball_max(pts, pts, dens, radius, np.empty(0, dtype=int))


@pytest.mark.parametrize("seed", [4, 5])
def test_max_ball_sum_points_followed_by_extra_centers(seed):
    rng, pts, dens = random_cloud(seed, 150)
    extra = rng.uniform(-1.0, 1.0, size=(60, 3))
    # the last center's ball holds no point
    extra = np.concatenate([extra, [[0.0, 0.0, 0.0]]])
    centers = np.concatenate([pts, extra])
    anchors = nearest_points(pts, extra)
    for radius in (0.15, 0.4):
        assert_ball_max(pts, centers, dens, radius, anchors)
    # with negative densities the empty ball's sum of 0 is the largest
    assert mesh._ball_sums(pts, centers, -dens, 0.4, anchors)[0] == 0.0
    assert_ball_max(pts, centers, -dens, 0.4, anchors)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    seed=hst.integers(0, 2**32 - 1),
    n_mid=hst.integers(0, 40),
    n_free=hst.integers(0, 20),
    radius=hst.floats(0.05, 1.5),
)
def test_max_ball_sum_extra_centers_from_their_nearest_point(
    seed, n_mid, n_free, radius
):
    rng, pts, dens = random_cloud(seed, 40)
    dens = dens - 0.4  # signed, so the best ball can be any one
    ends = rng.integers(0, len(pts), size=(n_mid, 2))
    mids = (pts[ends[:, 0]] + pts[ends[:, 1]]) / 2.0
    # some of these lie farther than the radius from every point
    free = rng.uniform(-1.6, 1.6, size=(n_free, 3))
    extra = np.concatenate([mids, free])
    anchors = nearest_points(pts, extra)
    assert_ball_max(pts, np.concatenate([pts, extra]), dens, radius, anchors)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    seed=hst.integers(0, 2**32 - 1),
    chunk=hst.integers(1, 9),
    n_extra=hst.integers(0, 40),
    radius=hst.floats(0.05, 1.5),
)
def test_max_ball_sum_extra_centers_from_any_anchor_in_range(
    seed, chunk, n_extra, radius
):
    rng, pts, dens = random_cloud(seed, 30)
    dens = dens - 0.4  # signed, so the best ball can be any one
    step = rng.normal(size=(n_extra, 3))
    step /= np.linalg.norm(step, axis=1, keepdims=True)
    step *= radius * rng.uniform(0.0, 0.99, (n_extra, 1))
    extra = pts[rng.integers(0, len(pts), n_extra)] + step
    # any point within the radius, as _ball_sums measures it, not only
    # the nearest; the point the center was drawn from is one of them
    d2 = sum((extra[:, None, k] - pts[None, :, k]) ** 2 for k in range(3))
    anchors = np.array(
        [rng.choice(np.flatnonzero(row <= radius**2)) for row in d2], dtype=int
    )
    with pytest.MonkeyPatch.context() as mp:
        # pair chunks of a few pairs: some hold no shell pair at all
        mp.setattr(mesh, "_PAIR_CHUNK", chunk)
        centers = np.concatenate([pts, extra])
        assert_ball_max(pts, centers, dens, radius, anchors)


def test_max_ball_sum_anchors_out_of_range_fall_back_to_the_nearest_point():
    rng, pts, dens = random_cloud(12, 40)
    # two heavy points apart from the cloud and 0.7 from each other: only
    # the first extra center, between them, holds both in its ball
    pts = np.concatenate([pts, [[0.0, 0.0, 2.0], [0.0, 0.0, 2.7]]])
    dens = np.append(dens, [50.0, 50.0])
    extra = np.concatenate([[[0.0, 0.0, 2.35]], rng.uniform(-1.2, 1.2, size=(30, 3))])
    centers = np.concatenate([pts, extra])
    dist = np.linalg.norm(extra[:, None] - pts[None], axis=2)
    radius = 0.4
    # the farthest point: out of range for every center
    anchors = dist.argmax(axis=1)
    assert (dist[np.arange(len(extra)), anchors] > radius).all()
    assert_ball_max(pts, centers, dens, radius, anchors)
    assert mesh._ball_sums(pts, centers, dens, radius, anchors)[0] == 100.0
    # one center out of range is enough to fall back
    anchors = dist.argmin(axis=1)
    anchors[0] = dist[0].argmax()
    assert_ball_max(pts, centers, dens, radius, anchors)
    assert mesh._ball_sums(pts, centers, dens, radius, anchors)[0] == 100.0


def test_max_ball_sum_radius_between_diameter_and_box_diagonal():
    m = shapes.perturbed_sphere_mesh(2, 1.0, [(2, 0, 0.05), (3, 1, 0.02)])
    v = m.vertices
    diameter = np.linalg.norm(v[:, None] - v[None], axis=2).max()
    diagonal = np.linalg.norm(v.max(axis=0) - v.min(axis=0))
    assert diameter < diagonal
    # past the diameter every ball covers every vertex, and so does the
    # ball about the vertex nearest the box center, which concentration
    # tests before any join
    radius = 0.5 * (diameter + diagonal)
    want, _ = dense_concentration(m, radius)
    got = mesh.concentration(m, radius)
    assert abs(got - want) <= 1e-12 * want
    assert abs(got / curvature_mass(m).sum() - 1.0) <= 1e-12


def assert_covered_without_a_pass(monkeypatch, m, radius):
    """concentration gives the total mass with no full pass, to the bits
    of a full pass forced on a fresh copy."""
    calls = count_full_passes(monkeypatch)
    got = mesh.concentration(m, radius)
    assert not calls
    assert got == curvature_mass(m).sum()
    monkeypatch.setattr(mesh, "_covered", lambda *args: False)
    assert mesh.concentration(fresh_copy(m), radius) == got
    assert len(calls) == 1


def covering_range(m):
    """(the vertices' diameter, twice the farthest vertex from the box center)."""
    v = m.vertices
    box = (v.max(axis=0) + v.min(axis=0)) / 2.0
    return pdist(v).max(), 2.0 * np.linalg.norm(v - box, axis=1).max()


def test_max_ball_sum_radius_between_diameter_and_covering_bound(monkeypatch):
    m = shapes.perturbed_sphere_mesh(2, 1.0, [(2, 0, 0.05), (3, 1, 0.02)])
    diameter, bound = covering_range(m)
    assert diameter < bound
    # every ball covers every vertex: the ball about the vertex nearest the
    # box center shows it, and no join runs
    radius = 0.5 * (diameter + bound)
    want, _ = dense_concentration(m, radius)
    assert abs(mesh.concentration(m, radius) - want) <= 1e-12 * want
    assert_covered_without_a_pass(monkeypatch, fresh_copy(m), radius)


def test_a_covering_radius_on_5120_faces_takes_no_full_pass(monkeypatch):
    diameter, bound = covering_range(MEMO_MESH)
    assert diameter < 2.074 < bound
    assert_covered_without_a_pass(monkeypatch, fresh_copy(MEMO_MESH), 2.074)


# The full pass as independent spatial joins on threads of its own


def split_cloud(seed, n):
    """A signed density on a cloud of n points and further centers: edge-
    midpoint-like centers anchored at a point within the radius, then
    centers that lie farther than the radius from every point."""
    rng, pts, dens = random_cloud(seed, n)
    # every point and its nearest neighbour
    dist, ends = cKDTree(pts).query(pts, k=2)
    near = dist[:, 1] <= 0.2
    mids = (pts[ends[near, 0]] + pts[ends[near, 1]]) / 2.0
    free = rng.uniform(-0.3, 0.3, size=(20, 3))
    return pts, dens - 0.4, mids, ends[near, 0], free


def depth(tasks):
    """Cuts between the whole cloud and its deepest leaf of mesh._tasks."""
    return int(np.log2(sum(high is None for _, high in tasks)))


def test_split_ball_sums_equal_a_dense_sum(monkeypatch):
    radius = 0.1
    pts, dens, mids, anchors, free = split_cloud(21, 3000)
    assert len(mids) > 2900
    # cells of at most 256 points: the cloud is cut four levels deep
    monkeypatch.setattr(mesh, "_CELL", 256)
    assert depth(mesh._tasks(pts, radius)) >= 3
    centers = np.concatenate([pts, mids])
    best, sums, padded = mesh._ball_sums(pts, centers, dens, radius, anchors)
    scale = 1e-12 * np.abs(dens).sum()
    assert np.abs(sums - dense_ball_sums(pts, centers, dens, radius)).max() <= scale
    big = radius * (1.0 + mesh._ETA)
    assert np.abs(padded - dense_ball_sums(pts, centers, dens, big)).max() <= scale
    want = dense_ball_sums(pts, centers, dens, radius).max()
    assert abs(best - want) <= 1e-12 * abs(want)
    # centers farther than the radius from their named point and from
    # every point: the nearest-point fallback, with empty balls
    centers = np.concatenate([pts, mids, free])
    wrong = np.concatenate([anchors[::-1], np.zeros(len(free), dtype=int)])
    assert np.linalg.norm(mids - pts[anchors[::-1]], axis=1).max() > radius
    best, sums, padded = mesh._ball_sums(pts, centers, dens, radius, wrong)
    assert padded is None
    assert np.abs(sums - dense_ball_sums(pts, centers, dens, radius)).max() <= scale
    want = dense_ball_sums(pts, centers, dens, radius).max()
    assert abs(best - want) <= 1e-12 * abs(want)


def test_split_ball_sums_do_not_depend_on_the_thread_count(monkeypatch):
    v, a = MEMO_MESH.vertices, mesh._edges(MEMO_MESH)[0]
    # MEMO_MESH's 2562 vertices are cut once at the default cell size
    assert len(mesh._tasks(v, 0.3)) == 3
    args = (v, centers_of(v, MEMO_MESH), curvature_mass(MEMO_MESH), 0.25, a)
    default = mesh._ball_sums(*args)
    monkeypatch.setattr(mesh, "_workers", lambda: 1)
    alone = mesh._ball_sums(*args)
    assert default[0] == alone[0]
    assert default[1].tobytes() == alone[1].tobytes()
    assert default[2].tobytes() == alone[2].tobytes()


def test_ball_sums_run_at_most_a_chunk_of_distance_tests_at_once(monkeypatch):
    m = shapes.perturbed_sphere_mesh(3, 1.0, THREE_MODES)
    v, a = m.vertices, mesh._edges(m)[0]
    centers, dens, radius = centers_of(v, m), curvature_mass(m), 0.25
    sizes = []
    full = mesh._sq_dists

    def counted(p, i, q, j):
        sizes.append(len(i))
        return full(p, i, q, j)

    monkeypatch.setattr(mesh, "_sq_dists", counted)
    monkeypatch.setattr(mesh, "_PAIR_CHUNK", 64)
    best, sums, padded = mesh._ball_sums(v, centers, dens, radius, a)
    # the first call measures each edge midpoint against its anchor, once
    # per further center before the joins; every later one is a chunk's
    # pair distances or one run of its shell tests
    anchors, *tests = sizes
    assert anchors == len(centers) - len(v)
    assert max(tests) <= 64
    scale = 1e-12 * np.abs(dens).sum()
    assert np.abs(sums - dense_ball_sums(v, centers, dens, radius)).max() <= scale
    big = radius * (1.0 + mesh._ETA)
    assert np.abs(padded - dense_ball_sums(v, centers, dens, big)).max() <= scale
    want = dense_ball_sums(v, centers, dens, radius).max()
    assert abs(best - want) <= 1e-12 * abs(want)


def owned_bytes(entry, skip=None) -> int:
    """Bytes of the arrays that own the memory of a cache's fields, each
    owner once, the sparse matrices' three arrays included; the owner of
    ``skip`` is left out."""
    owners = {}

    def add(x):
        if isinstance(x, tuple):
            for y in x:
                add(y)
        elif sp.issparse(x):
            add((x.data, x.indices, x.indptr))
        elif isinstance(x, np.ndarray):
            owner = x if x.base is None else x.base
            owners[id(owner)] = owner.nbytes

    add(tuple(entry))
    if skip is not None:
        owners.pop(id(skip if skip.base is None else skip.base), None)
    return sum(owners.values())


def cached_arrays(m):
    """The arrays in a mesh's cache, a sparse matrix as one of its shape."""
    found = []

    def add(x):
        if isinstance(x, tuple):
            for y in x:
                add(y)
        elif sp.issparse(x) or isinstance(x, np.ndarray):
            found.append(x)

    add(tuple(m._cache.values()))
    return found


def test_a_stepped_or_recorded_mesh_holds_no_per_face_array():
    """At 20480 faces: the face geometry's 10 doubles a face (1.56 MiB)
    live only for the pass that builds W, M and the normals. W's data
    holds a value per slot of its pattern, which the faces fix; as a
    matrix it is n by n."""
    m = shapes.perturbed_sphere_mesh(5, 1.0, [(2, 0, 0.05)])
    m.validate()
    new = flow.step_mesh(m, flow.auto_dt(m))
    assert flow._mesh_step_ok(m, new)
    # the step's face pass built the next step's operators and normals
    assert {"ops", "normals", "measures"} <= set(new._cache)
    diagnostics.compute_record(new)
    for state in (m, new):
        sizes = [x.shape for x in cached_arrays(state)]
        assert sizes and all(max(size) < m.n_faces for size in sizes), sizes


def test_a_mesh_owns_a_bounded_number_of_bytes_per_face():
    """The topology entry, the faces array excluded, at 20480 faces: 150
    bytes a face (2.93 MiB). The corners and the edges in the entry
    would add 48 bytes a face. Of its face geometry a validated mesh
    keeps four numbers and no array."""
    m = shapes.icosphere(5)
    m.validate()
    topo = mesh._topology(m)
    assert owned_bytes(topo, skip=m.faces) <= 152 * m.n_faces
    assert set(m._cache) == {"measures"}
    assert owned_bytes(m._cache.values()) == 0


def octahedron():
    """The unit octahedron, oriented outward, face 0 on the x, y and z
    vertices 0, 2 and 4."""
    v = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]])
    faces = []
    for sx, sy, sz in np.ndindex(2, 2, 2):
        x, y, z = sx, 2 + sy, 4 + sz
        faces.append([x, y, z] if (sx + sy + sz) % 2 == 0 else [x, z, y])
    return TriangleMesh(v.astype(float), faces)


def test_a_step_that_collapses_a_face_is_rejected_before_its_operators():
    # the z vertex 1/64 above the midpoint of the x and y vertices, and
    # then on it: face 0's corners lie on one line, in exact arithmetic
    old = octahedron()
    v = old.vertices.copy()
    v[4] = (0.5, 0.5, 1.0 / 64.0)
    old = TriangleMesh(v, old.faces)
    old.validate()
    v = v.copy()
    v[4, 2] = 0.0
    new = old._moved(v, 1e-9)
    assert 1.0 / 64.0 < 0.5 * mesh.min_edge_length(old)
    # the cotangents of a zero-area face divide by zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not flow._mesh_step_ok(old, new)
    assert mesh._measures(new).min_dbl_area == 0.0
    assert "ops" not in new._cache


def test_each_accepted_step_makes_one_face_pass(monkeypatch):
    passes = []
    faces = mesh._faces

    def counted(m):
        passes.append(m)
        return faces(m)

    monkeypatch.setattr(mesh, "_faces", counted)
    m = shapes.perturbed_sphere_mesh(2, 1.0, [(2, 0, 0.05)])
    dt = flow.auto_dt(m)
    counts = []
    for steps in (3, 6):
        passes.clear()
        traj = flow.run(fresh_copy(m), steps * dt, dt=dt, cadence=100)
        assert traj.meta["steps"] == steps
        counts.append(len(passes))
    assert counts[1] - counts[0] == 3


def test_exact_sums_do_not_depend_on_the_centers_beside_them(monkeypatch):
    v = MEMO_MESH.vertices
    centers = centers_of(v, MEMO_MESH)[::7]
    dens = curvature_mass(MEMO_MESH)
    together = mesh._exact_sums(v, centers, dens, 0.25)
    alone = [mesh._exact_sums(v, c[None], dens, 0.25) for c in centers]
    assert together.tobytes() == np.concatenate(alone).tobytes()
    monkeypatch.setattr(mesh, "_TEST_BLOCK", 3 * len(v))
    assert mesh._exact_sums(v, centers, dens, 0.25).tobytes() == together.tobytes()


def test_split_ball_sums_from_concurrent_callers_keep_their_bits(monkeypatch):
    pts, dens, mids, anchors, _ = split_cloud(22, 1500)
    monkeypatch.setattr(mesh, "_CELL", 128)
    args = (pts, np.concatenate([pts, mids]), dens, 0.1, anchors)
    want = mesh._ball_sums(*args)[1].tobytes()
    got = []

    def call():
        for _ in range(3):
            got.append(mesh._ball_sums(*args)[1].tobytes())

    # more callers than a pass has threads, switching often
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=call) for _ in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert got == [want] * 12


def test_a_full_pass_leaves_no_thread_behind():
    m = fresh_copy(MEMO_MESH)
    before = threading.active_count()
    mesh.concentration(m, 0.25)
    # the full pass ran: it leaves the memo
    assert m._memo["alpha"].radius == 0.25
    assert threading.active_count() == before


def alpha_into(queue, m):
    queue.put(mesh.concentration(m, 0.25))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_runs_its_own_pool():
    m = shapes.perturbed_sphere_mesh(4, 1.0, THREE_MODES)
    want = mesh.concentration(fresh_copy(m), 0.25)
    # the child inherits none of the parent's threads
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=alpha_into, args=(queue, fresh_copy(m)), daemon=True)
    child.start()
    try:
        got = queue.get(timeout=60)
        child.join(timeout=60)
        assert not child.is_alive()
    finally:
        child.kill()
    assert got == want


class TaskFailed(Exception):
    pass


def test_a_failing_task_raises_from_concentration(monkeypatch):
    m = shapes.perturbed_sphere_mesh(4, 1.0, THREE_MODES)
    pairs = mesh._task_pairs
    seen = []

    def fail_second(points, task, reach):
        seen.append(1)
        if len(seen) == 2:
            raise TaskFailed("second join")
        return pairs(points, task, reach)

    with monkeypatch.context() as mp:
        mp.setattr(mesh, "_task_pairs", fail_second)
        with pytest.raises(TaskFailed, match="second join"):
            mesh.concentration(fresh_copy(m), 0.25)
    # a later pass still runs every task
    out = []
    done = threading.Thread(target=lambda: out.append(mesh.concentration(m, 0.25)))
    done.start()
    done.join(timeout=120)
    assert not done.is_alive()
    assert out == [mesh.concentration(fresh_copy(m), 0.25)]


@pytest.mark.parametrize("radius", [0.0, -0.1, float("nan")])
def test_max_ball_sum_rejects_bad_radius(radius):
    m = shapes.perturbed_sphere_mesh(2, 1.0, [(2, 0, 0.05), (3, 1, 0.02)])
    with pytest.raises(ValueError, match="radius must be positive"):
        mesh.concentration(m, radius)


def test_max_ball_sum_infinite_radius_covers_everything():
    m = shapes.perturbed_sphere_mesh(2, 1.0, [(2, 0, 0.05), (3, 1, 0.02)])
    assert mesh.concentration(m, float("inf")) == curvature_mass(m).sum()


# ---------------------------------------------------------------------------
# relabeling and rigid motions
# ---------------------------------------------------------------------------


MOVED_MODES = [(2, 0, 0.05), (3, 1, 0.02), (5, -2, 0.01)]


@settings(max_examples=12, derandomize=True, database=None, deadline=None)
@given(
    seed=hst.integers(0, 2**32 - 1),
    subdivisions=hst.integers(2, 3),
    shift=hst.floats(0.0, 1.0),
)
def test_mesh_record_is_invariant_under_relabeling_and_rigid_motion(
    seed, subdivisions, shift
):
    """Permuted vertices, cycled face corners, a rotation and a shift of
    up to the radius leave every record field where it was, to 2e-12
    relative. Two kinds of field are measured against the scale their
    rounding has: |A*|^2 is H^2/2 - 2K clamped at 0, so ao2 and aoInf^2
    are compared against int H^2/2 and max H^2/2 (on a 320-face mesh
    half the vertices are clamped); sup |Delta^2 H| takes two cotangent
    Laplacians of H, itself one of the positions, and spread to 6e-12
    over 40 draws at 1280 faces, so it gets 5e-11."""
    rng = np.random.default_rng(seed)
    m = shapes.perturbed_sphere_mesh(subdivisions, 1.0, MOVED_MODES)
    # new vertex i is old vertex perm[i]; each face starts at a drawn corner
    perm = rng.permutation(m.n_vertices)
    faces = np.argsort(perm)[m.faces]
    roll = rng.integers(0, 3, size=len(faces))[:, None]
    faces = np.take_along_axis(faces, (np.arange(3) + roll) % 3, axis=1)
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] *= -1.0  # a rotation, not a reflection
    offset = rng.normal(size=3)
    offset *= shift / np.linalg.norm(offset)
    moved = TriangleMesh(m.vertices[perm] @ q.T + offset, faces)
    moved.validate()
    want = diagnostics.compute_record(m, 0.25)
    got = diagnostics.compute_record(moved, 0.25)
    h2 = 0.5 * mesh.mean_curvature(m) ** 2
    for name, a, b in zip(diagnostics.CSV_COLUMNS, want.as_tuple(), got.as_tuple()):
        if name == "ao2":
            assert abs(b - a) <= 2e-12 * 2.0 * want.willmore, name
        elif name == "aoInf":
            assert abs(b * b - a * a) <= 2e-12 * h2.max(), name
        elif name == "gapResidual":
            assert abs(b - a) <= 5e-11 * abs(a), name
        else:
            assert abs(b - a) <= 2e-12 * abs(a), name


# ---------------------------------------------------------------------------
# OBJ interchange
# ---------------------------------------------------------------------------


def test_obj_round_trip_is_bit_exact(tmp_path):
    m = shapes.perturbed_sphere_mesh(3, 1.0, [(2, 0, 0.1), (3, 1, 0.05)])
    path = tmp_path / "bumpy.obj"
    mesh.save_obj(m, path)
    back = mesh.load_obj(path)
    assert np.array_equal(back.vertices, m.vertices)
    assert np.array_equal(back.faces, m.faces)
    back.validate()


def test_obj_accepts_slash_suffixes(tmp_path):
    path = tmp_path / "suffixed.obj"
    path.write_text(
        "# comment\n"
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\n"
        "f 1/1 2/2 3/3\nf 1//10 3//30 4//40\n"
        "f 1/1/1 4/4/4 2/2/2\nf 2 4 3\n"
    )
    m = mesh.load_obj(path)
    assert len(m.vertices) == 4
    assert len(m.faces) == 4


def test_obj_rejects_quads_with_line_number(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.raises(ValueError, match="line 5"):
        mesh.load_obj(path)


@pytest.mark.parametrize(
    "record, message",
    [
        ("v 0 1", "v record needs 3 coordinates, got 'v 0 1'"),
        ("v 0 1 0 1", "v record needs 3 coordinates, got 'v 0 1 0 1'"),
        ("v 0 one 0", "v record needs 3 coordinates, got 'v 0 one 0'"),
        ("f 1 2", "only triangle faces supported"),
        ("f 1 2/2 x", "f record needs 3 integer vertex indices, got 'f 1 2/2 x'"),
    ],
    ids=["v-short", "v-long", "v-non-numeric", "f-short", "f-non-numeric"],
)
def test_obj_names_the_line_and_layout_of_a_malformed_record(tmp_path, record, message):
    path = tmp_path / "bad.obj"
    path.write_text("# a comment\nv 0 0 0\nv 1 0 0\n\n" + record + "\n")
    with pytest.raises(ValueError) as got:
        mesh.load_obj(path)
    assert str(got.value) == "line 5: " + message


def test_obj_rejects_other_records_and_bad_indices(tmp_path):
    path = tmp_path / "normals.obj"
    path.write_text("v 0 0 0\nvn 0 0 1\n")
    with pytest.raises(ValueError, match="line 2"):
        mesh.load_obj(path)
    path2 = tmp_path / "range.obj"
    path2.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n")
    with pytest.raises(ValueError, match="index"):
        mesh.load_obj(path2)

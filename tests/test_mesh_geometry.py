"""Discrete curvature and measure on closed triangle meshes.

Oracles: round spheres and closed-form ellipsoid curvatures, spherical
cap areas for concentration, and exact combinatorial identities
(Gauss-Bonnet, orientation flip, translation invariance).
"""

import numpy as np
import pytest

from oracles import ellipsoid_curvatures, spherical_cap_area
from triheat import mesh, shapes
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
    # radii between the diameter and the bounding-box diagonal still
    # cover everything but accumulate in pair order
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


def test_concentration_rejects_bad_radius():
    m = shapes.icosphere(2)
    with pytest.raises(ValueError):
        mesh.concentration(m, 0.0)
    with pytest.raises(ValueError):
        mesh.concentration(m, -0.1)


def test_concentration_centers_each_edge_midpoint_once(monkeypatch):
    seen = []
    ball_sum = mesh.max_ball_sum

    def spy(points, centers, density, radius):
        seen.append(len(centers))
        return ball_sum(points, centers, density, radius)

    monkeypatch.setattr(mesh, "max_ball_sum", spy)
    m = shapes.icosphere(2)
    n_edges = 3 * m.n_faces // 2
    mesh.concentration(m, 0.25)
    # one face flipped: its edges now repeat a neighbour's direction
    f = m.faces.copy()
    f[0] = f[0, ::-1]
    mesh.concentration(TriangleMesh(m.vertices, f), 0.25)
    assert seen == [m.n_vertices + n_edges] * 2


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


def assert_ball_max(points, centers, density, radius):
    got = mesh.max_ball_sum(points, centers, density, radius)
    want = brute_ball_max(points, centers, density, radius)
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("radius", [0.1, 0.3, 0.8])
def test_max_ball_sum_centers_are_the_points(seed, radius):
    _, pts, dens = random_cloud(seed, 150)
    assert_ball_max(pts, pts, dens, radius)
    assert_ball_max(pts, pts.copy(), dens, radius)


@pytest.mark.parametrize("seed", [4, 5])
def test_max_ball_sum_points_followed_by_extra_centers(seed):
    rng, pts, dens = random_cloud(seed, 150)
    extra = rng.uniform(-1.0, 1.0, size=(60, 3))
    # the last center's ball holds no point
    centers = np.concatenate([pts, extra, [[0.0, 0.0, 0.0]]])
    for radius in (0.15, 0.4):
        assert_ball_max(pts, centers, dens, radius)
    # with negative densities the empty ball's sum of 0 is the largest
    assert mesh.max_ball_sum(pts, centers, -dens, 0.4) == 0.0
    assert_ball_max(pts, centers, -dens, 0.4)


@pytest.mark.parametrize("seed", [6, 7])
def test_max_ball_sum_centers_disjoint_from_points(seed):
    rng, pts, dens = random_cloud(seed, 150)
    centers = rng.uniform(-1.2, 1.2, size=(80, 3))
    for radius in (0.2, 0.5):
        assert_ball_max(pts, centers, dens, radius)
    # the points in another order are not a prefix of the centers
    assert_ball_max(pts, pts[::-1], dens, 0.3)
    far = np.full((3, 3), 10.0)
    assert mesh.max_ball_sum(pts, far, dens, 0.5) == 0.0


def test_max_ball_sum_radius_between_diameter_and_box_diagonal():
    _, pts, dens = random_cloud(8, 150)
    diameter = 2.2  # the points lie within 1.1 of the origin
    diagonal = np.linalg.norm(pts.max(axis=0) - pts.min(axis=0))
    assert diameter < diagonal
    radius = 0.5 * (diameter + diagonal)
    assert_ball_max(pts, pts, dens, radius)
    assert abs(mesh.max_ball_sum(pts, pts, dens, radius) / dens.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("radius", [0.0, -0.1, float("nan")])
def test_max_ball_sum_rejects_bad_radius(radius):
    _, pts, dens = random_cloud(9, 20)
    with pytest.raises(ValueError, match="radius must be positive"):
        mesh.max_ball_sum(pts, pts, dens, radius)


def test_max_ball_sum_infinite_radius_covers_everything():
    _, pts, dens = random_cloud(10, 20)
    assert mesh.max_ball_sum(pts, pts, dens, float("inf")) == dens.sum()


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


def test_obj_rejects_other_records_and_bad_indices(tmp_path):
    path = tmp_path / "normals.obj"
    path.write_text("v 0 0 0\nvn 0 0 1\n")
    with pytest.raises(ValueError, match="line 2"):
        mesh.load_obj(path)
    path2 = tmp_path / "range.obj"
    path2.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n")
    with pytest.raises(ValueError, match="index"):
        mesh.load_obj(path2)

"""Geometry of star-shaped graph surfaces over the unit sphere.

Oracles: closed-form ellipsoid curvatures, centered finite differences
in the perturbation amplitude, a dense triangulation for area/volume,
and classical identities (Gauss-Bonnet, isoperimetric inequality).
"""

import numpy as np
import pytest

from oracles import ellipsoid_curvatures, traceless_norm_sq
from triheat import radial, shapes
from triheat.radial import RadialGraphState
from triheat.spherical import GridSpec, transform_for

L = 16
GRID = GridSpec.for_bandlimit(L)
TR = transform_for(GRID)


def harmonic_values(grid, l, m):
    c = np.zeros((grid.bandlimit + 1, 2 * grid.bandlimit + 1))
    c[l, grid.bandlimit + m] = 1.0
    return transform_for(grid).synthesize(c)


def gradient_sq(c):
    """Pointwise |grad u|^2 with respect to the round metric."""
    u_t, u_p = TR.gradient_values(c)
    return u_t**2 + (u_p / TR.sin_t[:, None]) ** 2


def random_coeffs(grid, seed, lmax=None, decay=2.0):
    rng = np.random.default_rng(seed)
    n = grid.bandlimit
    lmax = n if lmax is None else lmax
    c = np.zeros((n + 1, 2 * n + 1))
    for l in range(lmax + 1):
        c[l, n - l : n + l + 1] = rng.standard_normal(2 * l + 1) / (1.0 + l) ** decay
    return c


def bumpy_state(amp=0.1):
    return shapes.perturbed_sphere_state(
        GRID, 1.0, [(2, 0, amp), (3, 1, amp / 2.0), (5, -3, amp / 4.0)]
    )


def surface_points(state):
    tr = transform_for(state.grid)
    th = tr.theta[:, None]
    ph = tr.phi[None, :]
    rho = state.values
    return np.stack(
        [rho * np.sin(th) * np.cos(ph), rho * np.sin(th) * np.sin(ph), rho * np.cos(th)],
        axis=-1,
    )


# ---------------------------------------------------------------------------
# graph factor and state validity
# ---------------------------------------------------------------------------


def test_phi_on_round_sphere():
    state = shapes.sphere_state(GRID, 1.3)
    assert np.abs(radial.phi_factor(state) - 1.69).max() <= 1e-14


def test_phi_composition_against_gradient():
    """Phi(1 + 0.1 Y10) must equal rho^2 + 0.01 |grad Y10|^2 pointwise."""
    state = shapes.perturbed_sphere_state(GRID, 1.0, [(1, 0, 0.1)])
    c = np.zeros((L + 1, 2 * L + 1))
    c[1, L] = 1.0
    grad_y = gradient_sq(c)
    expected = state.values**2 + 0.01 * grad_y
    assert np.abs(radial.phi_factor(state) - expected).max() <= 1e-13


def test_phi_never_below_rho_squared():
    state = bumpy_state(0.15)
    assert np.all(radial.phi_factor(state) >= state.values**2)


def test_chart_exit_is_rejected():
    # min Y20 is about -0.3154, so amplitude 4 drives the radius negative
    with pytest.raises(ValueError, match="chart"):
        shapes.perturbed_sphere_state(GRID, 1.0, [(2, 0, 4.0)])
    with pytest.raises(ValueError):
        RadialGraphState(GRID, values=-np.ones((GRID.nlat, GRID.nlon)))


def test_state_projects_values_onto_bandlimit():
    tr = transform_for(GRID)
    rough = 1.0 + 0.1 * np.sign(np.cos(37.0 * tr.theta))[:, None] * np.ones(
        (1, GRID.nlon)
    )
    state = RadialGraphState(GRID, values=rough)
    back = transform_for(GRID).analyze(state.values)
    assert np.abs(back - state.coeffs).max() <= 1e-12


# ---------------------------------------------------------------------------
# mean curvature
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("radius", [1.0, 1.3])
def test_round_sphere_mean_curvature(radius):
    state = shapes.sphere_state(GRID, radius)
    expected = 2.0 / radius
    assert np.abs(radial.mean_curvature(state) - expected).max() <= 1e-13
    assert np.abs(radial.curvature_bundle(state).mean - expected).max() <= 1e-12


def test_mean_curvature_first_variation():
    """H(1 + eps Y20) = 2 + 4 eps Y20 + O(eps^2).

    The linear coefficient is confirmed two ways: pointwise against the
    closed form, and through a centered finite difference in eps whose
    O(eps^2) truncation drops out.
    """
    eps = 1e-6
    y20 = harmonic_values(GRID, 2, 0)
    plus = radial.mean_curvature(
        shapes.perturbed_sphere_state(GRID, 1.0, [(2, 0, eps)])
    )
    minus = radial.mean_curvature(
        shapes.perturbed_sphere_state(GRID, 1.0, [(2, 0, -eps)])
    )
    assert np.abs(plus - (2.0 + 4.0 * eps * y20)).max() <= 1e-10
    fd = (plus - minus) / (2.0 * eps)
    assert np.abs(fd - 4.0 * y20).max() <= 1e-7


def test_ellipsoid_mean_curvature_closed_form():
    grid = GridSpec.for_bandlimit(32)
    state = shapes.ellipsoid_state(grid, (1.0, 1.0, 1.2))
    href, _ = ellipsoid_curvatures(surface_points(state), (1.0, 1.0, 1.2))
    assert np.abs(radial.mean_curvature(state) - href).max() <= 1e-8


# ---------------------------------------------------------------------------
# curvature bundle
# ---------------------------------------------------------------------------


def test_bundle_on_round_sphere():
    state = shapes.sphere_state(GRID, 2.0)
    b = radial.curvature_bundle(state)
    assert np.abs(b.gauss - 0.25).max() <= 1e-12
    assert np.abs(b.norm_ao_sq).max() <= 1e-30
    assert np.abs(b.measure - 4.0).max() <= 1e-12
    assert np.abs(b.norm_a_sq - 0.5).max() <= 1e-12


def test_two_mean_curvature_routes_agree():
    """Trace of the shape operator vs the direct quotient formula."""
    state = bumpy_state(0.1)
    b = radial.curvature_bundle(state)
    assert np.abs(b.mean - radial.mean_curvature(state)).max() <= 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gauss_bonnet(seed):
    rng = np.random.default_rng(seed)
    # low-degree modes keep the curvature spectrum inside the quadrature band
    modes = [
        (int(l), int(m), rng.uniform(-0.05, 0.05))
        for l, m in [(2, 0), (3, 2), (4, -1)]
    ]
    state = shapes.perturbed_sphere_state(GRID, 1.0, modes)
    b = radial.curvature_bundle(state)
    assert abs(radial.integrate(state, b.gauss) - 4.0 * np.pi) <= 1e-8


def test_ellipsoid_gauss_closed_form():
    grid = GridSpec.for_bandlimit(32)
    state = shapes.ellipsoid_state(grid, (1.0, 1.0, 1.2))
    _, kref = ellipsoid_curvatures(surface_points(state), (1.0, 1.0, 1.2))
    assert np.abs(radial.curvature_bundle(state).gauss - kref).max() <= 1e-8


def test_pointwise_curvature_identities():
    """|A|^2 = |A*|^2 + H^2/2 and |A*|^2 = H^2/2 - 2K at every node."""
    state = bumpy_state(0.12)
    b = radial.curvature_bundle(state)
    scale = np.abs(b.norm_a_sq).max()
    lhs = b.norm_ao_sq + 0.5 * b.mean**2
    assert np.abs(b.norm_a_sq - lhs).max() <= 1e-9 * scale
    rhs = 0.5 * b.mean**2 - 2.0 * b.gauss
    assert np.abs(b.norm_ao_sq - rhs).max() <= 1e-9 * scale


THREE_MODES = [(2, 0, 0.05), (3, 1, 0.02), (5, -2, 0.01)]


@pytest.mark.parametrize(
    "make",
    [
        lambda: shapes.perturbed_sphere_state(GRID, 1.0, THREE_MODES),
        lambda: shapes.perturbed_sphere_state(GridSpec.for_bandlimit(64), 1.0, THREE_MODES),
        lambda: shapes.perturbed_sphere_state(GRID, 1.0, [(2, 0, 0.001)]),
        lambda: shapes.ellipsoid_state(GridSpec.for_bandlimit(32), (1.0, 1.0, 1.2)),
    ],
    ids=["three_modes_l16", "three_modes_l64", "near_round", "ellipsoid"],
)
def test_traceless_norm_matches_the_traceless_tensor_route(make):
    """|A*|^2 from the mixed shape operator vs A* = A - (H/2) g raised by g^-1."""
    state = make()
    geo = radial._geometry(state)
    ref = traceless_norm_sq(
        *(geo[k] for k in ("rho", "r_t", "r_p", "h_tt", "h_tp", "h_pp")),
        transform_for(state.grid).sin_t,
    )
    got = radial.curvature_bundle(state).norm_ao_sq
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# area and volume
# ---------------------------------------------------------------------------


def test_round_sphere_area_and_volume():
    state = shapes.sphere_state(GRID, 2.0)
    assert abs(radial.area(state) - 16.0 * np.pi) <= 1e-12 * 16.0 * np.pi
    assert abs(radial.volume(state) - 32.0 * np.pi / 3.0) <= 1e-12 * 32.0 * np.pi / 3.0


def test_area_volume_against_dense_triangulation():
    state = shapes.perturbed_sphere_state(GRID, 1.0, [(2, 0, 0.2)])
    m = shapes.sample_graph_mesh(state, 5)
    from triheat import mesh as mesh_mod

    assert abs(mesh_mod.area(m) / radial.area(state) - 1.0) <= 1e-3
    assert abs(mesh_mod.signed_volume(m) / radial.volume(state) - 1.0) <= 1e-3


@pytest.mark.parametrize("seed", [3, 4])
def test_isoperimetric_inequality(seed):
    rng = np.random.default_rng(seed)
    modes = [(2, 1, rng.uniform(0.02, 0.2)), (4, -2, rng.uniform(0.02, 0.1))]
    state = shapes.perturbed_sphere_state(GRID, 1.0, modes)
    a = radial.area(state)
    v = radial.volume(state)
    assert a >= (36.0 * np.pi * v**2) ** (1.0 / 3.0)


# ---------------------------------------------------------------------------
# induced Laplace-Beltrami operator
# ---------------------------------------------------------------------------


def test_round_sphere_laplacian_scaling():
    """On a radius-R sphere the induced operator is the round one over R^2."""
    state = shapes.sphere_state(GRID, 1.3)
    u = random_coeffs(GRID, 1)
    got = radial.induced_laplacian(state, u)
    want = TR.synthesize(TR.laplacian_coeffs(u, 1)) / 1.69
    assert np.abs(got - want).max() <= 1e-12


def test_laplacian_kills_constants_exactly():
    state = bumpy_state(0.1)
    c = np.zeros((L + 1, 2 * L + 1))
    c[0, L] = 3.0
    out = radial.induced_laplacian(state, c)
    assert np.all(out == 0.0)


def test_laplacian_integrates_to_zero():
    state = bumpy_state(0.1)
    lap = radial.induced_laplacian(state, random_coeffs(GRID, 2))
    assert abs(radial.integrate(state, lap)) <= 1e-12


def test_laplacian_self_adjointness():
    # test functions at half the bandlimit keep every product inside the
    # dealiased quadrature window, so the defect sits at rounding level
    state = shapes.perturbed_sphere_state(GRID, 1.0, [(2, 0, 0.1), (3, 1, 0.05)])
    u = random_coeffs(GRID, 1, lmax=8)
    v = random_coeffs(GRID, 2, lmax=8)
    lu = radial.induced_laplacian(state, u)
    lv = radial.induced_laplacian(state, v)
    a = radial.integrate(state, lu * TR.synthesize(v))
    b = radial.integrate(state, lv * TR.synthesize(u))
    assert abs(a - b) <= 1e-10


# ---------------------------------------------------------------------------
# flow speed and radial velocity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bandlimit", [8, 16])
@pytest.mark.parametrize("radius", [1.0, 1.3])
def test_round_spheres_are_stationary(bandlimit, radius):
    grid = GridSpec.for_bandlimit(bandlimit)
    state = shapes.sphere_state(grid, radius)
    assert np.abs(radial.flow_speed(state)).max() <= 1e-9 / radius**5


def test_flow_speed_linearization_richardson():
    """speed(1 + eps Y20) = 144 eps Y20 + O(eps^2).

    The prefactor of the quadratic remainder is estimated at two values
    of eps; agreement shows the remainder really is second order.
    """
    y20 = harmonic_values(GRID, 2, 0)
    prefactors = []
    for eps in (1e-4, 5e-5):
        state = shapes.perturbed_sphere_state(GRID, 1.0, [(2, 0, eps)])
        err = np.abs(radial.flow_speed(state) / eps - 144.0 * y20).max()
        prefactors.append(err / eps)
    c1, c2 = prefactors
    assert c1 < 5e3
    assert abs(c1 / c2 - 1.0) <= 0.15


def test_flow_speed_superposition():
    eps = 1e-4
    s_both = radial.flow_speed(
        shapes.perturbed_sphere_state(GRID, 1.0, [(2, 0, eps), (3, 1, eps)])
    )
    s_a = radial.flow_speed(shapes.perturbed_sphere_state(GRID, 1.0, [(2, 0, eps)]))
    s_b = radial.flow_speed(shapes.perturbed_sphere_state(GRID, 1.0, [(3, 1, eps)]))
    assert np.abs(s_both - s_a - s_b).max() <= 2e4 * eps**2


@pytest.mark.parametrize("radius,expected", [(1.0, -144.0), (2.0, -2.25)])
def test_rho_velocity_eigenmode_projection(radius, expected):
    """Near a radius-R sphere the degree-2 mode moves at -144 / R^6."""
    eps = 1e-6
    state = shapes.perturbed_sphere_state(GRID, radius, [(2, 0, eps)])
    tr = transform_for(GRID)
    c = tr.analyze(radial.rho_velocity(state))
    assert abs(c[2, L] / eps / expected - 1.0) <= 1e-4


def test_rho_velocity_conserves_volume():
    state = shapes.perturbed_sphere_state(GRID, 1.0, [(2, 0, 0.1), (4, 2, 0.05)])
    tr = transform_for(GRID)
    rate = tr.quadrature(state.values**2 * radial.rho_velocity(state))
    assert abs(rate) <= 1e-8 * radial.area(state)


# ---------------------------------------------------------------------------
# helpers used by diagnostics
# ---------------------------------------------------------------------------


def test_gradient_norm_on_round_sphere():
    state = shapes.sphere_state(GRID, 1.3)
    u = random_coeffs(GRID, 5)
    got = radial.gradient_norm_sq(state, u)
    want = gradient_sq(u) / 1.69
    assert np.abs(got - want).max() <= 1e-12


def test_node_cloud_weights_and_radii():
    state = bumpy_state(0.1)
    pts, wts = radial.node_cloud(state)
    assert abs(wts.sum() / radial.area(state) - 1.0) <= 1e-13
    assert np.abs(np.linalg.norm(pts, axis=1) - state.values.ravel()).max() <= 1e-13

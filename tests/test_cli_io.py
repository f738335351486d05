"""Shape generators, run configuration and the command line front end.

CLI tests call main() in process and check exit codes, artifacts and
printed tables.
"""

import dataclasses
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from triheat import config as cfgmod
from triheat import diagnostics, flow, mesh, shapes, spherical
from triheat.cli import main
from triheat.mesh import TriangleMesh
from triheat.spherical import transform_for

SQRT4PI = np.sqrt(4.0 * np.pi)


# ---------------------------------------------------------------------------
# perturbation and semiaxes strings
# ---------------------------------------------------------------------------


def test_parse_modes():
    assert shapes.parse_modes("2,0,0.001") == [(2, 0, 0.001)]
    assert shapes.parse_modes("2,0,0.1;3,1,0.05") == [(2, 0, 0.1), (3, 1, 0.05)]
    with pytest.raises(ValueError):
        shapes.parse_modes("")
    with pytest.raises(ValueError, match="l,m,amplitude"):
        shapes.parse_modes("2,0")


@pytest.mark.parametrize("degree", [1025, 5000, 10**25])
def test_parse_modes_refuses_a_degree_past_the_limit(degree):
    with pytest.raises(ValueError, match="l <= 1024"):
        shapes.parse_modes(f"2,0,0.1;{degree},0,0.01")
    assert shapes.parse_modes("1024,-1024,0.01") == [(1024, -1024, 0.01)]


def test_parse_semiaxes():
    assert shapes.parse_semiaxes("1,1,1.2") == (1.0, 1.0, 1.2)
    with pytest.raises(ValueError, match="a,b,c"):
        shapes.parse_semiaxes("1,2")


@pytest.mark.parametrize("text", ["1,nan,1", "1,1,inf", "1e400,1,1"])
def test_parse_semiaxes_rejects_nan(text):
    with pytest.raises(ValueError, match="positive"):
        shapes.parse_semiaxes(text)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_generated_sphere_is_umbilic():
    st = shapes.generate("sphere", "spectral", bandlimit=16)
    assert diagnostics.energies(st)["ao2"] <= 1e-12


def test_perturbed_coefficient_echo():
    """Perturbation amplitudes are coefficients of the orthonormal
    harmonics, so they read back verbatim; the constant mode carries
    the radius times sqrt(4 pi)."""
    st = shapes.generate(
        "perturbed", "spectral", bandlimit=16, radius=1.0, perturb="2,0,0.001"
    )
    L = st.grid.bandlimit
    assert st.coeffs[2, L] == 1e-3
    assert abs(st.coeffs[0, L] - SQRT4PI) <= 1e-15


def test_ellipsoid_graph_solves_the_quadric():
    st = shapes.generate(
        "ellipsoid", "spectral", bandlimit=32, semiaxes=(1.0, 1.0, 1.2)
    )
    tr = transform_for(st.grid)
    th, ph = tr.theta[:, None], tr.phi[None, :]
    rho = st.values
    residual = (
        (rho * np.sin(th) * np.cos(ph)) ** 2
        + (rho * np.sin(th) * np.sin(ph)) ** 2
        + (rho * np.cos(th) / 1.2) ** 2
        - 1.0
    )
    assert np.abs(residual).max() < 1e-10


def test_generated_meshes_validate():
    m = shapes.generate("perturbed", "mesh", subdivisions=3, perturb="2,0,0.1")
    m.validate()
    e = shapes.generate("ellipsoid", "mesh", subdivisions=3, semiaxes=(1.0, 1.1, 1.3))
    e.validate()


def test_generate_rejects_bad_requests():
    with pytest.raises(ValueError, match="backend"):
        shapes.generate("sphere", "fem")
    with pytest.raises(ValueError, match="kind"):
        shapes.generate("torus", "spectral")
    with pytest.raises(ValueError, match="mesh backend"):
        shapes.generate("obj", "spectral", mesh_path="x.obj")
    with pytest.raises(ValueError, match="chart"):
        shapes.generate("perturbed", "spectral", perturb="2,0,4.0")


MESH_MODES = ["2,0,0.05", "2,0,0.05;3,1,0.02;5,-2,0.01", "1,1,0.1;7,-7,0.003", "0,0,0.2"]


@pytest.mark.parametrize("perturb", MESH_MODES)
@pytest.mark.parametrize("subdivisions", [1, 3])
def test_perturbed_mesh_builds_no_transform_and_keeps_its_vertices(perturb, subdivisions):
    transform_for.cache_clear()
    m = shapes.generate(
        "perturbed", "mesh", bandlimit=160, subdivisions=subdivisions, perturb=perturb
    )
    assert transform_for.cache_info().currsize == 0
    # the route through a spectral state at bandlimit 16, bit for bit
    state = shapes.perturbed_sphere_state(
        spherical.GridSpec.for_bandlimit(16), 1.0, shapes.parse_modes(perturb)
    )
    v = shapes.icosphere(subdivisions).vertices
    theta = np.arccos(np.clip(v[:, 2] / np.linalg.norm(v, axis=1), -1.0, 1.0))
    phi = np.mod(np.arctan2(v[:, 1], v[:, 0]), 2.0 * np.pi)
    ref = spherical.evaluate(state.coeffs, theta, phi)[:, None] * v
    assert m.vertices.tobytes() == ref.tobytes()


def test_a_mesh_run_holds_no_memory_for_the_bandlimit(tmp_path):
    import scipy.sparse  # noqa: F401  imports are not the run's memory
    import scipy.spatial  # noqa: F401

    args = ["simulate", "--set", "backend=mesh", "--set", "shape.kind=perturbed",
            "--set", "shape.perturb=2,0,0.05", "--set", "shape.subdivisions=2",
            "--set", "t_end=1e-4", "--set", "bandlimit=160"]
    transform_for.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert main(args + ["--set", f"out.dir={tmp_path}"]) == 0
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # the bandlimit-160 tables alone would take about 94 MB
    assert peak < 10e6


@pytest.mark.parametrize("amp", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("backend", ["spectral", "mesh"])
def test_non_finite_mode_amplitudes_are_refused(amp, backend):
    with pytest.raises(ValueError, match="non-finite"):
        shapes.parse_modes(f"2,0,{amp}")
    with pytest.raises(ValueError, match="non-finite"):
        shapes.generate("perturbed", backend, subdivisions=1, perturb=f"3,1,0.1;2,0,{amp}")


def test_a_mesh_refuses_a_radius_that_is_not_a_positive_number():
    with pytest.raises(ValueError, match="not positive"):
        shapes.perturbed_sphere_mesh(1, 1.0, [(2, 0, np.nan)])


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_text_round_trip():
    cfg = cfgmod.FlowConfig(t_end=1.0 / 3.0, safety=0.7, shape_perturb="2,0,0.01")
    text = cfg.t_end
    reparsed = cfgmod.parse_config_text(cfgmod.format_config(cfg))
    assert reparsed == cfg
    # full precision floats survive the trip
    assert reparsed.t_end == text


def test_config_parse_errors():
    with pytest.raises(ValueError, match="line 1"):
        cfgmod.parse_config_text("bogus = 1\n")
    with pytest.raises(ValueError, match="expects int"):
        cfgmod.parse_config_text("cadence = soon\n")
    with pytest.raises(ValueError, match="key = value"):
        cfgmod.parse_config_text("just words\n")


def test_config_ignores_comments_and_run_keys():
    cfg = cfgmod.parse_config_text(
        "# a comment\n\nt_end = 2.0  # trailing\nrun.stop_reason = converged\n"
    )
    assert cfg.t_end == 2.0


def test_config_validation():
    with pytest.raises(ValueError, match="dt.value"):
        cfgmod.parse_config_text("dt.policy = fixed\n")
    with pytest.raises(ValueError, match="backend"):
        cfgmod.parse_config_text("backend = fem\n")
    with pytest.raises(ValueError, match="cadence"):
        cfgmod.parse_config_text("cadence = 0\n")


@pytest.mark.parametrize("bandlimit", [-5, 0, 3, 1025, 10**6])
def test_config_refuses_a_bandlimit_past_the_limit(bandlimit):
    with pytest.raises(ValueError, match="bandlimit"):
        cfgmod.validate_config(cfgmod.FlowConfig(bandlimit=bandlimit))
    with pytest.raises(ValueError, match="bandlimit"):
        cfgmod.parse_config_text(f"bandlimit = {bandlimit}\n")
    cfgmod.validate_config(cfgmod.FlowConfig(bandlimit=4))
    cfgmod.validate_config(cfgmod.FlowConfig(bandlimit=1024))


@pytest.mark.parametrize("subdivisions", [-3, -1, 8, 40])
def test_config_refuses_subdivisions_out_of_range(subdivisions):
    cfg = cfgmod.FlowConfig(backend="mesh", shape_subdivisions=subdivisions)
    with pytest.raises(ValueError, match="shape.subdivisions"):
        cfgmod.validate_config(cfg)
    with pytest.raises(ValueError, match="shape.subdivisions"):
        cfgmod.parse_config_text(f"shape.subdivisions = {subdivisions}\n")
    # the icosphere refuses before it builds a mesh
    with pytest.raises(ValueError, match="subdivisions"):
        shapes.icosphere(subdivisions)
    for n in (0, shapes.MAX_SUBDIVISIONS):
        cfgmod.validate_config(cfgmod.FlowConfig(backend="mesh", shape_subdivisions=n))


@pytest.mark.parametrize(
    "text, key",
    [
        ("t_end = nan\n", "t_end"),
        ("safety = nan\n", "safety"),
        ("dt.policy = fixed\ndt.value = nan\n", "dt.value"),
        ("concentration.radius = nan\n", "concentration.radius"),
        ("stop.ao_inf = nan\n", "stop.ao_inf"),
        ("epsilon0 = nan\n", "epsilon0"),
        ("shape.radius = nan\n", "shape.radius"),
        ("dt.policy = auto\ndt.value = nan\n", "dt.value"),
    ],
)
def test_config_rejects_nan(text, key):
    with pytest.raises(ValueError, match=key):
        cfgmod.parse_config_text(text)


@pytest.mark.parametrize(
    "value",
    ["runs/#3", "runs\nbackend = mesh", "runs\rx", "runs\u2028x", " runs", "runs "],
    ids=["hash", "newline", "return", "line-separator", "leading-space", "trailing-space"],
)
def test_config_rejects_values_the_echo_cannot_hold(value):
    cfg = cfgmod.FlowConfig(out_dir=value)
    with pytest.raises(ValueError, match="out.dir"):
        cfgmod.validate_config(cfg)
    with pytest.raises(ValueError, match="out.dir"):
        cfgmod.format_config(cfg)


_SPECIAL_FLOATS = hst.sampled_from([1.0 / 3.0, 5e-324, 1e-310, 1e300])
_REAL = hst.one_of(_SPECIAL_FLOATS, hst.floats(allow_nan=False))
_POSITIVE = hst.one_of(_SPECIAL_FLOATS, hst.floats(min_value=0.0, exclude_min=True))
_TEXT = hst.text(max_size=12).filter(
    lambda t: "#" not in t and t == t.strip() and len(t.splitlines()) <= 1
)
_TEXT_KEYS = {
    "mesh": "mesh",
    "shape_kind": "shape.kind",
    "shape_perturb": "shape.perturb",
    "shape_semiaxes": "shape.semiaxes",
    "out_dir": "out.dir",
}


@hst.composite
def flow_configs(draw):
    policy = draw(hst.sampled_from(["auto", "fixed"]))
    return cfgmod.FlowConfig(
        backend=draw(hst.sampled_from(["spectral", "mesh"])),
        bandlimit=draw(
            hst.integers(spherical.MIN_BANDLIMIT, spherical.MAX_FILE_DEGREE)
        ),
        mesh=draw(_TEXT),
        shape_kind=draw(_TEXT),
        shape_radius=draw(_REAL),
        shape_perturb=draw(_TEXT),
        shape_semiaxes=draw(_TEXT),
        shape_subdivisions=draw(hst.integers(0, shapes.MAX_SUBDIVISIONS)),
        dt_policy=policy,
        dt_value=draw(_POSITIVE if policy == "fixed" else _REAL),
        safety=draw(_POSITIVE),
        t_end=draw(_POSITIVE),
        cadence=draw(hst.integers(min_value=1)),
        stop_ao_inf=draw(_REAL),
        concentration_radius=draw(_POSITIVE),
        epsilon0=draw(_REAL),
        out_dir=draw(_TEXT),
    )


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    flow_configs(),
    hst.sampled_from(sorted(_TEXT_KEYS)),
    # str.splitlines, which the parser uses, also breaks at \v and \u2028
    hst.sampled_from(["#", "\n", "\r", "\r\n", "\v", "\u2028"]),
    hst.data(),
)
def test_config_echo_round_trips(cfg, attr, bad, data):
    assert cfgmod.parse_config_text(cfgmod.format_config(cfg)) == cfg
    text = getattr(cfg, attr)
    at = data.draw(hst.integers(0, len(text)))
    broken = dataclasses.replace(cfg, **{attr: text[:at] + bad + text[at:]})
    with pytest.raises(ValueError, match=_TEXT_KEYS[attr]):
        cfgmod.format_config(broken)


# ---------------------------------------------------------------------------
# spectrum subcommand
# ---------------------------------------------------------------------------


def test_spectrum_table(capsys):
    assert main(["spectrum", "--rho-inf", "1", "--lmax", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "l,rate"
    assert lines[1:] == ["0,0", "1,0", "2,-144", "3,-1440"]


def test_spectrum_scales_with_radius(capsys):
    assert main(["spectrum", "--rho-inf", "2", "--lmax", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[3].startswith("2,-2.25")
    assert lines[4].startswith("3,-22.5")


def test_spectrum_rejects_negative_lmax(capsys):
    assert main(["spectrum", "--lmax", "-2"]) == 1
    assert "lmax" in capsys.readouterr().err


def test_spectrum_refuses_an_lmax_past_the_file_degree(capsys):
    top = spherical.MAX_FILE_DEGREE
    assert main(["spectrum", "--lmax", str(top + 1)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "lmax" in err
    assert main(["spectrum", "--lmax", str(top)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == top + 2
    assert lines[-1].startswith(f"{top},-")


@pytest.mark.parametrize("rho_inf", ["nan", "-1", "0"])
def test_spectrum_rejects_bad_radius(rho_inf, capsys):
    assert main(["spectrum", "--rho-inf", rho_inf, "--lmax", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "rho_inf must be positive" in err


# ---------------------------------------------------------------------------
# simulate subcommand
# ---------------------------------------------------------------------------


def test_simulate_sphere_writes_artifacts(tmp_path):
    out = str(tmp_path / "run")
    rc = main(["simulate", "--set", f"out.dir={out}", "--set", "t_end=0.1"])
    assert rc == 0
    names = sorted(os.listdir(out))
    assert names == [
        "diagnostics.csv",
        "run.meta",
        "state_final.csv",
        "state_initial.csv",
    ]
    recs = diagnostics.read_csv(os.path.join(out, "diagnostics.csv"))
    assert len(recs) == 1
    assert abs(recs[0].area - 4.0 * np.pi) <= 1e-10
    meta = (tmp_path / "run" / "run.meta").read_text()
    assert "run.stop_reason = converged" in meta


def test_simulate_meta_reparses_to_the_same_config(tmp_path):
    out = str(tmp_path / "run")
    rc = main(
        [
            "simulate",
            "--set", f"out.dir={out}",
            "--set", "shape.kind=perturbed",
            "--set", "shape.perturb=2,0,0.001",
            "--set", "t_end=0.001",
            "--set", "dt.policy=fixed",
            "--set", "dt.value=5e-5",
            "--set", "cadence=5",
        ]
    )
    assert rc == 0
    want = cfgmod.FlowConfig(
        out_dir=out,
        shape_kind="perturbed",
        shape_perturb="2,0,0.001",
        t_end=0.001,
        dt_policy="fixed",
        dt_value=5e-5,
        cadence=5,
    )
    assert cfgmod.parse_config(os.path.join(out, "run.meta")) == want
    recs = diagnostics.read_csv(os.path.join(out, "diagnostics.csv"))
    assert len(recs) == 5
    areas = [r.area for r in recs]
    assert all(b <= a for a, b in zip(areas, areas[1:]))


def test_simulate_reports_the_small_energy_hypothesis(tmp_path):
    def simulate(name, *settings):
        out = str(tmp_path / name)
        args = ["simulate", "--set", f"out.dir={out}", "--set", "t_end=1e-4"]
        for item in settings:
            args += ["--set", item]
        assert main(args) == 0
        path = os.path.join(out, "run.meta")
        lines = open(path).read().splitlines()
        run = dict(ln.split(" = ", 1) for ln in lines if ln.startswith("run."))
        first = diagnostics.read_csv(os.path.join(out, "diagnostics.csv"))[0]
        assert float(run["run.ao2_initial"]) == first.ao2
        return path, run

    # a round sphere has no tracefree curvature to speak of
    _, run = simulate("round")
    assert float(run["run.ao2_initial"]) <= 1e-12
    assert run["run.below_epsilon0"] == "yes"
    path, run = simulate(
        "bumped",
        "shape.kind=perturbed",
        "shape.perturb=2,0,0.001",
        "dt.policy=fixed",
        "dt.value=5e-5",
        "epsilon0=1e-12",
    )
    assert float(run["run.ao2_initial"]) > 1e-12
    assert run["run.below_epsilon0"] == "no"
    want = cfgmod.FlowConfig(
        out_dir=str(tmp_path / "bumped"),
        t_end=1e-4,
        shape_kind="perturbed",
        shape_perturb="2,0,0.001",
        dt_policy="fixed",
        dt_value=5e-5,
        epsilon0=1e-12,
    )
    assert cfgmod.parse_config(path) == want


@pytest.mark.parametrize("value", ["runs/#3", "runs\nbackend = mesh"], ids=["hash", "newline"])
def test_simulate_rejects_an_out_dir_run_meta_cannot_echo(tmp_path, capsys, value):
    rc = main(["simulate", "--set", f"out.dir={tmp_path}/{value}", "--set", "t_end=0.1"])
    assert rc == 1
    assert "out.dir" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_simulate_singular_run_exits_2_with_artifacts(tmp_path):
    out = str(tmp_path / "boom")
    rc = main(
        [
            "simulate",
            "--set", f"out.dir={out}",
            "--set", "backend=mesh",
            "--set", "shape.kind=perturbed",
            "--set", "shape.perturb=2,0,0.3",
            "--set", "shape.subdivisions=3",
            "--set", "dt.policy=fixed",
            "--set", "dt.value=1e5",
            "--set", "t_end=2e5",
            "--set", "cadence=1",
        ]
    )
    assert rc == 2
    assert sorted(os.listdir(out)) == [
        "diagnostics.csv",
        "run.meta",
        "state_final.obj",
        "state_initial.obj",
    ]
    meta = (tmp_path / "boom" / "run.meta").read_text()
    assert "run.stop_reason = singular" in meta
    mesh.load_obj(os.path.join(out, "state_final.obj")).validate()


def test_simulate_singular_run_writes_its_stop_detail(tmp_path):
    out = str(tmp_path / "chart")
    args = [
        "simulate",
        "--set", f"out.dir={out}",
        "--set", "shape.kind=perturbed",
        "--set", "shape.perturb=2,0,2.5",
        "--set", "dt.policy=fixed",
        "--set", "dt.value=1e-4",
        "--set", "t_end=1.0",
    ]
    assert main(args) == 2
    meta_path = os.path.join(out, "run.meta")
    meta = open(meta_path).read()
    assert "run.stop_detail = t=0: radius reaches" in meta
    assert "chart" in meta
    cfg = cfgmod.FlowConfig()
    for item in args[2::2]:
        cfgmod.apply_setting(cfg, *item.split("=", 1))
    assert cfgmod.parse_config(meta_path) == cfg


@pytest.mark.parametrize(
    "settings",
    [["t_end=inf"], ["dt.policy=fixed", "dt.value=inf"], ["safety=inf"],
     ["stop.ao_inf=inf"]],
    ids=["t_end", "dt", "safety", "stop_ao_inf"],
)
def test_simulate_rejects_a_setting_that_runs_no_step(tmp_path, capsys, settings):
    # each would run zero steps and write run.stop_reason = t_end or
    # converged; flow.run's checks run before anything is written
    out = tmp_path / "run"
    args = ["simulate", "--set", f"out.dir={out}", "--set", "shape.kind=perturbed",
            "--set", "shape.perturb=2,0,0.01"]
    for item in settings:
        args += ["--set", item]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_simulate_rejects_an_obj_whose_face_geometry_overflows(tmp_path, capsys):
    src = tmp_path / "huge.obj"
    m = shapes.icosphere(1)
    mesh.save_obj(TriangleMesh(1e200 * m.vertices, m.faces), src)
    out = tmp_path / "run"
    rc = main(["simulate", "--set", f"out.dir={out}", "--set", "backend=mesh",
               "--set", "shape.kind=obj", "--set", f"mesh={src}"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "non-finite" in err
    assert not out.exists()


def test_simulate_usage_failures(tmp_path, capsys):
    assert main(["simulate", "--set", "bogus=1"]) == 1
    assert "bogus" in capsys.readouterr().err
    assert main(["simulate", "--set", "t_end"]) == 1
    assert "KEY=VALUE" in capsys.readouterr().err
    assert main(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 1
    capsys.readouterr()
    assert main(["unknown-command"]) == 1


def test_simulate_rejects_an_infinite_semiaxis_before_writing(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["simulate", "--set", f"out.dir={out}", "--set", "shape.kind=ellipsoid",
               "--set", "shape.semiaxes=1,1,inf", "--set", "t_end=1e-6"])
    assert rc == 1
    assert "positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_an_inward_mesh(tmp_path, capsys):
    rc = main(["simulate", "--set", f"out.dir={tmp_path / 'run'}",
               "--set", "backend=mesh", "--set", "shape.radius=-1"])
    assert rc == 1
    assert "oriented inward" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# diagnose and rescale subcommands
# ---------------------------------------------------------------------------


def test_diagnose_ellipsoid_gauss_bonnet(tmp_path, capsys):
    st = shapes.generate("ellipsoid", "spectral", bandlimit=16, semiaxes=(1.0, 1.0, 1.2))
    path = str(tmp_path / "ell.csv")
    spherical.write_coeffs_csv(st.coeffs, path)
    assert main(["diagnose", "--state", path]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert abs(float(cols["intK"]) - 4.0 * np.pi) <= 1e-8


def test_diagnose_of_a_mesh_run_repeats_its_last_record(tmp_path, capsys):
    m = shapes.generate("perturbed", "mesh", subdivisions=3, perturb="2,0,0.05")
    dt = flow.auto_dt(m)
    out = tmp_path / "run"
    # the last of three records is certified from the run's first alpha pass
    rc = main(["simulate", "--set", f"out.dir={out}", "--set", "backend=mesh",
               "--set", "shape.kind=perturbed", "--set", "shape.perturb=2,0,0.05",
               "--set", "shape.subdivisions=3", "--set", "dt.policy=fixed",
               "--set", f"dt.value={dt!r}", "--set", f"t_end={10 * dt!r}",
               "--set", "cadence=5"])
    assert rc == 0
    capsys.readouterr()
    assert main(["diagnose", "--state", str(out / "state_final.obj")]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    lines = (out / "diagnostics.csv").read_text().splitlines()
    assert len(lines) == 4 and header == lines[0]
    # the OBJ file carries no time
    assert row.split(",")[1:] == lines[-1].split(",")[1:]


def test_diagnose_rejects_unknown_extension(capsys):
    assert main(["diagnose", "--state", "state.txt"]) == 1
    assert ".csv or .obj" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_diagnose_rejects_non_finite_coefficients(tmp_path, capsys, value):
    path = tmp_path / "bad.csv"
    path.write_text(f"l,m,value\n0,0,{float(SQRT4PI)!r}\n2,0,{value}\n")
    assert main(["diagnose", "--state", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"non-finite coefficient in row '2,0,{value}'" in err
    assert "chart" not in err


def test_rescale_state_file(tmp_path):
    st = shapes.generate("perturbed", "spectral", perturb="2,0,0.01")
    src = str(tmp_path / "state.csv")
    dst = str(tmp_path / "half.csv")
    spherical.write_coeffs_csv(st.coeffs, src)
    assert main(["rescale", "--state", src, "--factor", "2", "--out", dst]) == 0
    _, back = spherical.read_coeffs_csv(dst)
    assert np.array_equal(back * 2.0, st.coeffs)


def test_rescale_mesh_about_center(tmp_path):
    m = shapes.generate("sphere", "mesh", subdivisions=2)
    src = str(tmp_path / "m.obj")
    dst = str(tmp_path / "m2.obj")
    mesh.save_obj(m, src)
    rc = main(["rescale", "--state", src, "--factor", "2", "--center", "0.1,0,0", "--out", dst])
    assert rc == 0
    out = mesh.load_obj(dst)
    assert abs(mesh.area(out) / (mesh.area(m) / 4.0) - 1.0) <= 1e-12


def test_rescale_usage_failures(tmp_path, capsys):
    st = shapes.generate("sphere", "spectral")
    src = str(tmp_path / "s.csv")
    spherical.write_coeffs_csv(st.coeffs, src)
    assert main(["rescale", "--state", src, "--factor", "2",
                 "--center", "0.1,0,0", "--out", str(tmp_path / "o.csv")]) == 1
    assert "origin" in capsys.readouterr().err
    assert main(["rescale", "--state", src, "--factor", "2",
                 "--center", "0.1,0", "--out", str(tmp_path / "o.csv")]) == 1
    assert "x,y,z" in capsys.readouterr().err


def test_rescale_rejects_nan_factor(tmp_path, capsys):
    src = str(tmp_path / "m.obj")
    dst = tmp_path / "o.obj"
    mesh.save_obj(shapes.icosphere(1), src)
    assert main(["rescale", "--state", src, "--factor", "nan", "--out", str(dst)]) == 1
    assert "factor must be positive" in capsys.readouterr().err
    assert not dst.exists()


@pytest.mark.parametrize("factor", ["inf", "1e-60", "1e60"])
@pytest.mark.parametrize("suffix", [".obj", ".csv"])
def test_rescale_rejects_a_factor_out_of_range(tmp_path, capsys, factor, suffix):
    src = str(tmp_path / f"s{suffix}")
    dst = tmp_path / f"o{suffix}"
    if suffix == ".obj":
        mesh.save_obj(shapes.icosphere(1), src)
    else:
        spherical.write_coeffs_csv(shapes.generate("sphere", "spectral").coeffs, src)
    assert main(["rescale", "--state", src, "--factor", factor, "--out", str(dst)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: factor must be positive")
    assert "Traceback" not in err
    assert not dst.exists()


def test_rescale_rejects_a_nan_mesh_center(tmp_path, capsys):
    src = str(tmp_path / "m.obj")
    dst = tmp_path / "o.obj"
    mesh.save_obj(shapes.icosphere(1), src)
    rc = main(["rescale", "--state", src, "--factor", "2",
               "--center", "1,nan,0", "--out", str(dst)])
    assert rc == 1
    assert "finite x, y, z point" in capsys.readouterr().err
    assert not dst.exists()


# ---------------------------------------------------------------------------
# state file parsers under drawn input
# ---------------------------------------------------------------------------

PARSER_PROPERTY = settings(
    max_examples=150, derandomize=True, database=None, deadline=None
)


@hst.composite
def coefficient_arrays(draw):
    """Coefficients of a bandlimit from 4 to 10, any finite float per
    entry (subnormals and signed zeros included), zero outside |m| <= l
    where the file format holds no rows."""
    L = draw(hst.integers(4, 10))
    flat = draw(
        hst.lists(
            hst.floats(allow_nan=False, allow_infinity=False),
            min_size=(L + 1) ** 2,
            max_size=(L + 1) ** 2,
        )
    )
    c = np.zeros((L + 1, 2 * L + 1))
    c[np.abs(np.arange(-L, L + 1)) <= np.arange(L + 1)[:, None]] = flat
    return c


@PARSER_PROPERTY
@given(coefficient_arrays())
def test_coefficient_csv_round_trips_bit_exactly(tmp_path_factory, c):
    path = tmp_path_factory.mktemp("coeffs") / "state.csv"
    spherical.write_coeffs_csv(c, path)
    grid, back = spherical.read_coeffs_csv(path)
    assert grid.bandlimit == len(c) - 1
    assert back.tobytes() == c.tobytes()


# tokens of both formats, numbers at and past their limits, and
# characters that str.split and int() treat specially
_TOKENS = hst.sampled_from(
    ["v", "f", "vn", "l", "m", "value", "0", "1", "2", "3", "4", "-1", "+2",
     "1.5", "-0", "1e308", "1e999", "nan", "-inf", "0x10", "1_0", "١",
     "9" * 25, "-" + "9" * 25, "1/2/3", "1//2", "/", "", "#", "é",
     " ", "\x00", "\x0c"]
)
_INTS = hst.one_of(_TOKENS, hst.integers(-3, 12).map(str), hst.integers().map(str))
_FLOATS = hst.one_of(_TOKENS, hst.floats().map(repr))


def _lines(record):
    """Drawn lines: tokens joined by a drawn separator, any text, or a
    record of the format ('l,m,value' for the CSV, 'v' or 'f' for OBJ)
    whose fields are mostly numbers of the kind it expects."""
    joined = hst.lists(_TOKENS, max_size=6).flatmap(
        lambda toks: hst.sampled_from([" ", ",", "/", ""]).map(lambda s: s.join(toks))
    )
    text = hst.text(max_size=24).map(lambda s: s.replace("\n", "").replace("\r", ""))
    if record == "l,m,value":
        shaped = hst.tuples(_INTS, _INTS, _FLOATS).map(",".join)
    else:
        three = lambda fields: hst.lists(fields, min_size=3, max_size=3)
        shaped = hst.one_of(
            three(_FLOATS).map(lambda f: " ".join(["v", *f])),
            three(_INTS).map(lambda f: " ".join(["f", *f])),
        )
    return hst.one_of(shaped, joined, text)


def _with_lines(data, lines, drawn, first=0):
    """The lines with 1 to 3 drawn lines inserted at drawn places from
    index ``first`` on."""
    lines = list(lines)
    for _ in range(data.draw(hst.integers(1, 3))):
        lines.insert(data.draw(hst.integers(first, len(lines))), data.draw(drawn))
    return "\n".join(lines) + "\n"


@PARSER_PROPERTY
@given(hst.data())
def test_malformed_coefficient_csv_raises_value_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("coeffs") / "state.csv"
    path.write_text(
        # a file without the header is refused before any row is read
        _with_lines(data, ["l,m,value", "0,0,3.5", "2,1,0.01"], _lines("l,m,value"), 1),
        encoding="utf-8",
    )
    try:
        spherical.read_coeffs_csv(path)
    except ValueError:
        pass


@PARSER_PROPERTY
@given(hst.data())
def test_malformed_obj_raises_value_error(tmp_path_factory, data):
    tetra = ["v 0 0 0", "v 1 0 0", "v 0 1 0", "v 0 0 1",
             "f 1 3 2", "f 1 2 4", "f 1 4 3", "f 2 3 4"]
    path = tmp_path_factory.mktemp("obj") / "mesh.obj"
    path.write_text(_with_lines(data, tetra, _lines("vf")), encoding="utf-8")
    try:
        mesh.load_obj(path)
    except ValueError:
        pass


@pytest.mark.parametrize("degree", [99999, 10**25])
def test_coefficient_csv_refuses_a_degree_past_the_limit(tmp_path, degree):
    path = tmp_path / "state.csv"
    path.write_text(f"l,m,value\n0,0,3.5\n{degree},0,1.0\n")
    with pytest.raises(ValueError, match=f"l={degree}, m=0"):
        spherical.read_coeffs_csv(path)


def test_obj_refuses_a_face_index_past_int64(tmp_path):
    path = tmp_path / "mesh.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 " + "9" * 25 + "\n")
    with pytest.raises(ValueError, match="exceeds vertex count"):
        mesh.load_obj(path)

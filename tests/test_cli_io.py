"""Shape generators, run configuration and the command line front end.

CLI tests call main() in process and check exit codes, artifacts and
printed tables.
"""

import os

import numpy as np
import pytest

from triheat import config as cfgmod
from triheat import diagnostics, mesh, shapes, spherical
from triheat.cli import main
from triheat.spherical import coefficient, transform_for

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


def test_parse_semiaxes():
    assert shapes.parse_semiaxes("1,1,1.2") == (1.0, 1.0, 1.2)
    with pytest.raises(ValueError, match="a,b,c"):
        shapes.parse_semiaxes("1,2")


def test_parse_semiaxes_rejects_nan():
    with pytest.raises(ValueError, match="positive"):
        shapes.parse_semiaxes("1,nan,1")


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
    assert coefficient(st.radius_field(), 2, 0) == 1e-3
    assert abs(coefficient(st.radius_field(), 0, 0) - SQRT4PI) <= 1e-15


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


@pytest.mark.parametrize(
    "text, key",
    [
        ("t_end = nan\n", "t_end"),
        ("safety = nan\n", "safety"),
        ("dt.policy = fixed\ndt.value = nan\n", "dt.value"),
        ("concentration.radius = nan\n", "concentration.radius"),
    ],
)
def test_config_rejects_nan(text, key):
    with pytest.raises(ValueError, match=key):
        cfgmod.parse_config_text(text)


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


def test_simulate_usage_failures(tmp_path, capsys):
    assert main(["simulate", "--set", "bogus=1"]) == 1
    assert "bogus" in capsys.readouterr().err
    assert main(["simulate", "--set", "t_end"]) == 1
    assert "KEY=VALUE" in capsys.readouterr().err
    assert main(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 1
    capsys.readouterr()
    assert main(["unknown-command"]) == 1


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
    spherical.write_coeffs_csv(st.radius_field(), path)
    assert main(["diagnose", "--state", path]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert abs(float(cols["intK"]) - 4.0 * np.pi) <= 1e-8


def test_diagnose_rejects_unknown_extension(capsys):
    assert main(["diagnose", "--state", "state.txt"]) == 1
    assert ".csv or .obj" in capsys.readouterr().err


def test_rescale_state_file(tmp_path):
    st = shapes.generate("perturbed", "spectral", perturb="2,0,0.01")
    src = str(tmp_path / "state.csv")
    dst = str(tmp_path / "half.csv")
    spherical.write_coeffs_csv(st.radius_field(), src)
    assert main(["rescale", "--state", src, "--factor", "2", "--out", dst]) == 0
    back = spherical.read_coeffs_csv(dst)
    assert np.array_equal(back.coeffs * 2.0, st.coeffs)


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
    spherical.write_coeffs_csv(st.radius_field(), src)
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

"""Package-level checks: every exported name resolves in its module, and
scipy loads only when the mesh backend needs it."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import triheat
from triheat import diagnostics, flow, shapes

MODULES = [triheat] + [
    importlib.import_module(f"triheat.{info.name}")
    for info in pkgutil.iter_modules(triheat.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


# ---------------------------------------------------------------------------
# scipy is imported by the mesh backend only, where it is used
# ---------------------------------------------------------------------------

SPECTRAL_PATH = """
import os, sys
import triheat
from triheat import cli, diagnostics, flow, shapes, spherical

out = sys.argv[1]
st = shapes.generate("perturbed", "spectral", bandlimit=8, perturb="2,0,0.05;3,1,0.02")
traj = flow.run(st, 4 * flow.auto_dt(st), cadence=2)
assert len(traj.records) == 3
diagnostics.compute_record(traj.final_state)
path = os.path.join(out, "s.csv")
spherical.write_coeffs_csv(traj.final_state.coeffs, path)
for argv in (
    ["spectrum"],
    ["diagnose", "--state", path],
    ["rescale", "--state", path, "--factor", "2", "--out", os.path.join(out, "h.csv")],
    ["simulate", "--set", "out.dir=" + os.path.join(out, "run"), "--set", "bandlimit=8",
     "--set", "shape.kind=perturbed", "--set", "shape.perturb=2,0,0.01",
     "--set", "t_end=1e-6"],
):
    assert cli.main(argv) == 0, argv
print(sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy.")))
"""

MESH_PATH = """
import sys
from triheat import diagnostics, flow, shapes

m = shapes.icosphere(2)
rec = diagnostics.compute_record(flow.step_mesh(m, flow.auto_dt(m)))
assert "scipy.sparse" in sys.modules and "scipy.spatial" in sys.modules
print(repr(rec))
"""


def _fresh_interpreter(script: str, *args) -> str:
    """The last line a script prints in a new interpreter that finds triheat."""
    src = str(Path(triheat.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def test_spectral_path_never_imports_scipy(tmp_path):
    assert _fresh_interpreter(SPECTRAL_PATH, str(tmp_path)) == "[]"


def test_mesh_path_imports_scipy_on_first_use():
    m = shapes.icosphere(2)
    rec = diagnostics.compute_record(flow.step_mesh(m, flow.auto_dt(m)))
    assert _fresh_interpreter(MESH_PATH) == repr(rec)

"""Golden records: short reference runs on both backends against a
committed file, ``golden_records.json`` beside this one.

Each run is a few dozen steps at ``auto_dt`` from a perturbed sphere,
recorded every 10 steps, and then one record replayed on a fresh copy
of the final state. The file holds, per run, ``repr`` of the records,
of the stop reason and meta, and of the replayed record, and the
sha256 of the final state's coordinates (spectral coefficients or mesh
vertices) with three sums of them.

Bits depend on numpy, scipy, the BLAS builds they link and the SIMD
targets numpy dispatches to, which the file records. When they all
match, the test compares bytes. Otherwise it compares every number at
1e-12 relative, and the coordinates by their sums. It says which check
it ran and never skips.

The file changes only with a change meant to move results; list the
fields that moved in CHANGES.md. To write it again:

    PYTHONPATH=src python tests/test_golden_records.py
"""

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from triheat import diagnostics, flow, shapes
from triheat.mesh import TriangleMesh
from triheat.radial import RadialGraphState

GOLDEN = Path(__file__).with_name("golden_records.json")
RTOL = 1e-12
# name: backend, bandlimit or subdivisions, modes, steps
RUNS = {
    "spectral_l16": ("spectral", 16, "2,0,0.01", 40),
    "spectral_l32": ("spectral", 32, "2,0,0.05;3,1,0.02;5,-2,0.01", 30),
    "mesh_1280": ("mesh", 3, "2,0,0.05", 40),
    "mesh_5120": ("mesh", 4, "2,0,0.05", 30),
}
CADENCE = 10


def environment() -> dict:
    """What the bits of a run depend on besides the source."""
    import scipy

    def blas(module) -> str:
        try:
            cfg = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            # a build that cannot say which BLAS it links
            return "unknown"
        return f"{cfg.get('name')} {cfg.get('version')}"

    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

        simd = [k for k in __cpu_dispatch__ if __cpu_features__.get(k)]
    except ImportError:
        simd = ["unknown"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "numpy_simd": simd,
    }


def coordinate_sums(x: np.ndarray) -> list:
    """sum |x|, sum x^2 and sum x w, for fixed weights w in [-1, 1] that
    any platform makes to the same bits."""
    x = x.ravel()
    w = ((np.arange(x.size) * 7919) % 201 - 100) / 100.0
    return [float(np.abs(x).sum()), float((x * x).sum()), float((x * w).sum())]


def run_one(backend, size, modes, steps) -> dict:
    if backend == "spectral":
        state = shapes.generate("perturbed", backend, bandlimit=size, perturb=modes)
    else:
        state = shapes.generate("perturbed", backend, subdivisions=size, perturb=modes)
    dt = flow.auto_dt(state)
    traj = flow.run(state, steps * dt, dt=dt, cadence=CADENCE)
    final = traj.final_state
    if isinstance(final, TriangleMesh):
        coords = final.vertices
        copy = TriangleMesh(coords.copy(), final.faces, time=final.time)
    else:
        coords = final.coeffs
        copy = RadialGraphState(final.grid, coeffs=coords.copy(), time=final.time)
    return {
        "records": repr(traj.records),
        "stop": repr((traj.stop_reason, traj.meta)),
        "replay": repr(diagnostics.compute_record(copy)),
        "coords_sha256": hashlib.sha256(coords.tobytes()).hexdigest(),
        "coords_sums": coordinate_sums(coords),
    }


def run_all() -> dict:
    return {name: run_one(*spec) for name, spec in RUNS.items()}


# a number in a repr, not the digits of a name such as float64
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+(?:\.\d*)?(?:[eE][-+]?\d+)?|inf|nan)(?![\w.])")


def close(a: float, b: float, rtol: float = RTOL, scale: float = 0.0) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b), scale)


def texts_close(got: str, want: str, rtol: float = RTOL) -> bool:
    """Whether two reprs differ only in their numbers, each within rtol."""
    if _NUMBER.split(got) != _NUMBER.split(want):
        return False
    a, b = _NUMBER.findall(got), _NUMBER.findall(want)
    return len(a) == len(b) and all(close(float(x), float(y), rtol) for x, y in zip(a, b))


def runs_close(got: dict, want: dict, rtol: float = RTOL) -> list:
    """The fields of each run that differ by more than rtol."""
    bad = []
    for name in want:
        g, w = got[name], want[name]
        for key in ("records", "stop", "replay"):
            if not texts_close(g[key], w[key], rtol):
                bad.append(f"{name}.{key}")
        # the third sum cancels: it is compared at the scale of the first
        scale = w["coords_sums"][0]
        if not all(close(x, y, rtol, scale) for x, y in zip(g["coords_sums"], w["coords_sums"])):
            bad.append(f"{name}.coords_sums")
    return bad


def test_runs_keep_their_golden_records(record_property, capsys):
    golden = json.loads(GOLDEN.read_text())
    got = run_all()
    assert sorted(got) == sorted(golden["runs"])
    exact = environment() == golden["environment"]
    check = "exact bytes" if exact else f"{RTOL:g} relative"
    record_property("golden_check", check)
    with capsys.disabled():
        print(f"\ngolden records: compared at {check}")
    if exact:
        for name, want in golden["runs"].items():
            assert got[name] == want, f"{name}: bytes differ (exact check)"
    else:
        assert runs_close(got, golden["runs"]) == [], f"{check} check"


def test_the_tolerant_check_passes_rounding_and_refuses_a_moved_digit():
    want = json.loads(GOLDEN.read_text())["runs"]

    def moved(factor, key="records"):
        out = json.loads(json.dumps(want))
        run = out["mesh_1280"]
        run[key] = _NUMBER.sub(lambda m: repr(float(m.group()) * factor), run[key])
        return out

    assert runs_close(want, want) == []
    assert runs_close(moved(1.0 + 1e-14), want) == []
    assert runs_close(moved(1.0 + 1e-10), want) == ["mesh_1280.records"]
    assert runs_close(moved(1.0 + 1e-10, "replay"), want) == ["mesh_1280.replay"]
    # a changed word is never within tolerance
    out = json.loads(json.dumps(want))
    out["spectral_l16"]["stop"] = out["spectral_l16"]["stop"].replace("t_end", "singular")
    assert runs_close(out, want) == ["spectral_l16.stop"]
    out = json.loads(json.dumps(want))
    out["mesh_5120"]["coords_sums"][1] *= 1.0 + 1e-10
    assert runs_close(out, want) == ["mesh_5120.coords_sums"]


@pytest.mark.parametrize(
    "text, numbers",
    [
        ("np.float64(1.5)", ["1.5"]),
        ("x1=2e-3, y=-inf", ["2e-3", "-inf"]),
        ("nan, 7", ["nan", "7"]),
    ],
    ids=["call", "signed", "words"],
)
def test_numbers_in_a_repr_are_found_and_names_are_not(text, numbers):
    assert _NUMBER.findall(text) == numbers


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({"environment": environment(), "runs": run_all()}, indent=1) + "\n"
    )
    print(f"wrote {GOLDEN}")

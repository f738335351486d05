"""triheat benchmark: one workload per process, one BLAS thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; triheat is imported from the
checkout's ``src`` directory. The seed sets a random rotation of the
workload's perturbation modes (``workloads.py``). A run repeats whole
flow runs of the workload while another one fits in ``--seconds`` (at
least one), re-times ``diagnostics.compute_record`` on fresh copies of
the first flow run's recorded states, and then checks the outputs
against computations made apart from triheat (``checks.py``).

With ``--trace 0`` the last line of output is the JSON result with the
end-to-end metrics. With ``--trace 1`` every traced flow run follows an
untraced one; the result holds the per-layer metrics, derived from spans
around triheat's public calls (``tracing.py``), and the spans are
written under ``perfbench/out/``. Metric names and units are read from
``BENCHMARK.json`` at the checkout root.
"""

import os

# one BLAS thread, fixed before numpy loads; the set-up probes inherit it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
# least time of record replays after each flow run
REPLAY_SECONDS = 3.0
# converge_l16 stops on convergence long before this flow time
CONVERGE_T_END = 10.0


_START = time.perf_counter()


def log(msg) -> None:
    """Progress on standard error, with seconds since the run began."""
    print(f"[{time.perf_counter() - _START:7.2f} s] {msg}", file=sys.stderr, flush=True)


class Operations:
    """Operations attempted and failed; a failure prints its traceback."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None


def fresh(triheat, state):
    """A copy of a state that shares no cached geometry with it."""
    if isinstance(state, triheat.TriangleMesh):
        return triheat.TriangleMesh(state.vertices.copy(), state.faces, time=state.time)
    return triheat.RadialGraphState(
        state.grid, coeffs=state.coeffs.copy(), time=state.time
    )


def setup_seconds(wl, perturb) -> float:
    """Median set-up time over fresh interpreters (``probe.py``)."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), wl.backend, str(wl.size), perturb],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def warm_up(triheat, state0) -> None:
    """One step and one record on copies, so lazy first-call costs are paid."""
    state = fresh(triheat, state0)
    step = (
        triheat.flow.step_mesh
        if isinstance(state, triheat.TriangleMesh)
        else triheat.flow.step_spectral
    )
    step(state, triheat.flow.auto_dt(state))
    triheat.diagnostics.compute_record(fresh(triheat, state0))


def flow_round(triheat, wl, state0):
    """One flow run from a fresh copy of the initial state, with its wall time."""
    state = fresh(triheat, state0)
    if wl.steps is None:
        t_end, dt = CONVERGE_T_END, None
    else:
        dt = triheat.flow.auto_dt(state)
        t_end = wl.steps * dt
    t0 = time.perf_counter()
    traj = triheat.flow.run(state, t_end, dt=dt, cadence=wl.cadence)
    return traj, time.perf_counter() - t0


def timed_record(triheat, state):
    """compute_record on a fresh copy, as ``triheat diagnose`` pays it."""
    copy = fresh(triheat, state)
    t0 = time.perf_counter()
    rec = triheat.diagnostics.compute_record(copy)
    return rec, time.perf_counter() - t0


def rounds(seconds, round_fn):
    """Call round_fn while one more call of the mean length fits in the budget."""
    start = time.perf_counter()
    n = 0
    while True:
        round_fn()
        n += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / n > seconds:
            return


def replay_pass(triheat, traj, ops, record_times) -> list:
    """Replay every recorded state of a flow run once; returns check failures."""
    import checks

    bad = []
    for entry in traj.entries:
        out = ops.call(timed_record, triheat, entry.state)
        if out is not None:
            record_times.append(out[1])
            bad += checks.check_replay(entry.record, out[0])
    return bad


def measure(triheat, wl, state0, seconds, ops):
    """End-to-end metrics, except set-up time, and the first flow run.

    A round is one flow run followed by passes of record replays over its
    recorded states, repeated until the passes took REPLAY_SECONDS, so the
    replays are spread over the whole run like the flow runs are.
    """
    warm_up(triheat, state0)
    walls, record_times, runs, bad = [], [], [], []

    def one():
        out = ops.call(flow_round, triheat, wl, state0)
        if out is None:
            return
        walls.append(out[1])
        runs[:] = runs or [out[0]]
        start = time.perf_counter()
        while True:
            bad.extend(replay_pass(triheat, out[0], ops, record_times))
            if time.perf_counter() - start >= REPLAY_SECONDS:
                return

    rounds(seconds, one)
    log(f"{len(walls)} flow runs: {', '.join(f'{w:.3f}' for w in walls)} s")
    if record_times:
        median = statistics.median(record_times)
        log(f"{len(record_times)} record replays, median {median:.4f} s")
    if not runs:
        return {}, None, []
    metrics = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "record_ms": 1e3 * statistics.median(record_times) if record_times else 0.0,
    }
    return metrics, runs[0], bad


def measure_traced(triheat, wl, perturb, seconds, ops, seed):
    """Per-layer metrics from alternating untraced and traced flow runs."""
    from probe import build_state
    from tracing import Tracer, layer_metrics, write_spans

    tracer = Tracer()
    with tracer:
        state0 = build_state(triheat.shapes, wl.backend, wl.size, perturb)
    warm_up(triheat, state0)
    plain, traced, runs = [], [], []

    def pair():
        out = ops.call(flow_round, triheat, wl, state0)
        if out is not None:
            plain.append(out[1])
        with tracer:
            out = ops.call(flow_round, triheat, wl, state0)
        if out is not None:
            traced.append(out[1])
            runs[:] = runs or [out[0]]

    rounds(seconds, pair)
    log(f"flow runs untraced {plain} s, traced {traced} s")
    if not runs or not plain:
        return {}, None, []
    meta = runs[0].meta
    metrics = layer_metrics(tracer.spans, meta["steps"], meta["halvings"])
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    OUT.mkdir(exist_ok=True)
    write_spans(tracer.spans, OUT / f"spans-{wl.name}-seed{seed}.tsv")
    return metrics, runs[0], []


def run_checks(triheat, wl, modes, traj) -> list:
    """Every correctness check of the workload on one flow run."""
    import checks

    spectral = wl.backend == "spectral"
    v0 = checks.initial_volume(modes, max(l for l, _, _ in modes))
    recs = traj.records
    bad = checks.check_volume(recs[0].volume, v0, spectral)
    bad += checks.check_records(recs, spectral)
    if wl.steps is None:
        bad += checks.check_converged(traj, v0, wl.bandlimit)
    else:
        got = (traj.stop_reason, traj.meta["steps"], len(recs))
        want = ("t_end", wl.steps, wl.steps // wl.cadence + 1)
        if got != want:
            bad.append(f"(stop reason, steps, records) = {got}, expected {want}")
    final = traj.entries[-1]
    if spectral:
        bad += checks.check_alpha_spectral(triheat, final.state, final.record.alpha)
    else:
        bad += checks.check_alpha_mesh(triheat, final.state, final.record.alpha)
    return bad


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "triheat" / "__init__.py").is_file():
        print("run from a triheat checkout: src/triheat is missing", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, perturb_text, rotated_modes

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload]
    modes = rotated_modes(wl.modes, args.seed)
    perturb = perturb_text(modes)
    ops = Operations()
    if not args.trace:
        setup = setup_seconds(wl, perturb)
        log(f"set-up probes: median {setup:.4f} s")
    sys.path.insert(0, str(SRC))
    import triheat

    if args.trace:
        metrics, traj, bad = measure_traced(
            triheat, wl, perturb, args.seconds, ops, args.seed
        )
        wanted = spec["per_layer"]
    else:
        from probe import build_state

        state0 = build_state(triheat.shapes, wl.backend, wl.size, perturb)
        metrics, traj, bad = measure(triheat, wl, state0, args.seconds, ops)
        metrics["setup_s"] = setup
        wanted = spec["end_to_end"]
    if traj is None:
        print("no flow run finished", file=sys.stderr)
        return 1
    log("checking outputs")
    bad += run_checks(triheat, wl, modes, traj)
    log("checks done")
    for msg in bad:
        print(f"check failed: {msg}", file=sys.stderr)
    units = {m["name"]: m["unit"] for m in wanted}
    if set(units) != set(metrics):
        diff = sorted(set(units) ^ set(metrics))
        print(f"metrics differ from BENCHMARK.json: {diff}", file=sys.stderr)
        return 1
    result = {
        "correct": not bad,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

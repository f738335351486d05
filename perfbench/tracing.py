"""Spans around triheat's public calls, wrapped from outside the package.

:class:`Tracer` replaces every public function of the layer modules (every
function a module defines under a name without a leading underscore), and
the public methods of the transform and mesh classes, with a wrapper
that records a span (id, parent id, name, start, end) per call. Each
module-level name bound to a wrapped function is patched, including the
``from .x import y`` copies in other modules, so calls made inside the
package are traced too. Leaving the ``with`` block puts every original
back. Spans are kept in memory and written out by :func:`write_spans`.

:func:`layer_metrics` derives the per-layer metrics from the spans'
self times and counts.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time

import numpy as np

LAYERS = ("spherical", "radial", "flow", "diagnostics", "mesh", "shapes")
STEP_NAMES = ("flow.step_spectral", "flow.step_mesh")
ALPHA_NAMES = ("mesh.concentration", "mesh.max_ball_sum")
CURVATURE_NAMES = (
    "mesh.mean_curvature",
    "mesh.gauss_curvature",
    "mesh.vertex_normals",
    "mesh.tracefree_norm_sq",
)


def _ball_sum_sizes(args, kwargs):
    points = kwargs.get("points", args[0] if args else ())
    centers = kwargs.get("centers", args[1] if len(args) > 1 else ())
    return (len(centers), len(points))


# extra values a span keeps, taken from the call's arguments
_ATTRS = {"mesh.max_ball_sum": _ball_sum_sizes}


class Tracer:
    """Context manager that traces triheat's layers while it is entered."""

    def __init__(self):
        self.spans = []
        self._stack = [0]
        self._ids = itertools.count(1)
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter_ns
        attrs = _ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = attrs(args, kwargs) if attrs else None
            parent = stack[-1]
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, extra))

        return traced

    def __enter__(self):
        import triheat  # noqa: F401  (loads every layer module)

        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "triheat"]
        for layer in LAYERS:
            mod = sys.modules[f"triheat.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(fn, type) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for other in modules:
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            self._undo.append((other, key, fn))
                            setattr(other, key, wrapped)
        spherical = sys.modules["triheat.spherical"]
        mesh = sys.modules["triheat.mesh"]
        for cls, prefix in (
            (spherical._Transform, "spherical.Transform"),
            (mesh.TriangleMesh, "mesh.TriangleMesh"),
        ):
            for attr, fn in list(vars(cls).items()):
                if attr.startswith("_") or not callable(fn) or isinstance(fn, type):
                    continue
                self._undo.append((cls, attr, fn))
                setattr(cls, attr, self._wrap(f"{prefix}.{attr}", fn))
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()
        return False


def write_spans(spans, path) -> None:
    """One tab-separated line per span: id, parent, name, start_ns, end_ns, extra."""
    with open(path, "w") as fh:
        fh.write("id\tparent\tname\tstart_ns\tend_ns\textra\n")
        for sid, parent, name, t0, t1, extra in sorted(spans):
            fh.write(f"{sid}\t{parent}\t{name}\t{t0}\t{t1}\t{extra or ''}\n")


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(spans, accepted_steps, halvings) -> dict:
    """Per-layer metrics from the spans of the traced run.

    Per-step figures divide totals inside the ``flow.run`` spans (steps and
    in-run records) by the number of step calls; spans outside them are
    set-up. ``accepted_steps`` and ``halvings`` are the counts of one flow
    run.
    """
    spans = sorted(spans)
    parent = {s[0]: s[1] for s in spans}
    dur = {s[0]: s[4] - s[3] for s in spans}
    child_time = dict.fromkeys(parent, 0)
    for sid, par, *_ in spans:
        if par in child_time:
            child_time[par] += dur[sid]
    self_ns = {sid: dur[sid] - child_time[sid] for sid in parent}

    # spans are sorted by id, and a parent's id is smaller than its child's
    in_round, step_of = {}, {}
    for sid, par, nm, *_ in spans:
        in_round[sid] = nm == "flow.run" or in_round.get(par, False)
        step_of[sid] = sid if nm in STEP_NAMES else step_of.get(par)
    inside = [s for s in spans if in_round[s[0]]]
    steps = [s[0] for s in inside if s[2] in STEP_NAMES]
    n_steps = max(len(steps), 1)

    def per_step_count(target):
        counts = dict.fromkeys(steps, 0)
        for s in inside:
            if s[2] == target and step_of[s[0]] is not None:
                counts[step_of[s[0]]] += 1
        return _median(list(counts.values()))

    def ms_per_step(select):
        total = sum(self_ns[s[0]] for s in inside if select(s[2]))
        return total / n_steps / 1e6

    def median_ms(select):
        return _median([dur[s[0]] / 1e6 for s in inside if select(s)])

    records = {s[0] for s in inside if s[2] == "diagnostics.compute_record"}
    alpha = [s for s in inside if s[2] in ALPHA_NAMES and s[1] in records]
    sizes = [s[5] for s in inside if s[2] == "mesh.max_ball_sum"]
    setup = [s for s in spans if not in_round[s[0]]]
    builds = [dur[s[0]] for s in setup if s[2] == "spherical.transform_for"]
    generate = [dur[s[0]] for s in setup if s[2] == "shapes.generate"]
    n_rounds = max(sum(1 for s in spans if s[2] == "flow.run"), 1)

    def layer_of(nm):
        return nm.split(".")[0]

    return {
        "spherical.synthesize_per_step": per_step_count(
            "spherical.Transform.synthesize"
        ),
        "spherical.analyze_per_step": per_step_count("spherical.Transform.analyze"),
        "spherical.self_ms_per_step": ms_per_step(lambda n: layer_of(n) == "spherical"),
        "spherical.table_build_ms": max(builds, default=0) / 1e6,
        "radial.rho_velocity_ms": median_ms(lambda s: s[2] == "radial.rho_velocity"),
        "radial.self_ms_per_step": ms_per_step(lambda n: layer_of(n) == "radial"),
        "flow.steps": accepted_steps,
        "flow.step_ms": median_ms(lambda s: s[2] in STEP_NAMES),
        "flow.self_ms_per_step": ms_per_step(lambda n: layer_of(n) == "flow"),
        "flow.halvings": halvings,
        "diagnostics.records": len(records) / n_rounds,
        "diagnostics.record_ms": median_ms(lambda s: s[0] in records),
        "diagnostics.alpha_ms": _median([dur[s[0]] / 1e6 for s in alpha]),
        "diagnostics.alpha_centers": _median([c for c, _ in sizes]),
        "diagnostics.alpha_points": _median([p for _, p in sizes]),
        # build_operators calls nothing traced, so its self time is its time
        "mesh.build_operators_ms": ms_per_step(lambda n: n == "mesh.build_operators"),
        "mesh.build_operators_per_step": per_step_count("mesh.build_operators"),
        "mesh.curvature_ms": ms_per_step(lambda n: n in CURVATURE_NAMES),
        "mesh.self_ms_per_step": ms_per_step(lambda n: layer_of(n) == "mesh"),
        "shapes.generate_ms": sum(generate) / 1e6,
    }

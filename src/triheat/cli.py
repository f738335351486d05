"""Command line front end.

Subcommands: ``simulate`` runs a configured flow and writes artifacts,
``spectrum`` prints linearized decay rates, ``diagnose`` prints one
diagnostics row for a stored state, ``rescale`` rescales a stored
state. Exit codes: 0 success, 1 usage or validation failure, 2 a run
that ended in breakdown (artifacts are still written).
"""

from __future__ import annotations

import argparse
import os
import sys
import time as _time

import numpy as np

from . import diagnostics, flow, shapes, spherical
from .config import (
    FlowConfig,
    apply_setting,
    format_config,
    parse_config,
    validate_config,
)
from .mesh import load_obj
from .radial import RadialGraphState

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad arguments; route that to 1 instead
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="triheat", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sim = sub.add_parser("simulate", help="run a flow from a config")
    sim.add_argument("--config", help="key=value config file")
    sim.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config entry (repeatable)",
    )

    spec = sub.add_parser("spectrum", help="linearized decay rates about a sphere")
    spec.add_argument("--rho-inf", type=float, default=1.0)
    spec.add_argument("--lmax", type=int, default=10)

    diag = sub.add_parser("diagnose", help="one diagnostics row for a state file")
    diag.add_argument("--state", required=True, help=".csv coefficients or .obj mesh")
    diag.add_argument("--radius", type=float, default=0.25,
                      help="concentration ball radius")

    res = sub.add_parser("rescale", help="parabolic rescaling of a state file")
    res.add_argument("--state", required=True)
    res.add_argument("--factor", type=float, required=True)
    res.add_argument("--center", help="x,y,z (mesh states only)")
    res.add_argument("--out", required=True)
    return p


def _load_state(path):
    if path.endswith(".obj"):
        m = load_obj(path)
        m.validate()
        return m
    if path.endswith(".csv"):
        grid, coeffs = spherical.read_coeffs_csv(path)
        return RadialGraphState(grid, coeffs=coeffs)
    raise ValueError(f"state file must end in .csv or .obj, got {path!r}")


def _save_state(state, path, add_suffix=False) -> None:
    """Write OBJ for a mesh, coefficient CSV for a graph; optionally add the suffix."""
    b = diagnostics._backend(state)
    b.save(state, path + b.suffix if add_suffix else path)


def _cmd_simulate(args) -> int:
    cfg = FlowConfig()
    if args.config:
        cfg = parse_config(args.config, cfg)
    for item in args.set:
        if "=" not in item:
            raise _UsageError(f"--set needs KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        apply_setting(cfg, key, raw)
    validate_config(cfg)
    if cfg.mesh and cfg.shape_kind != "obj":
        raise ValueError("mesh=<file> requires shape.kind=obj")

    state = shapes.generate(
        cfg.shape_kind,
        cfg.backend,
        bandlimit=cfg.bandlimit,
        subdivisions=cfg.shape_subdivisions,
        radius=cfg.shape_radius,
        perturb=cfg.shape_perturb,
        semiaxes=shapes.parse_semiaxes(cfg.shape_semiaxes),
        mesh_path=cfg.mesh or None,
    )
    dt = None if cfg.dt_policy == "auto" else cfg.dt_value
    # the checks of flow.run, before anything is written
    flow._checked_dt(state, cfg.t_end, dt, cfg.safety, cfg.cadence, cfg.stop_ao_inf)

    os.makedirs(cfg.out_dir, exist_ok=True)
    _save_state(state, os.path.join(cfg.out_dir, "state_initial"), add_suffix=True)

    t0 = _time.perf_counter()
    traj = flow.run(
        state,
        t_end=cfg.t_end,
        dt=dt,
        safety=cfg.safety,
        cadence=cfg.cadence,
        stop_ao_inf=cfg.stop_ao_inf,
        concentration_radius=cfg.concentration_radius,
    )
    wall = _time.perf_counter() - t0

    diagnostics.write_csv(traj.records, os.path.join(cfg.out_dir, "diagnostics.csv"))
    final = traj.final_state
    _save_state(final, os.path.join(cfg.out_dir, "state_final"), add_suffix=True)
    with open(os.path.join(cfg.out_dir, "run.meta"), "w") as fh:
        fh.write(format_config(cfg))
        fh.write(f"run.stop_reason = {traj.stop_reason}\n")
        if "stop_detail" in traj.meta:
            fh.write(f"run.stop_detail = {traj.meta['stop_detail']}\n")
        fh.write(f"run.steps = {traj.meta['steps']}\n")
        fh.write(f"run.halvings = {traj.meta['halvings']}\n")
        fh.write(f"run.dt_final = {traj.meta['dt_final']:.17g}\n")
        fh.write(f"run.records = {len(traj.entries)}\n")
        fh.write(f"run.wall_seconds = {wall:.3f}\n")
        # the paper's small-energy hypothesis on the initial surface
        ao2 = traj.records[0].ao2
        fh.write(f"run.ao2_initial = {ao2:.17g}\n")
        fh.write(f"run.below_epsilon0 = {'yes' if ao2 < cfg.epsilon0 else 'no'}\n")

    last = traj.records[-1]
    print(
        f"stop={traj.stop_reason} steps={traj.meta['steps']} "
        f"t={last.time:.9g} area={last.area:.9g} volume={last.volume:.9g} "
        f"aoInf={last.ao_inf:.3e}"
    )
    return 2 if traj.stop_reason == "singular" else 0


def _cmd_spectrum(args) -> int:
    if not 0 <= args.lmax <= spherical.MAX_FILE_DEGREE:
        raise _UsageError(f"--lmax must lie in [0, {spherical.MAX_FILE_DEGREE}]")
    # every rate first, so a rejected radius prints no partial table
    rates = [
        diagnostics.linearized_rate(l, args.rho_inf) for l in range(args.lmax + 1)
    ]
    print("l,rate")
    for l, rate in enumerate(rates):
        print(f"{l},{rate:.17g}")
    return 0


def _cmd_diagnose(args) -> int:
    state = _load_state(args.state)
    rec = diagnostics.compute_record(state, args.radius)
    print(diagnostics.csv_header())
    print(rec.to_csv_row())
    return 0


def _cmd_rescale(args) -> int:
    state = _load_state(args.state)
    center = None
    if args.center is not None:
        parts = args.center.split(",")
        if len(parts) != 3:
            raise _UsageError("--center needs x,y,z")
        center = np.array([float(x) for x in parts])
    out = flow.rescale(state, args.factor, center)
    _save_state(out, args.out)
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "spectrum": _cmd_spectrum,
    "diagnose": _cmd_diagnose,
    "rescale": _cmd_rescale,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

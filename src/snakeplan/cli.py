"""Batch front-end: decompose/factorize matrices, run planners, emit
verification reports and plot-ready trajectories.

Every subcommand builds a Scenario, dispatches it through run(), prints a
RunReport as JSON on stdout and exits 0 only when all verification checks
pass.  Exit codes: 2 validation failure, 3 numerical failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import generate as gen
from . import io as sio
from .lorentz import (
    Membership,
    NotABoost,
    NotLorentz,
    boost_decompose,
    classify,
    exp_h,
    factorize,
    lorentz_residual,
    spatial_block,
)
from .planner import (
    SingularityApproach,
    act,
    commutator_probe,
    horizontal_lift,
    plan_group_path,
    steer_config,
)
from .rotations import planar_rotation, so_exp_blocks
from .snake import config_distance, endpoint, fit_horizontal, is_singular
from .sphere import NotOrthochronous

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


@dataclass
class Scenario:
    kind: str
    inputs: dict = field(default_factory=dict)  # payload paths
    options: dict = field(default_factory=dict)  # tolerances, steps, seed, dim


@dataclass
class RunReport:
    scenario: dict
    outputs: dict
    checks: list
    passed: bool
    seconds: float

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "outputs": self.outputs,
            "verification": {"checks": self.checks, "passed": self.passed},
            "timing": {"seconds": self.seconds},
        }


def _check(name, value, tol):
    return {"name": name, "value": float(value), "tol": float(tol),
            "pass": bool(value <= tol)}


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise _IOFailure(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON in {path}: {exc}") from exc


class _IOFailure(RuntimeError):
    pass


def _out_path(options, name):
    out_dir = options.get("out_dir")
    if out_dir is None:
        return None
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _maybe_write_json(options, name, obj, outputs):
    path = _out_path(options, name)
    if path is not None:
        sio.dump_json(obj, path)
        outputs[name] = path


def _maybe_write_csv(options, name, header, rows, outputs):
    path = _out_path(options, name)
    if path is not None:
        sio.write_csv(path, header, rows)
        outputs[name] = path


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------


def _run_decompose(sc: Scenario):
    tol = sc.options.get("tol", 1e-8)
    A = sio.matrix_from_json(_load_json(sc.inputs["matrix"]))
    grade = classify(A)
    if grade is Membership.NOT_LORENTZ:
        raise NotLorentz(f"Lorentz residual {lorentz_residual(A):.3e} too large")
    eps, Q, T = boost_decompose(A, tol=tol)
    checks = [
        _check("lorentz_residual", lorentz_residual(A), max(tol, 1e-9)),
        _check("reconstruction_residual", np.linalg.norm(spatial_block(Q, eps) @ T - A), tol),
    ]
    outputs: dict = {}
    _maybe_write_json(sc.options, "factors.json", {
        "epsilon": float(eps),
        "membership": grade.value,
        "orthogonal": [[float(x) for x in row] for row in Q],
        "boost": sio.matrix_to_json(T),
    }, outputs)
    result = {"epsilon": float(eps), "membership": grade.value}
    return checks, outputs, result


def _run_factorize(sc: Scenario):
    tol = sc.options.get("tol", 1e-8)
    A = sio.matrix_from_json(_load_json(sc.inputs["matrix"]))
    blocks, u = factorize(A, tol=tol)
    recon = spatial_block(so_exp_blocks(blocks)) @ exp_h(u)
    checks = [
        _check("reconstruction_residual", np.linalg.norm(recon - A), tol),
        _check("block_commutation", max(
            (np.linalg.norm(a.generator @ b.generator - b.generator @ a.generator)
             for a in blocks.blocks for b in blocks.blocks if a is not b), default=0.0,
        ), 1e-10),
    ]
    outputs: dict = {}
    _maybe_write_json(sc.options, "blocks.json", {
        "blocks": sio.blocks_to_json(blocks),
        "boost_vector": [float(x) for x in u],
    }, outputs)
    result = {"angles": [float(b.theta) for b in blocks.blocks],
              "boost_norm": float(np.linalg.norm(u))}
    return checks, outputs, result


def _run_plan_group(sc: Scenario):
    tol = sc.options.get("tol", 1e-8)
    step = sc.options.get("step", 0.02)
    A = sio.matrix_from_json(_load_json(sc.inputs["matrix"]))
    path = plan_group_path(A, max_step=step, tol=tol)
    ledger = path.leg_lengths()
    checks = [
        _check("endpoint_residual", np.linalg.norm(path.endpoint() - A), 1e-7),
        _check("horizontality", path.horizontality_residual(), 1e-8),
        _check("ledger_vs_controls", abs(path.length() - sum(ledger.values())), 1e-6),
    ]
    outputs: dict = {}
    _maybe_write_json(sc.options, "plan.json", sio.group_path_to_json(path), outputs)
    result = {"length": float(path.length()), "legs": len(path.legs), "ledger": ledger}
    return checks, outputs, result


def _run_steer(sc: Scenario):
    tol = sc.options.get("tol", 1e-8)
    step = sc.options.get("step", 0.02)
    A = sio.matrix_from_json(_load_json(sc.inputs["matrix"]))
    u0 = sio.config_from_json(_load_json(sc.inputs["config"]))
    path = steer_config(u0, A, max_step=step, tol=tol)
    target = act(A, u0)
    fit_res = max(
        (fit_horizontal(path.config(k), path.velocities[k]).residual
         for k in range(len(path.velocities))), default=0.0,
    )
    checks = [
        _check("final_config_distance", config_distance(path.final, target), 1e-7),
        _check("velocity_fit_residual", fit_res, 1e-6),
    ]
    outputs: dict = {}
    _maybe_write_csv(sc.options, "head_trace.csv",
                     ["t"] + [f"x{i+1}" for i in range(u0.dim)],
                     sio.head_trace_rows(path), outputs)
    _maybe_write_csv(sc.options, "snake_polylines.csv",
                     ["t", "s"] + [f"x{i+1}" for i in range(u0.dim)],
                     sio.config_path_polyline_rows(path, stride=max(1, len(path.times) // 32)),
                     outputs)
    _maybe_write_json(sc.options, "final_config.json", sio.config_to_json(path.final), outputs)
    result = {"steps": len(path.times) - 1}
    return checks, outputs, result


def _run_lift_head(sc: Scenario):
    step = sc.options.get("step", 1e-3)
    track_tol = sc.options.get("track_tol", 1e-4)
    u0 = sio.config_from_json(_load_json(sc.inputs["config"]))
    times, points = sio.head_curve_from_json(_load_json(sc.inputs["head_curve"]))
    from scipy.interpolate import CubicSpline

    spline = CubicSpline(times, points, axis=0)
    dspline = spline.derivative()
    path = horizontal_lift(
        u0, lambda t: spline(t), lambda t: dspline(t),
        t_final=float(times[-1]), dt=step,
    )
    checks = [
        _check("tracking_error", float(path.tracking_errors.max()), track_tol),
        _check("final_margin", -is_singular(path.final)[1], 0.0),
    ]
    outputs: dict = {}
    _maybe_write_csv(sc.options, "head_trace.csv",
                     ["t"] + [f"x{i+1}" for i in range(u0.dim)],
                     sio.head_trace_rows(path), outputs)
    _maybe_write_json(sc.options, "final_config.json", sio.config_to_json(path.final), outputs)
    result = {"steps": len(path.times) - 1,
              "max_tracking_error": float(path.tracking_errors.max())}
    return checks, outputs, result


def _run_probe_bracket(sc: Scenario):
    n = sc.options.get("dim", 3)
    i, j = sc.inputs["i"], sc.inputs["j"]
    t, m = sc.inputs["t"], sc.inputs["m"]
    step = sc.options.get("step", 0.02)
    path = commutator_probe(i, j, t, m, n, max_step=step)
    from .lorentz import basis_Omega

    target = planar_rotation(basis_Omega(i, j, n).matrix(), t)
    err = np.linalg.norm(path.endpoint() - target)
    checks = [
        _check("horizontality", path.horizontality_residual(), 1e-8),
        _check("ledger_vs_controls", abs(path.length() - sum(path.leg_lengths().values())), 1e-6),
    ]
    outputs: dict = {}
    _maybe_write_json(sc.options, "probe.json", {
        "m": m, "t": t, "endpoint_error": float(err),
        "path_length": float(path.length()),
    }, outputs)
    result = {"endpoint_error": float(err), "length": float(path.length())}
    return checks, outputs, result


def _run_generate(sc: Scenario):
    kind = sc.inputs["generator"]
    seed = sc.options.get("seed", 0)
    n = sc.options.get("dim", 3)
    rng = np.random.default_rng(seed)
    checks = []
    outputs: dict = {}
    if kind == "random-so0":
        A = gen.random_so0(rng, n)
        payload = sio.matrix_to_json(A)
        checks.append(_check("lorentz_residual", lorentz_residual(A), 1e-9))
        checks.append(_check("is_so0", 0.0 if classify(A) is Membership.SO0 else 1.0, 0.5))
        name = "matrix.json"
    elif kind == "random-config":
        cfg = gen.random_config(rng, n)
        payload = sio.config_to_json(cfg)
        flag, margin = is_singular(cfg)
        checks.append(_check("nonsingular_margin", 0.0 if (not flag and margin > 0) else 1.0, 0.5))
        name = "config.json"
    elif kind == "circle-head-curve":
        cfg_path = sc.inputs.get("config")
        cfg = (sio.config_from_json(_load_json(cfg_path)) if cfg_path
               else gen.random_config(rng, n))
        radius = sc.options.get("radius", 0.05 * cfg.L)
        times, points = gen.circle_head_curve(cfg, radius)
        payload = sio.head_curve_to_json(times, points)
        checks.append(_check("inside_ball",
                             float(np.max(np.linalg.norm(points, axis=1))), cfg.L))
        name = "head_curve.json"
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    out = sc.options.get("out")
    if out is not None:
        sio.dump_json(payload, out)
        outputs[name] = out
    result = {"kind": kind, "payload": payload if out is None else None}
    return checks, outputs, result


_RUNNERS = {
    "decompose": _run_decompose,
    "factorize": _run_factorize,
    "plan-group": _run_plan_group,
    "steer": _run_steer,
    "lift-head": _run_lift_head,
    "probe-bracket": _run_probe_bracket,
    "generate": _run_generate,
}


def run(scenario: Scenario) -> tuple:
    """Dispatch a scenario; returns (RunReport, exit_code)."""
    t0 = time.perf_counter()
    try:
        checks, outputs, result = _RUNNERS[scenario.kind](scenario)
        code = EXIT_OK
    except _IOFailure as exc:
        return _failure_report(scenario, t0, "io", str(exc)), EXIT_IO
    except (ValueError, KeyError, NotLorentz, NotABoost, NotOrthochronous) as exc:
        kind = "validation"
        if isinstance(exc, (NotLorentz, NotABoost, NotOrthochronous)):
            kind = "numerical"
        code = EXIT_NUMERICAL if kind == "numerical" else EXIT_VALIDATION
        return _failure_report(scenario, t0, kind, str(exc)), code
    except (SingularityApproach, RuntimeError, np.linalg.LinAlgError) as exc:
        return _failure_report(scenario, t0, "numerical", str(exc)), EXIT_NUMERICAL
    passed = all(c["pass"] for c in checks)
    report = RunReport(
        scenario={"kind": scenario.kind, "inputs": scenario.inputs,
                  "options": scenario.options},
        outputs=outputs | {"result": result},
        checks=checks,
        passed=passed,
        seconds=time.perf_counter() - t0,
    )
    return report, EXIT_OK if passed else EXIT_NUMERICAL


def _failure_report(scenario, t0, kind, message):
    return RunReport(
        scenario={"kind": scenario.kind, "inputs": scenario.inputs,
                  "options": scenario.options},
        outputs={"error": {"kind": kind, "message": message}},
        checks=[],
        passed=False,
        seconds=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# argparse wiring
# ---------------------------------------------------------------------------


def _common(sub, *, tol=False, step=None, out_dir=True):
    if tol:
        sub.add_argument("--tol", type=float, default=1e-8)
    if step is not None:
        sub.add_argument("--step", type=float, default=step)
    if out_dir:
        sub.add_argument("--out-dir", default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="snakeplan",
        description="Lorentz decompositions and horizontal snake planning",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="boost/orthogonal factorization of a Lorentz matrix")
    p.add_argument("--matrix", required=True)
    _common(p, tol=True)

    p = sub.add_parser("factorize", help="rotation-block + boost factorization of an SO0 matrix")
    p.add_argument("--matrix", required=True)
    _common(p, tol=True)

    p = sub.add_parser("plan-group", help="horizontal path from Id to an SO0 matrix")
    p.add_argument("--matrix", required=True)
    _common(p, tol=True, step=0.02)

    p = sub.add_parser("steer", help="steer a configuration along a group plan")
    p.add_argument("--matrix", required=True)
    p.add_argument("--config", required=True)
    _common(p, tol=True, step=0.02)

    p = sub.add_parser("lift-head", help="optimal-control lift of a head curve")
    p.add_argument("--config", required=True)
    p.add_argument("--head-curve", required=True)
    p.add_argument("--track-tol", type=float, default=1e-4)
    _common(p, step=1e-3)

    p = sub.add_parser("probe-bracket", help="commutator probe of a rotation generator")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--dim", type=int, default=3)
    _common(p, step=0.02)

    p = sub.add_parser("generate", help="seeded payload generator")
    p.add_argument("--kind", required=True,
                   choices=["random-so0", "random-config", "circle-head-curve"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--config", default=None, help="anchor config for circle-head-curve")
    p.add_argument("--out", default=None)
    return ap


def _scenario_from_args(args) -> Scenario:
    opts: dict = {}
    for key in ("tol", "step", "out_dir", "seed", "dim", "track_tol", "radius"):
        val = getattr(args, key, None)
        if val is not None:
            opts[key] = val
    if args.command == "decompose":
        return Scenario("decompose", {"matrix": args.matrix}, opts)
    if args.command == "factorize":
        return Scenario("factorize", {"matrix": args.matrix}, opts)
    if args.command == "plan-group":
        return Scenario("plan-group", {"matrix": args.matrix}, opts)
    if args.command == "steer":
        return Scenario("steer", {"matrix": args.matrix, "config": args.config}, opts)
    if args.command == "lift-head":
        return Scenario("lift-head",
                        {"config": args.config, "head_curve": args.head_curve}, opts)
    if args.command == "probe-bracket":
        return Scenario("probe-bracket",
                        {"i": args.i, "j": args.j, "t": args.t, "m": args.m}, opts)
    if args.command == "generate":
        inputs = {"generator": args.kind}
        if args.config is not None:
            inputs["config"] = args.config
        if args.out is not None:
            opts["out"] = args.out
        return Scenario("generate", inputs, opts)
    raise ValueError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = _scenario_from_args(args)
    except ValueError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_VALIDATION
    report, code = run(scenario)
    print(json.dumps(report.to_json(), sort_keys=True, indent=1))
    return code


if __name__ == "__main__":
    sys.exit(main())

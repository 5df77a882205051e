"""Batch front-end: decompose/factorize matrices, run planners, emit
verification reports and plot-ready trajectories.

Every subcommand builds a Scenario, dispatches it through run(), prints a
RunReport as JSON on stdout and exits 0 only when all verification checks
pass.  Exit codes: 2 validation failure, 3 numerical failure, 4 I/O failure.
Every read or write failure (any OSError, from a payload, --out-dir, --out or
--trace) exits 4; np.linalg.LinAlgError exits 3.
No option sets a tolerance: a matrix failing classify's membership test exits
3 from all four matrix subcommands, one outside SO0(n,1) from all but
decompose, and lift-head's tracking_error check has the fixed bound
TRACK_TOL = 1e-4.  Checks on a matrix A scale with |A|_2 = e^{|u|}, residuals
with its square.  A --dim below 2, more than planner.MAX_STEPS steps or a
probe-bracket --m outside 1..MAX_STEPS exit 2.

_COMMANDS holds each subcommand's runner and option defaults: build_parser
takes its flag defaults from there, and run() puts them under a scenario's
own options.  Timing stays in the report (timing.seconds and the runner's
timing.stages, printed in the order the stages ran), never in a result or an
artifact.  Artifacts are built only under --out-dir.  plan.json writes each
control as its boost vector.  lift-head interpolates the head-curve samples
with spline.not_a_knot, so no subcommand loads scipy; spline and generate
are imported only by the runners that use them.  steer_config checks every
step of its path against the boost of the control it recorded as it walks
the path, under the bound planner._consistency derives from the step and
the leg; steer reads the residuals and bounds off its record.  No check
compares the plan ledger with the controls, or factorize's blocks with each
other: controls are unit-norm and the blocks commute by construction, so
such checks could not fail.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import io as sio
from .lorentz import (
    DEFAULT_FACTOR_TOL,
    DEFAULT_MEMBERSHIP_TOL,
    Membership,
    NotABoost,
    NotLorentz,
    _grade,
    _norm2,
    basis_Omega,
    classify,
    exp_h,
    factorize,
    lorentz_residual,
    spatial_block,
)
from .planner import (
    DEFAULT_LIFT_STEP,
    DEFAULT_MAX_STEP,
    LIFT_MARGIN_FACTOR,
    SingularityApproach,
    act,
    commutator_probe,
    horizontal_lift,
    plan_group_path,
    steer_config,
)
from .rotations import planar_rotation, so_exp_blocks
from .snake import config_distance, is_singular
from .sphere import NotOrthochronous

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_DIM = 3  # probe-bracket's and generate's --dim (see _COMMANDS)
TRACK_TOL = 1e-4  # lift-head's bound on |E(u(t)) - c(t)|


@dataclass
class Scenario:
    kind: str
    inputs: dict = field(default_factory=dict)  # payload paths
    options: dict = field(default_factory=dict)  # steps, seed, dim, output paths


@dataclass
class RunReport:
    scenario: dict
    outputs: dict
    checks: list
    passed: bool
    seconds: float
    stages: dict  # stage name -> wall seconds

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "outputs": self.outputs,
            "verification": {"checks": self.checks, "passed": self.passed},
            "timing": {"seconds": self.seconds, "stages": self.stages},
        }


def _check(name, value, tol):
    return {"name": name, "value": float(value), "tol": float(tol),
            "pass": bool(value <= tol)}


def _load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON in {path}: {exc}") from exc


def _export(sc, outputs, name, write):
    """write(path) builds and writes artifact `name`, only under --out-dir."""
    out_dir = sc.options.get("out_dir")
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, name)
        write(path)
        outputs[name] = path


def _export_head_and_final(sc, outputs, path):
    """head_trace.csv and final_config.json of a steer path or a lift record."""
    header = ["t"] + [f"x{i+1}" for i in range(path.grid.dim)]
    _export(sc, outputs, "head_trace.csv",
            lambda p: sio.write_csv(p, header, np.column_stack((path.times, path.head_trace))))
    _export(sc, outputs, "final_config.json",
            lambda p: sio.dump_json(sio.config_to_json(path.final), p))


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------


def _run_decompose(sc: Scenario, marks: dict):
    """boost/orthogonal factorization of a Lorentz matrix"""
    A = sio.matrix_from_json(_load_json(sc.inputs["matrix"]))
    grade, factor = _grade(A, DEFAULT_MEMBERSHIP_TOL)
    if grade is Membership.NOT_LORENTZ:
        raise NotLorentz("Lorentz residual above 1e-9 |A|_2^2")
    eps, Q, u = factor
    T = exp_h(u)
    checks = [
        _check("reconstruction_residual", np.linalg.norm(spatial_block(Q, eps) @ T - A),
               DEFAULT_FACTOR_TOL * _norm2(A)),
    ]
    outputs: dict = {}
    _export(sc, outputs, "factors.json", lambda p: sio.dump_json({
        "epsilon": float(eps),
        "membership": grade.value,
        "orthogonal": Q.tolist(),
        "boost": sio.matrix_to_json(T),
    }, p))
    result = {"epsilon": float(eps), "membership": grade.value}
    return checks, outputs, result


def _run_factorize(sc: Scenario, marks: dict):
    """rotation-block + boost factorization of an SO0 matrix"""
    A = sio.matrix_from_json(_load_json(sc.inputs["matrix"]))
    blocks, u = factorize(A)
    recon = spatial_block(so_exp_blocks(blocks)) @ exp_h(u)
    checks = [
        _check("reconstruction_residual", np.linalg.norm(recon - A),
               DEFAULT_FACTOR_TOL * _norm2(A)),
    ]
    outputs: dict = {}
    _export(sc, outputs, "blocks.json", lambda p: sio.dump_json({
        "blocks": sio.blocks_to_json(blocks),
        "boost_vector": u.tolist(),
    }, p))
    result = {"angles": [float(b.theta) for b in blocks.blocks],
              "boost_norm": float(np.linalg.norm(u))}
    return checks, outputs, result


def _run_plan_group(sc: Scenario, marks: dict):
    """horizontal path from Id to an SO0 matrix"""
    A = sio.matrix_from_json(_load_json(sc.inputs["matrix"]))
    marks["load"] = time.perf_counter()
    path = plan_group_path(A, max_step=sc.options["step"])
    marks["plan_group_path"] = time.perf_counter()
    checks = [
        _check("endpoint_residual", np.linalg.norm(path.endpoint() - A), 1e-7 * _norm2(A)),
    ]
    marks["verify"] = time.perf_counter()
    outputs: dict = {}
    _export(sc, outputs, "plan.json", lambda p: sio.dump_json(sio.group_path_to_json(path), p))
    marks["export"] = time.perf_counter()
    result = {"length": float(path.length()), "steps": len(path.controls),
              "legs": len(path.legs), "ledger": path.leg_lengths()}
    return checks, outputs, result


def _run_steer(sc: Scenario, marks: dict):
    """steer a configuration along a group plan"""
    A = sio.matrix_from_json(_load_json(sc.inputs["matrix"]))
    u0 = sio.config_from_json(_load_json(sc.inputs["config"]))
    marks["load"] = time.perf_counter()
    path = steer_config(u0, A, max_step=sc.options["step"])
    marks["steer_config"] = time.perf_counter()
    target = act(A, u0)
    # each step against the boost of the control steer recorded for it,
    # checked as steer_config walked the path
    resid, bound = path.residuals, path.bounds
    worst = int(np.argmax(resid / bound)) if resid.size else None
    checks = [
        _check("final_config_distance", config_distance(path.final, target), 1e-7),
        _check("step_consistency_residual",
               *((resid[worst], bound[worst]) if resid.size else (0.0, 0.0))),
    ]
    marks["verify"] = time.perf_counter()
    outputs: dict = {}
    _export_head_and_final(sc, outputs, path)
    _export(sc, outputs, "snake_polylines.csv", lambda p: sio.write_csv(
        p, ["t", "s"] + [f"x{i+1}" for i in range(u0.dim)],
        sio.config_path_polyline_rows(path)))
    marks["export"] = time.perf_counter()
    result = {"steps": len(path.times) - 1, "legs": len(path.legs),
              "nodes": u0.nodes.shape[0], "consistency_worst_step": worst}
    return checks, outputs, result


def _run_lift_head(sc: Scenario, marks: dict):
    """optimal-control lift of a head curve"""
    u0 = sio.config_from_json(_load_json(sc.inputs["config"]))
    times, points = sio.head_curve_from_json(_load_json(sc.inputs["head_curve"]))
    marks["load"] = time.perf_counter()
    from .spline import not_a_knot

    # the lift runs from t = 0: shift the samples there and the path back
    t0 = float(times[0])
    head, head_dot = not_a_knot(times - t0, points)
    marks["spline"] = time.perf_counter()
    try:
        path = horizontal_lift(u0, head, head_dot, t_final=float(times[-1] - t0),
                               dt=sc.options["step"])
    except SingularityApproach as exc:
        raise SingularityApproach(exc.time + t0, exc.margin) from None
    path = replace(path, times=path.times + t0)
    marks["horizontal_lift"] = time.perf_counter()
    # recomputed from the final nodes, not read off the lift's own margins
    final_margin = is_singular(path.final)[1]
    checks = [
        _check("tracking_error", float(path.tracking_errors.max()), TRACK_TOL),
        _check("final_margin", -final_margin, -LIFT_MARGIN_FACTOR * u0.L),
    ]
    marks["verify"] = time.perf_counter()
    outputs: dict = {}
    _export_head_and_final(sc, outputs, path)
    trace = sc.options.get("trace")
    if trace is not None:
        # step-start margins of the lift, then the final one of the check
        margins = np.append(path.margins, final_margin)
        sio.write_csv(trace, ["t", "margin", "tracking_error"],
                      zip(path.times, margins, path.tracking_errors))
        outputs["trace"] = trace
    marks["export"] = time.perf_counter()
    worst, far = int(path.margins.argmin()), int(path.tracking_errors.argmax())
    result = {"steps": len(path.times) - 1, "nodes": u0.nodes.shape[0],
              "max_tracking_error": float(path.tracking_errors[far]),
              "max_tracking_error_time": float(path.times[far]),
              "min_margin": float(path.margins[worst]),
              "min_margin_time": float(path.times[worst]),
              "eigen_solves": path.eigen_solves}
    return checks, outputs, result


def _run_probe_bracket(sc: Scenario, marks: dict):
    """commutator probe of a rotation generator"""
    n = sc.options["dim"]
    i, j = sc.inputs["i"], sc.inputs["j"]
    t, m = sc.inputs["t"], sc.inputs["m"]
    path = commutator_probe(i, j, t, m, n, max_step=sc.options["step"])
    marks["commutator_probe"] = time.perf_counter()
    target = planar_rotation(basis_Omega(i, j, n).matrix(), t)
    err = np.linalg.norm(path.endpoint() - target)
    marks["verify"] = time.perf_counter()
    outputs: dict = {}
    _export(sc, outputs, "probe.json", lambda p: sio.dump_json({
        "m": m, "t": t, "endpoint_error": float(err),
        "path_length": float(path.length()),
    }, p))
    marks["export"] = time.perf_counter()
    result = {"endpoint_error": float(err), "length": float(path.length()),
              "steps": len(path.controls), "legs": len(path.legs)}
    return [], outputs, result


def _run_generate(sc: Scenario, marks: dict):
    """seeded payload generator"""
    from . import generate as gen

    kind = sc.inputs["generator"]
    n = sc.options["dim"]
    rng = np.random.default_rng(sc.options["seed"])
    checks = []
    outputs: dict = {}
    if kind == "random-so0":
        A = gen.random_so0(rng, n)
        payload = sio.matrix_to_json(A)
        checks.append(_check("lorentz_residual", lorentz_residual(A), 1e-9 * _norm2(A) ** 2))
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


# subcommand -> (runner, option defaults); a runner's docstring is its help,
# and its marks (stage name -> perf_counter at the stage's end) time its stages
_COMMANDS = {
    "decompose": (_run_decompose, {}),
    "factorize": (_run_factorize, {}),
    "plan-group": (_run_plan_group, {"step": DEFAULT_MAX_STEP}),
    "steer": (_run_steer, {"step": DEFAULT_MAX_STEP}),
    "lift-head": (_run_lift_head, {"step": DEFAULT_LIFT_STEP}),
    "probe-bracket": (_run_probe_bracket, {"step": DEFAULT_MAX_STEP, "dim": _DIM}),
    "generate": (_run_generate, {"seed": 0, "dim": _DIM}),
}


def run(scenario: Scenario) -> tuple:
    """Dispatch a scenario; returns (RunReport, exit_code).

    The subcommand's defaults sit under the scenario's own options.  A
    runner that raises leaves a report with the error and no checks.
    """
    t0 = time.perf_counter()
    checks, code, marks = [], EXIT_OK, {}
    try:
        runner, defaults = _COMMANDS[scenario.kind]
        scenario = Scenario(scenario.kind, scenario.inputs, defaults | scenario.options)
        if scenario.options.get("dim", 2) < 2:
            raise ValueError(f"--dim must be at least 2, got {scenario.options['dim']}")
        if not np.isfinite(scenario.options.get("radius", 0.0)):
            raise ValueError(f"--radius must be finite, got {scenario.options['radius']}")
        checks, outputs, result = runner(scenario, marks)
        outputs["result"] = result
    except OSError as exc:
        code, outputs = EXIT_IO, {"error": {"kind": "io", "message": str(exc)}}
    # the numerical errors subclass ValueError, so they are tested first
    except (NotLorentz, NotABoost, NotOrthochronous, np.linalg.LinAlgError,
            RuntimeError) as exc:
        code, outputs = EXIT_NUMERICAL, {"error": {"kind": "numerical", "message": str(exc)}}
    except (ValueError, KeyError) as exc:
        code, outputs = EXIT_VALIDATION, {"error": {"kind": "validation", "message": str(exc)}}
    passed = code == EXIT_OK and all(c["pass"] for c in checks)
    ends = [t0, *marks.values()]
    report = RunReport(
        scenario={"kind": scenario.kind, "inputs": scenario.inputs,
                  "options": scenario.options},
        outputs=outputs,
        checks=checks,
        passed=passed,
        seconds=time.perf_counter() - t0,
        stages={name: b - a for name, a, b in zip(marks, ends, ends[1:])},
    )
    return report, code if code != EXIT_OK or passed else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# argparse wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="snakeplan",
        description="Lorentz decompositions and horizontal snake planning",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    p = {name: sub.add_parser(name, help=runner.__doc__)
         for name, (runner, _) in _COMMANDS.items()}

    # payload flags; set_defaults(inputs=...) names those that become Scenario inputs
    for name in ("decompose", "factorize", "plan-group"):
        p[name].add_argument("--matrix", required=True)
        p[name].set_defaults(inputs=("matrix",))

    p["steer"].add_argument("--matrix", required=True)
    p["steer"].add_argument("--config", required=True)
    p["steer"].set_defaults(inputs=("matrix", "config"))

    p["lift-head"].add_argument("--config", required=True)
    p["lift-head"].add_argument("--head-curve", required=True)
    p["lift-head"].add_argument(
        "--trace", default=None,
        help="CSV of t, lambda_min(A_u) and tracking error at every grid time")
    p["lift-head"].set_defaults(inputs=("config", "head_curve"))

    for flag, kind in (("i", int), ("j", int), ("t", float), ("m", int)):
        p["probe-bracket"].add_argument(f"--{flag}", type=kind, required=True)
    p["probe-bracket"].set_defaults(inputs=("i", "j", "t", "m"))

    p["generate"].add_argument("--kind", dest="generator", required=True,
                               choices=["random-so0", "random-config", "circle-head-curve"])
    p["generate"].add_argument("--radius", type=float, default=None)
    p["generate"].add_argument("--config", default=None,
                               help="anchor config for circle-head-curve")
    p["generate"].add_argument("--out", default=None)
    p["generate"].set_defaults(inputs=("generator", "config"))

    for name, (_, defaults) in _COMMANDS.items():
        for key, value in defaults.items():
            p[name].add_argument("--" + key.replace("_", "-"), type=type(value), default=value)
        if name != "generate":
            p[name].add_argument("--out-dir", default=None)
    return ap


def _scenario_from_args(args) -> Scenario:
    """Inputs are the subcommand's payload flags; options every other flag set."""
    values = {k: v for k, v in vars(args).items()
              if v is not None and k not in ("command", "inputs")}
    inputs = {k: values.pop(k) for k in args.inputs if k in values}
    return Scenario(args.command, inputs, values)


def main(argv=None) -> int:
    report, code = run(_scenario_from_args(build_parser().parse_args(argv)))
    print(json.dumps(report.to_json(), indent=1))
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Seeded request sequences, the two ways a request runs (in-process through
``cli.run`` or as a ``python -m snakeplan.cli`` child), and the output checks
the benchmark applies to every request on top of the library's own report.

The library only ever sees the payload files written here; the checks compare
its outputs with answers the harness works out for itself from the inputs it
generated (light-cone action, analytic head loop, planar rotation).
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from snakeplan import cli
from snakeplan import generate as gen
from snakeplan import io as sio
from snakeplan.cli import Scenario

# 1/golden ratio: j * GOLDEN mod 1 spreads any prefix of a sequence evenly
# over [0, 1), so every run, whatever its seed, sees the same spread of sizes.
GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
DIST_TOL = 1e-7  # angular distance bound, as in the CLI's final_config_distance
TRACK_TOL = 1e-4  # head tracking bound, the CLI's lift-head default
CHILD_TIMEOUT_S = 120.0


@dataclass
class Request:
    kind: str  # "steer" | "probe-bracket" | "lift-head"
    n: int
    scenario: Scenario  # in-process form
    expect: dict  # what the harness knows about the right answer
    argv: list | None = None  # child-process form, cli-export only
    out_dir: Path | None = None


@dataclass
class Outcome:
    code: int
    passed: bool
    steps: int = 0
    data: dict = field(default_factory=dict)  # kind-specific outputs to check
    error: str = ""


# ---------------------------------------------------------------------------
# request sequences
# ---------------------------------------------------------------------------


def _write(work: Path, name: str, payload: dict) -> str:
    path = work / name
    sio.dump_json(payload, str(path))
    return str(path)


def _steer_requests(seed: int, work: Path, count: int, export: bool) -> list:
    """Three requests in four at n=3, one in four at n=8."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n = 8 if i % 4 == 3 else 3
        A = gen.random_so0(rng, n)
        u0 = gen.random_config(rng, n)
        inputs = {"matrix": _write(work, f"A{i}.json", sio.matrix_to_json(A)),
                  "config": _write(work, f"u{i}.json", sio.config_to_json(u0))}
        req = Request("steer", n, Scenario("steer", inputs, {}), {"A": A, "u0": u0})
        if export:
            req.out_dir = work / f"out{i}"
            req.scenario.options["out_dir"] = str(req.out_dir)
            req.argv = [sys.executable, "-m", "snakeplan.cli", "steer",
                        "--matrix", inputs["matrix"], "--config", inputs["config"],
                        "--out-dir", str(req.out_dir)]
        out.append(req)
    return out


def _long_requests(seed: int, work: Path, count: int) -> list:
    """probe-bracket and lift-head alternate, n alternates 3/8 within each kind.

    m is log-uniform in [64, 512] and the lift step log-uniform in
    [5e-4, 4e-3], placed on a golden-ratio sequence per (kind, n) that starts
    at the cheapest size; the seed draws everything else.
    """
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        combo = i % 4
        kind = "probe-bracket" if combo % 2 == 0 else "lift-head"
        n = 3 if combo < 2 else 8
        q = ((i // 4) * GOLDEN) % 1.0
        if kind == "probe-bracket":
            m = int(round(64.0 * 8.0**q))
            pi, pj = (int(v) + 1 for v in rng.choice(n, size=2, replace=False))
            t = float(rng.uniform(0.3, 0.8))
            sc = Scenario(kind, {"i": pi, "j": pj, "t": t, "m": m}, {"dim": n})
            out.append(Request(kind, n, sc, {"i": pi, "j": pj, "t": t, "m": m}))
            continue
        step = float(4e-3 * 8.0**-q)
        u0 = gen.random_config(rng, n)
        c0 = u0.weights @ u0.nodes
        # the loop reaches |c0| + 2r; keep it well inside the ball of radius L
        radius = min(0.05 * u0.L, 0.25 * (u0.L - np.linalg.norm(c0)))
        times, points = gen.circle_head_curve(u0, radius)
        inputs = {"config": _write(work, f"u{i}.json", sio.config_to_json(u0)),
                  "head_curve": _write(work, f"h{i}.json", sio.head_curve_to_json(times, points))}
        sc = Scenario(kind, inputs, {"step": step})
        out.append(Request(kind, n, sc, {"u0": u0, "c0": c0, "radius": radius}))
    return out


def build(workload: str, seed: int, work: Path) -> list:
    # a 25 s run takes about 170 steer, 100 long-paths or 25 cli-export
    # attempts, so each attempt is a distinct input and a run's percentiles
    # rest on as many inputs as it times; every prefix of a pool keeps its
    # mix of kinds and sizes, so a partial last pass biases nothing
    if workload == "steer":
        return _steer_requests(seed, work, 192, export=False)
    if workload == "long-paths":
        return _long_requests(seed, work, 128)
    if workload == "cli-export":
        return _steer_requests(seed, work, 32, export=True)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# running one request
# ---------------------------------------------------------------------------


class Capture:
    """Keeps the path returned by the planner call inside each cli runner.

    Installed for every in-process request, traced or not, so both runs pay
    the same single extra Python call.
    """

    NAMES = ("steer_config", "horizontal_lift", "commutator_probe")

    def __init__(self):
        self.path = None

    @contextmanager
    def installed(self):
        saved = {name: getattr(cli, name) for name in self.NAMES}

        def keep(fn):
            def wrapper(*args, **kwargs):
                self.path = fn(*args, **kwargs)
                return self.path
            return wrapper

        try:
            for name, fn in saved.items():
                setattr(cli, name, keep(fn))
            yield self
        finally:
            for name, fn in saved.items():
                setattr(cli, name, fn)


def _config_nodes(obj: dict) -> np.ndarray:
    return np.concatenate([np.asarray(seg["nodes"], dtype=float) for seg in obj["segments"]])


def _read_export(out_dir: Path) -> dict:
    """final_config.json nodes and the head_trace.csv row count and last row."""
    with open(out_dir / "final_config.json") as fh:
        nodes = _config_nodes(json.load(fh))
    with open(out_dir / "head_trace.csv") as fh:
        lines = fh.read().splitlines()
    return {"final_nodes": nodes, "head_rows": len(lines) - 1,
            "head_last": np.array([float(v) for v in lines[-1].split(",")[1:]])}


def _extract(req: Request, code: int, report: dict, path) -> Outcome:
    passed = bool(report.get("verification", {}).get("passed", False))
    result = report.get("outputs", {}).get("result", {})
    out = Outcome(code=code, passed=passed, steps=int(result.get("steps", 0)))
    if code != 0:
        out.error = json.dumps(report.get("outputs", {}).get("error", {}))
        return out
    if req.out_dir is not None:
        out.data = _read_export(req.out_dir)
        return out
    if path is None:
        out.error = "no planner path captured"
        return out
    if req.kind == "steer":
        out.data = {"final_nodes": np.array(path.final.nodes)}
    elif req.kind == "probe-bracket":
        out.steps = len(path.times) - 1
        out.data = {"endpoint": np.array(path.endpoint())}
    else:
        out.data = {"times": np.array(path.times), "head_trace": np.array(path.head_trace),
                    "final_nodes": np.array(path.final.nodes)}
    return out


def run_in_process(req: Request, capture: Capture) -> tuple:
    """(seconds, Outcome) for one cli.run call; only cli.run is timed."""
    capture.path = None
    t0 = time.perf_counter()
    report, code = cli.run(req.scenario)
    seconds = time.perf_counter() - t0
    return seconds, _extract(req, code, report.to_json(), capture.path)


def run_child(req: Request) -> tuple:
    """(seconds, Outcome) for one child process, timed from spawn to exit.

    The child inherits the harness environment (PYTHONPATH, BLAS threads).
    """
    t0 = time.perf_counter()
    proc = subprocess.run(req.argv, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    seconds = time.perf_counter() - t0
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return seconds, Outcome(code=proc.returncode, passed=False,
                                error=f"unreadable report; stderr: {proc.stderr[-300:]}")
    return seconds, _extract(req, proc.returncode, report, None)


# ---------------------------------------------------------------------------
# checks made by the harness
# ---------------------------------------------------------------------------


def light_cone_action(A: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Rows z -> w_x / |w_x|, w = A (1, z): the sphere action, recomputed."""
    W = np.concatenate([np.ones((Z.shape[0], 1)), Z], axis=1) @ A.T
    X = W[:, 1:] / W[:, :1]
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def angle_distance(X: np.ndarray, Y: np.ndarray) -> float:
    if X.shape != Y.shape:
        return float("inf")
    chord = np.linalg.norm(X - Y, axis=1)
    return float(np.max(2.0 * np.arcsin(np.clip(0.5 * chord, 0.0, 1.0))))


def planar_rotation(i: int, j: int, t: float, n: int) -> np.ndarray:
    """Exp(t Omega_ij) with Omega_ij[i, j] = 1 in the spatial block."""
    R = np.eye(n + 1)
    R[i, i] = R[j, j] = np.cos(t)
    R[i, j] = np.sin(t)
    R[j, i] = -np.sin(t)
    return R


def head_loop(expect: dict, t: np.ndarray) -> np.ndarray:
    """c(t) = c0 + r [(cos 2 pi t - 1), sin 2 pi t, 0, ...]."""
    pts = np.tile(expect["c0"], (t.shape[0], 1))
    pts[:, 0] += expect["radius"] * (np.cos(2.0 * np.pi * t) - 1.0)
    pts[:, 1] += expect["radius"] * np.sin(2.0 * np.pi * t)
    return pts


def check(req: Request, out: Outcome) -> list:
    """Failure messages; empty when the request's outputs are right."""
    if out.code != 0 or not out.passed:
        return [f"exit code {out.code}, report passed={out.passed} {out.error}"]
    if out.error:
        return [out.error]
    e = req.expect
    fails = []
    if req.kind == "steer":
        u0 = e["u0"]
        target = light_cone_action(e["A"], u0.nodes)
        d = angle_distance(out.data["final_nodes"], target)
        if not d <= DIST_TOL:
            fails.append(f"final config {d:.3e} rad from act(A, u0)")
        if req.out_dir is not None:
            if out.data["head_rows"] != out.steps + 1:
                fails.append(f"head_trace.csv has {out.data['head_rows']} rows "
                             f"for {out.steps} steps")
            gap = np.linalg.norm(out.data["head_last"] - u0.weights @ target)
            if not gap <= DIST_TOL * u0.L:
                fails.append(f"last head_trace row {gap:.3e} from endpoint(act(A, u0))")
    elif req.kind == "probe-bracket":
        t, m = e["t"], e["m"]
        err = np.linalg.norm(out.data["endpoint"] - planar_rotation(e["i"], e["j"], t, req.n))
        if not err <= t * t / m:
            fails.append(f"probe endpoint error {err:.3e} above t^2/m = {t * t / m:.3e}")
    else:
        track = np.linalg.norm(out.data["head_trace"] - head_loop(e, out.data["times"]), axis=1)
        if not track.max() <= TRACK_TOL:
            fails.append(f"tracking error {track.max():.3e} above {TRACK_TOL:.0e}")
        u0, nodes = e["u0"], out.data["final_nodes"]
        gram = (nodes * u0.weights[:, None]).T @ nodes
        margin = np.linalg.eigvalsh(u0.L * np.eye(req.n) - 0.5 * (gram + gram.T))[0]
        if not margin > 0.0:
            fails.append(f"final margin {margin:.3e} not positive")
    return fails


def perturbed(req: Request, out: Outcome) -> Outcome:
    """A copy of a correct outcome with one output value moved off."""
    data = {k: np.array(v) if isinstance(v, np.ndarray) else v for k, v in out.data.items()}
    if req.kind == "steer":
        nodes = data["final_nodes"]
        nodes[0] += 1e-5 * np.roll(nodes[0], 1)
        nodes[0] /= np.linalg.norm(nodes[0])
    elif req.kind == "probe-bracket":
        data["endpoint"][1, 0] += 2.0 * req.expect["t"] ** 2 / req.expect["m"]
    else:
        data["head_trace"][len(data["head_trace"]) // 2, 0] += 10.0 * TRACK_TOL
    return Outcome(code=out.code, passed=out.passed, steps=out.steps, data=data)

"""Spans around snakeplan's public functions, and the per-layer figures
derived from them.

Each function is wrapped at the names its consumers look it up by (for
example ``planner.mobius_sphere_action_many``, the name ``act`` calls), so
the library itself is not edited.  Spans (name, start, end, parent, request)
are kept in memory while a request is open; per-layer ``calls`` and
``self_s`` are derived from them afterwards, per request.
"""

from __future__ import annotations

import functools
import os
import re
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from snakeplan import cli, io, lorentz, planner, rotations, snake, sphere


def _csv_bytes(tracer, args, kwargs, result, seconds):
    tracer.counts["io.write_csv.bytes"] += os.path.getsize(args[0])


def _lift_steps(tracer, args, kwargs, result, seconds):
    tracer.counts["planner.horizontal_lift.steps"] += len(result.times) - 1


def _probe_cost(tracer, args, kwargs, result, seconds):
    m = args[3] if len(args) > 3 else kwargs["m"]
    tracer.probes.append((m, len(result.times) - 1, seconds))


# span name -> (places it is wrapped, hook run after the call)
BOUNDARIES = {
    "cli.run": ([(cli, "run")], None),
    "io.config_from_json": ([(io, "config_from_json")], None),
    "io.write_csv": ([(io, "write_csv")], _csv_bytes),
    "io.dump_json": ([(io, "dump_json")], None),
    "snake.snake_curve": ([(io, "snake_curve")], None),
    "snake.fit_horizontal": ([(cli, "fit_horizontal"), (planner, "fit_horizontal")], None),
    "snake.SnakeConfig.init": ([(snake.SnakeConfig, "__post_init__")], None),
    "snake.eigh": ([(np.linalg, "eigh")], None),
    "sphere.mobius_sphere_action_many": ([(planner, "mobius_sphere_action_many")], None),
    "planner.act": ([(planner, "act"), (cli, "act")], None),
    "planner.steer_config": ([(planner, "steer_config"), (cli, "steer_config")], None),
    "planner.plan_group_path": ([(planner, "plan_group_path"), (cli, "plan_group_path")], None),
    "planner.commutator_probe": ([(planner, "commutator_probe"), (cli, "commutator_probe")],
                                 _probe_cost),
    "planner.boost_leg": ([(planner, "boost_leg")], None),
    "planner.horizontal_lift": ([(planner, "horizontal_lift"), (cli, "horizontal_lift")],
                                _lift_steps),
    "lorentz.exp_h": ([(lorentz, "exp_h"), (planner, "exp_h"), (cli, "exp_h")], None),
    "lorentz.classify": ([(lorentz, "classify"), (planner, "classify"), (cli, "classify"),
                          (sphere, "classify")], None),
    "lorentz.factorize": ([(lorentz, "factorize"), (planner, "factorize"),
                           (cli, "factorize")], None),
    "rotations.so_log": ([(rotations, "so_log")], None),
}

# per_layer metric -> (unit, workload whose traced replay it is read from),
# in BENCHMARK.json order. Each is read where ROADMAP expects it to move, so
# no figure is a bypass zero; None is the run's own workload (or, for
# cli.import_*, fresh interpreters).
LAYER_METRICS = {
    "cli.import_s": ("s", None),
    "cli.import_scipy_s": ("s", None),
    "cli.run.self_s": ("s", None),
    "io.write_csv.self_s": ("s", "cli-export"),
    "io.write_csv.bytes": ("bytes", "cli-export"),
    "io.dump_json.self_s": ("s", "cli-export"),
    "io.config_from_json.self_s": ("s", "steer"),
    "snake.snake_curve.calls": ("count", "cli-export"),
    "snake.snake_curve.self_s": ("s", "cli-export"),
    "snake.fit_horizontal.calls": ("count", "steer"),
    "snake.fit_horizontal.self_s": ("s", "steer"),
    "snake.SnakeConfig.inits": ("count", "steer"),
    "snake.SnakeConfig.init_s": ("s", "steer"),
    "snake.eigh.calls": ("count", "long-paths"),
    "snake.eigh.self_s": ("s", "long-paths"),
    "sphere.mobius_sphere_action_many.calls": ("count", "steer"),
    "sphere.mobius_sphere_action_many.self_s": ("s", "steer"),
    "planner.act.calls": ("count", "steer"),
    "planner.act.self_s": ("s", "steer"),
    "planner.steer_config.self_s": ("s", "steer"),
    "planner.plan_group_path.self_s": ("s", "steer"),
    "planner.commutator_probe.self_s": ("s", "long-paths"),
    "planner.boost_leg.calls": ("count", "long-paths"),
    "planner.commutator_probe.s_per_step.m_min": ("s", "long-paths"),
    "planner.commutator_probe.s_per_step.m_max": ("s", "long-paths"),
    "planner.horizontal_lift.self_s": ("s", "long-paths"),
    "planner.horizontal_lift.steps": ("count", "long-paths"),
    "lorentz.exp_h.calls": ("count", "long-paths"),
    "lorentz.exp_h.self_s": ("s", "long-paths"),
    "lorentz.classify.calls": ("count", "steer"),
    "lorentz.classify.self_s": ("s", "steer"),
    "lorentz.factorize.self_s": ("s", "steer"),
    "rotations.so_log.calls": ("count", "steer"),
    "rotations.so_log.self_s": ("s", "steer"),
    "trace.overhead_ratio": ("ratio", None),
}


class Tracer:
    """Records spans only while a request is open (``request`` is set)."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, request id)
        self.counts = Counter()
        self.probes = []  # (m, steps, seconds) per commutator_probe call
        self.request = None
        self._stack = []

    def _call(self, name, fn, after, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.request)
        if after is not None:
            after(self, args, kwargs, result, t1 - t0)
        return result

    def _wrap(self, name, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            return self._call(name, fn, after, args, kwargs)
        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for name, (places, after) in BOUNDARIES.items():
                for owner, attr in places:
                    if attr in vars(owner):
                        fn = getattr(owner, attr)
                        saved.append((owner, attr, fn))
                        setattr(owner, attr, self._wrap(name, fn, after))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def exact_counts(self) -> dict:
        """Every count that must repeat exactly for the same requests."""
        calls = Counter(span[0] for span in self.spans)
        return dict(calls) | dict(self.counts) | {"probe_steps": [p[:2] for p in self.probes]}

    def layer_figures(self, requests: int) -> dict:
        """Per-request calls and self seconds for every span name."""
        calls, self_s = Counter(), Counter()
        for name, t0, t1, parent, _ in self.spans:
            calls[name] += 1
            self_s[name] += t1 - t0
            if parent >= 0:
                self_s[self.spans[parent][0]] -= t1 - t0
        return {"calls": {k: v / requests for k, v in calls.items()},
                "self_s": {k: v / requests for k, v in self_s.items()}}


def layer_metrics(tracer: Tracer, requests: int) -> dict:
    """The per_layer metrics that come from spans, per request."""
    fig = tracer.layer_figures(requests)
    calls, self_s = fig["calls"], fig["self_s"]
    out = {}
    for metric in LAYER_METRICS:
        base, _, what = metric.rpartition(".")
        if what == "calls":
            out[metric] = calls.get(base, 0.0)
        elif what == "self_s":
            out[metric] = self_s.get(base, 0.0)
    out["snake.SnakeConfig.inits"] = calls.get("snake.SnakeConfig.init", 0.0)
    out["snake.SnakeConfig.init_s"] = self_s.get("snake.SnakeConfig.init", 0.0)
    for key in ("io.write_csv.bytes", "planner.horizontal_lift.steps"):
        out[key] = tracer.counts[key] / requests
    # inclusive seconds per step of the probes with the smallest and largest m
    if tracer.probes:
        lo = min(tracer.probes, key=lambda p: p[0])
        hi = max(tracer.probes, key=lambda p: p[0])
        out["planner.commutator_probe.s_per_step.m_min"] = lo[2] / lo[1]
        out["planner.commutator_probe.s_per_step.m_max"] = hi[2] / hi[1]
    else:
        out["planner.commutator_probe.s_per_step.m_min"] = 0.0
        out["planner.commutator_probe.s_per_step.m_max"] = 0.0
    return out


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)")


def scipy_import_seconds(stderr: str) -> float:
    """Cumulative seconds of the outermost scipy imports in -X importtime output.

    A module's parent is the first later line that is less indented.
    """
    rows = []
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            rows.append((int(m.group(2)), len(m.group(3)), m.group(4)))
    total = 0
    for k, (cum, depth, name) in enumerate(rows):
        if not name.startswith("scipy"):
            continue
        parent = next((r[2] for r in rows[k + 1:] if r[1] < depth), "")
        if not parent.startswith("scipy"):
            total += cum
    return total * 1e-6


def import_metrics() -> dict:
    """Fresh-interpreter import of snakeplan.cli: its own time, median of
    three, and the scipy share from one -X importtime run."""
    code = ("import time; t = time.perf_counter(); import snakeplan.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60, check=True)
        times.append(float(proc.stdout.strip()))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import snakeplan.cli"],
                          capture_output=True, text=True, timeout=60, check=True)
    return {"cli.import_s": statistics.median(times),
            "cli.import_scipy_s": scipy_import_seconds(proc.stderr)}

"""Set-up, the timed closed loop, the traced replay and the result object.

Imported by run.py once the library's ``src/`` is on ``sys.path``.
"""

from __future__ import annotations

import functools
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np
import scipy

from spans import LAYER_METRICS, Tracer, import_metrics, layer_metrics
from workloads import Capture, build, check, perturbed, run_child, run_in_process

SETUP_REPEATS = 5
TAIL_BEYOND = 10
# Each workload's tail percentile. It is fixed, so that runs with more or
# fewer attempts (a faster library or host) read the same percentile; a run
# goes on past its seconds until TAIL_BEYOND samples lie above it. A 25 s
# run makes about 170 steer, 100 long-paths and 14 cli-export attempts, so
# mostly cli-export is extended, to 25 attempts.
TAIL_PCT = {"steer": 90, "long-paths": 90, "cli-export": 60}
# requests replayed by the traced run, a prefix of each workload's sequence
TRACE_REQUESTS = {"steer": 32, "long-paths": 16, "cli-export": 6}
# The calibration kernel's reference time: end-to-end times are reported as
# they would read on a host where one kernel pass takes CAL_REF_S seconds
# (about what it takes on a quiet 2-core 2.1 GHz Xeon VM).
CAL_REF_S = 0.005
CAL_ROUNDS = 200
CAL_SHARE = 0.05
_CAL_MATRIX = np.array([[8.0 / (1.0 + abs(i - j)) + (i == j) for j in range(8)] for i in range(8)])


def _attempt(run_one, req):
    """(seconds, Outcome or None, failure messages) for one request."""
    t0 = time.perf_counter()
    try:
        seconds, out = run_one(req)
    except Exception:  # a request that raises counts as failed; the loop goes on
        return time.perf_counter() - t0, None, [traceback.format_exc(limit=3)]
    try:
        return seconds, out, check(req, out)
    except (ValueError, KeyError, IndexError):
        return seconds, out, [traceback.format_exc(limit=3)]
    finally:
        if req.out_dir is not None:
            shutil.rmtree(req.out_dir, ignore_errors=True)


def _set_up(workload, seed, work, capture):
    """Build the request sequence and warm up, SETUP_REPEATS times.

    Warm-up runs the first request of each kind in-process (first-call
    caches), or for cli-export one bare child import (writes .pyc files).
    """
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        t0 = time.perf_counter()
        requests = build(workload, seed, work)
        if workload == "cli-export":
            subprocess.run([sys.executable, "-c", "import snakeplan.cli"],
                           check=True, timeout=120)
        else:
            for kind in sorted({r.kind for r in requests}):
                run_in_process(next(r for r in requests if r.kind == kind), capture)
        times.append(time.perf_counter() - t0)
    return requests, times


def _self_check(samples):
    """Perturb one correct outcome per request kind; every copy must fail."""
    caught = [bool(check(req, perturbed(req, out))) for req, out in samples.values()]
    return {"kinds": sorted(samples), "perturbed_caught": sum(caught),
            "perturbed_total": len(caught), "ok": bool(caught) and all(caught)}


def _tail_rank(count, pct):
    """0-based rank of the nearest-rank pct-th percentile of count samples."""
    return math.ceil(pct * count / 100) - 1


def _calibration(budget):
    """(seconds, passes) of the calibration kernel, run for at least one
    pass and until ``budget`` seconds have gone.

    The kernel is fixed work that mixes what the library spends its time on:
    a small symmetric ``eigh``, small matrix products and plain Python
    arithmetic. It does not touch the library.
    """
    t0 = time.perf_counter()
    passes, acc = 0, 0.0
    while passes == 0 or time.perf_counter() - t0 < budget:
        for k in range(CAL_ROUNDS):
            w, v = np.linalg.eigh(_CAL_MATRIX)
            acc += float((v @ (w * v[0]))[k % 8])
            for j in range(24):
                acc += 0.5 * j
        passes += 1
    return time.perf_counter() - t0, passes


def _timed(workload, seconds, requests, capture):
    """Cycle through the requests until the time is up and TAIL_BEYOND
    samples lie above the workload's tail percentile.

    Returns every attempt's wall seconds and the calibration kernel's mean
    pass time over the run. The host's speed drifts both ways by up to a
    quarter over minutes, longer than a run, so no statistic over one run's
    raw times is steady from run to run. After every request the kernel
    runs for CAL_SHARE of that request's time, which spreads its passes
    evenly over the run; the caller scales the run's times by CAL_REF_S
    over the mean pass time.
    """
    run_one = run_child if workload == "cli-export" else functools.partial(
        run_in_process, capture=capture)
    lat, steps, failures, samples = [], 0, [], {}
    cal_s, cal_passes = 0.0, 0
    deadline = time.perf_counter() + seconds
    pct = TAIL_PCT[workload]
    while (time.perf_counter() < deadline
           or len(lat) - 1 - _tail_rank(len(lat), pct) < TAIL_BEYOND):
        req = requests[len(lat) % len(requests)]
        took, out, fails = _attempt(run_one, req)
        lat.append(took)
        spent, passes = _calibration(CAL_SHARE * took)
        cal_s, cal_passes = cal_s + spent, cal_passes + passes
        if fails:
            failures.append(fails[0])
        else:
            steps += out.steps
            samples.setdefault(req.kind, (req, out))
    return lat, cal_s / cal_passes, steps, failures, samples


def _traced(workload, seed, work, requests, capture):
    """Per-layer figures from traced replays of a prefix of every workload's
    sequence, and the tracing overhead on the run's own workload."""
    run_one = functools.partial(run_in_process, capture=capture)
    failures, samples, lat = [], {}, []

    def one_pass(replay, tracer=None):
        total = 0.0
        for rid, req in enumerate(replay):
            if tracer is not None:
                tracer.request = rid
            took, out, fails = _attempt(run_one, req)
            if tracer is not None:
                tracer.request = None
            total += took
            lat.append(took)
            if fails:
                failures.append(fails[0])
            else:
                samples.setdefault(req.kind, (req, out))
        return total

    figures, replays = {}, {}
    for name in TRACE_REQUESTS:
        if name == workload:
            pool = requests
        else:
            (work / name).mkdir()
            pool = build(name, seed, work / name)
        replay = pool[:TRACE_REQUESTS[name]]
        # A first untimed pass takes first-call caches and the page faults of
        # first touching each request's arrays. On the run's own workload,
        # untraced and traced passes then alternate, so drift in machine
        # speed weighs on both sides of the overhead ratio alike.
        one_pass(replay)
        tracers = [Tracer(), Tracer()]
        untraced, traced = [], []
        for tracer in tracers:
            if name == workload:
                untraced.append(one_pass(replay))
            with tracer.installed():
                traced.append(one_pass(replay, tracer))
        figures[name] = layer_metrics(tracers[0], len(replay))
        replays[name] = {"replayed": len(replay), "untraced_s": untraced, "traced_s": traced,
                         "spans": len(tracers[0].spans),
                         "counts_repeat": tracers[0].exact_counts() == tracers[1].exact_counts()}
    metrics = {name: figures[src or workload][name]
               for name, (_, src) in LAYER_METRICS.items() if name in figures[src or workload]}
    metrics.update(import_metrics())
    own = replays[workload]
    metrics["trace.overhead_ratio"] = sum(own["traced_s"]) / sum(own["untraced_s"])
    detail = {"replays": replays, "attempts": len(lat),
              "counts_repeat": all(r["counts_repeat"] for r in replays.values())}
    return metrics, failures, samples, detail


def _environment():
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "omp_threads": os.environ.get("OMP_NUM_THREADS")}


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def measure(workload, seed, seconds, trace, work):
    """(info, result): run details, and the object the last line prints."""
    capture = Capture()
    with capture.installed():
        requests, setup_times = _set_up(workload, seed, work, capture)
        info = {"workload": workload, "seed": seed, "trace": trace,
                "setup_s": setup_times, **_environment()}
        if trace:
            values, failures, samples, detail = _traced(workload, seed, work, requests, capture)
            info.update(detail)
            attempted = detail["attempts"]
            metrics = {name: _metric(values[name], unit)
                       for name, (unit, _) in LAYER_METRICS.items()}
            counts_ok = detail["counts_repeat"]
        else:
            lat, cal_pass_s, steps, failures, samples = _timed(
                workload, seconds, requests, capture)
            attempted = len(lat)
            scale = CAL_REF_S / cal_pass_s
            pct = TAIL_PCT[workload]
            rank = _tail_rank(attempted, pct)
            tail = sorted(lat)[rank]
            who = resource.RUSAGE_CHILDREN if workload == "cli-export" else resource.RUSAGE_SELF
            metrics = {
                "request_s.p50": _metric(statistics.median(lat) * scale, "s"),
                "request_s.tail": _metric(tail * scale, "s"),
                "steps_per_s": _metric(steps / (sum(lat) * scale), "1/s"),
                "peak_rss_mb": _metric(resource.getrusage(who).ru_maxrss / 1024.0, "MiB"),
                "setup_s": _metric(statistics.median(setup_times) * scale, "s"),
            }
            info.update({"requests": attempted, "pool": len(requests),
                         "passes": attempted / len(requests), "steps": steps,
                         "tail_percentile": pct,
                         "tail_samples_beyond": attempted - 1 - rank,
                         "wall_setup_s": statistics.median(setup_times),
                         "wall_request_s.p50": statistics.median(lat),
                         "wall_request_s.tail": tail, "wall_steps_per_s": steps / sum(lat),
                         "calibration_pass_s": cal_pass_s, "calibration_ref_s": CAL_REF_S,
                         "failed_ratio": len(failures) / attempted})
            counts_ok = True
    self_check = _self_check(samples)
    info.update({"self_check": self_check, "failures": failures[:5]})
    correct = not failures and self_check["ok"] and counts_ok
    result = {"correct": correct, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    return info, result

"""JSON and CSV serialization for matrices, algebra elements, blocks,
configurations and planned paths.

JSON floats go through repr (shortest round-trip decimal); CSV floats are
printed with 17 significant digits.  Loaders validate structural invariants
(skewness, unit nodes, partition monotonicity) and raise ValueError on bad
payloads.
"""

from __future__ import annotations

import json

import numpy as np

from .lorentz import LieElement
from .planner import ConfigPath, GroupPath
from .rotations import RotationBlocks
from .snake import SnakeConfig, snake_curve

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "lie_to_json",
    "lie_from_json",
    "blocks_to_json",
    "config_to_json",
    "config_from_json",
    "head_curve_to_json",
    "head_curve_from_json",
    "group_path_to_json",
    "dump_json",
    "write_csv",
    "sphere_path_rows",
    "head_trace_rows",
    "config_path_polyline_rows",
]

SKEW_LOAD_TOL = 1e-9


def dump_json(obj, path=None) -> str:
    text = json.dumps(obj, sort_keys=True, indent=1)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
            fh.write("\n")
    return text


def matrix_to_json(A: np.ndarray) -> dict:
    A = np.asarray(A, dtype=float)
    return {"dim": int(A.shape[0] - 1), "rows": [[float(x) for x in row] for row in A]}


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        n = int(obj["dim"])
        A = np.asarray(obj["rows"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad matrix payload: {exc}") from exc
    if A.shape != (n + 1, n + 1):
        raise ValueError(f"matrix shape {A.shape} does not match dim {n}")
    if not np.all(np.isfinite(A)):
        raise ValueError("non-finite matrix entries")
    return A


def lie_to_json(X: LieElement) -> dict:
    return {
        "u": [float(x) for x in X.u],
        "skew": [[float(x) for x in row] for row in X.skew],
    }


def lie_from_json(obj: dict) -> LieElement:
    try:
        u = np.asarray(obj["u"], dtype=float)
        B = np.asarray(obj["skew"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad LieElement payload: {exc}") from exc
    if np.linalg.norm(B + B.T) > SKEW_LOAD_TOL * max(1.0, np.linalg.norm(B)):
        raise ValueError("skew part fails antisymmetry on load")
    return LieElement(u=u, skew=B)


def blocks_to_json(rb: RotationBlocks) -> dict:
    return {
        "dim": rb.dim,
        "blocks": [
            {
                "theta": float(b.theta),
                "planes": [[[float(v) for v in x], [float(v) for v in y]] for x, y in b.planes],
                "generator": [[float(v) for v in row] for row in b.generator],
            }
            for b in rb.blocks
        ],
        "kernel": [[float(v) for v in col] for col in rb.kernel_basis.T],
    }


def config_to_json(cfg: SnakeConfig) -> dict:
    m = cfg.nodes_per_segment
    return {
        "L": float(cfg.L),
        "partition": [float(s) for s in cfg.partition],
        "segments": [
            {"nodes": [[float(v) for v in node] for node in cfg.segment_nodes(k)]}
            for k in range(cfg.segment_count)
        ],
        "quadrature": {"scheme": "gauss-legendre", "nodes_per_segment": int(m)},
        "resolution_bound": float(cfg.max_node_angle),
    }


def config_from_json(obj: dict) -> SnakeConfig:
    try:
        L = float(obj["L"])
        partition = np.asarray(obj["partition"], dtype=float)
        segments = [np.asarray(seg["nodes"], dtype=float) for seg in obj["segments"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad config payload: {exc}") from exc
    quad = obj.get("quadrature", {})
    scheme = quad.get("scheme", "gauss-legendre")
    if scheme != "gauss-legendre":
        raise ValueError(f"unsupported quadrature scheme {scheme!r}")
    m = quad.get("nodes_per_segment")
    if m is not None and any(len(seg) != int(m) for seg in segments):
        raise ValueError("segment node counts disagree with quadrature declaration")
    from .snake import DEFAULT_MAX_NODE_ANGLE

    bound = float(obj.get("resolution_bound", DEFAULT_MAX_NODE_ANGLE))
    return SnakeConfig.from_segment_samples(L, partition, segments, max_node_angle=bound)


def head_curve_to_json(times: np.ndarray, points: np.ndarray) -> dict:
    return {
        "times": [float(t) for t in times],
        "points": [[float(v) for v in p] for p in points],
    }


def head_curve_from_json(obj: dict):
    try:
        times = np.asarray(obj["times"], dtype=float)
        points = np.asarray(obj["points"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad head-curve payload: {exc}") from exc
    if times.ndim != 1 or points.ndim != 2 or points.shape[0] != times.shape[0]:
        raise ValueError("head curve needs matching times and points")
    if not np.all(np.diff(times) > 0):
        raise ValueError("head curve times must be strictly increasing")
    return times, points


def group_path_to_json(path: GroupPath) -> dict:
    """Controls are written as algebra elements with a zero skew part."""
    zero_skew = [[0.0] * path.dim for _ in range(path.dim)]
    return {
        "times": [float(t) for t in path.times],
        "controls": [{"u": [float(x) for x in u], "skew": zero_skew} for u in path.controls],
        "length": float(path.length()),
        "legs": [
            {
                "kind": leg.kind,
                "length": float(leg.length),
                "theta": float(leg.theta),
                "u": None if leg.u is None else [float(v) for v in leg.u],
            }
            for leg in path.legs
        ],
        "endpoint": matrix_to_json(path.endpoint()),
    }


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_csv(path, header: list, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def sphere_path_rows(times: np.ndarray, points: np.ndarray):
    for t, z in zip(times, points):
        yield [t, *z]


def head_trace_rows(path: ConfigPath):
    for t, h in zip(path.times, path.head_trace):
        yield [t, *h]


def config_path_polyline_rows(path: ConfigPath, samples: int = 33, stride: int = 1):
    """Rows (t, s, x_1..x_n): the snake polyline at a subsample of times."""
    for k in range(0, len(path.nodes), stride):
        cfg = path.config(k)
        for s in np.linspace(0.0, cfg.L, samples):
            yield [path.times[k], s, *snake_curve(cfg, s)]

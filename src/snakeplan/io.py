"""JSON and CSV serialization for matrices, blocks, configurations, head
curves and planned paths.

Arrays go to JSON through ndarray.tolist(), so their floats go through repr
(shortest round-trip decimal); CSV floats are printed with 17 significant
digits.  Loaders validate structural invariants (shapes, unit nodes,
partition monotonicity) and raise ValueError on bad payloads.
"""

from __future__ import annotations

import json

import numpy as np

from .planner import GroupPath, SteerPath
from .rotations import RotationBlocks
from .snake import DEFAULT_MAX_NODE_ANGLE, SnakeConfig, snake_curve_matrix

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "blocks_to_json",
    "config_to_json",
    "config_from_json",
    "head_curve_to_json",
    "head_curve_from_json",
    "group_path_to_json",
    "dump_json",
    "write_csv",
    "config_path_polyline_rows",
]


def dump_json(obj, path) -> None:
    """Write obj to path as sorted, indented JSON, one encoded piece at a
    time, so no copy of the whole text is held."""
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _whole(value) -> int:
    """value as an int when it is a whole number: 2 or 2.0, not 2.5, "2" or true."""
    if isinstance(value, (str, bool)) or isinstance(value, float) and not value.is_integer():
        raise TypeError(f"expected a whole number, got {value!r}")
    return int(value)


def matrix_to_json(A: np.ndarray) -> dict:
    A = np.asarray(A, dtype=float)
    return {"dim": int(A.shape[0] - 1), "rows": A.tolist()}


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        n = _whole(obj["dim"])
        A = np.asarray(obj["rows"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad matrix payload: {exc}") from exc
    if n < 1:
        raise ValueError(f"matrix dim must be at least 1, got {n}")
    if A.shape != (n + 1, n + 1):
        raise ValueError(f"matrix shape {A.shape} does not match dim {n}")
    if not np.all(np.isfinite(A)):
        raise ValueError("non-finite matrix entries")
    return A


def blocks_to_json(rb: RotationBlocks) -> dict:
    return {
        "dim": rb.dim,
        "blocks": [
            {
                "theta": float(b.theta),
                "planes": np.asarray(b.planes, dtype=float).tolist(),
                "generator": b.generator.tolist(),
            }
            for b in rb.blocks
        ],
        "kernel": rb.kernel_basis.T.tolist(),
    }


def config_to_json(cfg: SnakeConfig) -> dict:
    return {
        "L": float(cfg.L),
        "partition": cfg.partition.tolist(),
        "segments": [{"nodes": cfg.segment_nodes(k).tolist()} for k in range(cfg.segment_count)],
        "quadrature": {"scheme": "gauss-legendre", "nodes_per_segment": cfg.nodes_per_segment},
        "resolution_bound": float(cfg.max_node_angle),
    }


def config_from_json(obj: dict) -> SnakeConfig:
    try:
        L = float(obj["L"])
        partition = np.asarray(obj["partition"], dtype=float)
        segments = [np.asarray(seg["nodes"], dtype=float) for seg in obj["segments"]]
        quad = obj.get("quadrature", {})
        if not isinstance(quad, dict):
            raise TypeError(f"quadrature must be an object, got {quad!r}")
        m = quad.get("nodes_per_segment")
        m = None if m is None else _whole(m)
        bound = float(obj.get("resolution_bound", DEFAULT_MAX_NODE_ANGLE))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad config payload: {exc}") from exc
    scheme = quad.get("scheme", "gauss-legendre")
    if scheme != "gauss-legendre":
        raise ValueError(f"unsupported quadrature scheme {scheme!r}")
    cfg = SnakeConfig.from_segment_samples(L, partition, segments, max_node_angle=bound)
    if m is not None and cfg.nodes_per_segment != m:
        raise ValueError("segment node counts disagree with quadrature declaration")
    return cfg


def head_curve_to_json(times: np.ndarray, points: np.ndarray) -> dict:
    return {
        "times": np.asarray(times, dtype=float).tolist(),
        "points": np.asarray(points, dtype=float).tolist(),
    }


def head_curve_from_json(obj: dict):
    try:
        times = np.asarray(obj["times"], dtype=float)
        points = np.asarray(obj["points"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad head-curve payload: {exc}") from exc
    if times.ndim != 1 or points.ndim != 2 or points.shape[0] != times.shape[0]:
        raise ValueError("head curve needs matching times and points")
    if times.shape[0] < 2:
        raise ValueError("head curve needs at least 2 samples")
    if not np.all(np.diff(times) > 0):
        raise ValueError("head curve times must be strictly increasing")
    return times, points


def group_path_to_json(path: GroupPath) -> dict:
    """Each control is written as its boost vector u (the path is horizontal)."""
    return {
        "times": path.times.tolist(),
        "controls": path.controls.tolist(),
        "length": float(path.length()),
        "legs": [
            {
                "kind": leg.kind,
                "length": float(leg.length),
                "theta": float(leg.theta),
                "u": None if leg.u is None else leg.u.tolist(),
            }
            for leg in path.legs
        ],
        "endpoint": matrix_to_json(path.endpoint()),
    }


def write_csv(path, header: list, rows) -> None:
    """One line per row, one %.17g value per header column."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % tuple(row) for row in rows)


def config_path_polyline_rows(path: SteerPath):
    """Rows (t, s, x_1..x_n): the snake polyline at 33 arc lengths at every
    time whose unit nodes the steer record sampled, times[::sample_every]."""
    s = np.linspace(0.0, path.grid.L, 33)
    P = snake_curve_matrix(path.grid, s)
    for t, nodes in zip(path.times[:: path.sample_every], path.samples):
        for s_i, x in zip(s, P @ nodes):
            yield [t, s_i, *x]

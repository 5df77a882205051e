"""Steer a random snake configuration along a horizontal group path and
dump plot-ready trajectories.

Usage:
    python scripts/steering_demo.py [--dim 3] [--seed 7] [--out-dir out_steering]
"""

import argparse
import os

import numpy as np

from snakeplan import io as sio
from snakeplan.generate import random_config, random_so0
from snakeplan.planner import act, steer_config
from snakeplan.snake import config_distance, fit_horizontal


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--dim", type=int, default=3)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out-dir", default="out_steering")
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    u0 = random_config(rng, args.dim)
    A = random_so0(rng, args.dim)
    path = steer_config(u0, A, max_step=0.02)

    final_gap = config_distance(path.final, act(A, u0))
    fit_worst = max(
        fit_horizontal(path.config(k), path.velocities[k]).residual
        for k in range(0, len(path.velocities), 5)
    )
    print(f"steps: {len(path.times) - 1}")
    print(f"final distance to act(A, u0): {final_gap:.3e}")
    print(f"worst velocity fit residual (subsampled): {fit_worst:.3e}")

    os.makedirs(args.out_dir, exist_ok=True)
    sio.write_csv(
        os.path.join(args.out_dir, "head_trace.csv"),
        ["t"] + [f"x{i + 1}" for i in range(args.dim)],
        sio.head_trace_rows(path),
    )
    sio.write_csv(
        os.path.join(args.out_dir, "snake_polylines.csv"),
        ["t", "s"] + [f"x{i + 1}" for i in range(args.dim)],
        sio.config_path_polyline_rows(path, stride=max(1, len(path.times) // 40)),
    )
    print(f"wrote {args.out_dir}/head_trace.csv and snake_polylines.csv")


if __name__ == "__main__":
    main()

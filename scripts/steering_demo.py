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
from snakeplan.planner import act, steer_config, step_consistency
from snakeplan.snake import config_distance


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
    resid, bound = step_consistency(path)
    worst = int(np.argmax(resid / bound))
    print(f"steps: {len(path.times) - 1}")
    print(f"final distance to act(A, u0): {final_gap:.3e}")
    print(f"worst step-consistency residual: {resid[worst]:.3e} "
          f"(bound {bound[worst]:.3e}, step {worst})")

    os.makedirs(args.out_dir, exist_ok=True)
    sio.write_csv(
        os.path.join(args.out_dir, "head_trace.csv"),
        ["t"] + [f"x{i + 1}" for i in range(args.dim)],
        sio.sphere_path_rows(path.times, path.head_trace),
    )
    sio.write_csv(
        os.path.join(args.out_dir, "snake_polylines.csv"),
        ["t", "s"] + [f"x{i + 1}" for i in range(args.dim)],
        sio.config_path_polyline_rows(path, stride=max(1, len(path.times) // 40)),
    )
    print(f"wrote {args.out_dir}/head_trace.csv and snake_polylines.csv")


if __name__ == "__main__":
    main()

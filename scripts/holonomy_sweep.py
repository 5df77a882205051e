"""Holonomy of horizontal lifts around closed head loops.

Lifts circles of increasing radius with a curved planar snake and prints
the configuration displacement after the head returns; the area scaling of
the displacement is the nonintegrability of the horizontal distribution
made quantitative.

Usage:
    python scripts/holonomy_sweep.py [--radii 0.05 0.1 0.2] [--out-csv path]
"""

import argparse

import numpy as np

from snakeplan import io as sio
from snakeplan.planner import lift_history
from snakeplan.snake import SnakeConfig, config_distance, endpoint


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--radii", type=float, nargs="+", default=[0.05, 0.1, 0.2])
    ap.add_argument("--dt", type=float, default=1e-3)
    ap.add_argument("--out-csv", default=None,
                    help="optional CSV of the first node's sphere orbit at the largest radius")
    args = ap.parse_args()

    cfg = SnakeConfig.from_directions(
        2.0, [0.0, 1.0, 2.0],
        lambda s: np.array([np.cos(0.6 * s - 0.5), np.sin(0.6 * s - 0.5)]),
        dim=2,
    )
    c0 = endpoint(cfg)

    print(f"{'radius':>8}  {'head return':>12}  {'holonomy':>10}  {'holonomy/r^2':>12}")
    last = None
    for r in args.radii:
        def head(t, r=r):
            return c0 + r * np.stack([np.cos(2 * np.pi * t) - 1.0, np.sin(2 * np.pi * t)],
                                     axis=-1)

        def head_dot(t, r=r):
            return 2 * np.pi * r * np.stack([-np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)],
                                            axis=-1)

        path, nodes = lift_history(cfg, head, head_dot, t_final=1.0, dt=args.dt)
        ret = np.linalg.norm(path.head_trace[-1] - c0)
        hol = config_distance(path.final, cfg)
        print(f"{r:>8.3f}  {ret:>12.3e}  {hol:>10.3e}  {hol / r**2:>12.3f}")
        last = path.times, nodes

    if args.out_csv and last is not None:
        times, nodes = last
        sio.write_csv(args.out_csv, ["t", "z1", "z2"], np.column_stack((times, nodes[:, 0])))
        print(f"wrote {args.out_csv}")


if __name__ == "__main__":
    main()

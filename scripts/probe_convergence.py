"""Empirical decay of the commutator-probe endpoint error.

Approximates the rotation Exp(t * Omega_12) by alternating boost cycles and
prints the error table with the fitted log-log slope (expected -1).

Usage:
    python scripts/probe_convergence.py [--t 0.5] [--dim 3]
"""

import argparse

import numpy as np

from snakeplan.lorentz import basis_Omega
from snakeplan.planner import commutator_probe
from snakeplan.rotations import planar_rotation


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--t", type=float, default=0.5)
    ap.add_argument("--dim", type=int, default=3)
    ap.add_argument("--ms", type=int, nargs="+", default=[8, 16, 32, 64, 128])
    args = ap.parse_args()

    n, t = args.dim, args.t
    target = planar_rotation(basis_Omega(1, 2, n).matrix(), t)

    print(f"{'m':>6}  {'endpoint error':>16}  {'path length':>12}")
    errs = []
    for m in args.ms:
        path = commutator_probe(1, 2, t, m, n)
        err = np.linalg.norm(path.endpoint() - target)
        errs.append(err)
        print(f"{m:>6}  {err:>16.6e}  {path.length():>12.4f}")
    slope = np.polyfit(np.log(args.ms), np.log(errs), 1)[0]
    print(f"log-log slope: {slope:.3f}")


if __name__ == "__main__":
    main()

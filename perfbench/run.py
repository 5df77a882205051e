"""Closed-loop, single-client benchmark of the snakeplan pipeline.

    python3 perfbench/run.py --workload steer --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/``.  Workloads (perfbench/RATIONALE.md says why each exists):

* ``steer``      in-process ``cli.run`` of ``steer`` without files, n=3 and n=8
* ``long-paths`` in-process ``probe-bracket`` and ``lift-head``, thousands of steps
* ``cli-export`` ``python -m snakeplan.cli steer --out-dir`` children, one at a time

With ``--trace 0`` requests run back to back for ``--seconds``, and on until
10 samples lie above the workload's tail percentile; the end-to-end metrics
are reported with their times scaled to a reference host speed by a
calibration kernel timed between requests.  With ``--trace 1`` a fixed
prefix of every workload's sequence is replayed once to warm up and then
traced twice; on the chosen workload untraced passes alternate with
the traced ones, which gives the tracing overhead.  Each per-layer metric is
read from the workload it should move.
The last stdout line is the result object; the line before it records the
environment and details of the run.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP to one thread before numpy loads; children inherit this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("steer", "long-paths", "cli-export")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "snakeplan" / "__init__.py").is_file():
        print(f"perfbench: no snakeplan sources under {SRC}", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    from harness import measure

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        info, result = measure(args.workload, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

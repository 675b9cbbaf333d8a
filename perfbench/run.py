"""Benchmark for the trimmedpoly transforms, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads (see ``workloads.py``):

- ``cli-dense``: ``trimmedpoly eval`` then ``trimmedpoly interp``, file to
  file, at (n, d, D, p) = (12, 2, 6, 65537), N = 13,170.
- ``lib-bigprime``: library ``trimmed_eval`` and ``trimmed_interp`` at
  (8, 3, 12, 2^61-1), N = 36,814, after one untimed warm-up call.
- ``many-small``: about 2,400 seeded instances with N <= 600, covering
  every (n, d, D) with n <= 6 and d <= 4 over six primes from 2 to 2^62-57.

Load model: a closed loop with one client. Each timed pass of a direction
runs in a fresh child process, one at a time, so per-shape caches start
cold and the child's rusage gives its peak RSS (lib-bigprime times four
warm passes per child). Passes repeat until S seconds have gone (at least
one); each metric is the median over passes. Every timed pass, and every
``setup_s`` interpreter, sits between two runs of a fixed calibration mix
in the same process, and its time is reported at the reference speed
(``calibrate.py``): the shared host's speed drifts by up to 1.5x within
seconds, and the calibration takes that drift out. Raw wall times are
kept in the report under ``.perfbench_out/``.
Inputs are generated from the seed before any timing and reach the
program as JSON files (CLI) or pickled containers (library); outputs are
checked after each pass, and any failed check makes the run exit 1.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a
separate traced run and prints the per-layer split. The traced run sends
a sample of the instances through the CLI untraced, then replays in one
fresh worker, for every instance, the public calls that ``cmd_eval`` and
``cmd_interp`` make, each inside a span (``worker.py``). Layer metrics are
self times summed by span name. ``cli.other_s`` is the CLI wall time minus
the replay of the same instance: interpreter start, imports, argparse and
teardown. ``combinat.rank_s``, ``algo.grid_s`` and ``linalg.factors_s``
re-time sub-steps of other calls, so they are left out of that sum.
``trace.overhead_s`` is the time inside the replayed commands that no
layer span covers. Field-operation counts
come from one ``run_counted`` pass per direction, apart from the timed
passes, on containers whose poly and grid share one PrimeModulus. The last
line of stdout is the JSON result; the line before it is the environment
stamp. The full report and the spans are written under ``.perfbench_out/``.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    started = time.monotonic()
    if not (ROOT / "src" / "trimmedpoly" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no trimmedpoly sources under {ROOT}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    return harness.main(sys.argv[1:], started)


if __name__ == "__main__":
    sys.exit(main())

"""Starts the benchmark's measured children one at a time.

The peak RSS that rusage reports for a child is at least the peak resident
size of the process it was forked from. The benchmark's parent holds the
generated inputs and grows large, so it does not fork the measured
children itself: it starts this small process first and sends it one JSON
line per child, {"argv": [...], "stdout": path or null, "calibrate": bool}.
Each reply line is {"wall": seconds, "rss_mb": peak RSS, "rc": exit code,
"scaled": wall at the reference speed or null}; with "calibrate" set, the
child is sandwiched between two runs of calibrate.calibrate() (see there).
The process pins itself, and so its children, to one CPU, since the host
slows each vCPU down on its own: a calibration says nothing about a child
on another CPU. The process ends when its input closes.
"""

import json
import os
import subprocess
import sys
import time

from calibrate import calibrate, scaled


def main() -> int:
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    calibrate()  # warm the mix before the first timed sandwich
    for line in sys.stdin:
        request = json.loads(line)
        before = calibrate() if request.get("calibrate") else None
        with open(request["stdout"] or os.devnull, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall": wall, "rss_mb": usage.ru_maxrss / 1024.0,
                 "rc": proc.returncode,
                 "scaled": (scaled(wall, before, calibrate())
                            if before is not None else None)}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

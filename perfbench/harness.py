"""Parent side of the benchmark: inputs, child processes, checks, metrics.

See run.py for the command line and the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from importlib import metadata
from pathlib import Path
from typing import NamedTuple

import workloads as wl
from spans import read_spans, self_times
from trimmedpoly import run_counted, trimmed_eval, trimmed_interp
from worker import eval_factor_calls, interp_factor_calls

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 10
# Every run must end within 180 s; a child still running by then is killed.
RUN_DEADLINE_S = 170.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class ChildTimeout(Exception):
    pass


@contextmanager
def timed(phases: dict, name: str):
    """Add the block's wall time to phases[name], for the report."""
    start = time.perf_counter()
    try:
        yield
    finally:
        phases[name] = phases.get(name, 0.0) + time.perf_counter() - start


class Child(NamedTuple):
    wall: float            # seconds
    rss_mb: float          # peak RSS
    rc: int                # exit code
    scaled: float | None   # wall at the reference speed, if calibrated


class Runner:
    """Runs one child at a time through spawner.py; see its docstring.

    Start it before the parent builds any inputs, while the parent is
    still small. A child still running at the deadline is killed, with
    the spawner, and the run fails.
    """

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            start_new_session=True)

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.kill()

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()

    def run(self, argv, stdout_path=None, calibrate=False) -> Child:
        """Run one child; with ``calibrate``, between two calibrations."""
        request = {"argv": [str(arg) for arg in argv],
                   "stdout": str(stdout_path) if stdout_path else None,
                   "calibrate": calibrate}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        remaining = self.deadline - time.monotonic()
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    max(remaining, 0.0))
        if not ready:
            self.kill()
            raise ChildTimeout()
        reply = json.loads(self.proc.stdout.readline())
        return Child(reply["wall"], reply["rss_mb"], reply["rc"],
                     reply["scaled"])


def env_stamp(seed: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    cpu = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 check=True).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True,
                check=True).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_sha": sha,
        "git_dirty": dirty,
        "seed": seed,
        "loadavg": os.getloadavg(),
    }


class Bench:
    def __init__(self, args, workload, instances, work: Path,
                 runner: Runner, phases: dict) -> None:
        self.args = args
        self.workload = workload
        self.instances = instances
        self.work = work
        self.runner = runner
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {}
        self.report: dict = {}
        self.phases = phases
        with timed(phases, "oracle"):
            self.expected = wl.expected_slots(workload, instances, args.seed)

    def record(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def tally(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def check_outputs(self, index: int, suffix: str, eval_rc: int,
                      interp_rc: int) -> None:
        path = wl.instance_dir(self.work, index)
        poly = self.instances[index][0]
        self.tally(eval_rc == 0 and wl.table_file_ok(
            path / f"table{suffix}.json", poly, self.expected[index]))
        self.tally(interp_rc == 0 and wl.round_trip_ok(
            path / f"back{suffix}.json", path / "poly.json"))

    def load_outputs(self, name: str, rc: int) -> list:
        """A library child's pickled outputs, or Nones if it has none."""
        count = len(self.instances)
        outputs = None
        if rc == 0:
            try:
                with open(self.work / name, "rb") as handle:
                    outputs = pickle.load(handle)
            except (OSError, pickle.UnpicklingError, EOFError):
                pass
        if isinstance(outputs, list) and len(outputs) == count:
            return outputs
        return [None] * count

    def check_lib_outputs(self, eval_rc: int, interp_rc: int) -> None:
        tables = self.load_outputs("tables.pkl", eval_rc)
        polys = self.load_outputs("polys.pkl", interp_rc)
        for index, (poly, _) in enumerate(self.instances):
            self.tally(wl.table_ok(tables[index], poly, self.expected[index]))
            self.tally(polys[index] == poly)

    def cli_pass(self, index: int, calibrate: bool) -> tuple[Child, Child]:
        """One eval child and one interp child on an instance, checked."""
        path = wl.instance_dir(self.work, index)
        base = [sys.executable, "-m", "trimmedpoly"]
        evaluated = self.runner.run(
            base + ["eval", "--poly", str(path / "poly.json"),
                    "--grid", str(path / "grid.json"),
                    "--out", str(path / "table.json")], calibrate=calibrate)
        interpolated = self.runner.run(
            base + ["interp", "--evals", str(path / "table.json"),
                    "--grid", str(path / "grid.json"),
                    "--out", str(path / "back.json")], calibrate=calibrate)
        self.check_outputs(index, "", evaluated.rc, interpolated.rc)
        return evaluated, interpolated

    def lib_child(self, direction: str) -> int:
        """Run one library child, record its passes; its exit code."""
        out = self.work / f"{direction}.out"
        child = self.runner.run(
            [sys.executable, str(HERE / "worker.py"), "lib", str(self.work),
             direction, self.workload.warmup, self.workload.repeats,
             self.workload.chunks], out)
        self.record(f"{direction}_rss_mb", child.rss_mb)
        if child.rc != 0:
            return child.rc
        try:
            times = json.loads(out.read_text())
            raw, at_ref = times["seconds"], times["scaled"]
        except (OSError, ValueError, KeyError):
            return -1
        for seconds, scaled_seconds in zip(raw, at_ref):
            self.record(f"{direction}_raw_s", seconds)
            self.record(f"{direction}_s", scaled_seconds)
        return 0

    def lib_pass(self) -> None:
        with timed(self.phases, "eval_children"):
            eval_rc = self.lib_child("eval")
        with timed(self.phases, "interp_children"):
            interp_rc = self.lib_child("interp")
        with timed(self.phases, "checks"):
            self.check_lib_outputs(eval_rc, interp_rc)

    def timed_passes(self) -> None:
        start = time.perf_counter()
        while True:
            if self.workload.cli:
                for direction, child in zip(("eval", "interp"),
                                            self.cli_pass(0, True)):
                    self.record(f"{direction}_raw_s", child.wall)
                    self.record(f"{direction}_s", child.scaled)
                    self.record(f"{direction}_rss_mb", child.rss_mb)
            else:
                self.lib_pass()
            if time.perf_counter() - start >= self.args.seconds:
                break

    def setup_times(self) -> None:
        """Fresh interpreters importing trimmedpoly.cli; the first is
        untimed so that bytecode caches exist for the rest."""
        argv = [sys.executable, "-c", "import trimmedpoly.cli"]
        for attempt in range(SETUP_REPEATS + 1):
            child = self.runner.run(argv, calibrate=bool(attempt))
            self.tally(child.rc == 0)
            if attempt:
                self.record("setup_raw_s", child.wall)
                self.record("setup_s", child.scaled)

    def counted(self, per_layer: bool = False) -> dict:
        """Exact op counts from run_counted on a shared modulus, summed
        over instances. For the per-layer split also the factor-building
        counts, and warm counted and uncounted times of trimmed_eval."""
        totals = dict.fromkeys(
            ("eval_mul", "eval_add", "eval_inv", "interp_mul", "interp_add",
             "interp_inv", "linalg_mul", "linalg_inv", "counted_s",
             "plain_s"), 0)
        for poly, grid in self.instances:
            table, eval_ctr = run_counted(trimmed_eval, poly, grid)
            back, interp_ctr = run_counted(trimmed_interp, table, grid)
            self.tally(back == poly)
            for prefix, ctr in (("eval", eval_ctr), ("interp", interp_ctr)):
                totals[f"{prefix}_mul"] += ctr.mul_count
                totals[f"{prefix}_add"] += ctr.add_count
                totals[f"{prefix}_inv"] += ctr.inv_count
            if not per_layer:
                continue
            for task in (eval_factor_calls, interp_factor_calls):
                _, ctr = run_counted(task, grid)
                totals["linalg_mul"] += ctr.mul_count
                totals["linalg_inv"] += ctr.inv_count
            start = time.perf_counter()
            trimmed_eval(poly, grid)
            mid = time.perf_counter()
            run_counted(trimmed_eval, poly, grid)
            totals["plain_s"] += mid - start
            totals["counted_s"] += time.perf_counter() - mid
        return totals

    def traced_run(self, out_dir: Path, tag: str) -> dict:
        """CLI children on a sample, then the traced replay in a fresh
        worker; returns the per-layer metrics."""
        sample = list(range(min(self.workload.cli_sample,
                                len(self.instances))))
        if len(self.instances) > len(sample):
            sample = sorted(random.Random(self.args.seed).sample(
                range(len(self.instances)), len(sample)))
        cli_wall = {}
        for index in sample:
            evaluated, interpolated = self.cli_pass(index, False)
            cli_wall[f"{index}.eval"] = evaluated.wall
            cli_wall[f"{index}.interp"] = interpolated.wall
        spans_path = out_dir / f"{tag}-spans.jsonl"
        summary_path = self.work / "trace-summary.json"
        rc = self.runner.run(
            [sys.executable, str(HERE / "worker.py"), "trace", str(self.work),
             str(len(self.instances)), str(spans_path), str(summary_path)]).rc
        for index in range(len(self.instances)):
            self.check_outputs(index, ".trace", rc, rc)
        if rc != 0:
            return {}
        spans = read_spans(spans_path)
        summary = wl.load_json(summary_path)
        layers = self_times(spans)
        replayed = {span["run"]: span["end"] - span["start"] for span in spans
                    if span["name"] in ("cli.eval", "cli.interp")}
        counts = self.counted(per_layer=True)
        metrics = {
            "cli.json_load_s": (layers.get("cli.json_load", 0.0), "s"),
            "cli.json_dump_s": (layers.get("cli.json_dump", 0.0), "s"),
            "cli.other_s": (sum(wall - replayed[run]
                                for run, wall in cli_wall.items()), "s"),
            "jsonio.from_dict_s": (layers.get("jsonio.from_dict", 0.0), "s"),
            "jsonio.to_dict_s": (layers.get("jsonio.to_dict", 0.0), "s"),
            "jsonio.bytes_in": (summary["bytes_in"], "count"),
            "jsonio.bytes_out": (summary["bytes_out"], "count"),
            "poly.from_sparse_s": (layers.get("poly.from_sparse", 0.0), "s"),
            "poly.to_sparse_s": (layers.get("poly.to_sparse", 0.0), "s"),
            "poly.terms": (summary["terms"], "count"),
            "combinat.rank_s": (layers.get("combinat.rank", 0.0), "s"),
            "combinat.enumerate_cold_s": (
                layers.get("combinat.enumerate_cold", 0.0), "s"),
            "algo.eval_s": (layers.get("algo.eval", 0.0), "s"),
            "algo.interp_s": (layers.get("algo.interp", 0.0), "s"),
            "algo.cold_extra_s": (summary["cold_extra_s"], "s"),
            "algo.grid_s": (layers.get("algo.grid", 0.0), "s"),
            "algo.eval_mul": (counts["eval_mul"], "count"),
            "algo.eval_add": (counts["eval_add"], "count"),
            "algo.interp_mul": (counts["interp_mul"], "count"),
            "algo.interp_add": (counts["interp_add"], "count"),
            "linalg.factors_s": (layers.get("linalg.factors", 0.0), "s"),
            "linalg.mul": (counts["linalg_mul"], "count"),
            "linalg.inv": (counts["linalg_inv"], "count"),
            "field.count_overhead": (
                counts["counted_s"] / counts["plain_s"], "ratio"),
            "field.uncounted_s": (counts["plain_s"], "s"),
            "trace.overhead_s": (layers.get("cli.eval", 0.0)
                                 + layers.get("cli.interp", 0.0), "s"),
        }
        split = {}
        for run, wall in cli_wall.items():
            split[run] = self_times(spans, lambda span: span["run"] == run)
            split[run]["cli.other"] = wall - replayed[run]
        self.report = {"cli_wall": cli_wall, "cli_split": split,
                       "counts": counts}
        return metrics

    def end_to_end(self) -> dict:
        with timed(self.phases, "setup"):
            self.setup_times()
        with timed(self.phases, "timed_passes"):
            self.timed_passes()
        with timed(self.phases, "counted"):
            counts = self.counted()
        med = {key: statistics.median(values)
               for key, values in self.samples.items()}
        self.report = {"samples": self.samples, "counts": counts}
        return {
            "eval_s": (med["eval_s"], "s"),
            "interp_s": (med["interp_s"], "s"),
            "setup_s": (med["setup_s"], "s"),
            "eval_rss_mb": (med["eval_rss_mb"], "MB"),
            "interp_rss_mb": (med["interp_rss_mb"], "MB"),
            "ok_rate": (1.0 - self.failed / self.attempted, "ratio"),
            "field_mul": (counts["eval_mul"] + counts["interp_mul"], "count"),
            "field_add": (counts["eval_add"] + counts["interp_add"], "count"),
        }


def main(argv, started: float) -> int:
    args = parse_args(argv)
    if args.workload not in wl.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(wl.WORKLOADS)}\n")
        return 2
    stamp = env_stamp(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    work = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    phases: dict[str, float] = {}
    try:
        with Runner(started + RUN_DEADLINE_S) as runner:
            workload = wl.WORKLOADS[args.workload]
            with timed(phases, "generate"):
                instances = wl.generate(args.workload, args.seed)
                work.mkdir(parents=True)
                if workload.cli or args.trace:
                    wl.write_inputs(work, instances)
                else:
                    wl.write_containers(work, instances)
            bench = Bench(args, workload, instances, work, runner, phases)
            metrics = (bench.traced_run(out_dir, tag) if args.trace
                       else bench.end_to_end())
    except ChildTimeout:
        sys.stderr.write("perfbench: run exceeded its time limit\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": bench.failed == 0 and bool(metrics),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(out_dir / f"{tag}.json", "w", encoding="utf-8") as handle:
        json.dump({"env": stamp, "result": result, "phases": phases,
                   **bench.report}, handle, indent=2)
    for name, (value, unit) in metrics.items():
        sys.stderr.write(f"{args.workload} {name:<26} {value:>14.6g} {unit}\n")
    print(json.dumps({"env": stamp}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1

"""jointqg benchmark: one workload per run, or all of them in turn.

    python3 perfbench/run.py --workload train_v30k --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

Run from the repository root; the package is imported from ``src/``.
With ``--trace 0`` the run measures the end-to-end metrics with nothing
patched. With ``--trace 1`` it spends half the time untraced and then
repeats the same operations under the span tracer, reporting per-layer
metrics and the tracing overhead. Human-readable lines come first; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. See perfbench/README.md for the metrics.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
# set-up runs once before the first operation, and again after operations
# whenever its total time falls below SETUP_SHARE of the measured time, so
# its repeats are spread over the run. The fastest repeat is reported: a
# shared machine alternates between speed levels about 1.5x apart for
# seconds at a time, and the fastest repeat depends least on which level
# held during the run.
SETUP_SHARE = 0.05
WORKLOAD_NAMES = ("train_v30k", "decode_v30k", "pipeline_v5k")


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, read through ctypes."""
    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(), "numpy": numpy.__version__,
        "python": platform.python_version(), "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Session:
    """Runs operations of one workload and keeps the failure accounting."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.broken = False
        self.peak_rss_mb = 0.0
        self.fingerprints: dict[int, str] = {}

    def run(self, index: int, tracer=None):
        from workloads import Timer

        wl = self.workload
        try:
            op = wl.run_op(index, Timer(tracer))
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            self.broken = True
            return None
        seen = self.fingerprints.setdefault(op.key, op.fingerprint)
        if op.fingerprint != seen:
            op.failures.append(f"output of input {op.key} differs from an earlier "
                               f"{'untraced ' if tracer is not None else ''}run")
        for msg in op.failures:
            print(f"CHECK FAILED [{wl.name}]: {msg}", file=sys.stderr)
        self.attempted += 1
        self.failed += 1 if op.failures else 0
        return op

    def measure(self, budget: float = math.inf, tracer=None, count: int | None = None,
                after_op=None) -> list:
        """Run ops until the next one would overrun budget seconds of timed
        calls (at least the workload's min_ops), or exactly count ops when
        count is given, calling after_op(seconds measured so far) after
        each. Peak RSS is read after the first min_ops ops, so it does not
        grow with the number of ops that fit in the budget."""
        ops = []
        spent = 0.0
        index = 0
        while not self.broken:
            if count is not None:
                if index >= count:
                    break
            elif len(ops) >= self.workload.min_ops and spent + ops[-1].wall > budget:
                break
            op = self.run(index, tracer)
            index += 1
            if op is not None:
                ops.append(op)
                spent += op.wall
                if len(ops) == self.workload.min_ops:
                    self.peak_rss_mb = peak_rss_mb()
            if after_op is not None:
                after_op(spent)
        return ops


class SetupClock:
    """Times the workload's set-up, repeated in slots spread over the run."""

    def __init__(self, workload):
        self.workload = workload
        self.times: list[float] = []

    def slot(self, measured: float = 0.0) -> None:
        """Set up again until set-up has taken SETUP_SHARE of measured
        seconds, and at least once in all."""
        while not self.times or sum(self.times) < SETUP_SHARE * measured:
            start = time.perf_counter()
            self.workload.setup()
            self.times.append(time.perf_counter() - start)


def run_workload(args) -> int:
    # imported here: these modules import jointqg, which main() locates first
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    work_dir = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        wl = WORKLOADS[args.workload](args.seed, work_dir)
        setup = SetupClock(wl)
        setup.slot()
        session = Session(wl)
        if args.trace:
            # half the time untraced, then the same ops traced
            untraced = session.measure(args.seconds / 2.0)
            tracer = Tracer(vocab_size=wl.vocab_size)
            traced = session.measure(tracer=tracer, count=len(untraced))
            if not untraced or len(traced) != len(untraced):
                print(f"{args.workload}: an operation raised", file=sys.stderr)
                return 1
            traced_wall = sum(op.wall for op in traced)
            metrics = layer_metrics(tracer, traced_wall)
            metrics["trace.overhead_ratio"] = (
                traced_wall / sum(op.wall for op in untraced), "ratio")
            print(f"{args.workload}: {len(traced)} traced operations")
            lines = metrics
        else:
            # the end-to-end metrics come from the ops that passed every check
            ops = session.measure(float(args.seconds), after_op=setup.slot)
            ops = [op for op in ops if not op.failures]
            if not ops:
                print(f"{args.workload}: no operation passed its checks", file=sys.stderr)
                return 1
            metrics = {"setup_s": (min(setup.times), "s")}
            metrics.update(wl.summarize(ops))
            metrics["peak_rss_mb"] = (session.peak_rss_mb, "MB")
            lines = dict(wl.report_lines(ops))
            lines["setup_s"] = metrics["setup_s"]
            lines["peak_rss_mb"] = metrics["peak_rss_mb"]
            lines["fail_ratio"] = (session.failed / session.attempted, "ratio")
            print(f"{args.workload}: {len(ops)} measured operations, wall s "
                  + " ".join(f"{op.wall:.3f}" for op in ops))
        for name, (value, unit) in lines.items():
            print(f"  {name:34s} {value:14.6g} {unit}")
        print(json.dumps({
            "correct": session.failed == 0,
            "attempted": session.attempted,
            "failed": session.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "jointqg", "__init__.py")):
        print(f"jointqg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    print("env: " + json.dumps(environment(args), sort_keys=True))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

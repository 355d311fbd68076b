"""pairframe benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. Workloads: ``pair-analyze``, ``frame-reconstruct`` (see
perfbench/README.md). Every workload is a closed loop with one client
and attempts whole rounds of the same operations until ``--seconds`` have
passed. The last stdout line is the result; the line before it carries the
environment and the per-phase timings with their sample counts.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the same
inputs half untraced, half traced, reports the per-layer metrics and writes
every span to ``.perfbench/trace-<workload>-<seed>.jsonl``.
"""

import os
import sys

NPROC = len(os.sched_getaffinity(0))
# One BLAS thread: on a shared 2-core machine a second thread roughly doubled the
# run-to-run spread of op times for a ~10% gain. Pinned before numpy loads
# OpenBLAS; the set-up processes inherit the same values.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PAIRFRAME_THREADS"):
    os.environ[_var] = BLAS_THREADS
# Cold set-ups load pairframe from cached bytecode, as an installed package
# does, whatever the caller's environment says.
os.environ.pop("PYTHONDONTWRITEBYTECODE", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("pair-analyze", "frame-reconstruct")
DEFAULT_SEED = 1
#: cold set-ups per run; setup_s is their median
SETUP_REPS = 7
SETUP_TIMEOUT_S = 60


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": NPROC,
        "blas_threads": int(BLAS_THREADS),
    }


def cold_setups(workload: str, seed: int, workdir: Path) -> list:
    """Time SETUP_REPS set-ups, each in a fresh interpreter."""
    runs = []
    for k in range(SETUP_REPS):
        out = workdir / f"setup{k}"
        proc = subprocess.run(
            [sys.executable, str(HERE / "prepare.py"), workload, str(seed), str(out)],
            cwd=ROOT, capture_output=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
            raise SystemExit(f"set-up failed with exit code {proc.returncode}")
        runs.append(json.loads(proc.stdout.decode("utf-8").strip().splitlines()[-1]))
        shutil.rmtree(out)
    return runs


def timing(values: list) -> dict:
    """Median and sample count, plus the highest of p75/p90/p99 that has
    at least ten samples beyond it; only the count when there are none."""
    if not values:
        return {"n": 0}
    out = {"median": statistics.median(values), "n": len(values)}
    for pct in (99, 90, 75):
        if len(values) * (100 - pct) >= 1000:
            qs = statistics.quantiles(values, n=100, method="inclusive")
            out[f"p{pct}"] = qs[pct - 1]
            break
    return out


class Loop:
    """Closed loop of whole rounds; times each operation, checks it untimed."""

    def __init__(self, workload, tracer=None) -> None:
        self.workload = workload
        self.tracer = tracer
        self.times = []
        # op -> call index -> that call's times, one per round, of the operations that did not fail
        self.calls = defaultdict(lambda: defaultdict(list))
        self.records = []  # (op, call times, result) of the operations that did not fail
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def one(self, op) -> None:
        span = self.tracer.phase(self.attempted) if self.tracer else contextlib.nullcontext()
        failed = None
        with span:
            t0 = time.perf_counter()
            try:
                result = self.workload.run(op)
            except wl.OperationFailed as exc:
                failed = exc
            dt = time.perf_counter() - t0
        self.attempted += 1
        self.times.append(dt)
        if failed:
            # no operation of these workloads should fail: it counts and makes the run incorrect
            self.failed += 1
            self.errors.append(f"{op!r} failed: {failed}")
            return
        phases = list(self.workload.phases)
        for i, t in enumerate(phases):
            self.calls[op][i].append(t)
        try:
            self.workload.check(op, result)
        except wl.CheckError as exc:
            self.errors.append(f"{op!r}: {exc}")
        self.records.append((op, phases, result))

    def op_s(self) -> float:
        """Time of one operation: the sum of the fastest time of each of its
        calls into the program, averaged over the round's operations.

        Every call repeats the same deterministic work each round. The shared
        machine runs the same work up to about 2x slower in spells of seconds
        to minutes, with fast stretches of under a second between, so a run's
        median or mean follows the share of slow time in it, while the fastest
        repeat of a call is its cost with the least interference.
        """
        return statistics.fmean(sum(min(ts) for ts in calls.values()) for calls in self.calls.values())

    def rounds(self, seconds: float) -> int:
        start = time.perf_counter()
        done = 0
        while True:
            for op in self.workload.round():
                self.one(op)
            done += 1
            if time.perf_counter() - start >= seconds:
                return done


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description="pairframe benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "pairframe" / "__init__.py").exists():
        print(f"error: not a pairframe source checkout, missing {SRC / 'pairframe'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path) -> int:
    sys.path.insert(0, str(SRC))
    setups = cold_setups(args.workload, args.seed, workdir)

    import prepare
    import pairframe
    import pairframe.cli  # noqa: F401  (pair-analyze calls pairframe.cli.main)

    tracer = tracing.Tracer(pairframe) if args.trace else None
    if tracer:
        tracer.install()
        with tracer.phase(tracing.SETUP):
            inputs = prepare.prepare(args.workload, args.seed, workdir / "inputs")
        tracer.uninstall()
    else:
        inputs = prepare.prepare(args.workload, args.seed, workdir / "inputs")

    if args.workload == "pair-analyze":
        workload = wl.PairAnalyze(pairframe, inputs, args.seed)
    else:
        workload = wl.FrameReconstruct(pairframe, inputs, args.seed)

    # warm BLAS threads, allocator and file cache; not counted, and a failure
    # is counted by the timed loop
    with contextlib.suppress(wl.OperationFailed):
        workload.run(workload.round()[0])

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        "setup_s": [s["setup_s"] for s in setups],
    }
    if args.trace:
        plain = Loop(workload)
        plain.rounds(args.seconds / 2)
        traced = Loop(workload, tracer)
        tracer.install()
        traced.rounds(args.seconds / 2)
        with tracer.peak_pass(), contextlib.suppress(wl.OperationFailed):  # counted above
            workload.run(workload.round()[0])
        tracer.uninstall()
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
        loops = (plain, traced)
        untraced_s = statistics.median(plain.times)
        traced_s = statistics.median(traced.times)
        metrics = {name: metric(v, unit_of(name)) for name, v in tracer.summary(traced.attempted).items()}
        metrics["import.cold_s"] = metric(statistics.median(s["import_s"] for s in setups), "s")
        metrics["trace.untraced_op_s"] = metric(untraced_s, "s")
        metrics["trace.traced_op_s"] = metric(traced_s, "s")
        metrics["trace.overhead_pct"] = metric(100.0 * (traced_s / untraced_s - 1.0), "%")
        detail["rounds"] = {"untraced": plain.attempted, "traced": traced.attempted}
    else:
        loop = Loop(workload)
        rounds = loop.rounds(args.seconds)
        loops = (loop,)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics = {
            "setup_s": metric(statistics.median(s["setup_s"] for s in setups), "s"),
            "peak_rss_mb": metric(peak_mb, "MB"),
            "op_s": metric(loop.op_s(), "s"),
        }
        detail["rounds"] = rounds
        detail["timings"] = phase_timings(args.workload, loop)

    errors = [e for lp in loops for e in lp.errors]
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(lp.attempted for lp in loops),
        "failed": sum(lp.failed for lp in loops),
        "metrics": metrics,
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def phase_timings(workload: str, loop: Loop) -> dict:
    if workload == "pair-analyze":
        return {"pair_report_s": timing(loop.times)}
    # calls: classify, canonical_dual, classify_pair | find_alpha, neumann_trace, reconstruct...
    return {
        "frame_report_s": timing([sum(ph[:3]) for _, ph, _ in loop.records]),
        "reconstruct_s": timing([sum(ph[3:]) for _, ph, _ in loop.records]),
    }


if __name__ == "__main__":
    sys.exit(main())

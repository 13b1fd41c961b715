"""Benchmark of rifclark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload degree-ladder --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  The workload's set-up (import, catalog, reused RIFs, one warm-up
operation) is timed three times before the loop and three times after it,
so that its median, setup_s, does not rest on one moment of a machine
whose speed drifts.  The loop runs whole rounds of operations back to back
in one thread until --seconds have passed and the workload's tail
percentile has at least ten operations beyond it.  Every output is checked
against bench/oracle.py.

Every time is reported in reference seconds.  The machine this runs on is
shared, and its speed drifts over seconds and minutes, which moved the
median wall-clock throughput of two sets of runs of the same operations by
a third.  So just before each timed piece of work the run times a fixed
calibration kernel, shaped like the program's hot loops, and scales the
wall time by REFERENCE_KERNEL_S / kernel time (see SpeedGauge).  The
kernel is the benchmark's own code, so a change to the program moves the
scaled times as it moves wall time; wall-clock figures go to stderr and to
the trace file.

--trace 0 prints the end-to-end metrics; --trace 1 wraps the program's
public functions (bench/spans.py), prints the per-layer metrics and writes
spans to bench/results/.  --plant-fault is the negative control: it moves
every expected total mass by 1e-6 (relative), and the run must fail.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
Exit code 0 when every check passed, 1 when one failed, 2 when the
program cannot be found.
"""

import os

# One BLAS thread; must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Context, OpFailed, check_catalog  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = (HERE.parent / "src").resolve()
RESULTS = HERE / "results"
SETUPS_EACH_SIDE = 3
PLANTED_MASS_ERROR = 1e-6
# The calibration kernel's time on the reference machine (2 vCPU Xeon VM).
REFERENCE_KERNEL_S = 1e-3

END_TO_END = {
    "setup_s": "s",
    "certified_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}


def load_program() -> dict:
    """Import rifclark afresh from ./src; returns its modules by short name."""
    for name in [k for k in sys.modules if k == "rifclark" or k.startswith("rifclark.")]:
        del sys.modules[name]
    pkg = importlib.import_module("rifclark")
    importlib.import_module("rifclark.cli")
    if Path(pkg.__file__).resolve().parent != SRC / "rifclark":
        raise ImportError(f"rifclark loaded from {pkg.__file__}, not from {SRC}")
    return spans.program_modules()


_K_RNG = np.random.default_rng(0)
_K_COEFFS = _K_RNG.normal(size=65) + 1j * _K_RNG.normal(size=65)
_K_NODES = np.exp(2j * np.pi * np.arange(512) / 512)
_K_ROOTS = _K_RNG.normal(size=33)


def _kernel_once() -> float:
    t0 = time.perf_counter()
    acc = np.zeros_like(_K_NODES)
    for c in _K_COEFFS:
        acc = acc * _K_NODES + c
    np.roots(_K_ROOTS)
    x = 0
    for i in range(3000):
        x += i * i
    return time.perf_counter() - t0


class SpeedGauge:
    """Converts wall time to reference seconds.

    Each reading times the kernel (best of three) and returns
    REFERENCE_KERNEL_S over the median of the last five readings; the
    median keeps one noisy reading from inflating the tail percentile,
    and five readings still follow a drift that lasts seconds.
    """

    def __init__(self):
        self._recent: collections.deque = collections.deque(maxlen=5)

    def scale(self) -> float:
        self._recent.append(min(_kernel_once() for _ in range(3)))
        return REFERENCE_KERNEL_S / statistics.median(self._recent)


def timed_setup(workload, prepared, seed: int, mass_fault: float, gauge: SpeedGauge):
    """Load the program and set the workload up; returns (context, wall
    seconds, reference seconds)."""
    scale = gauge.scale()
    t0 = time.perf_counter()
    ctx = Context(load_program(), seed, mass_fault)
    workload.setup(ctx, prepared)
    wall = time.perf_counter() - t0
    return ctx, wall, wall * scale


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant-fault", action="store_true",
                    help="negative control: expect every total mass off by 1e-6")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rifclark" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a rifclark checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]()
    mass_fault = PLANTED_MASS_ERROR if args.plant_fault else 0.0
    prepared = workload.prepare(args.seed)

    gauge = SpeedGauge()
    setup_wall, setup_times = [], []
    for _ in range(SETUPS_EACH_SIDE):
        ctx, wall, seconds = timed_setup(workload, prepared, args.seed, mass_fault, gauge)
        setup_wall.append(wall)
        setup_times.append(seconds)
    modules = ctx.modules
    program_error = modules["errors"].RifClarkError

    recorder = None
    if args.trace:
        recorder = spans.Recorder()
        recorder.install(modules)

    min_ops = math.ceil(10 / (1 - workload.tail_pct / 100))
    min_rounds = math.ceil(min_ops / workload.ops_per_round)
    times: list[float] = []  # reference seconds
    wall_times: list[float] = []
    by_label: dict[str, list[float]] = {}
    attempted = failed = certified = 0
    error = None
    start = time.perf_counter()
    r = 0
    try:
        check_catalog(ctx)
        while r < min_rounds or time.perf_counter() - start < args.seconds:
            for op in workload.round(ctx, r):
                attempted += 1
                scale = gauge.scale()
                t0 = time.perf_counter()
                try:
                    out = op.run()
                except (program_error, OpFailed) as exc:
                    wall_times.append(time.perf_counter() - t0)
                    times.append(wall_times[-1] * scale)
                    failed += 1
                    print(f"failed: round {r} {op.label}: {exc}", file=sys.stderr)
                    continue
                wall_times.append(time.perf_counter() - t0)
                times.append(wall_times[-1] * scale)
                by_label.setdefault(op.label, []).append(times[-1])
                op.check(out)
                certified += 1
            r += 1
    except CheckFailed as exc:
        error = f"round {r}, {op.label if attempted else 'catalog'}: {exc}"
        print(f"check failed: {error}", file=sys.stderr)

    for _ in range(SETUPS_EACH_SIDE):
        _, wall, seconds = timed_setup(workload, prepared, args.seed, mass_fault, gauge)
        setup_wall.append(wall)
        setup_times.append(seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def summary(setups, ops):
        ops = ops or [math.nan]
        return {
            "setup_s": statistics.median(setups),
            "certified_per_s": certified / sum(ops) if certified else 0.0,
            "op_p50_s": statistics.median(ops),
            "op_tail_s": float(np.percentile(ops, workload.tail_pct)),
            "peak_rss_mb": rss_mb,
        }

    e2e = summary(setup_times, times)
    wall = summary(setup_wall, wall_times)
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    medians = {k: round(statistics.median(v), 4) for k, v in by_label.items()}
    print(f"{args.workload} seed {args.seed}: {r} rounds, {attempted} operations, "
          f"tail p{workload.tail_pct}; reference seconds per input {medians}; "
          f"wall clock {json.dumps(wall)}", file=sys.stderr)
    if recorder is not None:
        names = spans.per_layer_names()
        layer = recorder.metrics()
        metrics = {k: {"value": layer[k], "unit": unit} for k, (unit, _) in names.items()}
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"trace-{args.workload}-{args.seed}.json"
        recorder.dump(path, {"workload": args.workload, "seed": args.seed,
                             "attempted": attempted, "end_to_end_traced": e2e,
                             "wall_clock_traced": wall})
        print(f"spans written to {path}", file=sys.stderr)
    print(json.dumps({"correct": error is None, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())

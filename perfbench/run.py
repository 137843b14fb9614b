"""Benchmark of escm's causal-query, oracle and diagnose paths.

Run from the root of a checkout:

    python3 perfbench/run.py --workload query --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload, one after another, each in its
own process.  One run of a workload:

1. pins the numeric libraries to one thread (before numpy loads);
2. sets up the workload's models several times and reports the median
   as ``setup_s``;
3. draws the queries and computes their answers apart from escm;
4. runs one untimed warm-up operation;
5. repeats whole rounds of operations, one caller in a closed loop, until
   ``--seconds`` have passed, checking every answer;
6. prints the environment, then as its last line one JSON object with
   ``correct``, ``attempted``, ``failed`` and the metrics.

Times are scaled to a reference host speed.  This host's speed drifts
by up to a factor of two within minutes, so a fixed pure-Python loop is
timed just before every operation (and around set-up), and the
operation's time is multiplied by REFERENCE_CALIBRATION_S over that
loop's time.  The summary line above the JSON prints the unscaled
figures and the loop's median.

With ``--trace 0`` the metrics are the end-to-end ones; ``--trace 1``
wraps escm's public functions in spans (see ``spans.py``), reports the
per-layer metrics and writes the spans under ``perfbench/out/``.  The
exit code is 0 when every answer was correct, 1 when one was wrong and 2
when the checkout holds no escm sources.
"""

import argparse
import os
import sys

# must precede the first numpy import, here and in child processes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOAD_NAMES = ("query", "oracle", "diagnose")
SETUP_REPEATS = 5
CALIBRATION_LOOP = 20_000
REFERENCE_CALIBRATION_S = 1.5e-3  # within the loop's 1.3-2.0 ms on the 2-vCPU reference host
BENCH_DIR = Path(__file__).resolve().parent


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def _environment() -> str:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (f"env nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} scipy={scipy.__version__} "
            f"blas={blas.get('name', '?')}-{blas.get('version', '?')}")


def calibrate() -> float:
    """Seconds one fixed pure-Python loop takes: the host's speed now."""
    started = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc += i * i
    return time.perf_counter() - started


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    import numpy as np

    import escm
    import workloads
    from spans import PER_LAYER, Tracer

    root = Path.cwd().resolve()
    if not Path(escm.__file__).resolve().is_relative_to(root / "src"):
        print(f"escm was imported from {escm.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    setup, prepare = workloads.WORKLOADS[name]
    out_dir = BENCH_DIR / "out" / f"{name}-seed{seed}"

    setup_times = []
    setup_calibration = []
    for _ in range(SETUP_REPEATS):
        setup_calibration += [calibrate() for _ in range(5)]
        started = time.perf_counter()
        w = setup(seed, out_dir)
        setup_times.append(time.perf_counter() - started)
    prepare(w)

    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()

    wrong: list[str] = []
    failed = 0

    def attempt(op):
        nonlocal failed
        started = time.perf_counter()
        try:
            result = op.run()
        except Exception as err:  # a failed operation is counted, not fatal
            failed += 1
            print(f"failed {op.kind}: {type(err).__name__}: {err}", file=sys.stderr)
            return None
        elapsed = time.perf_counter() - started
        error = op.check(result)
        if error is not None:
            wrong.append(f"{op.kind}: {error}")
        return elapsed

    if tracer is not None:
        tracer.op = -2  # warm-up spans are kept but not counted
    attempt(w.ops[0])
    gc.collect()

    latencies = []   # seconds, scaled to the reference speed
    raw_latencies = []
    busy = 0.0       # scaled seconds spent on operations and their checks
    by_kind: dict[str, list[float]] = {}
    calibration = []
    attempted = 0
    started = time.perf_counter()
    while True:
        for op in w.ops:
            calibration.append(calibrate())
            scale = REFERENCE_CALIBRATION_S / calibration[-1]
            if tracer is not None:
                tracer.op = attempted
            op_started = time.perf_counter()
            elapsed = attempt(op)
            busy += (time.perf_counter() - op_started) * scale
            attempted += 1
            if elapsed is not None:
                latencies.append(elapsed * scale)
                raw_latencies.append(elapsed)
                by_kind.setdefault(op.kind, []).append(elapsed)
        wall = time.perf_counter() - started
        if wall >= seconds:
            break
    if w.finish is not None:
        error = w.finish()
        if error is not None:
            wrong.append(error)
    if not latencies:
        print("no operation completed", file=sys.stderr)
        return 1

    setup_scale = REFERENCE_CALIBRATION_S / statistics.median(setup_calibration)
    lat_ms = np.asarray(latencies) * 1e3
    raw = {
        "latency_p50_ms": float(np.percentile(raw_latencies, 50)) * 1e3,
        "latency_p90_ms": float(np.percentile(raw_latencies, 90)) * 1e3,
        "ops_per_s": len(latencies) / (wall - sum(calibration)),
        "setup_s": statistics.median(setup_times),
    }
    if tracer is not None:
        op_scale = REFERENCE_CALIBRATION_S / np.asarray(calibration)
        metrics = {key: {"value": value, "unit": PER_LAYER[key][0]}
                   for key, value in tracer.per_layer(op_scale).items()}
        tracer.save(BENCH_DIR / "out" / f"spans-{name}-seed{seed}.npz")
    else:
        metrics = {
            "latency_p50_ms": {"value": float(np.percentile(lat_ms, 50)), "unit": "ms"},
            "latency_p90_ms": {"value": float(np.percentile(lat_ms, 90)), "unit": "ms"},
            "ops_per_s": {"value": len(latencies) / busy, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "setup_s": {"value": raw["setup_s"] * setup_scale, "unit": "s"},
        }
    for message in wrong[:5]:
        print(f"wrong answer: {message}", file=sys.stderr)
    print(_environment())
    print(f"workload={name} seed={seed} attempted={attempted} failed={failed} "
          f"wrong={len(wrong)} seconds={wall:.3f} trace={int(traced)}")
    print("unscaled: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items())
          + f" calibration_ms={statistics.median(calibration) * 1e3:.4f}"
          f" setup_calibration_ms={statistics.median(setup_calibration) * 1e3:.4f}")
    if w.agreement.compared:
        print(f"answers beyond {workloads.REL_TOL:g} relative, before stopping-rule "
              f"slack: {w.agreement.beyond_rel_tol} of {w.agreement.compared}")
    print("median ms by kind: " + " ".join(
        f"{kind}={statistics.median(times) * 1e3:.2f}" for kind, times in by_kind.items()))
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not wrong else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "escm" / "__init__.py").is_file():
        print("run from the root of an escm checkout (src/escm is missing)", file=sys.stderr)
        return 2
    if args.workload == "all":
        code = 0
        for name in WORKLOAD_NAMES:
            child = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)], check=False)
            code = max(code, child.returncode)
        return code
    sys.path.insert(0, str(root / "src"))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

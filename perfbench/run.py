"""Layered benchmark of the relpose engine.

Run from the repository root:

    python3 perfbench/run.py --workload stream-2k --seed 0 --seconds 30 --trace 0

With --trace 0 it prints the end-to-end metrics of untraced passes; with
--trace 1 it runs untraced passes for half the time, then one traced pass,
and prints the per-layer metrics and the tracing overhead.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import reference

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 0
SETUP_REPEATS = 5
MIN_PASSES = 2

# (name, unit, better) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ms_per_frame", "ms", "lower"),
    ("rpe_t_m", "m", "lower"),
)

# Imports relpose and builds one workload's inputs in a fresh interpreter,
# so that every set-up sample pays the import.
_SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.make(sys.argv[3], int(sys.argv[4])).setup()
print(time.perf_counter() - t0)
"""


def machine_block():
    """What a result depends on besides the code: cores, CPU, versions,
    and the BLAS library with its thread count."""
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS") if k in os.environ},
    }


def _blas_threads():
    """Thread count of the loaded OpenBLAS, asked through its own API."""
    import ctypes
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _setup_sample(name, seed, src, probe):
    """One set-up time, scaled by the core speed read around it."""
    before = probe()
    out = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, BENCH_DIR, src, name, str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    seconds = float(out.stdout.strip().splitlines()[-1])
    return seconds * (before + probe()) / 2


def _percentile(values, q):
    import numpy
    return float(numpy.percentile(values, q)) if values else math.nan


def _latency(details, name, values):
    """The median and the highest of p99/p95/p90 that has at least ten
    samples beyond it."""
    details[f"{name}_p50"] = (_percentile(values, 50), "ms")
    for q in (99, 95, 90):
        if len(values) * (100 - q) / 100 >= 10:
            details[f"{name}_p{q}"] = (_percentile(values, q), "ms")
            return


def _run_passes(workload, seconds, probe):
    """Untraced passes over the workload's input: at least MIN_PASSES, then
    more while the longest pass so far still fits in `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass(probe=probe))
        elapsed = time.perf_counter() - start
        longest = max(p.wall_s for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + longest > seconds:
            return passes


def scaled_ms_per_frame(passes):
    """Every pass repeats the same work in the same blocks.  Each block's
    time is scaled to a quiet core by the core speed read just before and
    after it; the median of each block over the passes is kept, and the
    sum is divided by the frames."""
    if len({len(p.blocks) for p in passes}) != 1:
        return math.nan              # a failed pass ended early
    return 1e3 * sum(
        statistics.median(s * speed for s, speed in copies)
        for copies in zip(*(p.blocks for p in passes))) / passes[0].frames


def end_to_end(passes, setup_samples):
    frame_ms = [x for p in passes for x in p.frame_ms]
    values = {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ms_per_frame": scaled_ms_per_frame(passes),
        "rpe_t_m": statistics.median(p.rpe_t for p in passes),
    }
    engine_ms = [x for p in passes for x in p.engine_ms]
    details = {
        "passes": (len(passes), "count"),
        "core_speed": (statistics.median(
            speed for p in passes for _, speed in p.blocks), "ratio"),
        "ms_per_frame_median": (statistics.median(
            1e3 * p.wall_s / p.frames for p in passes), "ms"),
        "frame_samples": (len(frame_ms), "count"),
    }
    _latency(details, "frame_ms", frame_ms)
    if engine_ms:
        _latency(details, "engine_ms", engine_ms)
    units = {name: unit for p in passes for name, (_, unit) in p.details.items()}
    for name, unit in units.items():
        have = [p for p in passes if name in p.details]
        details[name] = (statistics.median(p.details[name][0] for p in have), unit)
    return {name: (values[name], unit) for name, unit, _ in END_TO_END}, details


def _scaled_pass(workload, probe, tracer=None):
    """One pass, and its wall time scaled by the core speed read around it."""
    before = probe()
    result = workload.run_pass(tracer)
    return result, result.wall_s * (before + probe()) / 2


def traced(workload, seconds):
    """Untraced passes for half the time, then one traced pass.  The
    overhead compares wall times scaled to a quiet core, each by the speed
    read just before and after its pass; no probe runs inside a pass."""
    import layers
    import workloads
    probe = reference.Probe(workload.UNIT)
    untraced, walls = [], []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds / 2.0:
        result, wall = _scaled_pass(workload, probe)
        untraced.append(result)
        walls.append(wall)
    tracer = layers.Tracer()
    with tracer:
        workload.setup()
    setup_gen_ms = tracer.ms("oracle.generate_scene", "total")
    tracer.reset()
    result, traced_wall = _scaled_pass(workload, probe, tracer)
    with tracer, tempfile.TemporaryDirectory(dir=".", prefix=".perfbench-") as tmp:
        workloads.write_outputs(result, tmp)
    overhead = traced_wall / statistics.median(walls)
    values = layers.layer_metrics(tracer, result.events, overhead)
    if "oracle.generate_scene_ms" in values:
        values["oracle.generate_scene_ms"] = (
            values["oracle.generate_scene_ms"][0] + setup_gen_ms, "ms")
    for target in tracer.missing:
        print(f"absent: hook target {target} not found", flush=True)
    for name in sorted(tracer.broken):
        print(f"absent: counter of span {name} no longer fits its call", flush=True)
    return values, untraced + [result]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("stream-2k", "offline-100", "robust-sweep"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "relpose", "__init__.py")):
        print("perfbench: src/relpose not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [BENCH_DIR, src]
    import relpose
    if not os.path.abspath(relpose.__file__).startswith(src + os.sep):
        print(f"perfbench: relpose imported from {relpose.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads

    print("machine " + json.dumps(machine_block(), sort_keys=True), flush=True)
    workload = workloads.make(args.workload, args.seed)
    if args.trace:
        workload.setup()
        values, passes = traced(workload, args.seconds)
        details = {}
    else:
        # The first sample warms the file cache and is dropped.
        probe = reference.Probe("interpreter")
        samples = [_setup_sample(args.workload, args.seed, src, probe)
                   for _ in range(SETUP_REPEATS + 1)][1:]
        workload.setup()
        passes = _run_passes(workload, args.seconds,
                             reference.Probe(workload.UNIT))
        values, details = end_to_end(passes, samples)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for name, (value, unit) in {**values, **details}.items():
        print(f"{'metric' if name in values else 'detail'} {name} {value!r} {unit}",
              flush=True)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} operations, {failed} failed", flush=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end benchmark of boundcount.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a boundcount checkout; the package is imported from
./src.  The run times set-up in fresh interpreters, then runs whole rounds
of the workload, each drawn afresh from the seed, until S seconds have
passed, and then checks every output against reference values.  The last
line of standard output is one JSON object: correct, attempted, failed and
the metrics (end-to-end with --trace 0, per-layer with --trace 1).  See
perfbench/README.md.
"""

import ctypes
import os
import sys

# one BLAS thread per process: with OpenBLAS's default threads the small
# per-slice eigh solves of coupled counts became erratic on a busy machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def fix_mmap_threshold() -> None:
    """Fix glibc's mmap threshold at its default, 128 KiB.  Left alone, glibc
    raises the threshold to the size of each large block that is freed, so
    that later arrays of that size are carved from the heap, and the peak
    resident memory comes to depend on the order of earlier requests (81 or
    88 MiB for radial-sweep rounds of the same size).  With the threshold
    fixed, every large array is mapped on its own and unmapped when freed.
    Other C libraries are left as they are."""
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    m_mmap_threshold = -3
    libc.mallopt(m_mmap_threshold, 128 * 1024)


fix_mmap_threshold()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SETUP_REPEATS = 9
OUT_DIR = ".perfbench_out"


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def import_boundcount():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "boundcount", "__init__.py")):
        raise SystemExit(f"error: {src}/boundcount not found; run from a checkout's root")
    sys.path.insert(0, src)
    import boundcount
    if not os.path.abspath(boundcount.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: boundcount imported from {boundcount.__file__}, not {src}")
    return boundcount


def time_setup(paths: list) -> float:
    """Median seconds from starting a fresh interpreter to its "ready"."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, probe, ROOT, *paths],
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            seconds = time.perf_counter() - start
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"error: set-up probe failed (exit {code})")
        times.append(seconds)
    return statistics.median(times)


def peak_rss_mib() -> float:
    """Peak resident memory of this process so far, in MiB.  It is read
    before any output is checked: SciPy and the reference matrices are loaded
    only by the checks, so the figure covers the interpreter, NumPy,
    jsonschema, boundcount and its requests, and the benchmark's record of
    latencies and outputs."""
    if any(name.split(".")[0] == "scipy" for name in sys.modules):
        raise SystemExit("error: SciPy was loaded before the peak memory was read")
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(workload, rec, seconds: float) -> None:
    """Whole rounds until ``seconds`` of wall time have passed."""
    start = time.perf_counter()
    while True:
        before = rec.work()
        workload.round(rec)
        rec.rounds += 1
        rec.round_work.append(rec.work() - before)
        if time.perf_counter() - start >= seconds:
            return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bc = import_boundcount()
    sys.path.insert(0, HERE)
    import layers
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    outdir = os.path.join(ROOT, OUT_DIR, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(outdir)
    try:
        wl = workloads.WORKLOADS[args.workload](bc, args.seed, outdir)
        if args.trace:
            # untraced rounds first, to state the tracing overhead
            plain = workloads.Recorder()
            run_rounds(wl, plain, args.seconds / 3)
            tracer = Tracer()
            layers.instrument(tracer)
            wl.tracer = tracer
            rec = workloads.Recorder()
            run_rounds(wl, rec, args.seconds * 2 / 3)
            traced = statistics.mean(rec.round_work)
            untraced = statistics.mean(plain.round_work)
            rec.settle()
            plain.settle()
            metrics = layers.layer_metrics(tracer, rec.attempted, rec.sweep_points)
            metrics["trace.overhead_pct"] = (100.0 * (traced / untraced - 1.0), "%")
            spans = os.path.join(ROOT, OUT_DIR, f"spans-{args.workload}-s{args.seed}.jsonl")
            tracer.write(spans)
            log(f"{len(tracer.spans)} spans written to {spans}")
            rec.attempted += plain.attempted
            rec.failed += plain.failed
            rec.problems += plain.problems
        else:
            setup_s = time_setup(wl.setup_configs())
            rec = workloads.Recorder()
            run_rounds(wl, rec, args.seconds)
            peak = peak_rss_mib()
            start = time.perf_counter()
            rec.settle()
            log(f"checked {rec.attempted} operations in {time.perf_counter() - start:.1f} s")
            metrics = {"setup_s": (setup_s, "s")}
            metrics.update(workloads.end_to_end(rec))
            metrics["peak_rss_mb"] = (peak, "MiB")
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    kinds = {}
    for kind, _ in rec.requests:
        kinds[kind] = kinds.get(kind, 0) + 1
    log(f"{args.workload} seed={args.seed}: {rec.rounds} rounds, requests {kinds}")
    for problem in rec.problems:
        log(f"FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:16.6f} {unit}")
    result = {"correct": not rec.problems, "attempted": rec.attempted, "failed": rec.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point: one workload, one seed, a fixed measuring window.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 25 --trace 0

Runs timed passes of the workload (see ``workloads.py`` and
``README.md``) until the window is spent, checks every operation's
output digest against ``golden.json``, and prints human-readable lines
followed by one JSON object on the last line of standard output::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics derived
from the traced ones (spans go to ``perfbench/out/``).  ``--workload
all`` runs the four workloads one after another, each in its own
process.  The exit code is 0 only when every operation was correct.

The program under test is imported from ``src/`` next to this
directory and nowhere else; without it the benchmark exits with 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

#: Each of these silently swaps the code under test.
FORBIDDEN_ENV = ("REPRO_EXEC_BACKEND", "REPRO_RISCV_ENGINE")
#: Fresh-interpreter set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 5
WORKLOAD_NAMES = ("explore", "diurnal", "fleet", "riscv")

#: Host-speed probe: CALIBRATION_REPS timings of CALIBRATION_ITERS
#: iterations of a fixed pure-Python loop, per probed vCPU.
CALIBRATION_ITERS = 20000
CALIBRATION_REPS = 5
#: Calibration-loop rate (iterations/s) that timings are scaled to.  Each
#: vCPU of the shared 2-core reference VM runs between about 1.6e6 and
#: 3.8e6, depending on what the host runs beside it, in phases of seconds
#: to minutes, and the workloads slow down and speed up with it.
REFERENCE_SPEED = 2.0e6


class BenchError(Exception):
    """The benchmark cannot run here (exit code 2, no result line)."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def check_environment() -> None:
    for var in FORBIDDEN_ENV:
        if os.environ.get(var):
            raise BenchError(f"{var} is set; unset it, it swaps the code under test")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no repro sources under {SRC}")


def import_program():
    """Import ``repro`` from this checkout's ``src/``, nothing else."""
    check_environment()
    sys.path.insert(0, SRC)
    import repro
    import repro.api  # noqa: F401 - the public surface every workload uses

    if os.path.dirname(os.path.abspath(repro.__file__)) != os.path.join(SRC, "repro"):
        raise BenchError(f"imported repro from {repro.__file__}, not from {SRC}")
    return repro


# ----------------------------------------------------------------------
def canonical_digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return "none"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, filename)
            digest.update(os.path.relpath(path, SRC).encode("utf-8"))
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
    }


def _calibration_loop(n: int) -> float:
    acc = 0.0
    counts = {}
    ring = [0.0] * 64
    for i in range(n):
        x = (i * 2654435761) & 0xFFFF
        ring[i & 63] = ring[(i + 1) & 63] * 0.5 + x
        counts[x & 255] = counts.get(x & 255, 0) + 1
        acc += math.sqrt(x + 1.0)
    return acc


def host_speed(cpus) -> list:
    """Calibration-loop rates (iterations/s), CALIBRATION_REPS per CPU."""
    saved = os.sched_getaffinity(0)
    rates = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            for _ in range(CALIBRATION_REPS):
                t0 = time.perf_counter()
                _calibration_loop(CALIBRATION_ITERS)
                rates.append(CALIBRATION_ITERS / (time.perf_counter() - t0))
    finally:
        os.sched_setaffinity(0, saved)
    return rates


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def time_setup_probes(workload: str, seed: int) -> list:
    """Wall time from a fresh interpreter to the workload's inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120,
        )
        times.append(time.perf_counter() - start)
    return times


# ----------------------------------------------------------------------
def run_workload(args) -> int:
    from workloads import VARIANTS, WORKLOADS

    workload = WORKLOADS[args.workload]
    variant = args.seed % VARIANTS
    if args.setup_probe:
        import_program()
        workload.setup(variant)
        return 0

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    os.environ["REPRO_CHARLIB_CACHE"] = os.path.join(workdir, "charlib")
    try:
        return _measure(args, workload, variant, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workload, variant: int, workdir: str) -> int:
    import_program()
    import tracing

    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as handle:
        golden = json.load(handle)["workloads"].get(workload.name, {})

    tracer = tracing.Tracer(workdir) if args.trace else None
    if tracer is not None:
        tracer.pass_id = "setup"
        patches = tracing.install(tracer)
        with tracer.span("setup"):
            inputs = workload.setup(variant)
        patches.restore()
    else:
        inputs = workload.setup(variant)

    passes = []  # (traced, seconds, work)
    attempted = failed = 0
    problems = []
    cpus = sorted(os.sched_getaffinity(0))
    if workload.processes == 1:
        # A serial workload stays on the one vCPU that host_speed probes;
        # a parallel one is as fast as the slowest vCPU its workers use.
        cpus = cpus[:1]
        os.sched_setaffinity(0, set(cpus))
    min_passes = 4 if args.trace else 3
    start = time.perf_counter()
    speeds = host_speed(cpus)
    while True:
        index = len(passes)
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.pass_id = str(index)
            patches = tracing.install(tracer)
            t0 = time.perf_counter()
            with tracer.span("pass", workload=workload.name):
                result = workload.run_pass(inputs)
            seconds = time.perf_counter() - t0
            patches.restore()
            tracer.collect_workers()
            for name, value in result.counts.items():
                tracer.count(name, value)
        else:
            t0 = time.perf_counter()
            result = workload.run_pass(inputs)
            seconds = time.perf_counter() - t0
        for key, payload, problem in result.ops:
            attempted += 1
            if problem is None:
                expected = golden.get(key)
                if expected is None:
                    problem = "no golden digest for this input"
                elif canonical_digest(workload.canonical(payload)) != expected:
                    problem = "output digest differs from golden"
            if problem is not None:
                failed += 1
                problems.append(f"pass {index} {key}: {problem}")
        passes.append((traced, seconds, result.work))
        speeds += host_speed(cpus)
        elapsed = time.perf_counter() - start
        per_pass = elapsed / len(passes)
        if len(passes) >= min_passes and elapsed + per_pass > args.seconds:
            break

    env = fingerprint()
    print(f"perfbench {workload.name} seed={args.seed} variant={variant} "
          f"window={args.seconds:g}s passes={len(passes)} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    untraced = [p for p in passes if not p[0]]
    rates = [work / seconds for _, seconds, work in untraced]
    print(f"{workload.unit}: raw host-time median {statistics.median(rates):.6g} over "
          f"{len(rates)} passes " "(q1 %.6g, q3 %.6g)" % quartiles(rates))
    for line in problems[:20]:
        print("FAILED " + line)
    print(f"failed_frac: {failed}/{attempted} = {failed / attempted:.6g}")

    summary = {"workload": workload.name, "seed": args.seed, "variant": variant,
               "trace": args.trace, "env": env, "attempted": attempted, "failed": failed,
               "passes": [{"traced": t, "seconds": s, "work": w} for t, s, w in passes]}
    if tracer is None:
        metrics = end_to_end(workload.name, args.seed, passes, rates, speeds, cpus[0], summary)
    else:
        metrics = per_layer(tracer, passes, summary)
        print(f"host speed: {statistics.harmonic_mean(speeds):.6g} calibration iterations/s "
              "(per-layer times are raw host time)")
        spans_path = os.path.join(OUT, f"spans-{workload.name}-seed{args.seed}.jsonl")
        tracer.write_jsonl(spans_path)
        print(f"spans: {os.path.relpath(spans_path, ROOT)} ({len(tracer.spans)} spans)")
    for name, metric in metrics.items():
        print(f"  {name}: {metric['value']:.6g} {metric['unit']}")
    summary["metrics"] = metrics
    with open(os.path.join(OUT, f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def end_to_end(workload: str, seed: int, passes, rates, speeds, cpu: int, summary) -> dict:
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Read before the set-up probes run: only the fleet's pool workers
    # have been reaped by now, so this is the largest worker's peak.
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})  # the probes inherit it
    try:
        speeds += host_speed([cpu])
        setup_times = time_setup_probes(workload, seed)
        speeds += host_speed([cpu])
    finally:
        os.sched_setaffinity(0, saved)
    raw_rate = statistics.median(rates)
    raw_setup = statistics.median(setup_times)
    # One host speed per run: all probe iterations over all probe time.
    # Probes are short snapshots of a speed that flips every second or so;
    # this time average is what a pass of a second or more experiences.
    speed = statistics.harmonic_mean(speeds)
    print("pass_s: " + ", ".join(f"{s:.4f}" for t, s, _ in passes if not t))
    print(f"host speed: {speed:.4g} calibration iterations/s over {len(speeds)} "
          "probes (q1 %.4g, q3 %.4g); " % quartiles(speeds)
          + f"scale x{REFERENCE_SPEED / speed:.4f} to reference {REFERENCE_SPEED:.4g}")
    print(f"raw host time: work_per_s {raw_rate:.6g}, setup_s {raw_setup:.6g}")
    print(f"setup: {SETUP_PROBES} fresh-interpreter probes "
          + ", ".join(f"{t:.4f}" for t in setup_times) + " s")
    summary["host_speed"] = {"reference": REFERENCE_SPEED, "probes": speeds, "median": speed,
                             "raw_work_per_s": raw_rate, "raw_setup_s": raw_setup}
    return {
        "work_per_s": {"value": raw_rate * REFERENCE_SPEED / speed, "unit": "work/s"},
        "setup_s": {"value": raw_setup * speed / REFERENCE_SPEED, "unit": "s"},
        "peak_rss_mb": {"value": (usage_self + usage_children) / 1024.0, "unit": "MB"},
    }


def per_layer(tracer, passes, summary) -> dict:
    import tracing

    by_pass = {}
    for span in tracer.spans:
        by_pass.setdefault(span["pass"], []).append(span)
    layers = []
    self_sums = []
    traced_seconds = []
    for index, (traced, seconds, _) in enumerate(passes):
        if not traced:
            continue
        spans = tracing.PassSpans(by_pass.get(str(index), []))
        layers.append(tracing.layer_metrics(spans, tracer.counts[str(index)]))
        self_sums.append(spans.main_self_sum(tracer.main_pid))
        traced_seconds.append(seconds)
    untraced_s = statistics.median(s for t, s, _ in passes if not t)
    traced_s = statistics.median(traced_seconds)
    self_s = statistics.median(self_sums)
    overhead = traced_s - untraced_s
    # The traced passes' self times (main process) must add up to the
    # untraced pass time to within the tracing overhead.
    additive = abs(self_s - untraced_s) <= abs(overhead) + 1e-3
    print(f"trace: untraced pass {untraced_s:.4f} s, traced pass {traced_s:.4f} s "
          f"(overhead {overhead:+.4f} s, {100 * overhead / untraced_s:+.2f}%), "
          f"self-time sum {self_s:.4f} s "
          f"({'within' if additive else 'NOT within'} the overhead of the untraced pass)")
    summary["trace_overhead"] = {"untraced_pass_s": untraced_s, "traced_pass_s": traced_s,
                                 "self_time_sum_s": self_s}
    setup = tracing.PassSpans(by_pass.get("setup", []))
    metrics = {}
    for name in layers[0]:
        value = statistics.median(layer[name] for layer in layers)
        if name == "riscv.assemble_s":
            value = setup.total("riscv.assemble")
        metrics[name] = {"value": value, "unit": layer_unit(name)}
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "B" if name.endswith("_bytes") else "count"


def run_all(args) -> int:
    """Every workload in its own process; a combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode == 2:
            return 2
        status = status or proc.returncode
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        check_environment()
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

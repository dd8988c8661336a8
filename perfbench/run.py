#!/usr/bin/env python3
"""Benchmark of sadprec's Table-2 pipeline: one command, one workload per process.

    python3 perfbench/run.py --workload stokes-shift-q16 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each run is a closed loop in a single process: passes (set-up, then
the solves one after another) repeat until another pass would end
after ``--seconds``, and there is always at least one pass.  With
``--trace 0`` no wrapper is installed and the end-to-end metrics are
printed; with ``--trace 1`` untraced and traced passes alternate and
the per-layer metrics are printed.  End-to-end times are means
corrected for the shared host's speed by a reference loop timed
alongside (hostspeed.py).  The last line of standard output is a JSON
object with the keys correct, attempted, failed and metrics.
Records, and in traced runs the spans, go to ``perfbench/out/``.
See README.md in this directory for the workloads and the metrics.
"""

import os
import sys

# One BLAS thread: a second one would wait on whichever of the host's
# cores is busy, so timings would follow the other tenants.  OpenBLAS
# splits long dot products by thread count, so the hss inner-step count
# is 4179 here and 4181 with two threads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

# Set-ups outside any pass, at each end of a run: at least this many,
# and more until this many seconds have gone by.
SETUP_REPS = 3
SETUP_SECONDS = 1.5


def fingerprint():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def tail_percentile(samples):
    """Highest of p99.9 / p99 / p90 / p50 with at least ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p, ordered[min(n - 1, int(p / 100.0 * n))]
    return None


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


@dataclass
class Run:
    """What one run measured.

    ``setup_refs`` and ``solve_refs`` are the reference loop's times
    after set-ups and after the untraced passes' parts.
    """

    setup_samples: list = field(default_factory=list)
    plain: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    setup_refs: list = field(default_factory=list)
    solve_refs: list = field(default_factory=list)


def run_workload(workload, seed, seconds, tracer=None):
    """Closed loop of passes; a traced pass follows each untraced one if a tracer is given."""
    from hostspeed import Reference
    from spans import layer_bindings
    from workloads import run_pass

    run, reference = Run(), Reference()

    def setup():
        state, took = timed(workload.setup, seed)
        run.setup_samples.append(took)
        reference.follow(took, run.setup_refs)
        return state

    def extra_setups():
        if tracer is not None:
            return
        end, count = time.perf_counter() + SETUP_SECONDS, 0
        while count < SETUP_REPS or time.perf_counter() < end:
            setup()
            gc.collect()  # so that peak memory does not depend on when the collector ran
            count += 1

    # Set-up is timed at both ends of the run as well as once per pass,
    # so that its mean does not rest on one moment of the machine.
    extra_setups()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        state = setup()
        run.plain.append(run_pass(state, lambda took: reference.follow(took, run.solve_refs)))
        del state  # so that no two set-ups are alive at once
        gc.collect()
        if tracer is not None:
            tracer.install(layer_bindings())
            try:
                run.traced.append(run_pass(workload.setup(seed)))
            finally:
                tracer.uninstall()
            gc.collect()
        now = time.perf_counter()
        if now + (now - t0) > start + seconds:
            extra_setups()
            return run


def metric(value, unit):
    return {"value": value, "unit": unit}


def report(args, fp):
    from hostspeed import slowdown
    from spans import Tracer, layer_metrics, span_totals
    from workloads import RULE, WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    run = run_workload(workload, args.seed, args.seconds, tracer)
    setup_samples, plain, traced = run.setup_samples, run.plain, run.traced
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    from oracle import gate  # imports scipy, so only after peak memory is read

    checks = gate(plain + traced, workload.setup(args.seed).rows, RULE.rel_tol)
    failed = [c for c in checks if not c[1]]
    solve_samples = [p.solve_s for p in plain]
    # Means, not medians: a mean, like the reference loop's, scales with
    # the host's mean speed over the run, which the division cancels.
    k = workload.host_sensitivity
    setup_slowdown, solve_slowdown = slowdown(run.setup_refs) ** k, slowdown(run.solve_refs) ** k

    if args.trace:
        metrics = {name: metric(v, unit) for name, (v, unit) in
                   layer_metrics(tracer.spans, tracer.counts, len(traced)).items()}
        overhead = statistics.mean(p.solve_s for p in traced) / statistics.mean(solve_samples) - 1.0
        metrics["trace.overhead_ratio"] = metric(overhead, "ratio")
    else:
        metrics = {
            "setup_s": metric(statistics.mean(setup_samples) / setup_slowdown, "s"),
            "solve_s": metric(statistics.mean(solve_samples) / solve_slowdown, "s"),
            "outer_steps": metric(statistics.median(p.outer_steps for p in plain), "count"),
            "inner_steps": metric(statistics.median(p.inner_steps for p in plain), "count"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  passes {len(plain)}"
          f"{f' + {len(traced)} traced' if traced else ''}  (closed loop, one process, one solve at a time)")
    print(f"  why: {workload.why}")
    print(f"  machine: {json.dumps(fp)}")
    for name, samples in (("setup_s", setup_samples), ("solve_s", solve_samples)):
        tail = tail_percentile(samples)
        tail_text = f"p{tail[0]:g} {tail[1]:.4f} s" if tail else "no tail percentile (needs > 10 samples)"
        print(f"  {name:<12} median {statistics.median(samples):.4f} s over {len(samples)} samples; {tail_text}")
    for name, samples, refs, factor in (("setup_s", setup_samples, run.setup_refs, setup_slowdown),
                                        ("solve_s", solve_samples, run.solve_refs, solve_slowdown)):
        print(f"  {name:<12} mean {statistics.mean(samples):.4f} s / (host slowdown {slowdown(refs):.3f} over "
              f"{len(refs)} reference samples)^{k:g} = {statistics.mean(samples) / factor:.4f} s (reported)")
    counts = {(p.outer_steps, p.inner_steps) for p in plain + traced}
    print(f"  steps        outer/inner per pass: {', '.join(f'{o}/{i}' for o, i in sorted(counts))}")
    print(f"  fail_ratio   {len(failed)}/{len(checks)} = {len(failed) / len(checks):.4f} ratio")
    for name, _, detail in failed:
        print(f"    FAIL {name}: {detail}")
    if tracer is not None:
        totals = sorted(((self_s, name) for name, (_, _, self_s) in
                         span_totals(tracer.spans).items()), reverse=True)
        print("  largest self times per traced pass: " + ", ".join(
            f"{name} {self_s / len(traced):.3f} s" for self_s, name in totals[:4]))
    width = max(len(k) for k in metrics)
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    result = {"correct": not failed, "attempted": len(checks), "failed": len(failed), "metrics": metrics}
    with open(stem + ".json", "w") as fh:
        json.dump({"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "fingerprint": fp, "passes": len(plain),
                   "setup_samples": setup_samples, "solve_samples": solve_samples,
                   "setup_refs": run.setup_refs, "solve_refs": run.solve_refs,
                   "checks": checks, **result}, fh, indent=1)
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl")
    return result


def run_all(args):
    """Each workload in its own process, so peak memory is per workload."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            raise SystemExit(f"workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        import sadprec
    except ImportError as exc:
        raise SystemExit(f"cannot import sadprec from {SRC}: {exc}")
    if not os.path.abspath(sadprec.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"sadprec was imported from {sadprec.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    result = run_all(args) if args.workload == "all" else report(args, fingerprint())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""madpde benchmark: one workload per process, correctness-gated.

    python3 perfbench/run.py --workload burgers_pretrain --seed 1 \
        --seconds 30 --trace 0

Run from the root of a source checkout (the benchmark imports ``src/madpde``
from there and installs nothing).  The run

1. checks tape gradients and input-derivative jets against central
   differences on a tiny probe of every PDE variant;
2. runs the workload's set-up ``SETUP_REPS`` times (set-up time is the median);
3. runs workload cycles in a closed loop for ``--seconds`` (with ``--trace
   1``: half untraced, half with the span tracer installed);
4. checks the outputs: finite, identical when a cycle repeats, and unchanged
   by tracing;
5. prints one ``name value unit`` line per metric, then one JSON line
   ``{"correct", "attempted", "failed", "metrics"}``, and writes a result file
   with a manifest (and, when tracing, the spans) under ``.perfbench_runs/``.

End-to-end metrics (``--trace 0``), for every workload:

* ``setup_s``      median set-up time;
* ``iter_ms``      median wall time of one training iteration of the
                   workload's loop (pre-training for ``burgers_pretrain``,
                   MAD-L including its periodic evaluation otherwise);
* ``cycle_s``      median wall time of one cycle (see ``workloads``);
* ``peak_rss_mb``  peak resident memory of the process once the first
                   ``min_cycles`` cycles are done.

The report lines before the JSON add the p90 and sample counts, the names
these numbers go by per workload (``pretrain_ms_per_iter``,
``finetune_ms_per_iter``, ``pipeline_s``), ``gen_tasks_s_per_task``,
``failed_ratio`` and the accuracy of what was trained: ``final_rel_l2``
(mean relative L2 error over the first ``min_cycles`` cycles) and, for the
ODE pipeline, ``baseline_rel_l2``.  They are not gated: the accuracy varies
with the task draw far more than a regression bound allows, so accuracy is
held by the correctness checks instead (outputs are compared bit for bit
across repeated cycles and with tracing on).

With ``--trace 1`` the metrics are the per-layer numbers of ``spans`` plus
``trace_overhead.<metric>``: traced minus untraced, for each of the above
(for memory: the size of the span buffers).
A failed check exits with status 1 after printing ``"correct": false``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_runs")
SETUP_REPS = 3

E2E_UNITS = {"setup_s": "s", "iter_ms": "ms", "cycle_s": "s", "peak_rss_mb": "MB"}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_revision() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree of its own."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10, cwd=ROOT)
    except OSError:
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "madpde")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest(args) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(), "platform": platform.platform(),
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


class Failure(Exception):
    """A workload operation raised or produced a wrong output."""


def run_phase(wl, seconds: float, counts: dict) -> tuple[list, float]:
    """Closed loop: at least ``wl.min_cycles`` cycles, then more while a
    typical cycle still ends (more than half of it) within ``seconds``.

    Also returns the peak resident memory once ``min_cycles`` cycles are
    done: a fixed amount of work, so the figure does not grow with the number
    of cycles a faster machine fits in.  (Tape nodes form reference cycles,
    so the garbage of past iterations, about 150 MB each at the Burgers shape,
    waits for the cyclic collector and the peak rises for many iterations.)
    """
    from madpde.oracles import OracleError
    from madpde.trainer import TrainingError
    import gate
    cycles = []
    t_end = time.perf_counter() + seconds
    while len(cycles) < wl.min_cycles or time.perf_counter() + 0.5 * statistics.median(
            c.seconds for c in cycles) < t_end:
        counts["attempted"] += wl.ops_per_cycle
        try:
            cycles.append(wl.cycle(len(cycles)))
        except (TrainingError, OracleError, gate.GateError) as e:
            counts["failed"] += wl.ops_per_cycle
            raise Failure(f"{wl.name} cycle {len(cycles)}: {e}") from e
        if len(cycles) == wl.min_cycles:
            rss = peak_rss_mb()
    return cycles, rss


def check_repeats(name: str, cycles: list, baseline: dict) -> None:
    """Cycles that repeat the same work must give bit-identical outputs."""
    import gate
    for c in cycles:
        if baseline.setdefault(c.work, c.fingerprint) != c.fingerprint:
            raise gate.GateError(f"{name}: a repeated cycle gave different outputs")


def e2e_metrics(setup_times: list, cycles: list, rss: float) -> dict:
    samples = [s for c in cycles for s in c.iter_ms]
    return {
        "setup_s": statistics.median(setup_times),
        "iter_ms": statistics.median(samples),
        "cycle_s": statistics.median(c.seconds for c in cycles),
        "peak_rss_mb": rss,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import madpde  # noqa: F401
        import gate
        import spans
        from workloads import WORKLOADS
    except ImportError as e:
        print(f"error: cannot import the madpde sources under {SRC}: {e}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT_DIR, f"work-{stem}-{os.getpid()}")
    os.makedirs(workdir)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    counts = {"attempted": 0, "failed": 0}
    result = {"manifest": manifest(args)}
    tracer = spans.Tracer()
    correct = True
    metrics, report = {}, {}
    try:
        result["gradient_gate_max_rel_err"] = gate.check_gradients(args.seed)
        gate.check_jets(args.seed)
        setup_times, digests = [], set()
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            digests.add(wl.setup())
            setup_times.append(time.perf_counter() - t0)
        if len(digests) != 1:
            raise gate.GateError("repeated set-ups gave different inputs")

        phase_s = args.seconds / 2 if args.trace else args.seconds
        cycles, rss = run_phase(wl, phase_s, counts)
        repeats: dict = {}
        check_repeats(wl.name, cycles, repeats)
        base = e2e_metrics(setup_times, cycles, rss)
        if hasattr(wl, "check_outputs"):
            wl.check_outputs()

        if not args.trace:
            metrics = {k: (v, E2E_UNITS[k]) for k, v in base.items()}
            samples = [s for c in cycles for s in c.iter_ms]
            guarded = cycles[:wl.min_cycles]
            p90 = statistics.quantiles(samples, n=10, method="inclusive")[-1]
            report = {"iter_ms.p90": (p90, "ms", len(samples)),
                      "final_rel_l2": (statistics.fmean(c.error for c in guarded),
                                       "1", len(guarded)),
                      **wl.report(cycles)}
            for metric, alias in wl.aliases.items():
                report[alias] = (base[metric], E2E_UNITS[metric], len(
                    samples if metric == "iter_ms" else cycles))
        else:
            with spans.Installed(spans.Tracer()):
                t0 = time.perf_counter()
                if wl.setup() not in digests:
                    raise gate.GateError("tracing changed the set-up")
                traced_setup = time.perf_counter() - t0
            with spans.Installed(tracer):
                traced, _ = run_phase(wl, phase_s, counts)
            check_repeats(wl.name, traced, repeats)  # tracing changes no output
            if hasattr(wl, "check_outputs"):
                wl.check_outputs()
            # memory: what the span buffers hold (the process peak is a
            # high-water mark, so traced minus untraced would not isolate it)
            tr = e2e_metrics([traced_setup], traced, rss + tracer.nbytes() / 2**20)
            units = spans.per_layer_units()
            metrics = {k: (v, units[k])
                       for k, v in spans.per_layer_metrics(tracer).items()}
            for k, unit in E2E_UNITS.items():
                metrics[f"trace_overhead.{k}"] = (tr[k] - base[k], unit)
            result["spans"] = len(tracer)
        report["failed_ratio"] = (counts["failed"] / max(counts["attempted"], 1),
                                  "1", counts["attempted"])
    except (Failure, gate.GateError) as e:
        print(f"error: {e}", file=sys.stderr)
        correct = False
        metrics = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    for name, (value, unit, n) in report.items():
        print(f"{name:34s} {value:14.6g} {unit}   (n={n})")

    result.update(correct=correct, counts=counts,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  report={k: {"value": v, "unit": u, "n": n}
                          for k, (v, u, n) in report.items()})
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    if args.trace and len(tracer):
        tracer.save(os.path.join(OUT_DIR, stem + ".spans.npz"))
    print(json.dumps({"correct": correct, "attempted": counts["attempted"],
                      "failed": counts["failed"],
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Training hot-path benchmark: where a Burgers pre-training step's time goes
when its tasks run as one group on one tape, as two task groups or as one
group per task, in turn or at once on two threads, and alternating
perfbench pairs of two source trees.  Writes ``BENCH_hotpath.json``.

    python3 tools/bench_hotpath.py --parent ../bp --change ../bc \\
        --rounds 3 --pairs burgers_pretrain:1601-1610 --out BENCH_hotpath.json

Each tree is a source checkout (``src/madpde`` and ``perfbench/``).  The two
paths must have equal length: the same files run at different speeds from
checkouts at paths of different lengths, which would bias the pairs.

The step table is measured in ``--rounds`` fresh processes of the change
tree (``PYTHONPATH=<tree>/src``), at the ``burgers_pretrain`` shape (10
tasks, M_r 500, M_bc 100, width 64 x 4, latent 16).  Inside a process the
modes alternate rep by rep:

* ``one_tape``: all tasks on one tape on the caller, BLAS at its default;
* ``in_turn``: two groups, one after the other on the caller, with BLAS
  pinned to one thread (as where one CPU is usable);
* ``together``: two groups at once, the first on the worker thread, with
  BLAS pinned to one thread;
* ``per_task_in_turn`` and ``per_task``: the groups of
  ``trainer.task_groups`` (one task each at this shape), in turn on the
  caller, or at once with the first half's on the worker thread, BLAS
  pinned to one thread; ``per_task`` is the step ``trainer.optimize`` takes.

For each mode the table gives the step's wall time and, per group and the
thread it ran on, the wall time of its assembly (forward) and its reverse
sweep.  The perfbench span tracer is written for one thread, so its
per-layer records are corrupt for a step whose groups overlap; this table
is where the saving shows.

The same processes time the crossover that sets ``trainer.GROUP_ELEMENTS``:
for each of ``CROSSOVER_SHAPES``, one pre-training step on one tape against
two groups at once, with one half's hidden-layer values
(``trainer.hidden_values``).  The pairs alternate which tree runs first, one
seed each.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_heldout import pairs  # noqa: E402

MODES = ("one_tape", "in_turn", "together", "per_task_in_turn", "per_task")
REPS = 8
# (family, tasks, M_r, M_bc) of the crossover table: Burgers at width 64 x 4,
# ODE at width 32 x 3 (the ode_pipeline network), latent 16; one half holds
# 32k to 672k hidden-layer values
CROSSOVER_SHAPES = ([("burgers", n, m_r, 100) for n, m_r in
                     ((2, 100), (2, 200), (2, 300), (2, 500), (4, 300), (4, 500),
                      (6, 500), (10, 500))]
                    + [("ode", n, 128, 2) for n in (8, 16, 32, 48, 64, 128)])


def _problem(family: str, n: int, m_r: int, m_bc: int):
    """(tasks, params, Z, batches, cfg) of a pre-training step."""
    import numpy as np
    from madpde import grf, problems, trainer
    from madpde.network import NetworkConfig, init_siren

    if family == "burgers":
        tasks = [problems.BurgersTask(grf.sample_grf(
            grf.BURGERS_GRF, np.random.default_rng([0, i])), 0.01) for i in range(n)]
        net = NetworkConfig(input_dim=2, latent_dim=16, hidden_layers=4, width=64,
                            input_encoding="periodic_x")
    else:
        tasks = [problems.OdeShiftTask(eta) for eta in np.linspace(0.0, 2.0, n)]
        net = NetworkConfig(input_dim=1, latent_dim=16, hidden_layers=3, width=32)
    cfg = trainer.TrainConfig(lr0=1e-3, total_iters=1, M_r=m_r, M_bc=m_bc)
    params = init_siren(net, 0)
    rng = np.random.default_rng(1)
    Z = rng.normal(scale=0.1, size=(n, net.latent_dim))
    batches = [problems.sample_batch(t, m_r, m_bc, rng) for t in tasks]
    return tasks, params, Z, batches, cfg


def measure_crossover() -> list[dict]:
    """Per shape of ``CROSSOVER_SHAPES``: one half's hidden-layer values and
    the step's wall time on one tape and as two groups at once (this tree,
    this process), medians over ``REPS`` alternating reps after one warm-up.
    ``trainer.GROUP_ELEMENTS`` is 0 meanwhile, so that the two groups of
    every shape, however small, run apart."""
    from madpde import trainer

    rows = []
    for family, n, m_r, m_bc in CROSSOVER_SHAPES:
        tasks, params, Z, batches, cfg = _problem(family, n, m_r, m_bc)
        ms = {"one_tape": [], "together": []}
        elements, trainer.GROUP_ELEMENTS = trainer.GROUP_ELEMENTS, 0
        try:
            for rep in range(REPS + 1):
                for mode in list(ms) if rep % 2 == 0 else list(ms)[::-1]:
                    time.sleep(0.1)  # BLAS's threads stop spinning after the step before
                    t = time.perf_counter()
                    trainer._step(tasks, batches, params, Z, cfg, True,
                                  _groups(mode, tasks, cfg, params.config.width))
                    if rep:
                        ms[mode].append(1e3 * (time.perf_counter() - t))
        finally:
            trainer.GROUP_ELEMENTS = elements
        one, two = (statistics.median(ms[m]) for m in ms)
        rows.append({"family": family, "tasks": n, "M_r": m_r, "M_bc": m_bc,
                     "half_values": trainer.hidden_values(tasks[:n // 2], cfg,
                                                          params.config.width),
                     "one_tape_ms": one, "together_ms": two, "ratio": two / one})
    return rows


def _groups(mode: str, tasks, cfg, width: int) -> list[slice]:
    """The task groups of ``trainer._step`` in ``mode``."""
    from madpde import trainer

    n = len(tasks)
    if mode == "one_tape":
        return [slice(0, n)]
    if mode.startswith("per_task"):
        return trainer.task_groups(tasks, cfg, width, True)
    return [slice(0, n // 2), slice(n // 2, n)]


def measure_table() -> dict:
    """Per mode: step wall time and per-group phase times at the
    ``burgers_pretrain`` shape (this tree, this process), medians over
    ``REPS`` alternating reps after one warm-up."""
    import numpy as np
    from madpde import diffcore, trainer

    tasks, params, Z, batches, cfg = _problem("burgers", 10, 500, 100)
    setter = diffcore.BLAS_THREADS

    phases = []  # (thread name, first task, phase, ms) of the running step
    assemble, sweep = trainer.assemble_multitask_loss, trainer.TapedLoss.gradients

    def timed_assemble(step_tasks, *args, **kw):
        t = time.perf_counter()
        loss = assemble(step_tasks, *args, **kw)
        first = next(i for i, task in enumerate(tasks) if task is step_tasks[0])
        phases.append((threading.current_thread().name, first, "assemble",
                       1e3 * (time.perf_counter() - t)))
        loss.first_task = first
        return loss

    def timed_sweep(loss):
        t = time.perf_counter()
        out = sweep(loss)
        phases.append((threading.current_thread().name, loss.first_task,
                       "sweep", 1e3 * (time.perf_counter() - t)))
        return out

    cpus = trainer.usable_cpus

    def step(mode):
        trainer.usable_cpus = (lambda: 1) if mode.endswith("in_turn") else cpus
        phases.clear()
        time.sleep(0.1)  # BLAS's threads stop spinning after the step before
        t = time.perf_counter()
        out = trainer._step(tasks, batches, params, Z, cfg, True,
                            _groups(mode, tasks, cfg, params.config.width))
        ms = 1e3 * (time.perf_counter() - t)
        return ms, list(phases), out

    samples = {m: [] for m in MODES}
    grads = {}
    trainer.assemble_multitask_loss = timed_assemble
    trainer.TapedLoss.gradients = timed_sweep
    try:
        for rep in range(REPS + 1):
            order = MODES if rep % 2 == 0 else MODES[::-1]
            for mode in order:
                ms, ph, out = step(mode)
                grads[mode] = out
                if rep:
                    samples[mode].append((ms, ph))
    finally:
        trainer.assemble_multitask_loss, trainer.TapedLoss.gradients = assemble, sweep
        trainer.usable_cpus = cpus

    table = {}
    for mode, runs in samples.items():
        row = {"step_ms": statistics.median(ms for ms, _ in runs), "groups": []}
        for first in sorted({f for _, ph in runs for _, f, _, _ in ph}):
            threads = {th for _, ph in runs for th, f, _, _ in ph if f == first}
            row["groups"].append({"first_task": first, "threads": sorted(threads), **{
                f"{phase}_ms": statistics.median(
                    sum(v for _, f, p2, v in ph if (f, p2) == (first, phase))
                    for _, ph in runs)
                for phase in ("assemble", "sweep")}})
        table[mode] = row

    ref = grads["one_tape"]

    def rel(a, b):
        return float(np.abs(a - b).max() / np.abs(b).max())

    return {
        "blas_thread_setter": setter is not None,
        "blas_threads": setter[0]() if setter else None,
        "usable_cpus": trainer.usable_cpus(),
        "reps": REPS,
        "table": table,
        # largest difference from the one-tape step, relative to its largest value
        "vs_one_tape": {mode: {"total": rel(g[0], ref[0]), "per_task": rel(g[1], ref[1]),
                               "theta_grad": rel(g[2], ref[2]),
                               "z_grad": rel(g[3], ref[3])}
                        for mode, g in grads.items() if mode != "one_tape"},
        # at once and in turn, for two groups and for the per-task groups
        "together_equals_in_turn": {
            split: all(np.array_equal(a, b) for a, b in zip(grads[m], grads[t]))
            for split, m, t in (("halves", "together", "in_turn"),
                                ("per_task", "per_task", "per_task_in_turn"))},
    }


def step_tables(change: str, rounds: int) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(change), "src"))
    out = []
    for _ in range(rounds):
        res = subprocess.run([sys.executable, os.path.abspath(__file__), "--table-only"],
                             capture_output=True, text=True, env=env, cwd=change,
                             check=True)
        out.append(json.loads(res.stdout.splitlines()[-1]))
        print(json.dumps(out[-1]), file=sys.stderr, flush=True)
    return out


def crossover_summary(tables: list[dict]) -> list[dict]:
    """Per crossover shape: one half's values and, per process, the step
    time of two groups at once over that of one tape."""
    return [{**{k: row[k] for k in ("family", "tasks", "M_r", "M_bc", "half_values")},
             "ratios": [t["crossover"][i]["ratio"] for t in tables]}
            for i, row in enumerate(tables[0]["crossover"])]


def _quartiles(xs) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def _ok(run: dict) -> bool:
    return run["exit"] == 0 and run["correct"] and run["failed"] == 0


def summary(rows: list[dict]) -> dict:
    """Per workload and end-to-end metric, over the pairs whose two runs
    both passed: each side's median and quartiles, and how many pairs the
    change won (lower is better).  Seeds whose runs failed are listed."""
    out = {}
    for wl in sorted({r["workload"] for r in rows}):
        rs = [r for r in rows if r["workload"] == wl]
        out[wl] = {"pairs": len(rs),
                   "failed": {side: [r["seed"] for r in rs if not _ok(r[side])]
                              for side in ("parent", "change")}}
        rs = [r for r in rs if _ok(r["parent"]) and _ok(r["change"])]
        out[wl]["pairs_passed"] = len(rs)
        if len(rs) < 2:
            continue  # no quartiles
        for m in ("setup_s", "iter_ms", "cycle_s", "peak_rss_mb"):
            p = [r["parent"][m] for r in rs]
            c = [r["change"][m] for r in rs]
            out[wl][m] = {"parent": _quartiles(p), "change": _quartiles(c),
                          "change_wins": sum(b < a for a, b in zip(p, c))}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent")
    p.add_argument("--change")
    p.add_argument("--rounds", type=int, default=3,
                   help="fresh processes of the change tree for the step table")
    p.add_argument("--pairs", nargs="*", default=[],
                   help="workload:first-last seed ranges, one perfbench pair per seed")
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--out", default="BENCH_hotpath.json")
    p.add_argument("--table-only", action="store_true",
                   help="print this tree's step table as one JSON line")
    args = p.parse_args(argv)
    if args.table_only:
        print(json.dumps({**measure_table(), "crossover": measure_crossover()}))
        return 0
    lengths = {len(os.path.abspath(tree)) for tree in (args.parent, args.change)}
    if args.pairs and len(lengths) != 1:
        p.error("--parent and --change must be paths of equal length")
    tables = step_tables(args.change, args.rounds) if args.rounds else None
    rows = [row for spec in args.pairs
            for row in pairs(args.parent, args.change, spec, args.seconds)]
    result = {
        "command": " ".join([os.path.basename(sys.executable), "tools/bench_hotpath.py"]
                            + sys.argv[1:]),
        "machine": {"nproc": os.cpu_count(), "processor": platform.processor(),
                    "python": platform.python_version()},
        "step_table": tables,
        "crossover": crossover_summary(tables) if tables else None,
        "summary": summary(rows) if rows else None,
        "pairs": rows,
    }
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tape memory benchmark: the tracemalloc peak of one training step at each
benchmark shape, and the bytes its tape keeps reachable, for two source
trees.  Optionally also the perfbench set-up digests and cycle fingerprints
of both trees, and alternating perfbench pairs.  Writes
``BENCH_memory.json``.

    python3 tools/bench_memory.py --parent ../parent --change . \\
        --rounds 3 --fingerprint-seeds 951 952 --fingerprint-cycles 16 \\
        --pairs burgers_pretrain:901-910 --out BENCH_memory.json

Each tree is a source checkout (``src/madpde`` and ``perfbench/``).  Every
step is measured in its own fresh process (``PYTHONPATH=<tree>/src``),
``--rounds`` times per tree, alternating which tree runs first.  A step is
built and swept once as a warm-up, then once more under ``tracemalloc``.
Steps:

* ``burgers_pretrain``: one pre-training step (10 tasks, M_r 500, M_bc 100,
  width 64 x 4, latent 16);
* ``burgers_new_task``: one MAD-L step (frozen weights, one task) plus the
  evaluation on the 13,056-point reference grid (nx 256, nt 50);
* ``ode_pretrain`` and ``ode_L``: the same two kinds of step at the
  ``ode_pipeline`` shape (6 tasks, M_r 128, M_bc 2, width 32 x 3, latent 16).

A step is ``trainer._step`` over the task groups of ``trainer.task_groups``,
as ``trainer.optimize`` runs it.  ``tape_mb_before_sweep`` is what
perfbench's per-layer ``diffcore.tape_mb`` sums, the bytes of ``node.value``
over a tape, for the largest of the step's group tapes, read when its loss
is assembled.  ``grad_sha256`` digests the gradients, so the two trees can
be compared bit for bit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_heldout import pairs  # noqa: E402

STEPS = ("burgers_pretrain", "burgers_new_task", "ode_pretrain", "ode_L")


def _digest(*arrays) -> str:
    import numpy as np
    h = hashlib.sha256()
    for a in arrays:
        if a is not None:
            h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _tape_mb(tape) -> float:
    return sum(node.value.nbytes for node in tape.nodes) / 1e6


def measure_step(name: str) -> dict:
    """One warm-up step, then one step under tracemalloc (this tree, this
    process)."""
    import tracemalloc

    import numpy as np
    from madpde import evaluation, grf, oracles, problems, trainer
    from madpde.network import NetworkConfig, init_siren

    if name.startswith("burgers"):
        tasks = [problems.BurgersTask(grf.sample_grf(
            grf.BURGERS_GRF, np.random.default_rng([0, i])), 0.01) for i in range(11)]
        net = NetworkConfig(input_dim=2, latent_dim=16, hidden_layers=4, width=64,
                            input_encoding="periodic_x")
        cfg = trainer.TrainConfig(lr0=1e-3, total_iters=1, M_r=500, M_bc=100)
        pre, held = tasks[:10], tasks[10]
    else:
        tasks = [problems.OdeShiftTask(e) for e in np.linspace(0.0, 2.0, 7)]
        net = NetworkConfig(input_dim=1, latent_dim=16, hidden_layers=3, width=32)
        cfg = trainer.TrainConfig(lr0=1e-3, total_iters=1, M_r=128, M_bc=2)
        pre, held = tasks[:6], tasks[6]
    params = init_siren(net, 0)
    rng = np.random.default_rng(1)
    if name.endswith("pretrain"):
        step_tasks, trainable = pre, True
        Z = rng.normal(scale=0.01, size=(len(pre), net.latent_dim))
    else:
        step_tasks, trainable = [held], False
        Z = rng.normal(scale=0.01, size=(1, net.latent_dim))
    batches = [problems.sample_batch(t, cfg.M_r, cfg.M_bc, rng) for t in step_tasks]
    grid = None
    if name == "burgers_new_task":
        ref = oracles.burgers_solve(held.u0, held.nu, 256, 50)
        grid = evaluation.for_task(held, reference=ref)
    elif name == "ode_L":
        grid = evaluation.for_task(held)

    groups = trainer.task_groups(step_tasks, cfg, net.width, trainable)
    assemble, tapes = trainer.assemble_multitask_loss, []

    def watched(*args, **kw):
        loss = assemble(*args, **kw)
        tapes.append(_tape_mb(loss.tape))
        return loss

    def step():
        tapes.clear()
        trainer.assemble_multitask_loss = watched
        try:
            out = trainer._step(step_tasks, batches, params, Z, cfg, trainable, groups)
        finally:
            trainer.assemble_multitask_loss = assemble
        if grid is not None:
            evaluation.rel_l2(grid, params, Z[0])
        return max(tapes), out[2:]

    step()
    tracemalloc.start()
    tape, grads = step()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {"tracemalloc_peak_mb": peak / 1e6, "groups": len(groups),
            "tape_mb_before_sweep": tape, "grad_sha256": _digest(*grads)}


def fingerprints(seed: int, cycles: int, trace: int) -> dict:
    """Set-up digest and cycle fingerprints of every perfbench workload, run
    from this tree's ``perfbench/`` (the current directory) with the span
    tracer installed when ``trace`` is 1."""
    import contextlib
    import shutil
    import tempfile

    sys.path.insert(0, "perfbench")
    import spans
    from workloads import WORKLOADS

    out = {}
    for wname, cls in WORKLOADS.items():
        workdir = tempfile.mkdtemp(prefix="bench_memory_")
        try:
            ctx = spans.Installed(spans.Tracer()) if trace else contextlib.nullcontext()
            with ctx:
                wl = cls(seed, workdir)
                setup = wl.setup()
                n = cycles if wname == "burgers_new_task" else cls.min_cycles
                prints = [wl.cycle(i).fingerprint for i in range(n)]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        out[wname] = {"setup": setup, "cycles": prints}
    return out


def _run(tree: str, argv: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    res = subprocess.run([sys.executable, os.path.abspath(__file__)] + argv,
                         capture_output=True, text=True, env=env, cwd=tree, check=True)
    return json.loads(res.stdout.splitlines()[-1])


def steps(parent: str, change: str, rounds: int) -> dict:
    """Per step and tree: every process's numbers and their medians."""
    out = {}
    for name in STEPS:
        runs = {"parent": [], "change": []}
        for k in range(rounds):
            order = [("parent", parent), ("change", change)]
            for side, tree in (order if k % 2 == 0 else order[::-1]):
                runs[side].append(_run(tree, ["--step", name]))
        row = {}
        for side, rs in runs.items():
            row[side] = {key: statistics.median(r[key] for r in rs)
                         for key in rs[0] if key != "grad_sha256"}
            row[side]["peak_mb_per_process"] = [round(r["tracemalloc_peak_mb"], 2)
                                                for r in rs]
        digests = {r["grad_sha256"] for rs in runs.values() for r in rs}
        row["gradients_equal"] = len(digests) == 1
        out[name] = row
        print(json.dumps({name: row}), file=sys.stderr, flush=True)
    return out


def compare_fingerprints(parent: str, change: str, seeds: list[int],
                         cycles: int) -> list[dict]:
    out = []
    for seed in seeds:
        for trace in (0, 1):
            argv = ["--fingerprints", str(seed), str(cycles), str(trace)]
            got = {side: _run(tree, argv)
                   for side, tree in (("parent", parent), ("change", change))}
            row = {"seed": seed, "trace": trace,
                   "equal": got["parent"] == got["change"],
                   "workloads": sorted(got["parent"]),
                   "burgers_new_task_cycles": len(got["change"]["burgers_new_task"]["cycles"])}
            out.append(row)
            print(json.dumps(row), file=sys.stderr, flush=True)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent")
    p.add_argument("--change")
    p.add_argument("--rounds", type=int, default=3,
                   help="fresh processes per step and tree")
    p.add_argument("--fingerprint-seeds", type=int, nargs="*", default=[])
    p.add_argument("--fingerprint-cycles", type=int, default=16,
                   help="burgers_new_task cycles per fingerprint run")
    p.add_argument("--pairs", nargs="*", default=[],
                   help="workload:first-last seed ranges, one perfbench pair per seed")
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--out", default="BENCH_memory.json")
    p.add_argument("--step", choices=STEPS,
                   help="print this tree's numbers for one step as one JSON line")
    p.add_argument("--fingerprints", type=int, nargs=3, metavar=("SEED", "CYCLES", "TRACE"),
                   help="print this tree's perfbench digests as one JSON line")
    args = p.parse_args(argv)
    if args.step:
        print(json.dumps(measure_step(args.step)))
        return 0
    if args.fingerprints:
        print(json.dumps(fingerprints(*args.fingerprints)))
        return 0
    result = {
        "command": " ".join([os.path.basename(sys.executable), "tools/bench_memory.py"]
                            + sys.argv[1:]),
        "machine": {"nproc": os.cpu_count(), "processor": platform.processor(),
                    "python": platform.python_version()},
        "steps": steps(args.parent, args.change, args.rounds) if args.rounds else None,
        "fingerprints": compare_fingerprints(args.parent, args.change,
                                             args.fingerprint_seeds,
                                             args.fingerprint_cycles),
        "pairs": [row for spec in args.pairs
                  for row in pairs(args.parent, args.change, spec, args.seconds)],
    }
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Held-out MAD-L benchmark: per-task fine-tune step time when N held-out
tasks are solved one after another or in one ``mad.finetune_L_batch`` run
(whose steps stack them in ``trainer.task_groups``), the wall time of
``madpde finetune --mode L`` on a Burgers task set, and alternating perfbench
pairs of two source trees.  Writes ``BENCH_heldout.json``.

    python3 tools/bench_heldout.py --parent ../parent --change . \\
        --rounds 6 --cli-pairs 10 --pairs ode_pipeline:561-570 \\
        --out BENCH_heldout.json

Each tree is a source checkout (``src/madpde`` and ``perfbench/``).  Step
times are measured in ``--rounds`` fresh processes per tree
(``PYTHONPATH=<tree>/src``), alternating which tree runs first; inside a
process the sequential and the stacked ("batched") mode alternate rep by
rep.  A tree without ``mad.finetune_L_batch`` reports the sequential mode
only.  The Burgers CLI runs and the perfbench pairs alternate which tree
runs first too; run both trees from paths of equal length.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

SIZES = (1, 2, 4, 8)
# (iterations of the short and the long run): their time difference is the
# cost of the extra steps, without the evaluations both runs make
SHAPES = {
    "ode": dict(iters=(20, 120), reps=4),
    "burgers": dict(iters=(2, 12), reps=4),
}


def measure_steps() -> dict:
    """Per-task step milliseconds for every shape, mode and N (this tree,
    this process).  The modes alternate rep by rep, first one then the
    other, so neither gains from running later in the process."""
    import numpy as np
    from madpde import grf, mad, problems
    from madpde.evaluation import EvalGrid
    from madpde.network import NetworkConfig
    from madpde.trainer import TrainConfig

    def ode():
        tasks = [problems.OdeShiftTask(e) for e in np.linspace(0.0, 2.0, 16)]
        net = NetworkConfig(input_dim=1, latent_dim=16, hidden_layers=3, width=32)
        return tasks, net, dict(M_r=128, M_bc=2)

    def burgers():
        tasks = [problems.BurgersTask(grf.sample_grf(
            grf.BURGERS_GRF, np.random.default_rng([0, i])), 0.01) for i in range(16)]
        net = NetworkConfig(input_dim=2, latent_dim=16, hidden_layers=4, width=64,
                            input_encoding="periodic_x")
        return tasks, net, dict(M_r=500, M_bc=100)

    modes = ["sequential"] + (["batched"] if hasattr(mad, "finetune_L_batch") else [])
    out = {}
    for shape, build in (("ode", ode), ("burgers", burgers)):
        tasks, net, batch = build()
        spec = SHAPES[shape]
        pre, held = tasks[:8], tasks[8:]
        ck = mad.pretrain(pre, net, TrainConfig(lr0=1e-3, total_iters=1, **batch))
        pts = np.random.default_rng(0).uniform(0.0, 1.0, (64, net.input_dim))
        grid = EvalGrid(pts, np.ones(64))

        def run(mode, n, iters):
            cfg = TrainConfig(lr0=1e-3, total_iters=iters, eval_every=iters, **batch)
            Z0 = ck.latents[:n]
            t = time.perf_counter()
            if mode == "batched":
                mad.finetune_L_batch(ck, held[:n], Z0, cfg, [grid] * n,
                                     [str(i) for i in range(n)])
            else:
                for i in range(n):
                    mad.finetune_L(ck, held[i], Z0[i], cfg, grid)
            return time.perf_counter() - t

        short, long_ = spec["iters"]
        for n in SIZES:
            per_task = {mode: [] for mode in modes}
            for mode in modes:
                run(mode, n, short)  # warm-up
            for rep in range(spec["reps"]):
                for mode in (modes if rep % 2 == 0 else modes[::-1]):
                    dt = run(mode, n, long_) - run(mode, n, short)
                    per_task[mode].append(1e3 * dt / (long_ - short) / n)
            for mode in modes:
                out[f"{shape}.{mode}.N{n}"] = float(np.median(per_task[mode]))
    return out


def steps_of(tree: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    res = subprocess.run([sys.executable, os.path.abspath(__file__), "--steps-only"],
                         capture_output=True, text=True, env=env, check=True)
    return json.loads(res.stdout.splitlines()[-1])


def steps(parent: str, change: str, rounds: int) -> dict:
    """Per tree, mode and key: the median over processes and each process's
    own median; the trees alternate which runs first.  At N = 1 the change's
    two modes run the same code, so their rows are a control: they must
    agree within their spread."""
    runs = {"parent": [], "change": []}
    for k in range(rounds):
        order = [("parent", parent), ("change", change)]
        for side, tree in (order if k % 2 == 0 else order[::-1]):
            runs[side].append(steps_of(tree))
    out: dict = {}
    for side, per_process in runs.items():
        out[side] = {key: {"median_ms": statistics.median(r[key] for r in per_process),
                           "process_ms": [round(r[key], 4) for r in per_process]}
                     for key in per_process[0]}
    # the control holds if the spreads of the two N = 1 rows overlap
    out["control_N1_overlap"] = {}
    for shape in SHAPES:
        seq, bat = (out["change"][f"{shape}.{mode}.N1"]["process_ms"]
                    for mode in ("sequential", "batched"))
        lo, hi = max(min(seq), min(bat)), min(max(seq), max(bat))
        out["control_N1_overlap"][shape] = lo <= hi
    return out


def cli_config(iters: int) -> dict:
    """A Burgers experiment at the benchmark shape: 10 pre-training tasks and
    4 held-out ones, which ``finetune --mode L`` may stack in one pass."""
    train = {"lr0": 1e-2, "total_iters": iters, "M_r": 500, "M_bc": 100,
             "eval_every": iters, "seed": 0}
    return {"experiment": "burgers_heldout",
            "problem": {"variant": "burgers", "nu": 0.01},
            "tasks": {"n_tasks": 14, "n_pretrain": 10, "seed": 5},
            "network": {"latent_dim": 16, "hidden_layers": 4, "width": 64},
            "pretrain": dict(train, lr0=1e-3, total_iters=2),
            "finetune": dict(train, init_strategy="mean")}


def madpde(tree: str, argv: list[str]) -> float:
    """Wall seconds of one ``madpde`` command run from ``tree``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    t = time.perf_counter()
    subprocess.run([sys.executable, "-m", "madpde.cli"] + argv, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t


def cli_pairs(parent: str, change: str, n: int, iters: int, workdir: str) -> dict:
    """``madpde finetune --mode L`` on the held-out tasks of ``cli_config``,
    wall seconds, in alternating pairs of fresh processes.  Both trees read
    the same tasks and the same checkpoint, made by the parent."""
    os.makedirs(workdir, exist_ok=True)
    cfg, tasks = os.path.join(workdir, "cfg.json"), os.path.join(workdir, "tasks")
    ck = os.path.join(workdir, "pre", "checkpoint.ckpt")
    with open(cfg, "w") as f:
        json.dump(cli_config(iters), f)
    madpde(parent, ["gen-tasks", "--config", cfg, "--out", tasks, "--force"])
    madpde(parent, ["pretrain", "--config", cfg, "--tasks", tasks,
                    "--out", os.path.join(workdir, "pre"), "--force"])
    rows = []
    for k in range(n):
        order = [("parent", parent), ("change", change)]
        if k % 2:
            order.reverse()
        row = {"first": order[0][0]}
        for side, tree in order:
            row[side] = madpde(tree, [
                "finetune", "--config", cfg, "--tasks", tasks, "--checkpoint", ck,
                "--mode", "L", "--out", os.path.join(workdir, side), "--force"])
        rows.append(row)
        print(json.dumps(row), file=sys.stderr, flush=True)
    return {"config": cli_config(iters), "wall_s": rows}


def perfbench(tree: str, workload: str, seed: int, seconds: int) -> dict:
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", "0"], cwd=tree, capture_output=True, text=True)
    line = json.loads(res.stdout.strip().splitlines()[-1])
    return {"exit": res.returncode, "correct": line["correct"],
            "attempted": line["attempted"], "failed": line["failed"],
            **{k: v["value"] for k, v in line["metrics"].items()}}


def pairs(parent: str, change: str, spec: str, seconds: int) -> list[dict]:
    """``workload:first-last`` seeds, one alternating pair per seed."""
    workload, seeds = spec.split(":")
    lo, hi = (int(s) for s in seeds.split("-"))
    out = []
    for k, seed in enumerate(range(lo, hi + 1)):
        order = [("parent", parent), ("change", change)]
        if k % 2:
            order.reverse()
        row = {"workload": workload, "seed": seed, "first": order[0][0]}
        for side, tree in order:
            row[side] = perfbench(tree, workload, seed, seconds)
        out.append(row)
        print(json.dumps(row), file=sys.stderr, flush=True)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent")
    p.add_argument("--change")
    p.add_argument("--pairs", nargs="*", default=[],
                   help="workload:first-last seed ranges, one pair per seed")
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--rounds", type=int, default=3,
                   help="step-time processes per tree")
    p.add_argument("--cli-pairs", type=int, default=0,
                   help="alternating pairs of the Burgers finetune --mode L command")
    p.add_argument("--cli-iters", type=int, default=60)
    p.add_argument("--workdir", default="bench_heldout_runs",
                   help="where the Burgers CLI runs write their files")
    p.add_argument("--out", default="BENCH_heldout.json")
    p.add_argument("--steps-only", action="store_true",
                   help="print this tree's step times as one JSON line")
    args = p.parse_args(argv)
    if args.steps_only:
        print(json.dumps(measure_steps()))
        return 0
    result = {
        "command": " ".join([os.path.basename(sys.executable), "tools/bench_heldout.py"]
                            + sys.argv[1:]),
        "machine": {"nproc": os.cpu_count(), "processor": platform.processor(),
                    "python": platform.python_version()},
        "step_ms_per_task": (steps(args.parent, args.change, args.rounds)
                             if args.rounds else None),
        "burgers_cli_finetune_L": (cli_pairs(args.parent, args.change, args.cli_pairs,
                                             args.cli_iters, args.workdir)
                                   if args.cli_pairs else None),
        "pairs": [row for spec in args.pairs
                  for row in pairs(args.parent, args.change, spec, args.seconds)],
    }
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Evaluation benchmark: what one ``evaluation.rel_l2`` call costs at the
Burgers, Laplace and ODE grids in two source trees, how far a float32
evaluation moves the errors, whether training outputs stay bit-identical,
and alternating perfbench pairs.  Writes ``BENCH_eval.json``.

    python3 tools/bench_eval.py --parent ../parent --change . --rounds 3 \\
        --cli --determinism-seeds 1521 1522 \\
        --pairs burgers_new_task:1501-1510 --out BENCH_eval.json

Each tree is a source checkout (``src/madpde`` and ``perfbench/``); run both
from paths of equal length.  Sections:

* ``measure``: ``--rounds`` fresh processes per tree
  (``PYTHONPATH=<tree>/src``), alternating which tree runs first.  Each
  pre-trains a checkpoint per family (Burgers: 10 tasks, width 64 x 4,
  latent 16, 3 iterations, as perfbench's ``burgers_new_task`` set-up;
  Laplace: the same network on 10 triangles, 3 iterations; ODE: the
  ``ode_pipeline`` shape, 150 iterations), then times ``evaluation.rel_l2``
  on one held-out grid (Burgers 13,056 points from the nx 256 / nt 50
  reference, Laplace 16,384, ODE 128), records the error of every held-out
  task under the first four pre-trained latents, runs MAD-L on three
  Burgers tasks and MAD-LM on one ODE task, and digests their latents,
  weights and probe losses.  Errors are compared across the trees (the
  parent's are float64); digests must be equal.
* ``precision``: in the change tree, float32 predictions against the
  float64 ``network.forward`` on the same grids: the largest change of a
  prediction relative to max|u|, and of a relative L2 error.
* ``cli``: the ``ode_pipeline`` command sequence (plus transfer, MAML and
  eval) run once per tree in ``--workdir``.  Checkpoints, task files and
  ``pretrain_loss.csv`` must be byte-identical; ``convergence.csv``,
  ``summary.json`` and snapshots may differ in their errors only.
* ``determinism``: ``perfbench/run.py`` in the change tree for every
  workload and seed at ``--trace 0`` and ``--trace 1``: exit code,
  correctness and operation counts.
* ``pairs``: ``bench_heldout.pairs``, one alternating pair per seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_heldout import madpde, pairs  # noqa: E402
from bench_memory import _digest  # noqa: E402

FAMILIES = ("burgers", "laplace_triangle", "ode_shift")


def _family(name: str):
    """(checkpoint, held-out tasks, their eval grids) at the benchmark shape."""
    from madpde import evaluation, mad, problems
    from madpde.network import NetworkConfig
    from madpde.trainer import TrainConfig

    fam = problems.family(name)
    if name == "ode_shift":
        tasks = fam.build({"eta_range": [0.0, 2.0]}, 10, 0)
        net = NetworkConfig(input_dim=1, latent_dim=16, hidden_layers=3, width=32)
        cfg = TrainConfig(lr0=1e-3, total_iters=150, M_r=128, M_bc=2)
    else:
        tasks = fam.build({}, 18, 1401)
        net = NetworkConfig(input_dim=2, latent_dim=16, hidden_layers=4, width=64,
                            input_encoding=tasks[0].encoding)
        cfg = TrainConfig(lr0=1e-3, total_iters=3, M_r=500, M_bc=100)
    n_pre = len(tasks) - (2 if name == "ode_shift" else 8)
    ck = mad.pretrain(tasks[:n_pre], net, cfg)
    held = tasks[n_pre:]
    grids = []
    for i, task in enumerate(held):
        ref = (task.solve_reference(256, 50, {}) if task.solve_reference is not None
               else None)
        grids.append(evaluation.for_task(task, ref, seed=n_pre + i))
    return ck, held, grids


def _time_ms(fn, reps: int) -> float:
    fn()
    samples = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        samples.append(1e3 * (time.perf_counter() - t))
    return statistics.median(samples)


def measure() -> dict:
    """This tree's eval times, errors and training digests (one process)."""
    from madpde import evaluation, mad
    from madpde.trainer import TrainConfig

    out = {"rel_l2_ms": {}, "errors": {}}
    fams = {name: _family(name) for name in FAMILIES}
    for name, (ck, held, grids) in fams.items():
        params, z = ck.params(), ck.latents[0]
        reps = 200 if name == "ode_shift" else 20
        out["rel_l2_ms"][name] = _time_ms(
            lambda: evaluation.rel_l2(grids[0], params, z), reps)
        out["errors"][name] = [evaluation.rel_l2(g, params, z)
                               for g in grids for z in ck.latents[:4]]

    ck, held, grids = fams["burgers"]
    fine = TrainConfig(lr0=1e-2, total_iters=30, M_r=500, M_bc=100, eval_every=10)
    Z, errors, losses = [], [], []
    for task, grid in zip(held[:3], grids[:3]):
        z, rec = mad.finetune_L(ck, task, mad.init_latent(task, ck, "nearest"),
                                fine, grid)
        Z.append(z)
        errors += list(rec.errors())
        losses += list(rec.losses())
    out["mad_l_burgers"] = {"digest": _digest(*Z, losses), "errors": errors}

    ck, held, grids = fams["ode_shift"]
    fine = TrainConfig(lr0=1e-3, total_iters=150, M_r=128, M_bc=2, eval_every=50)
    z, theta, rec = mad.finetune_LM(ck, held[0], mad.init_latent(held[0], ck, "nearest"),
                                    fine, grids[0])
    out["mad_lm_ode"] = {"digest": _digest(z, theta, rec.losses()),
                         "errors": list(rec.errors())}
    return out


def precision() -> dict:
    """float32 ``predict`` against the float64 forward (change tree only)."""
    import numpy as np
    from madpde import evaluation, network, oracles

    out = {}
    for name in FAMILIES:
        ck, held, grids = _family(name)
        params = ck.params()
        du, de = 0.0, 0.0
        for grid in grids:
            for z in ck.latents[:4]:
                u64 = network.forward(params, grid.points, z)[:, 0]
                u32 = evaluation.predict(params, z, grid.points)
                du = max(du, float(np.max(np.abs(u32 - u64)) / np.max(np.abs(u64))))
                e64 = oracles.relative_l2(u64, grid.ref_values)
                e32 = oracles.relative_l2(u32, grid.ref_values)
                de = max(de, abs(e32 - e64) / e64)
        out[name] = {"points": int(grids[0].points.shape[0]),
                     "tasks_x_latents": f"{len(grids)} x 4",
                     "max_prediction_change_of_max_u": du,
                     "max_rel_l2_change_relative": de}
    return out


def _max_rel(a, b) -> float:
    return max((abs(x - y) / abs(y) for x, y in zip(a, b)), default=0.0)


def _run(tree: str, argv: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    res = subprocess.run([sys.executable, os.path.abspath(__file__)] + argv,
                         capture_output=True, text=True, env=env, check=True)
    return json.loads(res.stdout.splitlines()[-1])


def measures(parent: str, change: str, rounds: int) -> dict:
    runs = {"parent": [], "change": []}
    for k in range(rounds):
        order = [("parent", parent), ("change", change)]
        for side, tree in (order if k % 2 == 0 else order[::-1]):
            runs[side].append(_run(tree, ["--measure"]))
            print(json.dumps({side: runs[side][-1]["rel_l2_ms"]}), file=sys.stderr,
                  flush=True)
    out = {"rel_l2_ms": {}}
    for name in FAMILIES:
        row = {}
        for side, rs in runs.items():
            per = [r["rel_l2_ms"][name] for r in rs]
            row[side] = {"median_ms": statistics.median(per),
                         "process_ms": [round(v, 3) for v in per]}
        out["rel_l2_ms"][name] = row
    p, c = runs["parent"][0], runs["change"][0]
    out["errors_max_rel_change"] = {name: _max_rel(c["errors"][name], p["errors"][name])
                                    for name in FAMILIES}
    for key in ("mad_l_burgers", "mad_lm_ode"):
        digests = {r[key]["digest"] for rs in runs.values() for r in rs}
        out[key] = {"digests_equal": len(digests) == 1,
                    "errors_max_rel_change": _max_rel(c[key]["errors"],
                                                      p[key]["errors"])}
    return out


def cli_config() -> dict:
    train = {"lr0": 1e-3, "total_iters": 150, "M_r": 128, "M_bc": 2,
             "eval_every": 50, "seed": 0}
    return {"experiment": "ode_eval",
            "problem": {"variant": "ode_shift", "eta_range": [0.2, 2.2]},
            "tasks": {"n_tasks": 8, "n_pretrain": 6, "seed": 1441},
            "network": {"latent_dim": 16, "hidden_layers": 3, "width": 32},
            "pretrain": dict(train),
            "finetune": dict(train, init_strategy="nearest"),
            "baseline": {"meta": {"meta_iters": 20, "inner_steps": 5}}}


def _pipeline(tree: str, d: str, cfg: str) -> None:
    tasks, pre = os.path.join(d, "tasks"), os.path.join(d, "pre")
    ck = os.path.join(pre, "checkpoint.ckpt")
    steps = [["gen-tasks", "--out", tasks], ["pretrain", "--tasks", tasks, "--out", pre]]
    steps += [["finetune", "--tasks", tasks, "--checkpoint", ck, "--mode", m,
               "--out", os.path.join(d, m)] for m in ("L", "LM")]
    steps += [["baseline", "--tasks", tasks, "--method", m, "--out", os.path.join(d, m)]
              for m in ("from-scratch", "transfer", "reptile", "maml")]
    steps += [["eval", "--tasks", tasks, "--checkpoint", ck, "--out",
               os.path.join(d, "eval")]]
    for argv in steps:
        madpde(tree, argv[:1] + ["--config", cfg, "--force"] + argv[1:])


def _numbers(a, b, path=""):
    """Max relative difference of two JSON trees with equal structure."""
    if isinstance(a, dict):
        if a.keys() != b.keys():
            raise ValueError(f"{path}: keys differ")
        return max((_numbers(a[k], b[k], f"{path}/{k}") for k in a), default=0.0)
    if isinstance(a, (int, float)) and not isinstance(a, bool):
        return abs(a - b) / abs(b) if b else float(a != b)
    if a != b:
        raise ValueError(f"{path}: {a!r} != {b!r}")
    return 0.0


def compare_cli(parent: str, change: str, workdir: str) -> dict:
    import numpy as np

    os.makedirs(workdir, exist_ok=True)
    cfg = os.path.join(workdir, "cfg.json")
    with open(cfg, "w") as f:
        json.dump(cli_config(), f)
    dirs = {side: os.path.join(workdir, side) for side in ("parent", "change")}
    for side, tree in (("parent", parent), ("change", change)):
        _pipeline(tree, dirs[side], cfg)
    identical, differing, rel, du = [], [], 0.0, 0.0
    for root, _, files in os.walk(dirs["parent"]):
        for name in sorted(files):
            pa = os.path.join(root, name)
            rp = os.path.relpath(pa, dirs["parent"])
            ca = os.path.join(dirs["change"], rp)
            if name == "manifest.json":
                continue
            with open(pa, "rb") as f, open(ca, "rb") as g:
                if f.read() == g.read():
                    identical.append(rp)
                    continue
            differing.append(rp)  # anything but errors and snapshots raises
            if name == "convergence.csv":
                with open(pa) as f, open(ca) as g:
                    for r, s in zip(csv.DictReader(f), csv.DictReader(g)):
                        err_p, err_c = float(r.pop("rel_l2")), float(s.pop("rel_l2"))
                        if r != s:
                            raise ValueError(f"{rp}: {r} != {s}")
                        rel = max(rel, abs(err_c - err_p) / err_p)
            elif name == "summary.json":
                with open(pa) as f, open(ca) as g:
                    rel = max(rel, _numbers(json.load(g), json.load(f), rp))
            elif name.endswith(".npz"):
                p, c = np.load(pa), np.load(ca)
                if not np.array_equal(p["iterations"], c["iterations"]):
                    raise ValueError(f"{rp}: iterations differ")
                u = p["snapshots"]
                du = max(du, float(np.max(np.abs(c["snapshots"] - u))
                                   / np.max(np.abs(u))))
            else:
                raise ValueError(f"{rp} differs")
    return {"config": cli_config(), "identical": identical, "error_only": differing,
            "errors_max_rel_change": rel, "snapshots_max_change_of_max_u": du}


def determinism(tree: str, seeds: list[int], seconds: int) -> list[dict]:
    out = []
    for seed in seeds:
        for workload in ("burgers_pretrain", "burgers_new_task", "ode_pipeline"):
            for trace in (0, 1):
                res = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload", workload,
                     "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(trace)],
                    cwd=tree, capture_output=True, text=True)
                line = json.loads(res.stdout.strip().splitlines()[-1])
                row = {"workload": workload, "seed": seed, "trace": trace,
                       "exit": res.returncode, "correct": line["correct"],
                       "attempted": line["attempted"], "failed": line["failed"]}
                out.append(row)
                print(json.dumps(row), file=sys.stderr, flush=True)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent")
    p.add_argument("--change")
    p.add_argument("--rounds", type=int, default=3,
                   help="measuring processes per tree")
    p.add_argument("--cli", action="store_true",
                   help="compare the ODE command sequence's outputs of the two trees")
    p.add_argument("--workdir", default="bench_eval_runs",
                   help="where the CLI comparison writes its files")
    p.add_argument("--determinism-seeds", type=int, nargs="*", default=[])
    p.add_argument("--determinism-seconds", type=int, default=20)
    p.add_argument("--pairs", nargs="*", default=[],
                   help="workload:first-last seed ranges, one perfbench pair per seed")
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--out", default="BENCH_eval.json")
    p.add_argument("--measure", action="store_true",
                   help="print this tree's measurements as one JSON line")
    p.add_argument("--precision", action="store_true",
                   help="print this tree's float32 precision as one JSON line")
    args = p.parse_args(argv)
    if args.measure:
        print(json.dumps(measure()))
        return 0
    if args.precision:
        print(json.dumps(precision()))
        return 0
    result = {
        "command": " ".join([os.path.basename(sys.executable), "tools/bench_eval.py"]
                            + sys.argv[1:]),
        "machine": {"nproc": os.cpu_count(), "processor": platform.processor(),
                    "python": platform.python_version()},
        "measure": measures(args.parent, args.change, args.rounds) if args.rounds
        else None,
        "precision": _run(args.change, ["--precision"]),
        "cli": (compare_cli(args.parent, args.change, args.workdir) if args.cli
                else None),
        "determinism": determinism(args.change, args.determinism_seeds,
                                   args.determinism_seconds),
        "pairs": [row for spec in args.pairs
                  for row in pairs(args.parent, args.change, spec, args.seconds)],
    }
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The three benchmark workloads.

Each workload turns the seed into its inputs in ``setup`` and then runs
``cycle`` in a closed loop (one caller, the next cycle starts when the last
one ends).  A cycle is a fixed amount of work, so its accuracy does not
depend on how fast the machine is:

* ``burgers_pretrain``: one MAD pre-training run of ``PRE_ITERS`` iterations
  at the Burgers shape (10 tasks, M_r=500, M_bc=100, width 64 x 4 layers,
  latent 16), stepped one iteration at a time through the bit-exact resume
  so that every iteration is timed.  Network jets and the reverse sweep with
  trainable weights are nearly all of the time; the oracles do no work.
* ``burgers_new_task``: one held-out Burgers task: its reference field at the
  ``gen-tasks`` defaults (nx=256, nt=50), written and read back, then MAD-L
  from a checkpoint pre-trained during set-up.  Frozen weights, 500 rows, a
  13,056-point evaluation grid and the spectral oracle.
* ``ode_pipeline``: the in-process ``cli.main`` sequence gen-tasks ->
  pretrain -> finetune L -> finetune LM -> baseline from-scratch -> baseline
  reptile at the ODE shape (width 32 x 3 layers, M_r=128, latent 16).  Small
  arrays, so per-node Python overhead, Adam, sampling, checkpoint I/O and the
  CLI dominate.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from madpde import cli, evaluation, grf, mad, oracles, problems
from madpde.network import NetworkConfig
from madpde.trainer import TrainConfig

import gate

BURGERS_NU = 0.01
BURGERS_PRETRAIN_TASKS = 10
BURGERS_NET = NetworkConfig(input_dim=2, latent_dim=16, hidden_layers=4, width=64,
                            input_encoding="periodic_x")
# The workload seed draws the tasks; weight and latent initialisation and
# collocation streams use this fixed seed, so that the accuracy guard varies
# with the task draw alone.
TRAIN_SEED = 0


@dataclass
class Cycle:
    """What one cycle did and how long it took."""

    seconds: float
    iter_ms: list[float]       # wall time per training iteration (samples)
    error: float               # accuracy guard: relative L2 of this cycle
    fingerprint: str           # digest of the outputs, for determinism checks
    work: str = ""             # cycles with the same work must match fingerprints
    report: dict = field(default_factory=dict)  # report-only numbers


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def burgers_tasks(seed: int, n: int) -> list[problems.BurgersTask]:
    """Task i draws its initial condition from stream [seed, i], as gen-tasks does."""
    return [problems.BurgersTask(
        grf.sample_grf(grf.BURGERS_GRF, np.random.default_rng([seed, i])),
        BURGERS_NU) for i in range(n)]


class BurgersPretrain:
    name = "burgers_pretrain"
    aliases = {"iter_ms": "pretrain_ms_per_iter"}
    min_cycles = 2
    ops_per_cycle = 1          # one training run
    PRE_ITERS = 8
    IC_POINTS = 256

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self) -> str:
        self.tasks = burgers_tasks(self.seed, BURGERS_PRETRAIN_TASKS)
        self.cfg = TrainConfig(lr0=1e-3, total_iters=self.PRE_ITERS, M_r=500,
                               M_bc=100, seed=TRAIN_SEED)
        # Accuracy guard: the t=0 slice, where the exact solution is u0.
        x = (np.arange(self.IC_POINTS) + 0.5) / self.IC_POINTS
        self.ic_points = np.stack([x, np.zeros_like(x)], axis=1)
        self.ic_values = np.concatenate([grf.evaluate_grf(t.u0, x)
                                         for t in self.tasks])
        # warm-up: one iteration, so allocations and BLAS set-up are done
        ck = mad.pretrain(self.tasks, BURGERS_NET, self.cfg, stop_at=1)
        return _digest(ck.theta, ck.latents)

    def cycle(self, i: int) -> Cycle:
        t0 = time.perf_counter()
        samples = []
        ck = None
        for it in range(self.PRE_ITERS):
            t = time.perf_counter()
            ck = mad.pretrain(self.tasks, BURGERS_NET, self.cfg, stop_at=it + 1,
                              resume_from=ck)
            samples.append(1e3 * (time.perf_counter() - t))
        pred = np.concatenate([evaluation.predict(ck.params(), z, self.ic_points)
                               for z in ck.latents])
        error = oracles.relative_l2(pred, self.ic_values)  # pooled over the tasks
        seconds = time.perf_counter() - t0
        gate.require_finite("pre-training losses", [v for _, v in ck.loss_series])
        gate.require_finite("pre-training checkpoint", ck.theta, ck.latents,
                            ck.adam.m, ck.adam.v)
        gate.require_finite("initial-condition error", error)
        return Cycle(seconds, samples, error, _digest(ck.theta, ck.latents, pred))

    def report(self, cycles: list[Cycle]) -> dict:
        return {}


class BurgersNewTask:
    name = "burgers_new_task"
    aliases = {"iter_ms": "finetune_ms_per_iter"}
    min_cycles = 4
    ops_per_cycle = 2          # one reference solve, one training run
    HELD_OUT = 8
    SETUP_PRE_ITERS = 3
    FINE_ITERS = 30
    NX, NT = 256, 50           # gen-tasks defaults

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> str:
        tasks = burgers_tasks(self.seed, BURGERS_PRETRAIN_TASKS + self.HELD_OUT)
        self.held_out = tasks[BURGERS_PRETRAIN_TASKS:]
        pre_cfg = TrainConfig(lr0=1e-3, total_iters=self.SETUP_PRE_ITERS, M_r=500,
                              M_bc=100, seed=TRAIN_SEED)
        self.ck = mad.pretrain(tasks[:BURGERS_PRETRAIN_TASKS], BURGERS_NET, pre_cfg)
        self.fine_cfg = TrainConfig(lr0=1e-2, total_iters=self.FINE_ITERS, M_r=500,
                                    M_bc=100, eval_every=10, seed=TRAIN_SEED)
        self.cross_checked = False
        gate.require_finite("set-up checkpoint", self.ck.theta, self.ck.latents)
        return _digest(self.ck.theta, self.ck.latents)

    def cycle(self, i: int) -> Cycle:
        k = i % self.HELD_OUT
        task = self.held_out[k]
        path = os.path.join(self.workdir, f"task_{k:04d}.ref")
        t0 = time.perf_counter()
        ref = oracles.burgers_solve(task.u0, task.nu, self.NX, self.NT,
                                    meta={"task_id": BURGERS_PRETRAIN_TASKS + k})
        oracles.save_reference(path, ref)
        ref = oracles.load_reference(path)
        grid = evaluation.for_task(task, reference=ref)
        t1 = time.perf_counter()
        z0 = mad.init_latent(task, self.ck, "nearest")
        z, rec = mad.finetune_L(self.ck, task, z0, self.fine_cfg, grid)
        t2 = time.perf_counter()
        gate.require_finite("reference field", ref.values)
        gate.require_finite("MAD-L errors and losses", rec.errors(), rec.losses(), z)
        if not self.cross_checked:
            gate.check_cross_solver(ref, task.u0, task.nu)
            self.cross_checked = True
        err = float(rec.errors()[-1])
        return Cycle(t2 - t0, [1e3 * (t2 - t1) / self.FINE_ITERS], err,
                     _digest(ref.values, z, rec.errors()), work=f"task {k}",
                     report={"gen_tasks_s_per_task": t1 - t0})

    def report(self, cycles: list[Cycle]) -> dict:
        gen = [c.report["gen_tasks_s_per_task"] for c in cycles]
        return {"gen_tasks_s_per_task": (float(np.median(gen)), "s", len(gen))}


class OdePipeline:
    name = "ode_pipeline"
    aliases = {"iter_ms": "finetune_ms_per_iter", "cycle_s": "pipeline_s"}
    min_cycles = 2
    N_TASKS, N_PRETRAIN = 8, 6
    ITERS = 150
    META = {"meta_iters": 20, "inner_steps": 5}
    # training runs per pipeline: pretrain, then L, LM, from-scratch and
    # reptile on every held-out task
    ops_per_cycle = 1 + 4 * (N_TASKS - N_PRETRAIN)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.runs = 0

    def config(self, iters: int, meta: dict) -> dict:
        lo = float(np.random.default_rng([self.seed, 0x0DE]).uniform(0.0, 0.5))
        train = {"lr0": 1e-3, "total_iters": iters, "M_r": 128, "M_bc": 2,
                 "eval_every": 50, "seed": TRAIN_SEED}
        return {
            "experiment": "ode_pipeline",
            "problem": {"variant": "ode_shift", "eta_range": [lo, lo + 2.0]},
            "tasks": {"n_tasks": self.N_TASKS, "n_pretrain": self.N_PRETRAIN,
                      "seed": self.seed},
            "network": {"latent_dim": 16, "hidden_layers": 3, "width": 32},
            "pretrain": dict(train),
            "finetune": dict(train, init_strategy="nearest"),
            "baseline": {"meta": dict(meta)},
        }

    def _write_config(self, name: str, cfg: dict) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w") as f:
            json.dump(cfg, f)
        return path

    def setup(self) -> str:
        self.cfg_path = self._write_config("ode.json",
                                           self.config(self.ITERS, self.META))
        # warm-up: the whole sequence at two iterations per phase
        warm = self._write_config("warmup.json",
                                  self.config(2, {"meta_iters": 1, "inner_steps": 1}))
        run_dir = os.path.join(self.workdir, "warmup")
        self._pipeline(warm, run_dir)
        shutil.rmtree(run_dir)
        with open(self.cfg_path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()

    def _pipeline(self, cfg_path: str, d: str) -> dict:
        """Run the CLI sequence into ``d``; wall seconds per step."""
        tasks, ck = os.path.join(d, "tasks"), os.path.join(d, "pre", "checkpoint.ckpt")
        steps = [
            ("gen-tasks", ["gen-tasks", "--out", tasks]),
            ("pretrain", ["pretrain", "--tasks", tasks, "--out", os.path.join(d, "pre")]),
            ("finetune_L", ["finetune", "--tasks", tasks, "--checkpoint", ck,
                            "--mode", "L", "--out", os.path.join(d, "L")]),
            ("finetune_LM", ["finetune", "--tasks", tasks, "--checkpoint", ck,
                             "--mode", "LM", "--out", os.path.join(d, "LM")]),
            ("from_scratch", ["baseline", "--tasks", tasks, "--method", "from-scratch",
                              "--out", os.path.join(d, "scratch")]),
            ("reptile", ["baseline", "--tasks", tasks, "--method", "reptile",
                         "--out", os.path.join(d, "reptile")]),
        ]
        walls = {}
        for name, argv in steps:
            argv = argv[:1] + ["--config", cfg_path, "--workers", "1"] + argv[1:]
            t = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            walls[name] = time.perf_counter() - t
            if rc != 0:
                raise gate.GateError(f"madpde {' '.join(argv[:1])} exited with {rc}")
        return walls

    def cycle(self, i: int) -> Cycle:
        self.runs += 1
        d = os.path.join(self.workdir, f"pipeline_{self.runs:03d}")
        t0 = time.perf_counter()
        walls = self._pipeline(self.cfg_path, d)
        seconds = time.perf_counter() - t0
        finals = {}
        for sub, method in [("L", "mad_l"), ("LM", "mad_lm"),
                            ("scratch", "from_scratch"), ("reptile", "reptile")]:
            with open(os.path.join(d, sub, "summary.json")) as f:
                finals[method] = json.load(f)[method]["final_mean"]
        gate.require_finite("pipeline errors", list(finals.values()))
        with open(os.path.join(d, "pre", "pretrain_loss.csv")) as f:
            losses = [float(line.split(",")[1]) for line in f.readlines()[1:]]
        gate.require_finite("pre-training losses", losses)
        self.last_checkpoint = os.path.join(d, "pre", "checkpoint.ckpt")
        held = self.N_TASKS - self.N_PRETRAIN
        report = {
            "gen_tasks_s_per_task": walls["gen-tasks"] / self.N_TASKS,
            "pretrain_ms_per_iter": 1e3 * walls["pretrain"] / self.ITERS,
            "finetune_ms_per_iter": 1e3 * walls["finetune_L"] / (held * self.ITERS),
            "baseline_rel_l2": finals["from_scratch"],
            "mad_lm_rel_l2": finals["mad_lm"],
            "reptile_rel_l2": finals["reptile"],
        }
        return Cycle(seconds, [report["finetune_ms_per_iter"]], finals["mad_l"],
                     _digest(list(finals.values()), losses), report=report)

    def check_outputs(self) -> None:
        """Checkpoint of the last pipeline: loads and holds finite arrays."""
        ck = mad.load_checkpoint(self.last_checkpoint)
        gate.require_finite("pipeline checkpoint", ck.theta, ck.latents,
                            ck.adam.m, ck.adam.v)

    def report(self, cycles: list[Cycle]) -> dict:
        out = {}
        for key, unit in [("gen_tasks_s_per_task", "s"),
                          ("pretrain_ms_per_iter", "ms"),
                          ("baseline_rel_l2", "1"), ("mad_lm_rel_l2", "1"),
                          ("reptile_rel_l2", "1")]:
            vals = [c.report[key] for c in cycles]
            out[key] = (float(np.median(vals)), unit, len(vals))
        return out


WORKLOADS = {w.name: w for w in (BurgersPretrain, BurgersNewTask, OdePipeline)}

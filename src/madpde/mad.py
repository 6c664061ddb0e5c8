"""Meta-auto-decoder engine: pre-train a shared network jointly with
per-task latent codes, then solve new tasks by optimizing the latent alone
(latent-only mode, frozen weights) or jointly with the weights
(latent+model mode, warm-started from the pre-trained weights).

All three run ``trainer.optimize``, whose steps stack the tasks in groups
of ``trainer.task_groups``, one tape per group, so that a step's memory does
not grow with the task count.  When the weights train (pre-training;
latent+model mode, one task at a time on its own copy), the tasks form one
problem.  Over frozen weights each task is its own problem and only another
latent, so latent-only fine-tuning takes all the tasks of one family at once
(``finetune_L_batch``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from . import container, evaluation, problems, trainer
from .benchviz import ConvergenceRecord
from .evaluation import EvalGrid
from .grf import evaluate_grf  # noqa: F401  (perfbench/spans.py traces it here)
from .network import ModelParams, NetworkConfig, init_siren
from .problems import ProblemError, Task
from .trainer import AdamState, TrainConfig, TrainingError

CHECKPOINT_VERSION = 3
_CKPT_MAGIC = b"MADCKPT1"

LATENT_INIT_STD = 0.1
_FINETUNE_STREAM = 0xF17E
INIT_STRATEGIES = ("nearest", "mean", "zero")


class CheckpointError(RuntimeError):
    pass


@dataclass
class Checkpoint:
    net_config: NetworkConfig
    train_config: TrainConfig
    task_ids: list[int]
    tasks: list[Task]
    theta: np.ndarray
    latents: np.ndarray  # (N, latent_dim)
    rng_states: list[dict]
    adam: AdamState
    iteration: int
    loss_series: list[tuple[int, float]]
    final_per_task_loss: Optional[np.ndarray] = None

    def params(self) -> ModelParams:
        return ModelParams(self.theta, self.net_config)


def task_stream(seed: int, task_id: int) -> np.random.Generator:
    return np.random.default_rng([seed, task_id])


def _restore_stream(state: dict) -> np.random.Generator:
    g = np.random.default_rng(0)
    g.bit_generator.state = state
    return g


def pretrain(tasks: Sequence[Task], net_cfg: NetworkConfig, train_cfg: TrainConfig,
             task_ids: Optional[Sequence[int]] = None,
             stop_at: Optional[int] = None,
             resume_from: Optional[Checkpoint] = None) -> Checkpoint:
    """Joint optimization of the shared weights and all per-task latents.

    Per-task randomness (latent init, collocation resampling) comes from a
    task-id-keyed stream, so permuting the task list leaves each task's data
    unchanged.  ``stop_at`` ends the run early (for checkpoint/resume);
    ``resume_from`` continues a checkpoint bit-exactly.
    """
    tasks = list(tasks)
    if not tasks:
        raise TrainingError("need at least one pre-training task")
    task_ids = list(task_ids) if task_ids is not None else list(range(len(tasks)))
    if len(task_ids) != len(tasks):
        raise TrainingError("one id per task required")
    stop_at = train_cfg.total_iters if stop_at is None else stop_at
    if stop_at > train_cfg.total_iters:
        raise TrainingError("stop_at exceeds the configured budget")
    first = 0 if resume_from is None else resume_from.iteration
    if stop_at < first:
        raise TrainingError(f"stop_at {stop_at} is below iteration {first}, "
                            f"where this run starts")

    if resume_from is not None:
        ck = resume_from
        if ck.task_ids != task_ids or ck.net_config != net_cfg \
                or ck.train_config != train_cfg:
            raise CheckpointError("checkpoint does not match this run's setup")
        params, Z, adam = ck.params(), ck.latents, ck.adam
        streams = [_restore_stream(s) for s in ck.rng_states]
        loss_series, start = list(ck.loss_series), ck.iteration
    else:
        params = init_siren(net_cfg, train_cfg.seed)
        adam, loss_series, start = None, [], 0
        streams = [task_stream(train_cfg.seed, tid) for tid in task_ids]
        Z = np.stack([g.normal(0.0, LATENT_INIT_STD, size=net_cfg.latent_dim)
                      for g in streams])

    run = trainer.optimize("pre-training", tasks, streams, params, Z, train_cfg,
                           labels=[f"task {tid}" for tid in task_ids], adam=adam,
                           start=start, stop=stop_at,
                           running_min=min((v for _, v in loss_series), default=np.inf))
    return Checkpoint(
        net_config=net_cfg,
        train_config=train_cfg,
        task_ids=task_ids,
        tasks=tasks,
        theta=run.params.flat,
        latents=run.Z,
        rng_states=[g.bit_generator.state for g in streams],
        adam=run.adam,
        iteration=stop_at,
        loss_series=loss_series + run.losses,
        final_per_task_loss=run.per_task_loss,
    )


# ---------------------------------------------------------------------------
# latent initialization for a new task
# ---------------------------------------------------------------------------

def init_latent(task_new: Task, checkpoint: Checkpoint, strategy: str) -> np.ndarray:
    if strategy not in INIT_STRATEGIES:
        raise ProblemError(f"latent init strategy {strategy!r} is not one of "
                           f"{INIT_STRATEGIES}")
    latents = checkpoint.latents
    if latents.shape[0] < 1:
        raise ProblemError("checkpoint holds no latent vectors")
    if strategy == "zero":
        return np.zeros(checkpoint.net_config.latent_dim)
    if strategy == "mean":
        return latents.mean(axis=0)
    dists = [task_new.distance(t) for t in checkpoint.tasks]
    return latents[int(np.argmin(dists))].copy()


# ---------------------------------------------------------------------------
# fine-tuning
# ---------------------------------------------------------------------------

def _finetune(checkpoint: Checkpoint, tasks: Sequence[Task], Z0: np.ndarray,
              train_cfg: TrainConfig, eval_grids: Sequence[EvalGrid],
              tune_theta: bool, labels: Sequence[str], want_snapshots: bool):
    """Fine-tune the latents of ``tasks`` (one family) from the rows of
    ``Z0`` in one ``trainer.optimize`` run; with ``tune_theta`` (one task
    only) the weights are tuned too.

    Over frozen weights each task is its own problem, so it keeps what it has
    when solved alone: its sampling stream [seed, _FINETUNE_STREAM], guard,
    clip, and eval and probe iterations.  Adam is elementwise, so one Adam
    over the stacked latents is per-task Adam.
    """
    net_cfg = checkpoint.net_config
    latent = net_cfg.latent_dim
    N = len(tasks)
    if N < 1 or len(eval_grids) != N or len(labels) != N:
        raise TrainingError("one eval grid and one label per task required")
    if tune_theta and N != 1:
        raise TrainingError("latent+model fine-tuning takes one task at a time")
    Z = np.array(Z0, dtype=np.float64)
    if N == 1 and Z.shape == (latent,):
        Z = Z[None, :]
    if Z.shape != (N, latent):
        raise ValueError(f"initial latents must have shape ({N}, {latent})"
                         + (f" or ({latent},)" if N == 1 else "")
                         + f", got {Z.shape}")
    streams = [np.random.default_rng([train_cfg.seed, _FINETUNE_STREAM])
               for _ in tasks]
    series, snapshots = [[] for _ in tasks], [[] for _ in tasks]

    def record(it, params, Zc):
        for i, (task, grid) in enumerate(zip(tasks, eval_grids)):
            series[i].append((it, evaluation.rel_l2(grid, params, Zc[i]),
                              trainer.probe_loss(task, params, Zc[i], train_cfg)))
            if want_snapshots:
                snapshots[i].append((it, evaluation.predict(params, Zc[i],
                                                            grid.points)))

    run = trainer.optimize("fine-tuning", tasks, streams, checkpoint.params(), Z,
                           train_cfg, tune_theta=tune_theta, labels=labels,
                           record=record)
    method = "mad_lm" if tune_theta else "mad_l"
    records = [ConvergenceRecord(lab, method, train_cfg.seed, s,
                                 snap if want_snapshots else None)
               for lab, s, snap in zip(labels, series, snapshots)]
    return run.params, run.Z, records


def finetune_L(checkpoint: Checkpoint, task_new: Task, z0: np.ndarray,
               train_cfg: TrainConfig, eval_grid: EvalGrid
               ) -> tuple[np.ndarray, ConvergenceRecord]:
    """Latent-only fine-tuning of one task, labelled "new": the pre-trained
    weights stay frozen."""
    Z, (record,) = finetune_L_batch(checkpoint, [task_new], z0, train_cfg,
                                    [eval_grid], ["new"])
    return Z[0], record


def finetune_L_batch(checkpoint: Checkpoint, tasks: Sequence[Task], Z0: np.ndarray,
                     train_cfg: TrainConfig, eval_grids: Sequence[EvalGrid],
                     labels: Sequence[str], record_snapshots: bool = False
                     ) -> tuple[np.ndarray, list[ConvergenceRecord]]:
    """Latent-only fine-tuning of several tasks of one family at once.  A
    step stacks the collocation points of each group of at most
    ``GROUP_ELEMENTS // hidden_values([task])`` tasks
    (``trainer.task_groups``) row-wise, one forward and one reverse sweep
    per group, the groups in turn, so each task's latent, record and errors
    are bit for bit those of a run over its group alone, and those of
    ``finetune_L`` on it alone up to the rounding of BLAS calls whose row
    count changes."""
    _, Z, records = _finetune(checkpoint, tasks, Z0, train_cfg, eval_grids,
                              tune_theta=False, labels=labels,
                              want_snapshots=record_snapshots)
    return Z, records


def finetune_LM(checkpoint: Checkpoint, task_new: Task, z0: np.ndarray,
                train_cfg: TrainConfig, eval_grid: EvalGrid,
                task_label: str = "new", record_snapshots: bool = False
                ) -> tuple[np.ndarray, np.ndarray, ConvergenceRecord]:
    """Joint latent+weight fine-tuning from the pre-trained initialization."""
    params, Z, (record,) = _finetune(checkpoint, [task_new], z0, train_cfg,
                                     [eval_grid], tune_theta=True,
                                     labels=[task_label],
                                     want_snapshots=record_snapshots)
    return Z[0], params.flat, record


# ---------------------------------------------------------------------------
# checkpoint persistence, in the layout of ``container``
# ---------------------------------------------------------------------------

def save_checkpoint(path: str, ck: Checkpoint) -> None:
    arrays = {
        "theta": ck.theta,
        "latents": ck.latents,
        "adam_m": ck.adam.m,
        "adam_v": ck.adam.v,
    }
    header = {
        "version": CHECKPOINT_VERSION,
        "net_config": asdict(ck.net_config),
        "train_config": asdict(ck.train_config),
        "task_ids": ck.task_ids,
        "tasks": [t.to_json() for t in ck.tasks],
        "rng_states": ck.rng_states,
        "adam_step": ck.adam.step,
        "iteration": ck.iteration,
        "loss_series": ck.loss_series,
        "final_per_task_loss": (None if ck.final_per_task_loss is None
                                else ck.final_per_task_loss.tolist()),
        "arrays": [[k, list(v.shape)] for k, v in arrays.items()],
    }
    container.write(path, _CKPT_MAGIC, header, arrays.values())


def load_checkpoint(path: str) -> Checkpoint:
    header, blocks = container.read(path, _CKPT_MAGIC, "checkpoint", CheckpointError,
                                    lambda h: [shape for _, shape in h["arrays"]])
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {header.get('version')} "
                              f"(version {CHECKPOINT_VERSION} is read; re-run pretrain)")
    with container.header_errors(path, CheckpointError):
        arrays = {name: block for (name, _), block in zip(header["arrays"], blocks)}
        return Checkpoint(
            net_config=NetworkConfig(**header["net_config"]),
            train_config=TrainConfig(**header["train_config"]),
            task_ids=list(header["task_ids"]),
            tasks=[problems.task_from_json(d) for d in header["tasks"]],
            theta=arrays["theta"],
            latents=arrays["latents"],
            rng_states=header["rng_states"],
            adam=AdamState(arrays["adam_m"], arrays["adam_v"], int(header["adam_step"])),
            iteration=int(header["iteration"]),
            loss_series=[(int(i), float(v)) for i, v in header["loss_series"]],
            final_per_task_loss=(None if header["final_per_task_loss"] is None
                                 else np.asarray(header["final_per_task_loss"])),
        )

"""Comparison methods sharing the MAD loss/sampling/evaluation machinery:
plain PINN training from scratch, single-task transfer learning, Reptile,
and first-order MAML.  All of them run latent-free networks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import evaluation, problems, trainer
from .benchviz import ConvergenceRecord
from .evaluation import EvalGrid
from .network import ModelParams, NetworkConfig, init_siren
from .problems import Task
from .trainer import AdamState, TrainConfig, TrainingError

_PINN_STREAM = 0x0B5E
_META_STREAM = 0x4E71


@dataclass(frozen=True)
class MetaConfig:
    """Hyperparameters of the meta-training outer loop."""

    meta_iters: int
    inner_steps: int = 8
    inner_lr: float = 1e-3
    meta_lr: float = 1e-3
    eps0: float = 1.0          # Reptile step toward adapted weights
    anneal_eps: bool = True    # linearly decay eps0 -> 0 over the meta run
    meta_batch: int = 5        # tasks per first-order-MAML meta step
    seed: int = 0

    def __post_init__(self):
        if self.meta_iters < 0 or self.inner_steps < 0:
            raise ValueError("iteration counts must be >= 0")
        if self.inner_lr <= 0 or self.meta_lr <= 0:
            raise ValueError("learning rates must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _require_latent_free(net_cfg: NetworkConfig):
    if net_cfg.latent_dim != 0:
        raise ValueError("baselines run latent-free networks (latent_dim == 0)")


def pinn_train(task: Task, net_cfg: NetworkConfig, cfg: TrainConfig,
               theta0: Optional[np.ndarray] = None,
               eval_grid: Optional[EvalGrid] = None,
               method: str = "from_scratch", task_label: str = "task"
               ) -> tuple[np.ndarray, ConvergenceRecord]:
    """Adam on the physics loss of a single task; the shared workhorse."""
    _require_latent_free(net_cfg)
    params = (init_siren(net_cfg, cfg.seed) if theta0 is None
              else ModelParams(np.asarray(theta0, dtype=np.float64), net_cfg))
    series = []

    def record(it, params, _):
        series.append((it, evaluation.rel_l2(eval_grid, params, None),
                       trainer.probe_loss(task, params, None, cfg)))

    stream = np.random.default_rng([cfg.seed, _PINN_STREAM])
    run = trainer.optimize(method, [task], [stream], params, np.zeros((1, 0)), cfg,
                           record=record if eval_grid is not None else None)
    return run.params.flat, ConvergenceRecord(task_label, method, cfg.seed, series)


def transfer_theta(pretrain_task: Task, net_cfg: NetworkConfig,
                   pre_cfg: TrainConfig) -> np.ndarray:
    """Transfer learning's initialization: weights PINN-trained on one
    source task."""
    theta, _ = pinn_train(pretrain_task, net_cfg, pre_cfg, method="transfer_pre",
                          task_label="pretrain")
    return theta


def inner_adapt(theta: np.ndarray, task: Task, steps: int, inner_lr: float,
                cfg: TrainConfig, net_cfg: NetworkConfig,
                rng: np.random.Generator) -> np.ndarray:
    """k Adam steps from theta on one task (fresh optimizer state)."""
    w = theta.copy()
    adam = AdamState.zeros(w.size)
    for _ in range(steps):
        batch = problems.sample_batch(task, cfg.M_r, cfg.M_bc, rng)
        g, _ = trainer.assemble_multitask_loss([task], [batch], ModelParams(w, net_cfg),
                                               None, cfg).gradients()
        adam, w = trainer.adam_step(adam, w, g, inner_lr, [("theta", 0, w.size)])
    return w


def reptile_theta(tasks: Sequence[Task], net_cfg: NetworkConfig, meta: MetaConfig,
                  fine_cfg: TrainConfig) -> tuple[np.ndarray, list[float]]:
    """Reptile's meta-trained initialization and its meta losses: move it
    toward per-task adapted weights (step size annealed eps0 -> 0)."""
    _require_latent_free(net_cfg)
    theta = init_siren(net_cfg, meta.seed).flat
    rng = np.random.default_rng([meta.seed, _META_STREAM])
    meta_losses = []
    for m in range(meta.meta_iters):
        idx = int(rng.integers(len(tasks)))
        try:
            adapted = inner_adapt(theta, tasks[idx], meta.inner_steps,
                                  meta.inner_lr, fine_cfg, net_cfg, rng)
            eps = meta.eps0
            if meta.anneal_eps:
                eps *= 1.0 - m / max(meta.meta_iters, 1)
            theta = theta + eps * (adapted - theta)
            meta_losses.append(trainer.probe_loss(
                tasks[idx], ModelParams(theta, net_cfg), None, fine_cfg))
        except TrainingError as e:
            raise TrainingError(f"reptile diverged at meta-iteration {m} on task "
                                f"{idx}: {e}") from e
    return theta, meta_losses


def _inner_guard(total: float, running_min: float, step: int,
                 inner_lr: float) -> float:
    """``trainer.check_divergence`` on the loss after ``step`` inner SGD
    steps, whose error names that step and the inner learning rate."""
    try:
        return trainer.check_divergence(total, running_min)
    except TrainingError as e:
        raise TrainingError(f"after inner step {step}, {e}; "
                            f"baseline.meta.inner_lr {inner_lr:g} may be too "
                            f"large") from e


def maml_fo_theta(tasks: Sequence[Task], net_cfg: NetworkConfig, meta: MetaConfig,
                  fine_cfg: TrainConfig) -> tuple[np.ndarray, list[float]]:
    """First-order MAML's meta-trained initialization and its meta losses:
    the meta-gradient of a task is the plain gradient at its inner-adapted
    weights (inner loop: SGD); meta-updates use Adam.  Each task's inner
    losses, the last one included, pass one divergence guard, so an
    ``inner_lr`` too large for the family stops the run at the inner step
    that blew up."""
    _require_latent_free(net_cfg)
    theta = init_siren(net_cfg, meta.seed).flat
    adam = AdamState.zeros(theta.size)
    blocks = [("theta", 0, theta.size)]
    rng = np.random.default_rng([meta.seed, _META_STREAM])
    meta_losses = []
    for m in range(meta.meta_iters):
        picks = rng.choice(len(tasks), size=min(meta.meta_batch, len(tasks)),
                           replace=False)
        grads = np.zeros_like(theta)
        post_loss = 0.0
        for i in picks:
            w, running_min = theta.copy(), np.inf
            try:
                for k in range(meta.inner_steps + 1):
                    batch = problems.sample_batch(tasks[i], fine_cfg.M_r,
                                                  fine_cfg.M_bc, rng)
                    loss = trainer.assemble_multitask_loss(
                        [tasks[i]], [batch], ModelParams(w, net_cfg), None, fine_cfg)
                    running_min = _inner_guard(loss.breakdown.total, running_min,
                                               k, meta.inner_lr)
                    if k == meta.inner_steps:
                        break
                    g, _ = loss.gradients()
                    del loss  # free this tape before the next one is recorded
                    trainer.require_finite(g, "gradient", k + 1, blocks)
                    w = w - meta.inner_lr * g
            except TrainingError as e:
                raise TrainingError(f"maml_fo diverged at meta-iteration {m} in the "
                                    f"inner loop on task {i}: {e}") from e
            g, _ = loss.gradients()
            grads += g
            post_loss += loss.breakdown.total
            del loss  # free this tape before the next one is recorded
        grads /= len(picks)
        try:
            adam, theta = trainer.adam_step(adam, theta, grads, meta.meta_lr, blocks)
        except TrainingError as e:
            raise TrainingError(f"maml_fo diverged at meta-iteration {m}: {e}") from e
        meta_losses.append(post_loss / len(picks))
    return theta, meta_losses

"""Loss assembly, Adam, the step-decay learning rate, and the training loop.

The physics loss of one task is

    mean residual^2 over the interior batch
    + lambda_bc * mean (u - g)^2 over the boundary batch
    + inv_sigma2 * ||z||^2

and a multi-task loss is the sum of per-task losses.  The tasks of one group
share one network forward pass: their collocation points are stacked row-wise
and each task's latent vector is repeated across its rows, which keeps the
reductions deterministic and the BLAS calls large.

``optimize`` is the one loop of pre-training, fine-tuning and PINN training.
Every iteration draws a fresh batch for every task, and one rule,
``task_groups``, decides how the tasks of its steps share tapes, from one
constant: ``GROUP_ELEMENTS`` values in one hidden layer (``hidden_values``).
One call solves each group: it assembles the group's loss on its own tape,
sweeps it once (a tape takes one sweep) and returns plain arrays, so the
tape is gone before the next group in turn is assembled.  The weight
gradients are summed in group order, and the latent gradients and per-task
losses concatenated.

When the weights train, the stacked tasks are one problem, with one
divergence guard and one gradient clip, which ``optimize`` applies once
every group is solved.  A step whose every half holds more than
``GROUP_ELEMENTS`` values is computed as two groups, ``tasks[:N//2]`` and
``tasks[N//2:]``, which run at once, one on a persistent worker thread and
one on the caller, while BLAS is pinned to one thread: BLAS runs only
the GEMMs on two threads, and the rest of a step (the elementwise passes of
the jets and of the reverse sweep, and the Python work per tape node) runs
on the thread that records the tape, so one tape leaves the second CPU idle
outside GEMMs.  At the ``burgers_pretrain`` shape two groups at once took
91 ms per step against 129-156 ms on one tape (``tools/bench_hotpath.py``,
2 processes, 2 CPUs), and two groups with BLAS on two threads ran slower
than one after the other.  BLAS's GEMMs round differently on one thread
than on two, so where one CPU is usable the groups run in turn on the
caller, still pinned, and give the same outputs.  Where the BLAS thread
count cannot be set (``diffcore.BLAS_THREADS``), and for smaller steps, a
step is one group.

Over frozen weights each task is its own problem, with its own guard and
clip, and only another latent, so a step stacks consecutive groups of
k = max(1, GROUP_ELEMENTS // hidden_values([task])) tasks.  They run in turn
on the caller with BLAS as it is, so a step holds one tape at a time, and
``optimize`` runs every task's guard once all are solved.  A task's outputs
are those of its group run alone.
"""

from __future__ import annotations

import contextlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import diffcore as dc
from . import problems
from .diffcore import Tape, Var
from .network import ModelParams, jet_forward, stage_network
from .problems import SampleBatch, Task


class TrainingError(RuntimeError):
    """A failed training step; ``task`` is the index, within the stacked
    batch, of the task it concerns, when one is known."""

    def __init__(self, message: str, task: Optional[int] = None):
        super().__init__(message)
        self.task = task


@dataclass(frozen=True)
class TrainConfig:
    lr0: float
    total_iters: int
    M_r: int
    M_bc: int
    lambda_bc: float = 1.0
    inv_sigma2: float = 1e-4
    eval_every: int = 10
    seed: int = 0
    clip_grad_norm: Optional[float] = None

    def __post_init__(self):
        if self.lr0 <= 0:
            raise ValueError("lr0 must be positive")
        if self.total_iters < 0:
            raise ValueError("total_iters must be >= 0")
        if self.M_r < 1 or self.M_bc < 1:
            raise ValueError("batch sizes must be >= 1")
        if self.inv_sigma2 < 0:
            raise ValueError("inv_sigma2 must be >= 0")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def lr_at(cfg: TrainConfig, iteration: int) -> float:
    """lr0 halved at 40%, 60% and 80% of the total budget."""
    if not 0 <= iteration < max(cfg.total_iters, 1):
        raise ValueError(f"iteration {iteration} outside [0, {cfg.total_iters})")
    T = cfg.total_iters
    passed = sum(iteration >= m for m in (int(0.4 * T), int(0.6 * T), int(0.8 * T)))
    return cfg.lr0 * 0.5 ** passed


@dataclass
class LossBreakdown:
    residual: float
    boundary: float
    reg: float
    total: float


@dataclass
class TapedLoss:
    """A loss recorded on a tape, ready for one reverse sweep."""

    tape: Tape
    total: Var                  # plain float when nothing is trainable
    breakdown: LossBreakdown
    theta: list                 # W, b leaves in layer order; empty when frozen
    z_var: Optional[Var]        # (N, latent) leaf, None when latent_dim == 0
    per_task_loss: np.ndarray   # (N,) physics loss + reg per task

    def gradients(self) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """(d total / d theta_flat, d total / d Z); None for frozen blocks.
        The ``theta`` gradients are flattened in the layout of
        ``ModelParams.flat``.

        The tape's one sweep frees each node's backward closures once used,
        so a step's memory falls while the sweep runs.  A second call raises
        ``DiffError``.
        """
        wrt = list(self.theta)
        if self.z_var is not None:
            wrt.append(self.z_var)
        if not wrt:
            return None, None
        grads = self.tape.gradient(self.total, wrt)
        z_grad = None
        if self.z_var is not None:
            z_grad = grads.pop()
        theta_grad = np.concatenate([g.ravel() for g in grads]) if grads else None
        return theta_grad, z_grad


def assemble_multitask_loss(tasks: Sequence[Task], batches: Sequence[SampleBatch],
                            params: ModelParams, Z: Optional[np.ndarray],
                            cfg: TrainConfig, trainable_theta: bool = True) -> TapedLoss:
    """Sum of per-task physics losses (plus latent regularizers) on one tape."""
    return _assemble(tasks, batches, params, Z, cfg, trainable_theta, True)


def _assemble(tasks, batches, params, Z, cfg, trainable_theta: bool,
              trainable_z: bool) -> TapedLoss:
    """``assemble_multitask_loss``; with ``trainable_z`` False the latents
    are plain arrays, so a loss that trains nothing records no tape node."""
    if len(tasks) == 0:
        raise TrainingError("empty task list")
    if len(tasks) != len(batches):
        raise TrainingError("one batch per task required")
    if any(type(t) is not type(tasks[0]) for t in tasks):
        raise TrainingError("all tasks in a batch must share the PDE variant")
    M_r = batches[0].interior.shape[0]
    M_bc = batches[0].boundary.shape[0]
    if M_r == 0 or M_bc == 0:
        raise TrainingError("empty batch")
    if any(b.interior.shape[0] != M_r or b.boundary.shape[0] != M_bc
           for b in batches):
        raise TrainingError("all tasks must use identical batch sizes")

    N = len(tasks)
    latent = params.config.latent_dim
    tape = Tape()
    weights = stage_network(tape, params, trainable_theta)

    z_in = None
    if latent > 0:
        if Z is None or np.asarray(Z).shape != (N, latent):
            raise TrainingError(f"latent matrix must have shape ({N}, {latent})")
        Z = np.asarray(Z, dtype=np.float64)
        z_in = tape.constant(Z, "Z") if trainable_z else Z

    # interior: stacked residual pass
    X = np.concatenate([b.interior for b in batches], axis=0)
    z_rows = dc.repeat_rows(z_in, M_r) if z_in is not None else None
    orders = tasks[0].directions
    jets = jet_forward(params.config, weights, X, z_rows, orders)
    # each task's per-row residual coefficients, stacked like its rows
    coef = [t.residual_coefficients(b.interior) for t, b in zip(tasks, batches)]
    coef = {k: np.concatenate([c[k] for c in coef]) for k in coef[0]}
    res = tasks[0].residual(jets, coef)
    res_sq = dc.mul(res, res)
    per_task_res = dc.vmean(dc.reshape(res_sq, (N, M_r)), axis=1)
    residual_sum = dc.vsum(per_task_res)

    # boundary: value-only pass
    Xb = np.concatenate([b.boundary for b in batches], axis=0)
    targets = np.concatenate([b.boundary_values for b in batches])
    zb_rows = dc.repeat_rows(z_in, M_bc) if z_in is not None else None
    ub = jet_forward(params.config, weights, Xb, zb_rows, {})[None].val
    mismatch = dc.sub(dc.reshape(ub, (N * M_bc,)), targets)
    per_task_bc = dc.vmean(dc.reshape(dc.mul(mismatch, mismatch), (N, M_bc)), axis=1)
    boundary_sum = dc.vsum(per_task_bc)

    total = dc.add(residual_sum, dc.mul(cfg.lambda_bc, boundary_sum))
    per_task_reg = np.zeros(N)
    if cfg.inv_sigma2 > 0 and z_in is not None:
        per_task_reg_var = dc.mul(cfg.inv_sigma2,
                                  dc.vsum(dc.mul(z_in, z_in), axis=1))
        per_task_reg = dc.value_of(per_task_reg_var)
        total = dc.add(total, dc.vsum(per_task_reg_var))
        reg_val = float(per_task_reg.sum())
    else:
        reg_val = 0.0

    per_task = (dc.value_of(per_task_res)
                + cfg.lambda_bc * dc.value_of(per_task_bc) + per_task_reg)
    if not np.isfinite(dc.value_of(total)):
        bad = np.flatnonzero(~np.isfinite(per_task))
        raise TrainingError("non-finite loss", int(bad[0]) if bad.size else None)

    breakdown = LossBreakdown(
        residual=float(dc.value_of(residual_sum)),
        boundary=float(dc.value_of(boundary_sum)),
        reg=reg_val,
        total=float(dc.value_of(total)),
    )
    theta = [v for pair in weights for v in pair] if trainable_theta else []
    return TapedLoss(tape, total, breakdown, theta,
                     z_in if trainable_z else None, per_task)


# The one batching constant, in values of one hidden layer.  A pre-training
# step runs as two task groups when each half holds more: on 2 CPUs
# ("crossover" in BENCH_hotpath.json, 3 processes) two groups took 0.61-0.97
# of one tape's step time at every Burgers and ODE shape from 132k values per
# half up, and 0.89-1.29 at 32k-83k, where some shapes were slower in every
# process.  A frozen-weight group stacks at most this many, unless one task
# alone holds more: stacked held-out tasks took 0.63-0.87 of the per-task
# step time of one at a time up to 107,520 values (ODE, width 32, 128-512
# rows; Burgers, width 64, 4 x 120 rows), and 0.999-1.02 from 134,400 up
# (Burgers, 2 x 300 and 600 rows).  Re-measured with the tangent sine kernel
# of ``diffcore`` (2 processes each): two groups took 0.67-1.13 of one tape
# from 132k values per half up (0.67 at the burgers_pretrain shape, 672k) and
# 0.92-1.49 at 32k-83k; held-out Burgers tasks (width 64, M_r 100, M_bc 20,
# 26,880 values each) stacked 2, 4 and 8 at a time took 0.81-0.82, 0.71-0.72
# and 0.73-0.75 of the per-task time of one at a time, and at M_r 300,
# M_bc 100 (83,200 values each) 0.99-1.16.
GROUP_ELEMENTS = 1 << 17


def hidden_values(tasks: Sequence[Task], cfg: TrainConfig, width: int) -> int:
    """Values in one hidden layer of ``tasks`` stacked: their interior rows
    times the jet channels, plus their boundary rows, times the width."""
    return sum(cfg.M_r * (1 + sum(t.directions.values())) + cfg.M_bc
               for t in tasks) * width


DIVERGENCE_FACTOR = 1e8  # loss / running minimum at which a run has diverged


def check_divergence(total: float, running_min: float,
                     task: Optional[int] = None) -> float:
    """The new running minimum; raises TrainingError (concerning ``task``)
    once ``total`` exceeds DIVERGENCE_FACTOR times the smallest loss seen
    before it."""
    if 0.0 < running_min and total > DIVERGENCE_FACTOR * running_min:
        raise TrainingError(f"loss {total:.3e} exceeds {DIVERGENCE_FACTOR:.0e} times "
                            f"its running minimum {running_min:.3e}", task)
    return min(running_min, total)


PROBE_STREAM = 0xE7A1  # rng stream of the fixed batch ``probe_loss`` measures on


def probe_loss(task: Task, params: ModelParams, z: Optional[np.ndarray],
               cfg: TrainConfig) -> float:
    """Total loss on one fixed batch, drawn afresh from stream
    [cfg.seed, PROBE_STREAM], so that losses logged at different iterations
    compare like with like.

    Nothing is differentiated, so the weights and the latent stay plain
    arrays and the loss is computed without recording a tape; the total is
    that of ``assemble_multitask_loss(..., trainable_theta=False)`` on the
    one task bit for bit.
    """
    batch = problems.sample_batch(task, cfg.M_r, cfg.M_bc,
                                  np.random.default_rng([cfg.seed, PROBE_STREAM]))
    Z = None if params.config.latent_dim == 0 else np.asarray(z).reshape(1, -1)
    return _assemble([task], [batch], params, Z, cfg, False, False).breakdown.total


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(np.zeros(n), np.zeros(n), 0)


def require_finite(values: np.ndarray, what: str, step: int,
                   blocks: Optional[Sequence[tuple[str, int, int]]] = None) -> None:
    """Raises TrainingError naming ``what``, the step and the first
    non-finite entry of ``values``, as ``block[i]`` when one of the (name,
    start, stop) ``blocks`` holds it."""
    if np.all(np.isfinite(values)):
        return
    bad = int(np.flatnonzero(~np.isfinite(values))[0])
    where = f"index {bad}"
    for name, a, b in blocks or []:
        if a <= bad < b:
            where = f"{name}[{bad - a}]"
            break
    raise TrainingError(f"non-finite {what} at step {step} in {where}")


def adam_step(state: AdamState, variables: np.ndarray, grads: np.ndarray,
              lr: float, blocks: Optional[Sequence[tuple[str, int, int]]] = None
              ) -> tuple[AdamState, np.ndarray]:
    """One Adam update with bias correction; returns fresh (state, variables).
    Raises TrainingError on a non-finite gradient, and on a second moment
    that overflows, whose entries would take no step from then on."""
    if variables.shape != grads.shape:
        raise TrainingError("variable/gradient length mismatch")
    t = state.step + 1
    require_finite(grads, "gradient", t, blocks)
    m = ADAM_BETA1 * state.m + (1 - ADAM_BETA1) * grads
    with np.errstate(over="ignore"):  # an overflow raises just below
        v = ADAM_BETA2 * state.v + (1 - ADAM_BETA2) * grads * grads
    require_finite(v, "Adam second moment", t, blocks)
    m_hat = m / (1 - ADAM_BETA1 ** t)
    v_hat = v / (1 - ADAM_BETA2 ** t)
    new_vars = variables - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return AdamState(m, v, t), new_vars


def clip_gradient(grads: np.ndarray, max_norm: Optional[float]) -> np.ndarray:
    if max_norm is None:
        return grads
    norm = float(np.linalg.norm(grads))
    if norm > max_norm:
        return grads * (max_norm / norm)
    return grads


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------

_worker: Optional[ThreadPoolExecutor] = None
_worker_lock = threading.Lock()


def _group_worker() -> ThreadPoolExecutor:
    """The one worker thread of grouped steps, started on first use."""
    global _worker
    with _worker_lock:
        if _worker is None:
            _worker = ThreadPoolExecutor(1, thread_name_prefix="madpde-group")
        return _worker


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity outside Linux
        return os.cpu_count() or 1


_pin_lock = threading.Lock()
_pin_depth = 0  # grouped steps inside _one_blas_thread
_pin_before = 0  # the BLAS thread count when the first of them entered


@contextlib.contextmanager
def _one_blas_thread():
    """BLAS on one thread inside the block, on its former count once the
    last of the blocks that overlap in time has left.  The count is
    process-wide: GEMMs of other threads in that time run on one thread too."""
    global _pin_depth, _pin_before
    get, put = dc.BLAS_THREADS
    with _pin_lock:
        if _pin_depth == 0:
            _pin_before = get()
            put(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                put(_pin_before)


def task_groups(tasks: Sequence[Task], cfg: TrainConfig, width: int,
                tune_theta: bool) -> list[slice]:
    """The task groups of every step of ``optimize`` (module docstring)."""
    N = len(tasks)
    if not tune_theta:
        k = max(1, GROUP_ELEMENTS // hidden_values(tasks[:1], cfg, width))
        return [slice(a, a + k) for a in range(0, N, k)]
    half = N // 2
    if (dc.BLAS_THREADS is not None
            and hidden_values(tasks[:half], cfg, width) > GROUP_ELEMENTS):
        return [slice(0, half), slice(half, N)]
    return [slice(0, N)]


def _step(tasks, batches, params, Z, cfg, tune_theta: bool, groups: list[slice]):
    """(total, per-task losses, d/d theta_flat, d/d Z) of one step over the
    task ``groups``, None for a frozen block.  One call solves each group:
    it assembles the group's loss on its own tape, sweeps it and returns
    plain arrays, so the tape is freed before the next group in turn is
    assembled.  Two groups over trainable weights run with BLAS pinned to
    one thread (``diffcore.BLAS_THREADS`` must be set), at once where two
    CPUs are usable, else in turn; other groups run in turn with BLAS as it
    is."""

    def solve(g):
        try:
            loss = assemble_multitask_loss(tasks[g], batches[g], params,
                                           None if Z is None else Z[g], cfg,
                                           trainable_theta=tune_theta)
        except TrainingError as e:
            if e.task is not None:
                e.task += g.start  # index in all of ``tasks``
            raise
        return (loss.breakdown.total, loss.per_task_loss, *loss.gradients())

    pinned = tune_theta and len(groups) > 1
    with _one_blas_thread() if pinned else contextlib.nullcontext():
        if pinned and usable_cpus() > 1:
            pending = _group_worker().submit(solve, groups[0])
            try:
                second = solve(groups[1])
            finally:
                # the worker is done before the caller goes on, and its
                # error (the first group's) wins, as when run in turn
                first = pending.result()
            parts = [first, second]
        else:
            parts = [solve(g) for g in groups]
    totals, per_task, g_theta, g_z = zip(*parts)
    return (sum(totals[1:], totals[0]),  # one group's total as it is
            np.concatenate(per_task),
            None if g_theta[0] is None else sum(g_theta[1:], g_theta[0]),
            None if g_z[0] is None else np.concatenate(g_z))


@dataclass
class Optimized:
    params: ModelParams
    Z: np.ndarray                         # (N, latent)
    adam: AdamState
    losses: list[tuple[int, float]]       # (iteration, total loss) of each step
    per_task_loss: Optional[np.ndarray]   # of the last step; None if none ran


def optimize(what: str, tasks: Sequence[Task],
             streams: Sequence[np.random.Generator], params: ModelParams,
             Z: np.ndarray, cfg: TrainConfig, *, tune_theta: bool = True,
             labels: Optional[Sequence[str]] = None,
             adam: Optional[AdamState] = None, start: int = 0,
             stop: Optional[int] = None, running_min: float = np.inf,
             record: Optional[Callable[[int, ModelParams, np.ndarray], None]] = None
             ) -> Optimized:
    """Adam on the stacked loss of ``tasks`` over their (N, latent) latents
    ``Z`` and, with ``tune_theta``, the weights ``params``.

    Iterations ``start`` to ``stop`` (default: the budget) each draw a fresh
    batch for every task from its stream, sweep each group's tape once and
    take a clipped Adam step at ``lr_at``.
    ``record(it, params, Z)`` runs at 0, every ``eval_every`` and at the end.
    Every step runs over the task groups of ``task_groups``.

    When the weights train, the stacked tasks are one problem: one
    divergence guard on the total, seeded with ``running_min``, and one clip
    over the whole gradient.  Over frozen weights each task is its own
    problem, with its own guard and its own clip.  The guards run once the
    step's groups are all solved, before the clip.  Errors read ``"{what}
    diverged at iteration {it}[ on {label}]: {cause}"``, the label only when
    ``labels`` name the tasks and the error concerns one; the labels also
    name the latent blocks of a non-finite gradient.
    """
    N, latent = Z.shape
    P = params.flat.size if tune_theta else 0
    w = np.concatenate([params.flat, Z.ravel()]) if tune_theta else Z.ravel()
    adam = AdamState.zeros(w.size) if adam is None else adam
    blocks = [("theta", 0, P)] if tune_theta else []
    blocks += [(f"latent of {lab}", P + i * latent, P + (i + 1) * latent)
               for i, lab in enumerate(labels or [])]
    guards = [running_min] if tune_theta else [np.inf] * N

    def split(w):
        return (ModelParams(w[:P], params.config) if tune_theta else params,
                w[P:].reshape(N, latent))

    groups = task_groups(tasks, cfg, params.config.width, tune_theta)
    if record is not None and start == 0:
        record(0, *split(w))
    losses, per_task = [], None
    for it in range(start, cfg.total_iters if stop is None else stop):
        batches = [problems.sample_batch(t, cfg.M_r, cfg.M_bc, g)
                   for t, g in zip(tasks, streams)]
        p, Zc = split(w)
        try:
            total, per_task, g_theta, g_z = _step(
                tasks, batches, p, Zc if latent > 0 else None, cfg, tune_theta,
                groups)
            for i, v in enumerate([total] if tune_theta else per_task):
                guards[i] = check_divergence(v, guards[i],
                                             i if len(guards) == N else None)
            g_z = np.zeros((N, 0)) if g_z is None else g_z
            parts = [np.concatenate([g_theta, g_z.ravel()])] if tune_theta else g_z
            grad = np.concatenate([clip_gradient(g, cfg.clip_grad_norm) for g in parts])
            adam, w = adam_step(adam, w, grad, lr_at(cfg, it), blocks)
        except TrainingError as e:
            on = f" on {labels[e.task]}" if labels and e.task is not None else ""
            raise TrainingError(f"{what} diverged at iteration {it}{on}: {e}") from e
        losses.append((it, total))
        if record is not None and ((it + 1) % cfg.eval_every == 0
                                   or it + 1 == cfg.total_iters):
            record(it + 1, *split(w))
    return Optimized(*split(w), adam, losses, per_task)

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
Whether the weights train or not, a step stacks consecutive groups of
k = max(1, GROUP_ELEMENTS // hidden_values([task])) tasks (one at the
``burgers_pretrain`` shape, all six at the ``ode_pipeline`` shape).  One
call solves each group: it assembles the group's loss on its own tape,
sweeps it once (a tape takes one sweep) and returns plain arrays, so the
tape is gone before the next group in its process is assembled, and a
step's memory does not grow with its task count.  The totals and weight
gradients are summed in group order, and the latent gradients and per-task
losses concatenated.

When the weights train, the stacked tasks are one problem, with one
divergence guard and one gradient clip, which ``optimize`` applies once
every group is solved.  A step whose every half holds more than
``GROUP_ELEMENTS`` values runs its halves apart: the groups of
``tasks[:N//2]`` in a persistent worker process and those of
``tasks[N//2:]`` on the caller, at once, each with BLAS on one thread.
BLAS runs only the GEMMs on two threads, and the rest of a step (the
elementwise passes of the jets and of the reverse sweep, and the Python
work per tape node) runs in the process that records the tape, so one
process leaves the second CPU idle outside GEMMs.  A worker thread would
share the caller's interpreter lock: at the ``burgers_pretrain`` shape its
half took 48-60 ms against the caller's 42-53 ms, and ``burgers_pretrain``
``iter_ms`` read 87.2 ms against 77.5 ms with the worker process (medians
of 10 alternating perfbench pairs, 2 CPUs).

Each half's results are summed in group order, then the two halves', so
the outputs do not depend on the process a group ran in; BLAS's GEMMs
round differently on one thread than on two, so where one CPU is usable
the halves run in turn on the caller, still pinned.  Where the BLAS thread
count cannot be set (``diffcore.BLAS_THREADS``), and for smaller steps,
the groups run in turn with BLAS as it is.

The worker is a ``python -c`` child of the caller's interpreter on the
caller's ``sys.path``, which imports this module alone, so a script that
calls ``mad.pretrain`` outside a ``__main__`` guard is not run again, as
``multiprocessing``'s spawn and forkserver would run it; forking would copy
a process that holds BLAS's threads.  It starts at the first step that
runs its halves at once, serves every such step of the process after it
(``mad.pretrain`` is called once per iteration when resumed), and exits
when its input closes: at the caller's exit, or when the caller dies.
Each step pickles its half's tasks, batches, weights, latents, config and
groups over the worker's stdin, and the worker replies on its stdout with
its half's results, or with its ``TrainingError``'s message and task.

At the ``burgers_pretrain`` shape (10 tasks), one task per group with the
halves at once took 72 ms per step and two 5-task groups at once 69 ms,
against 113 ms on one tape and 129-132 ms in turn, and the caller waited
0.3-1.6 ms for the worker's half (``tools/bench_hotpath.py --table-only``,
2 CPUs).  The peak RSS of four iterations of ``mad.pretrain`` read 48.5 MB
in the caller and 40.6 MB in the worker with 10 tasks, and 49.0 and 41.1
MB with 40; with both halves in one process it read 59.7 and 59.9 MB, and
125.8 and 385.2 MB when each half was one tape.

Over frozen weights each task is its own problem, with its own guard and
clip, and only another latent.  The groups run in turn on the caller with
BLAS as it is, and ``optimize`` runs every task's guard once all are
solved.  A task's outputs are those of its group run alone.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import pickle
import signal
import subprocess
import sys
import threading
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
        if not self.lr0 > 0:  # NaN fails every check written this way
            raise ValueError("lr0 must be positive")
        if self.total_iters < 0:
            raise ValueError("total_iters must be >= 0")
        if self.M_r < 1 or self.M_bc < 1:
            raise ValueError("batch sizes must be >= 1")
        if not self.inv_sigma2 >= 0:
            raise ValueError("inv_sigma2 must be >= 0")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.clip_grad_norm is not None and not self.clip_grad_norm > 0:
            raise ValueError(f"clip_grad_norm must be > 0, got {self.clip_grad_norm}")


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


# The one batching constant, in values of one hidden layer.  A group holds
# at most GROUP_ELEMENTS // hidden_values([task]) tasks (at least one), and a
# pre-training step runs its halves apart when each holds more.  Halves at
# once: on 2 CPUs ("crossover" in BENCH_hotpath.json, 3 processes) two groups
# took 0.61-0.97 of one tape's step time at every Burgers and ODE shape from
# 132k values per half up, and 0.89-1.29 at 32k-83k, where some shapes were
# slower in every process; with ``network.jet_forward`` as one node the
# crossover table of ``tools/bench_hotpath.py --table-only`` (2 processes)
# read 0.89-1.5 at 32k-83k values per half and 0.72-1.05 from 132k up.
# Stacking: frozen-weight tasks stacked took 0.63-0.87 of the per-task step
# time of one at a time up to 107,520 values (ODE, width 32, 128-512 rows;
# Burgers, width 64, 4 x 120 rows), and 0.999-1.02 from 134,400 up (Burgers,
# 2 x 300 and 600 rows), on the per-op tape.  With the halves apart, one
# Burgers task per group took the step time of two 5-task groups at the
# burgers_pretrain shape (module docstring).
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


def _halves_apart(tasks: Sequence[Task], cfg: TrainConfig, width: int,
                  tune_theta: bool) -> bool:
    """Whether a step runs ``tasks[:N//2]`` and ``tasks[N//2:]`` apart, with
    BLAS pinned to one thread (module docstring)."""
    return (tune_theta and dc.BLAS_THREADS is not None
            and hidden_values(tasks[:len(tasks) // 2], cfg, width) > GROUP_ELEMENTS)


def task_groups(tasks: Sequence[Task], cfg: TrainConfig, width: int,
                tune_theta: bool) -> list[slice]:
    """The task groups of every step of ``optimize``: consecutive groups of
    k = max(1, GROUP_ELEMENTS // hidden_values([task])) tasks, of each half
    where the halves run apart, else of all ``tasks`` (module docstring)."""
    N = len(tasks)
    k = max(1, GROUP_ELEMENTS // hidden_values(tasks[:1], cfg, width))
    cuts = [0, N // 2, N] if _halves_apart(tasks, cfg, width, tune_theta) else [0, N]
    return [slice(a, min(a + k, stop))
            for start, stop in zip(cuts, cuts[1:]) for a in range(start, stop, k)]


def _solve_groups(tasks, batches, params, Z, cfg, tune_theta: bool,
                  groups: list[slice]):
    """(total, per-task losses, d/d theta_flat, d/d Z) of the task
    ``groups``, None for a frozen block, solved in turn.  One call solves
    each group: it assembles the group's loss on its own tape, sweeps it and
    returns plain arrays, so a group's tape is freed before the next group
    is assembled."""

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

    return _fold(map(solve, groups))


def _fold(parts):
    """The (total, per-task losses, d/d theta_flat, d/d Z) of ``parts``:
    totals and weight gradients summed in order, as the parts come, so that
    one weight gradient sum is alive; per-task losses and latent gradients
    concatenated."""
    parts = iter(parts)
    total, per_task, g_theta, g_z = next(parts)
    per_task, g_z = [per_task], [g_z]
    for t, p, gt, gz in parts:
        total += t
        per_task.append(p)
        if g_theta is not None:
            g_theta += gt  # a fresh array of the first part's
        g_z.append(gz)
    return (total, np.concatenate(per_task), g_theta,
            None if g_z[0] is None else np.concatenate(g_z))


def _serve() -> None:
    """The worker process of grouped steps (``_Worker``): solves the groups
    of each request on its stdin, with BLAS on one thread, and replies on
    its stdout, until its stdin ends.  Any error but a ``TrainingError``
    ends the process, with its traceback on stderr."""
    # Ctrl-C ends the caller, whose exit ends this process between steps
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # a stray print goes to stderr, not into a reply
    get, put = dc.BLAS_THREADS
    put(1)
    while True:
        try:
            tasks, batches, params, Z, cfg, groups = pickle.load(sys.stdin.buffer)
        except EOFError:
            return
        try:
            reply = ("done", _solve_groups(tasks, batches, params, Z, cfg, True, groups),
                     {"blas_threads": get(),
                      "group_sizes": [len(tasks[g]) for g in groups]})
        except TrainingError as e:
            reply = ("error", str(e), e.task)
        try:
            pickle.dump(reply, replies, pickle.HIGHEST_PROTOCOL)
            replies.flush()
        except BrokenPipeError:  # the caller is gone
            return


class _Worker:
    """A running worker process of grouped steps (``_serve``): a child of
    this interpreter, on this process's ``sys.path``, that imports this
    module alone.  Requests and replies are pickles over its stdin and
    stdout; ``report`` holds the BLAS thread count and group sizes of its
    last step."""

    def __init__(self):
        code = (f"import sys; sys.path[:] = sys.argv[1:]; "
                f"from {__name__} import {_serve.__name__} as serve; serve()")
        try:
            self.proc = subprocess.Popen([sys.executable, "-c", code, *sys.path],
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        except OSError as e:
            raise TrainingError(f"cannot start the worker process of grouped "
                                f"steps: {e}") from e
        self.report = None

    def send(self, request) -> None:
        try:
            pickle.dump(request, self.proc.stdin, pickle.HIGHEST_PROTOCOL)
            self.proc.stdin.flush()
        except OSError:  # a broken pipe: the worker is gone
            raise self.lost() from None

    def receive(self):
        """The worker's (total, per-task losses, d/d theta_flat, d/d Z);
        raises its ``TrainingError``."""
        try:
            kind, out, extra = pickle.load(self.proc.stdout)
        except (EOFError, OSError, pickle.UnpicklingError):
            raise self.lost() from None
        if kind == "error":
            raise TrainingError(out, extra)
        self.report = extra
        return out

    def lost(self) -> TrainingError:
        """The error of a worker that has gone, once it is reaped; the next
        grouped step starts a fresh one."""
        global _worker
        _worker = None
        return TrainingError(f"the worker process of grouped steps exited with "
                             f"code {self.stop()}")

    def stop(self) -> int:
        """Closes the worker's stdin, on which it exits, and returns its exit
        code; kills it if it has not exited within 10 s."""
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:  # unsent bytes of a broken pipe
                pass
        try:
            return self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait()


_worker: Optional[_Worker] = None
_worker_lock = threading.Lock()  # one grouped step at a time uses the worker


def _group_worker() -> _Worker:
    """The worker process of grouped steps, started on first use."""
    global _worker
    if _worker is None:
        _worker = _Worker()
    return _worker


def _stop_worker() -> None:
    """Stops the worker process, if one runs; a later grouped step starts a
    fresh one."""
    global _worker
    if _worker is not None:
        _worker.stop()
        _worker = None


def _forget_worker() -> None:
    """In a forked child: the worker serves the parent."""
    global _worker
    _worker = None


atexit.register(_stop_worker)
if hasattr(os, "register_at_fork"):  # not on Windows, which cannot fork
    os.register_at_fork(after_in_child=_forget_worker)


def _step(tasks, batches, params, Z, cfg, tune_theta: bool, groups: list[slice]):
    """(total, per-task losses, d/d theta_flat, d/d Z) of one step over the
    task ``groups``, None for a frozen block.  Where the halves run apart
    (``_halves_apart``) and there are several groups, BLAS is pinned to one
    thread, and the groups that end by ``N//2`` run in the worker process
    while the others run on the caller, at once where two CPUs are usable,
    else in turn on the caller; other groups run in turn with BLAS as it
    is.  Each half's results are summed in group order, then the two
    halves', so the outputs do not depend on the process that ran a
    group."""
    half = len(tasks) // 2
    if not (len(groups) > 1
            and _halves_apart(tasks, cfg, params.config.width, tune_theta)):
        return _solve_groups(tasks, batches, params, Z, cfg, tune_theta, groups)
    first = [g for g in groups if g.stop <= half]
    second = [g for g in groups if g.stop > half]
    with _one_blas_thread():
        if usable_cpus() < 2:
            head = _solve_groups(tasks, batches, params, Z, cfg, True, first)
            rest = _solve_groups(tasks, batches, params, Z, cfg, True, second)
            return _fold([head, rest])
        with _worker_lock:
            worker = _group_worker()
            worker.send((tasks[:half], batches[:half], params,
                         None if Z is None else Z[:half], cfg, first))
            try:
                rest = _solve_groups(tasks, batches, params, Z, cfg, True, second)
            finally:
                # the worker is done before the caller goes on, and its
                # error (an earlier group's) wins, as when run in turn
                head = worker.receive()
    return _fold([head, rest])


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

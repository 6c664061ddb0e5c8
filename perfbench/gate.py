"""Correctness gate run by every benchmark run.

* ``check_gradients``: the tape gradient of
  ``trainer.assemble_multitask_loss`` against central differences, on a tiny
  two-task probe of each PDE variant.
* ``check_jets``: the first and second input derivatives that the loss is
  built from (``network.forward_jets``) against central differences of the
  plain ``network.forward``, on the same probes.
* ``check_cross_solver``: a Burgers reference field against the independent
  Crank-Nicolson solver, within the 1e-3 relative L2 that the oracle tests use.
* ``require_finite``: losses, errors and checkpoint arrays hold no NaN/inf.

Each check raises ``GateError`` naming what failed.
"""

from __future__ import annotations

import numpy as np

from madpde import diffcore as dc
from madpde import grf, network, oracles, problems, trainer
from madpde.trainer import TrainConfig

VARIANTS = ("ode_shift", "burgers", "laplace_triangle")
GRAD_RTOL = 1e-5
JET_RTOL = {1: (1e-5, 1e-8), 2: (1e-4, 1e-5)}  # order -> (rtol, atol)
CN_RTOL = 1e-3


class GateError(AssertionError):
    """An output of the program is wrong."""


def require_finite(what: str, *arrays) -> None:
    for a in arrays:
        if not np.all(np.isfinite(np.asarray(a, dtype=np.float64))):
            raise GateError(f"{what}: non-finite value")


def _probe_task(variant: str, rng: np.random.Generator):
    if variant == "ode_shift":
        return problems.OdeShiftTask(float(rng.uniform(0.0, 2.0)))
    if variant == "burgers":
        return problems.BurgersTask(grf.sample_grf(grf.BURGERS_GRF, rng), 0.01)
    angles = (0.3, 2.4, 4.4) + rng.uniform(-0.2, 0.2, 3)
    return problems.LaplaceTriangleTask(tuple(angles),
                                        grf.sample_grf(grf.LAPLACE_GRF, rng))


def probe(variant: str, seed: int):
    """A tiny two-task loss problem: (tasks, batches, params, Z, cfg)."""
    rng = np.random.default_rng([seed, 0x6A7E])
    tasks = [_probe_task(variant, rng) for _ in range(2)]
    net_cfg = network.NetworkConfig(
        input_dim=tasks[0].input_dim, latent_dim=3, hidden_layers=2, width=6,
        first_layer_omega=3.0,
        input_encoding=problems.default_encoding(tasks[0]))
    cfg = TrainConfig(lr0=1e-3, total_iters=1, M_r=5, M_bc=3, inv_sigma2=1e-2)
    batches = [problems.sample_batch(t, cfg.M_r, cfg.M_bc, rng) for t in tasks]
    params = network.init_siren(net_cfg, seed)
    Z = rng.normal(0.0, 0.3, size=(2, net_cfg.latent_dim))
    return tasks, batches, params, Z, cfg


def tape_gradient(tasks, batches, params, Z, cfg) -> np.ndarray:
    """d loss / d (theta, Z) from one reverse sweep, flattened."""
    g_theta, g_z = trainer.assemble_multitask_loss(tasks, batches, params, Z,
                                                   cfg).gradients()
    return np.concatenate([g_theta, g_z.ravel()])


def check_gradients(seed: int, gradient=tape_gradient, n_dirs: int = 4,
                    h: float = 1e-5) -> float:
    """Directional central differences against ``gradient`` for every
    variant; returns the worst relative error, raises above GRAD_RTOL."""
    worst = 0.0
    for variant in VARIANTS:
        tasks, batches, params, Z, cfg = probe(variant, seed)
        P = params.flat.size
        w = np.concatenate([params.flat, Z.ravel()])

        def loss(wv):
            p = network.ModelParams(wv[:P], params.config)
            return trainer.assemble_multitask_loss(
                tasks, batches, p, wv[P:].reshape(Z.shape), cfg).breakdown.total

        g = gradient(tasks, batches, params, Z, cfg)
        require_finite(f"{variant} probe gradient", g)
        rng = np.random.default_rng([seed, 0xD1F])
        for _ in range(n_dirs):
            v = rng.normal(size=w.size)
            v /= np.linalg.norm(v)
            fd = (loss(w + h * v) - loss(w - h * v)) / (2 * h)
            err = abs(float(g @ v) - fd) / max(abs(fd), 1e-8)
            worst = max(worst, err)
            if err > GRAD_RTOL:
                raise GateError(f"{variant}: tape gradient disagrees with central "
                                f"differences (relative error {err:.2e})")
    return worst


def check_jets(seed: int, h: float = 1e-4) -> None:
    """Jets along every direction a residual needs, against central
    differences of the plain forward pass, for every variant."""
    for variant in VARIANTS:
        tasks, batches, params, Z, _ = probe(variant, seed)
        x = batches[0].interior
        z = Z[0]
        orders = problems.directions_needed(tasks[0])
        jets, _ = network.forward_jets(params, x, z, list(orders), orders)
        u0 = network.forward(params, x, z)
        for d, order in orders.items():
            e = np.zeros(x.shape[1])
            e[d] = h
            up = network.forward(params, x + e, z)
            um = network.forward(params, x - e, z)
            fds = {1: (up - um) / (2 * h), 2: (up - 2 * u0 + um) / (h * h)}
            for k in range(1, order + 1):
                jet = dc.value_of(jets[d].d1 if k == 1 else jets[d].d2)
                rtol, atol = JET_RTOL[k]
                if not np.allclose(jet, fds[k], rtol=rtol, atol=atol):
                    raise GateError(f"{variant}: order-{k} jet along direction {d} "
                                    f"disagrees with central differences")


def check_cross_solver(ref, u0, nu: float) -> float:
    """Relative L2 between ``ref`` and the Crank-Nicolson field on its grid."""
    t, x = ref.axes
    cn = oracles.burgers_solve_cn(u0, nu, x.size, t.size - 1)
    err = oracles.relative_l2(cn.values, ref.values)
    if not err <= CN_RTOL:
        raise GateError(f"Burgers reference disagrees with Crank-Nicolson "
                        f"(relative L2 {err:.2e} > {CN_RTOL})")
    return err

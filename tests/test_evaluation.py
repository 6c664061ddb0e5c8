import numpy as np
import pytest

from madpde import evaluation, grf, network, oracles
from madpde.grf import BURGERS_GRF, LAPLACE_GRF
from madpde.problems import BurgersTask, LaplaceTriangleTask, OdeShiftTask


def task_and_grid(variant):
    rng = np.random.default_rng(3)
    if variant == "ode_shift":
        task = OdeShiftTask(0.8)
        return task, evaluation.for_task(task)
    if variant == "burgers":
        task = BurgersTask(grf.sample_grf(BURGERS_GRF, rng), 0.01)
        ref = oracles.burgers_solve(task.u0, task.nu, nx=64, nt=5)
        return task, evaluation.for_task(task, reference=ref)
    angles = np.sort(rng.uniform(0, 2 * np.pi, 3))
    task = LaplaceTriangleTask(tuple(angles), grf.sample_grf(LAPLACE_GRF, rng))
    return task, evaluation.for_task(task)


@pytest.mark.parametrize("variant", ["ode_shift", "burgers", "laplace_triangle"])
def test_float32_error_within_1e5_of_float64(variant):
    task, grid = task_and_grid(variant)
    cfg = network.NetworkConfig(input_dim=task.input_dim, latent_dim=4,
                                hidden_layers=3, width=32,
                                input_encoding=task.encoding)
    params = network.init_siren(cfg, 0)
    for z in np.random.default_rng(4).normal(scale=0.1, size=(3, 4)):
        pred = evaluation.predict(params, z, grid.points)
        assert pred.dtype == np.float64
        assert np.array_equal(pred,
                              network.forward(params, grid.points, z, np.float32)[:, 0])
        exact = oracles.relative_l2(network.forward(params, grid.points, z)[:, 0],
                                    grid.ref_values)
        assert evaluation.rel_l2(grid, params, z) == pytest.approx(exact, rel=1e-5)

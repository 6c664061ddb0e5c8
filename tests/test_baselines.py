import numpy as np
import pytest

from madpde import baselines, evaluation, mad, network, problems, trainer
from madpde.baselines import MetaConfig
from madpde.network import ModelParams
from madpde.problems import OdeShiftTask
from madpde.trainer import TrainConfig


def net_cfg(latent_dim=0):
    return network.NetworkConfig(input_dim=1, latent_dim=latent_dim,
                                 hidden_layers=2, width=16,
                                 first_layer_omega=2.0)


def cfg(**kw):
    base = dict(lr0=1e-3, total_iters=20, M_r=32, M_bc=2, inv_sigma2=0.0,
                eval_every=10, seed=0)
    base.update(kw)
    return TrainConfig(**base)


TASKS = [OdeShiftTask(e) for e in np.linspace(0, 2, 5)]
NEW = OdeShiftTask(0.85)


def record(theta0, fine, grid):
    """The convergence record of PINN training on NEW from ``theta0``."""
    return baselines.pinn_train(NEW, net_cfg(), fine, theta0=theta0, eval_grid=grid)[1]


class TestFromScratch:
    def test_zero_iterations_gives_finite_initial_error(self):
        grid = evaluation.for_task(NEW)
        rec = record(None, cfg(total_iters=0), grid)
        assert len(rec.series) == 1
        assert np.isfinite(rec.series[0][1])

    def test_deterministic(self):
        grid = evaluation.for_task(NEW)
        a = record(None, cfg(), grid)
        b = record(None, cfg(), grid)
        assert a.series == b.series

    def test_rejects_latent_network(self):
        grid = evaluation.for_task(NEW)
        with pytest.raises(ValueError):
            baselines.pinn_train(NEW, net_cfg(latent_dim=2), cfg(), eval_grid=grid)


class TestTransfer:
    def test_starts_from_pretrained_weights(self):
        grid = evaluation.for_task(NEW)
        scratch = record(None, cfg(total_iters=0), grid)
        theta = baselines.transfer_theta(TASKS[0], net_cfg(), cfg(total_iters=30))
        transferred = record(theta, cfg(total_iters=0), grid)
        # same seed, but the warm start changes the initial loss
        assert transferred.series[0][2] != scratch.series[0][2]

    def test_same_task_pretraining_starts_low(self):
        grid = evaluation.for_task(NEW)
        theta = baselines.transfer_theta(NEW, net_cfg(), cfg(total_iters=400, lr0=3e-3))
        warm = record(theta, cfg(total_iters=0), grid)
        cold = record(None, cfg(total_iters=0), grid)
        assert warm.series[0][2] < 0.05 * cold.series[0][2]


class TestReptile:
    def test_eps_zero_never_moves_theta(self):
        grid = evaluation.for_task(NEW)
        meta = MetaConfig(meta_iters=4, inner_steps=3, inner_lr=1e-3,
                          eps0=0.0, seed=3)
        theta, _ = baselines.reptile_theta(TASKS, net_cfg(), meta, cfg(total_iters=0))
        rec = record(theta, cfg(total_iters=0), grid)
        cold = record(None, cfg(total_iters=0, seed=3), grid)
        assert rec.series[0][2] == pytest.approx(cold.series[0][2], rel=1e-15)

    def test_eps_one_single_task_telescopes(self):
        # one task, constant eps=1: theta after m meta-iters equals m
        # sequential inner-adaptation blocks (telescoping)
        meta = MetaConfig(meta_iters=3, inner_steps=4, inner_lr=1e-3, eps0=1.0,
                          anneal_eps=False, seed=5)
        fine = cfg(total_iters=0, seed=5)
        _, losses = baselines.reptile_theta([TASKS[1]], net_cfg(), meta, fine)

        theta = network.init_siren(net_cfg(), meta.seed).flat
        rng = np.random.default_rng([meta.seed, baselines._META_STREAM])
        for _ in range(meta.meta_iters):
            rng.integers(1)  # the meta loop's task pick consumes one draw
            theta = baselines.inner_adapt(theta, TASKS[1], meta.inner_steps,
                                          meta.inner_lr, fine, net_cfg(), rng)
        expected = trainer.probe_loss(TASKS[1], ModelParams(theta, net_cfg()),
                                      None, fine)
        assert losses[-1] == pytest.approx(expected, rel=1e-12)

    def test_meta_training_reduces_family_loss(self):
        meta = MetaConfig(meta_iters=40, inner_steps=5, inner_lr=3e-3, seed=0)
        fine = cfg(total_iters=0, M_r=64)
        _, losses = baselines.reptile_theta(TASKS, net_cfg(), meta, fine)
        assert np.mean(losses[-5:]) < np.mean(losses[:5])


class TestMamlFirstOrder:
    def test_inner_steps_zero_is_multitask_gradient(self):
        # with no inner adaptation the meta-gradient equals the average of
        # plain task gradients at theta
        meta = MetaConfig(meta_iters=1, inner_steps=0, meta_lr=1e-3, seed=7,
                          meta_batch=len(TASKS))
        fine = cfg(total_iters=0, seed=7)
        grid = evaluation.for_task(NEW)
        theta0 = network.init_siren(net_cfg(), meta.seed).flat

        rng = np.random.default_rng([meta.seed, baselines._META_STREAM])
        picks = rng.choice(len(TASKS), size=len(TASKS), replace=False)
        grads = np.zeros_like(theta0)
        for i in picks:
            batch = problems.sample_batch(TASKS[i], fine.M_r, fine.M_bc, rng)
            loss = trainer.assemble_multitask_loss([TASKS[i]], [batch],
                                                   ModelParams(theta0, net_cfg()),
                                                   None, fine)
            g, _ = loss.gradients()
            grads += g
        grads /= len(TASKS)
        state, expected = trainer.adam_step(trainer.AdamState.zeros(theta0.size),
                                            theta0, grads, meta.meta_lr)

        theta, _ = baselines.maml_fo_theta(TASKS, net_cfg(), meta, fine)
        rec = record(theta, fine, grid)
        warm = record(expected, fine, grid)
        assert rec.series[0][2] == pytest.approx(warm.series[0][2], rel=1e-12)

    def test_deterministic(self):
        meta = MetaConfig(meta_iters=3, inner_steps=2, seed=1)
        fine = cfg(total_iters=5)
        grid = evaluation.for_task(NEW)
        (ta, la), (tb, lb) = [baselines.maml_fo_theta(TASKS, net_cfg(), meta, fine)
                              for _ in range(2)]
        a, b = record(ta, fine, grid), record(tb, fine, grid)
        assert a.series == b.series and la == lb


@pytest.fixture
def nan_gradient(monkeypatch):
    """Every loss's theta gradient gets a NaN in entry 3."""
    real = trainer.TapedLoss.gradients

    def poisoned(self):
        g_theta, g_z = real(self)
        g_theta = g_theta.copy()
        g_theta[3] = np.nan
        return g_theta, g_z

    monkeypatch.setattr(trainer.TapedLoss, "gradients", poisoned)


class TestNonFiniteGradients:
    def test_pinn_names_method_iteration_and_entry(self, nan_gradient):
        with pytest.raises(trainer.TrainingError,
                           match=r"^from_scratch diverged at iteration 0: non-finite "
                                 r"gradient at step 1 in theta\[3\]$"):
            baselines.pinn_train(NEW, net_cfg(), cfg())

    def test_pinn_relative_guard_stops_blow_up(self):
        # at lr0=1e6 the loss explodes after one step, long before it turns
        # non-finite; the guard of the one training loop catches it there
        with pytest.raises(trainer.TrainingError,
                           match=r"^from_scratch diverged at iteration 1: loss .* "
                                 r"exceeds"):
            baselines.pinn_train(NEW, net_cfg(), cfg(lr0=1e6, total_iters=50))

    def test_reptile_names_meta_iteration_and_entry(self, nan_gradient):
        with pytest.raises(trainer.TrainingError,
                           match=r"^reptile diverged at meta-iteration 0 on task \d: "
                                 r"non-finite gradient at step 1 in theta\[3\]$"):
            baselines.reptile_theta(TASKS, net_cfg(), MetaConfig(meta_iters=2), cfg())

    def test_maml_inner_sgd_step_checked(self, nan_gradient):
        with pytest.raises(trainer.TrainingError,
                           match=r"^maml_fo diverged at meta-iteration 0 in the inner "
                                 r"loop on task \d: non-finite gradient at step 1 in "
                                 r"theta\[3\]$"):
            baselines.maml_fo_theta(TASKS, net_cfg(), MetaConfig(meta_iters=2), cfg())

    def test_maml_meta_step_names_entry(self, nan_gradient):
        with pytest.raises(trainer.TrainingError,
                           match=r"^maml_fo diverged at meta-iteration 0: non-finite "
                                 r"gradient at step 1 in theta\[3\]$"):
            baselines.maml_fo_theta(TASKS, net_cfg(),
                                    MetaConfig(meta_iters=2, inner_steps=0), cfg())


class TestMamlInnerGuard:
    def test_laplace_blow_up_stops_at_its_inner_step(self):
        # at the default inner_lr the first inner SGD step on Laplace tasks of
        # the default data scale multiplies the loss by about 1e12; the guard
        # stops there, before the blown-up weights reach Adam
        tasks = problems.LaplaceTriangleTask.build({}, 5, 0)
        net = network.NetworkConfig(input_dim=2, latent_dim=0, hidden_layers=2,
                                    width=16, input_encoding=tasks[0].encoding)
        fine = cfg(M_r=64, M_bc=16)
        with pytest.raises(trainer.TrainingError,
                           match=r"^maml_fo diverged at meta-iteration 0 in the inner "
                                 r"loop on task \d: after inner step 1, loss .* "
                                 r"exceeds .*; baseline\.meta\.inner_lr 0\.001 may be "
                                 r"too large$"):
            baselines.maml_fo_theta(tasks, net, MetaConfig(meta_iters=2, inner_steps=2),
                                    fine)


def test_meta_config_rejects_a_negative_seed():
    # numpy's generators take no negative seed
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        MetaConfig(meta_iters=1, seed=-1)


@pytest.mark.parametrize("field", ["inner_lr", "meta_lr"])
def test_meta_config_rejects_a_nan_learning_rate(field):
    with pytest.raises(ValueError, match="learning rates must be positive"):
        MetaConfig(meta_iters=1, **{field: float("nan")})

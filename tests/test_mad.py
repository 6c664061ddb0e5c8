import dataclasses
import gc
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from madpde import baselines, diffcore, evaluation, grf, mad, network, problems, trainer
from madpde.grf import LAPLACE_GRF, GrfSample
from madpde.mad import Checkpoint
from madpde.problems import LaplaceTriangleTask, OdeShiftTask
from madpde.trainer import TrainConfig


def ode_tasks(n=5):
    return [OdeShiftTask(eta) for eta in np.linspace(0.0, 2.0, n)]


def ode_net(latent_dim=1):
    return network.NetworkConfig(input_dim=1, latent_dim=latent_dim,
                                 hidden_layers=2, width=16,
                                 input_encoding=OdeShiftTask.encoding)


def quick_cfg(**kw):
    base = dict(lr0=1e-3, total_iters=30, M_r=32, M_bc=2, lambda_bc=1.0,
                inv_sigma2=0.0, eval_every=10, seed=0)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def small_checkpoint():
    return mad.pretrain(ode_tasks(), ode_net(), quick_cfg(total_iters=40))


class TestPretrain:
    def test_deterministic(self):
        a = mad.pretrain(ode_tasks(3), ode_net(), quick_cfg(total_iters=10))
        b = mad.pretrain(ode_tasks(3), ode_net(), quick_cfg(total_iters=10))
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.latents, b.latents)
        assert a.loss_series == b.loss_series

    def test_loss_decreases(self, small_checkpoint):
        losses = [v for _, v in small_checkpoint.loss_series]
        assert losses[-1] < losses[0]

    def test_single_task_zero_latent_is_plain_pinn(self):
        # latent_dim 0 and one task degenerates to per-task PINN training
        task = OdeShiftTask(0.5)
        ck = mad.pretrain([task], ode_net(latent_dim=0), quick_cfg(total_iters=15))
        assert ck.latents.shape == (1, 0)
        assert len(ck.loss_series) == 15

    def test_divergence_reports_iteration(self):
        # an absurd learning rate drives the sine net loss to nan quickly
        with pytest.raises(trainer.TrainingError, match="iteration"):
            mad.pretrain(ode_tasks(3), ode_net(), quick_cfg(lr0=1e6,
                                                            total_iters=200))

    @pytest.mark.parametrize("block, entry, where",
                             [(0, 3, r"theta\[3\]"),
                              (1, (1, 0), r"latent of task 7\[0\]")],
                             ids=["theta", "latent"])
    def test_non_finite_gradient_names_iteration_and_block(self, monkeypatch, block,
                                                           entry, where):
        real = trainer.TapedLoss.gradients

        def poisoned(self):
            grads = [g.copy() for g in real(self)]
            grads[block][entry] = np.nan
            return tuple(grads)

        monkeypatch.setattr(trainer.TapedLoss, "gradients", poisoned)
        with pytest.raises(trainer.TrainingError,
                           match=r"^pre-training diverged at iteration 0: non-finite "
                                 rf"gradient at step 1 in {where}$"):
            mad.pretrain(ode_tasks(3), ode_net(), quick_cfg(total_iters=5),
                         task_ids=[4, 7, 9])

    def test_finetune_divergence_reports_iteration(self, small_checkpoint):
        task = OdeShiftTask(0.5)
        with pytest.raises(trainer.TrainingError, match="fine-tuning diverged at "
                                                        "iteration"):
            mad.finetune_LM(small_checkpoint, task, small_checkpoint.latents[0],
                            quick_cfg(lr0=1e6, total_iters=50),
                            evaluation.for_task(task))

    def test_permutation_of_tasks(self):
        tasks = ode_tasks(4)
        ids = list(range(4))
        cfg = quick_cfg(total_iters=25)
        a = mad.pretrain(tasks, ode_net(), cfg, task_ids=ids)
        perm = [2, 0, 3, 1]
        b = mad.pretrain([tasks[i] for i in perm], ode_net(), cfg,
                         task_ids=[ids[i] for i in perm])
        # per-task losses agree up to reduction-order rounding
        a_by_id = dict(zip(a.task_ids, a.final_per_task_loss))
        b_by_id = dict(zip(b.task_ids, b.final_per_task_loss))
        for tid in ids:
            assert a_by_id[tid] == pytest.approx(b_by_id[tid], rel=1e-8)


def _ode_runs():
    tasks = ode_tasks(3)
    cfg = quick_cfg(total_iters=6, eval_every=2)
    grid = evaluation.for_task(tasks[1])
    plain = ode_net(latent_dim=0)
    meta = baselines.MetaConfig(meta_iters=2, inner_steps=2, meta_batch=2)
    ck = mad.pretrain(tasks, ode_net(), quick_cfg(total_iters=2))

    return {
        "pretrain": lambda: mad.pretrain(tasks, ode_net(), cfg),
        "finetune_L": lambda: mad.finetune_L(ck, tasks[1], ck.latents[1], cfg,
                                             grid),
        "pinn_train": lambda: baselines.pinn_train(tasks[1], plain, cfg,
                                                   eval_grid=grid),
        "reptile": lambda: baselines.pinn_train(
            tasks[1], plain, cfg, eval_grid=grid,
            theta0=baselines.reptile_theta(tasks, plain, meta, cfg)[0]),
        "maml_fo": lambda: baselines.pinn_train(
            tasks[1], plain, cfg, eval_grid=grid,
            theta0=baselines.maml_fo_theta(tasks, plain, meta, cfg)[0]),
    }


class TestOneTapeAlive:
    """Each loop drops its previous TapedLoss before it records the next one,
    so at most one tape is alive at the memory peak (the cyclic collector is
    off, so only reference counting frees them)."""

    @pytest.mark.parametrize("name", ["pretrain", "finetune_L", "pinn_train",
                                      "reptile", "maml_fo"])
    def test_previous_tape_dead_on_entry(self, name, monkeypatch):
        run = _ode_runs()[name]
        assemble = trainer.assemble_multitask_loss
        last = [None]
        calls = []

        def watched(*args, **kw):
            calls.append(last[0] is None or last[0]() is None)
            loss = assemble(*args, **kw)
            last[0] = weakref.ref(loss.tape)
            return loss

        monkeypatch.setattr(trainer, "assemble_multitask_loss", watched)
        gc.disable()
        try:
            run()
        finally:
            gc.enable()
        assert len(calls) > 4 and all(calls), calls


class TestInitLatent:
    def test_nearest_ode(self, small_checkpoint):
        z = mad.init_latent(OdeShiftTask(0.1), small_checkpoint, "nearest")
        np.testing.assert_array_equal(z, small_checkpoint.latents[0])
        z = mad.init_latent(OdeShiftTask(1.9), small_checkpoint, "nearest")
        np.testing.assert_array_equal(z, small_checkpoint.latents[-1])

    def test_mean(self, small_checkpoint):
        z = mad.init_latent(OdeShiftTask(0.5), small_checkpoint, "mean")
        np.testing.assert_allclose(z, small_checkpoint.latents.mean(axis=0))

    def test_mean_is_coordinatewise(self, small_checkpoint):
        ck = Checkpoint(**{**small_checkpoint.__dict__})
        ck.latents = np.array([[1.0], [3.0]])
        assert mad.init_latent(OdeShiftTask(0.5), ck, "mean")[0] == pytest.approx(2.0)

    def test_zero(self, small_checkpoint):
        assert np.all(mad.init_latent(OdeShiftTask(0.5), small_checkpoint,
                                      "zero") == 0.0)

    def test_nearest_rejected_for_laplace(self, small_checkpoint):
        h = grf.sample_grf(LAPLACE_GRF, np.random.default_rng(0))
        task = LaplaceTriangleTask((0.1, 2.0, 4.0), h)
        with pytest.raises(ValueError, match="mean"):
            mad.init_latent(task, small_checkpoint, "nearest")


class TestFinetune:
    def test_zero_iterations_returns_z0(self, small_checkpoint):
        task = OdeShiftTask(0.77)
        grid = evaluation.for_task(task)
        z0 = np.array([0.123])
        z, rec = mad.finetune_L(small_checkpoint, task, z0,
                                quick_cfg(total_iters=0), grid)
        np.testing.assert_array_equal(z, z0)
        assert len(rec.series) == 1 and rec.series[0][0] == 0

    def test_zero_iterations_lm_keeps_theta(self, small_checkpoint):
        task = OdeShiftTask(0.77)
        grid = evaluation.for_task(task)
        z, theta, rec = mad.finetune_LM(small_checkpoint, task, np.array([0.1]),
                                        quick_cfg(total_iters=0), grid)
        np.testing.assert_array_equal(theta, small_checkpoint.theta)

    def test_L_never_touches_theta(self, small_checkpoint):
        task = OdeShiftTask(0.6)
        grid = evaluation.for_task(task)
        before = small_checkpoint.theta.copy()
        mad.finetune_L(small_checkpoint, task, np.array([0.0]),
                       quick_cfg(total_iters=25), grid)
        np.testing.assert_array_equal(small_checkpoint.theta, before)

    def test_refit_own_task_stays_near_pretrain_loss(self):
        tasks = ode_tasks(4)
        cfg = quick_cfg(total_iters=150, lr0=1e-3)
        ck = mad.pretrain(tasks, ode_net(), cfg)
        i = 1
        grid = evaluation.for_task(tasks[i])
        ft_cfg = quick_cfg(total_iters=60, lr0=1e-4)
        _, rec = mad.finetune_L(ck, tasks[i], ck.latents[i], ft_cfg, grid)
        final_loss = rec.series[-1][2]
        assert final_loss <= 1.05 * ck.final_per_task_loss[i]

    def test_error_decreases_on_held_out_task(self):
        tasks = ode_tasks(6)
        held = tasks.pop(3)
        cfg = quick_cfg(total_iters=200, M_r=64)
        ck = mad.pretrain(tasks, ode_net(), cfg)
        grid = evaluation.for_task(held)
        z0 = mad.init_latent(held, ck, "nearest")
        _, rec = mad.finetune_L(ck, held, z0, quick_cfg(total_iters=150), grid)
        assert rec.series[-1][1] < rec.series[0][1]

    def test_eval_precision_leaves_training_unchanged(self, small_checkpoint,
                                                      monkeypatch):
        task = OdeShiftTask(0.85)
        grid = evaluation.for_task(task)
        cfg = quick_cfg(total_iters=20, eval_every=5)

        def run():
            return mad.finetune_L(small_checkpoint, task, np.array([0.1]), cfg, grid)

        z32, rec32 = run()
        monkeypatch.setattr(evaluation, "predict", lambda params, z, points:
                            network.forward(params, points, z)[:, 0])
        z64, rec64 = run()
        assert np.array_equal(z32, z64)
        assert np.array_equal(rec32.losses(), rec64.losses())
        np.testing.assert_allclose(rec32.errors(), rec64.errors(), rtol=1e-5)

    def test_latent_free_checkpoint(self):
        # latent_dim 0: MAD-L has nothing to tune, MAD-LM tunes the weights
        tasks = ode_tasks(2)
        cfg = quick_cfg(total_iters=3)
        ck = mad.pretrain(tasks, ode_net(latent_dim=0), cfg)
        grids = [evaluation.for_task(t) for t in tasks]
        Z, _ = mad.finetune_L_batch(ck, tasks, np.zeros((2, 0)), cfg, grids,
                                    ["a", "b"])
        assert Z.shape == (2, 0)
        _, theta, rec = mad.finetune_LM(ck, tasks[0], np.zeros(0), cfg, grids[0])
        assert not np.array_equal(theta, ck.theta) and len(rec.series) == 2

    def test_snapshots_recorded(self, small_checkpoint):
        task = OdeShiftTask(0.4)
        grid = evaluation.for_task(task)
        _, (rec,) = mad.finetune_L_batch(small_checkpoint, [task], np.array([0.0]),
                                         quick_cfg(total_iters=20, eval_every=10),
                                         [grid], ["new"], record_snapshots=True)
        assert rec.snapshots is not None
        assert len(rec.snapshots) == len(rec.series)
        assert rec.snapshots[0][1].shape == (128,)


class TestCheckpointIO:
    def test_roundtrip_exact(self, small_checkpoint, tmp_path):
        p = str(tmp_path / "model.ckpt")
        mad.save_checkpoint(p, small_checkpoint)
        back = mad.load_checkpoint(p)
        assert np.array_equal(back.theta, small_checkpoint.theta)
        assert np.array_equal(back.latents, small_checkpoint.latents)
        assert np.array_equal(back.adam.m, small_checkpoint.adam.m)
        assert back.adam.step == small_checkpoint.adam.step
        assert back.rng_states == small_checkpoint.rng_states
        assert back.task_ids == small_checkpoint.task_ids
        assert back.loss_series == small_checkpoint.loss_series
        assert back.net_config == small_checkpoint.net_config
        assert back.train_config == small_checkpoint.train_config
        assert [t.eta for t in back.tasks] == \
            [t.eta for t in small_checkpoint.tasks]

    def test_corrupted_file_rejected(self, small_checkpoint, tmp_path):
        p = str(tmp_path / "model.ckpt")
        mad.save_checkpoint(p, small_checkpoint)
        blob = Path(p).read_bytes()
        Path(p).write_bytes(blob[:len(blob) // 2])
        with pytest.raises(mad.CheckpointError):
            mad.load_checkpoint(p)
        Path(p).write_bytes(b"garbage")
        with pytest.raises(mad.CheckpointError):
            mad.load_checkpoint(p)

    def test_version_mismatch_rejected(self, small_checkpoint, tmp_path):
        import json as _json
        import struct as _struct
        p = str(tmp_path / "model.ckpt")
        mad.save_checkpoint(p, small_checkpoint)
        blob = Path(p).read_bytes()
        n = _struct.unpack("<I", blob[8:12])[0]
        # version 2 is the layout whose train_config had resample_every
        for version, extra in ((99, {}), (2, {"resample_every": 1})):
            header = _json.loads(blob[12:12 + n])
            header["version"] = version
            header["train_config"].update(extra)
            hb = _json.dumps(header, sort_keys=True).encode()
            bad = str(tmp_path / f"v{version}.ckpt")
            Path(bad).write_bytes(blob[:8] + _struct.pack("<I", len(hb)) + hb
                                  + blob[12 + n:])
            with pytest.raises(mad.CheckpointError,
                               match=f"unsupported version {version} .*re-run pretrain"):
                mad.load_checkpoint(bad)

    @pytest.mark.parametrize("key", ["arrays", "adam_step", "tasks"])
    def test_header_without_key_rejected(self, small_checkpoint, tmp_path, key):
        import json as _json
        import struct as _struct
        p = str(tmp_path / "model.ckpt")
        mad.save_checkpoint(p, small_checkpoint)
        blob = Path(p).read_bytes()
        n = _struct.unpack("<I", blob[8:12])[0]
        header = _json.loads(blob[12:12 + n])
        del header[key]
        hb = _json.dumps(header, sort_keys=True).encode()
        Path(p).write_bytes(blob[:8] + _struct.pack("<I", len(hb)) + hb
                            + blob[12 + n:])
        with pytest.raises(mad.CheckpointError, match=f"model.ckpt.*'{key}'"):
            mad.load_checkpoint(p)

    def test_header_with_a_task_that_is_no_object_rejected(self, small_checkpoint,
                                                           tmp_path):
        import json as _json
        import struct as _struct
        p = str(tmp_path / "model.ckpt")
        mad.save_checkpoint(p, small_checkpoint)
        blob = Path(p).read_bytes()
        n = _struct.unpack("<I", blob[8:12])[0]
        header = _json.loads(blob[12:12 + n])
        header["tasks"][0] = "ode_shift"
        hb = _json.dumps(header, sort_keys=True).encode()
        Path(p).write_bytes(blob[:8] + _struct.pack("<I", len(hb)) + hb
                            + blob[12 + n:])
        with pytest.raises(mad.CheckpointError, match="model.ckpt: corrupt header"):
            mad.load_checkpoint(p)

    def test_resume_matches_uninterrupted(self, tmp_path):
        tasks = ode_tasks(3)
        cfg = quick_cfg(total_iters=40, M_r=16)
        full = mad.pretrain(tasks, ode_net(), cfg)
        half = mad.pretrain(tasks, ode_net(), cfg, stop_at=17)
        p = str(tmp_path / "half.ckpt")
        mad.save_checkpoint(p, half)
        resumed = mad.pretrain(tasks, ode_net(), cfg,
                               resume_from=mad.load_checkpoint(p))
        assert np.array_equal(full.theta, resumed.theta)
        assert np.array_equal(full.latents, resumed.latents)
        assert full.loss_series == resumed.loss_series

    @pytest.mark.parametrize("resume_at, stop_at", [(6, 2), (0, -3)])
    def test_stop_before_the_start_rejected(self, resume_at, stop_at):
        # a checkpoint labelled with stop_at would hold a later iteration's state
        tasks, cfg = ode_tasks(2), quick_cfg(total_iters=10)
        ck = mad.pretrain(tasks, ode_net(), cfg, stop_at=resume_at) if resume_at else None
        with pytest.raises(trainer.TrainingError,
                           match=rf"stop_at {stop_at} is below iteration {resume_at}"):
            mad.pretrain(tasks, ode_net(), cfg, stop_at=stop_at, resume_from=ck)

    def test_resume_rejects_mismatched_setup(self, small_checkpoint):
        with pytest.raises(mad.CheckpointError):
            mad.pretrain(ode_tasks(3), ode_net(), quick_cfg(total_iters=40),
                         resume_from=small_checkpoint)


class TestFinetuneBatch:
    """Several held-out tasks solved in one stacked pass through the frozen
    decoder give what each gives alone, up to BLAS rounding."""

    HELD = [OdeShiftTask(e) for e in (0.3, 0.9, 1.6)]
    LABELS = ["a", "b", "c"]

    def run_both(self, ck, cfg):
        grids = [evaluation.for_task(t) for t in self.HELD]
        Z0 = [mad.init_latent(t, ck, "nearest") for t in self.HELD]
        Z, recs = mad.finetune_L_batch(ck, self.HELD, Z0, cfg, grids, self.LABELS,
                                       record_snapshots=True)
        alone = [mad.finetune_L_batch(ck, [t], z0, cfg, [g], [lab],
                                      record_snapshots=True)
                 for t, z0, g, lab in zip(self.HELD, Z0, grids, self.LABELS)]
        return Z, recs, [(Z1[0], rec1) for Z1, (rec1,) in alone]

    @pytest.mark.parametrize("clip", [None, 1e-3], ids=["no_clip", "clip"])
    def test_matches_single_task_runs(self, small_checkpoint, clip):
        cfg = quick_cfg(total_iters=20, eval_every=5, lr0=1e-2, clip_grad_norm=clip)
        Z, recs, alone = self.run_both(small_checkpoint, cfg)
        assert Z.shape == (3, small_checkpoint.net_config.latent_dim)
        for z, rec, (z1, rec1), lab in zip(Z, recs, alone, self.LABELS):
            assert rec.task_id == lab and rec.method == "mad_l"
            np.testing.assert_array_equal(rec.iterations(), rec1.iterations())
            np.testing.assert_allclose(z, z1, rtol=1e-12, atol=0)
            np.testing.assert_allclose(rec.errors(), rec1.errors(), rtol=1e-12)
            np.testing.assert_allclose(rec.losses(), rec1.losses(), rtol=1e-12)
            for (i, s), (i1, s1) in zip(rec.snapshots, rec1.snapshots):
                assert i == i1
                np.testing.assert_allclose(s, s1, rtol=1e-12, atol=1e-14)

    def test_clip_acts_per_task(self, small_checkpoint):
        # the clipped run must differ from the unclipped one, or the clip
        # case above tests nothing
        free = quick_cfg(total_iters=5, lr0=1e-2)
        clipped = quick_cfg(total_iters=5, lr0=1e-2, clip_grad_norm=1e-3)
        Z_free, _, _ = self.run_both(small_checkpoint, free)
        Z_clip, _, _ = self.run_both(small_checkpoint, clipped)
        assert np.all(np.any(Z_free != Z_clip, axis=1))

    @pytest.mark.parametrize("bad", [np.nan, 1e30], ids=["non_finite", "blow_up"])
    def test_divergence_names_task_and_iteration(self, small_checkpoint,
                                                 monkeypatch, bad):
        assemble = trainer.assemble_multitask_loss
        stacked = []

        def poisoned(tasks, batches, *args, **kw):
            if len(tasks) == 3:
                stacked.append(1)
                if len(stacked) == 4:  # iteration 3: task "b" goes bad
                    b = batches[1]
                    batches = list(batches)
                    batches[1] = problems.SampleBatch(
                        b.interior, b.boundary, np.full_like(b.boundary_values, bad))
            return assemble(tasks, batches, *args, **kw)

        monkeypatch.setattr(trainer, "assemble_multitask_loss", poisoned)
        grids = [evaluation.for_task(t) for t in self.HELD]
        with pytest.raises(trainer.TrainingError,
                           match="fine-tuning diverged at iteration 3 on b:"):
            mad.finetune_L_batch(small_checkpoint, self.HELD,
                                 np.zeros((3, 1)), quick_cfg(total_iters=10),
                                 grids, self.LABELS)

    # shapes timed stacked against one task at a time (CHANGES.md):
    # (task, width, M_r, M_bc, N, values of the stack, stacked was faster)
    MEASURED = [("ode", 32, 128, 2, 4, 33_024, True),
                ("ode", 32, 256, 2, 4, 65_792, True),
                ("ode", 32, 512, 2, 2, 65_664, True),
                ("burgers", 64, 100, 20, 4, 107_520, True),
                ("burgers", 64, 250, 50, 2, 134_400, False),
                ("burgers", 64, 500, 100, 2, 268_800, False),
                ("burgers", 64, 500, 100, 4, 537_600, False)]

    def test_measured_shapes_group_on_their_side(self):
        # the stacks that were faster are one group, the others are split
        burgers = problems.BurgersTask(
            grf.sample_grf(grf.BURGERS_GRF, np.random.default_rng(0)), 0.01)
        for name, width, M_r, M_bc, N, values, faster in self.MEASURED:
            tasks = [self.HELD[0] if name == "ode" else burgers] * N
            cfg = quick_cfg(M_r=M_r, M_bc=M_bc)
            assert trainer.hidden_values(tasks, cfg, width) == values
            groups = trainer.task_groups(tasks, cfg, width, tune_theta=False)
            assert (len(groups) == 1) == faster, (name, M_r, N, groups)

    def test_rejects_misshaped_latents(self, small_checkpoint):
        # a transposed (latent, N) block would scramble latents across tasks
        grids = [evaluation.for_task(t) for t in self.HELD]
        latent = small_checkpoint.net_config.latent_dim
        cfg = quick_cfg(total_iters=2)
        with pytest.raises(ValueError, match=r"shape \(3, 1\)"):
            mad.finetune_L_batch(small_checkpoint, self.HELD, np.zeros((latent, 3)),
                                 cfg, grids, self.LABELS)
        with pytest.raises(ValueError, match=r"or \(1,\)"):
            mad.finetune_L(small_checkpoint, self.HELD[0], np.zeros(latent + 1),
                           cfg, grids[0])


def _grouped_setup(n=2):
    """Burgers tasks of which one alone holds just over ``GROUP_ELEMENTS``
    values, so that each pre-training step runs one task per group, with
    its halves apart."""
    rng = np.random.default_rng(11)
    tasks = [problems.BurgersTask(grf.sample_grf(grf.BURGERS_GRF, rng), 0.01)
             for _ in range(n)]
    net = network.NetworkConfig(input_dim=2, latent_dim=4, hidden_layers=2,
                                width=64, input_encoding="periodic_x")
    cfg = quick_cfg(total_iters=6, M_r=488, M_bc=100, inv_sigma2=1e-4)
    assert trainer.hidden_values(tasks[:1], cfg, net.width) > trainer.GROUP_ELEMENTS
    assert trainer.hidden_values(tasks[:1], quick_cfg(M_r=487, M_bc=100),
                                 net.width) == trainer.GROUP_ELEMENTS
    return tasks, net, cfg


def _group_sizes(monkeypatch) -> list:
    """The task count of every ``assemble_multitask_loss`` call from now on."""
    assemble = trainer.assemble_multitask_loss
    sizes = []

    def watched(tasks, *args, **kw):
        sizes.append(len(tasks))
        return assemble(tasks, *args, **kw)

    monkeypatch.setattr(trainer, "assemble_multitask_loss", watched)
    return sizes


needs_blas_setter = pytest.mark.skipif(diffcore.BLAS_THREADS is None,
                                       reason="no BLAS thread setter found")


class TestGroupedPretrain:
    """Pre-training steps run in groups of ``GROUP_ELEMENTS //
    hidden_values([task])`` tasks, each on its own tape.  Where each half
    of the tasks holds more than ``GROUP_ELEMENTS`` values, the halves run
    apart with BLAS pinned to one thread, at once on two threads where two
    CPUs are usable."""

    @needs_blas_setter
    def test_gradients_match_one_tape(self):
        tasks, net, cfg = _grouped_setup(3)
        params = network.init_siren(net, 0)
        rng = np.random.default_rng(5)
        Z = rng.normal(scale=0.1, size=(3, net.latent_dim))
        batches = [problems.sample_batch(t, cfg.M_r, cfg.M_bc, rng) for t in tasks]
        one = trainer.assemble_multitask_loss(tasks, batches, params, Z, cfg)
        total, per_task, g_theta, g_z = trainer._step(
            tasks, batches, params, Z, cfg, True, [slice(0, 1), slice(1, 3)])
        want_total, want_per_task = one.breakdown.total, one.per_task_loss
        want_theta, want_z = one.gradients()
        assert total == pytest.approx(want_total, rel=1e-12)
        np.testing.assert_allclose(per_task, want_per_task, rtol=1e-12)
        scale = np.abs(want_theta).max()
        np.testing.assert_allclose(g_theta, want_theta, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(g_z, want_z, rtol=0,
                                   atol=1e-12 * np.abs(want_z).max())

    @needs_blas_setter
    def test_deterministic_and_resumes_bit_exactly(self, tmp_path):
        tasks, net, cfg = _grouped_setup()
        full = mad.pretrain(tasks, net, cfg)
        again = mad.pretrain(tasks, net, cfg)
        p = str(tmp_path / "three.ckpt")
        mad.save_checkpoint(p, mad.pretrain(tasks, net, cfg, stop_at=3))
        resumed = mad.pretrain(tasks, net, cfg, resume_from=mad.load_checkpoint(p))
        for other in (again, resumed):
            assert np.array_equal(full.theta, other.theta)
            assert np.array_equal(full.latents, other.latents)
            assert full.loss_series == other.loss_series

    @needs_blas_setter
    def test_one_cpu_runs_the_groups_in_turn_bit_identically(self, monkeypatch):
        tasks, net, cfg = _grouped_setup()
        together = mad.pretrain(tasks, net, cfg)

        def no_worker():
            raise AssertionError("the groups must run in turn on the caller")

        monkeypatch.setattr(trainer, "_group_worker", no_worker)
        monkeypatch.setattr(trainer, "usable_cpus", lambda: 1)
        sizes = _group_sizes(monkeypatch)
        in_turn = mad.pretrain(tasks, net, cfg)
        # a task alone holds more than GROUP_ELEMENTS values: one per group
        assert sizes == [1, 1] * cfg.total_iters
        assert np.array_equal(together.theta, in_turn.theta)
        assert np.array_equal(together.latents, in_turn.latents)
        assert together.loss_series == in_turn.loss_series

    @needs_blas_setter
    def test_unequal_halves_give_the_same_bits_on_one_cpu(self, monkeypatch):
        # five tasks: the worker runs tasks 0 and 1, the caller tasks 2 to 4
        tasks, net, cfg = _grouped_setup(5)
        cfg = dataclasses.replace(cfg, total_iters=3)
        assemble, seen = trainer.assemble_multitask_loss, []

        def watched(step_tasks, *args, **kw):
            first = next(i for i, t in enumerate(tasks) if t is step_tasks[0])
            seen.append((first, len(step_tasks),
                         threading.current_thread() is threading.main_thread()))
            return assemble(step_tasks, *args, **kw)

        monkeypatch.setattr(trainer, "assemble_multitask_loss", watched)
        together = mad.pretrain(tasks, net, cfg)
        if trainer.usable_cpus() > 1:
            assert sorted(seen[:5]) == [(0, 1, False), (1, 1, False), (2, 1, True),
                                        (3, 1, True), (4, 1, True)]
        monkeypatch.setattr(trainer, "usable_cpus", lambda: 1)
        in_turn = mad.pretrain(tasks, net, cfg)
        assert np.array_equal(together.theta, in_turn.theta)
        assert np.array_equal(together.latents, in_turn.latents)
        assert together.loss_series == in_turn.loss_series

    @pytest.mark.parametrize("cause", ["at_threshold", "no_blas_setter"])
    def test_chunks_run_in_turn_unpinned(self, monkeypatch, cause):
        # at the threshold a half holds just GROUP_ELEMENTS values; without a
        # setter, unpinned threads would round unlike pinned ones.  Either
        # way the one-task groups run in turn on the caller, unpinned.
        tasks, net, cfg = _grouped_setup()
        if cause == "at_threshold":
            cfg = dataclasses.replace(cfg, M_r=487)
        if cause == "no_blas_setter":
            monkeypatch.setattr(diffcore, "BLAS_THREADS", None)

        def never():
            raise AssertionError("the groups must run in turn, unpinned")

        monkeypatch.setattr(trainer, "_group_worker", never)
        monkeypatch.setattr(trainer, "_one_blas_thread", never)
        sizes = _group_sizes(monkeypatch)
        streams = [np.random.default_rng(i) for i in range(len(tasks))]
        trainer.optimize("training", tasks, streams, network.init_siren(net, 0),
                         np.zeros((len(tasks), net.latent_dim)), cfg)
        assert sizes == [1, 1] * cfg.total_iters

    def test_groups_follow_the_chunk_rule(self, monkeypatch):
        # k = GROUP_ELEMENTS // hidden_values([task]) tasks per group: of
        # each half where the halves run apart, else of all the tasks
        tasks = [OdeShiftTask(e) for e in np.linspace(0.0, 2.0, 9)]
        cfg, width = quick_cfg(M_r=100, M_bc=2), 8
        per_task = trainer.hidden_values(tasks[:1], cfg, width)
        monkeypatch.setattr(trainer, "GROUP_ELEMENTS", 3 * per_task)
        every = [slice(0, 3), slice(3, 6), slice(6, 9)]
        assert trainer.task_groups(tasks, cfg, width, tune_theta=False) == every
        halves = [slice(0, 3), slice(3, 4), slice(4, 7), slice(7, 9)]
        assert trainer.task_groups(tasks, cfg, width, tune_theta=True) == (
            every if diffcore.BLAS_THREADS is None else halves)
        monkeypatch.setattr(trainer, "GROUP_ELEMENTS", 4 * per_task)  # one half
        assert trainer.task_groups(tasks, cfg, width, tune_theta=True) == [
            slice(0, 4), slice(4, 8), slice(8, 9)]

    @needs_blas_setter
    def test_step_peak_memory_does_not_grow_with_the_tasks(self):
        # one tape per thread at a time, whatever the task count
        tasks, net, cfg = _grouped_setup(8)
        params = network.init_siren(net, 0)
        rng = np.random.default_rng(5)

        def peak(n):
            Z = rng.normal(scale=0.1, size=(n, net.latent_dim))
            batches = [problems.sample_batch(t, cfg.M_r, cfg.M_bc, rng)
                       for t in tasks[:n]]
            groups = trainer.task_groups(tasks[:n], cfg, net.width, True)
            trainer._step(tasks[:n], batches, params, Z, cfg, True, groups)
            tracemalloc.start()
            try:
                trainer._step(tasks[:n], batches, params, Z, cfg, True, groups)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        two, eight = peak(2), peak(8)
        assert eight <= 1.25 * two, (two / 1e6, eight / 1e6)

    @needs_blas_setter
    @pytest.mark.parametrize("n, bad", [pytest.param(3, 0, id="0"),
                                        pytest.param(3, 2, id="2"),
                                        pytest.param(6, 1, id="worker_middle")])
    def test_non_finite_loss_names_task_and_restores_blas(self, monkeypatch, n, bad):
        # the worker runs tasks[:n//2], one per group, the caller the rest
        tasks, net, cfg = _grouped_setup(n)
        sample = problems.sample_batch

        def poisoned(task, *args):
            batch = sample(task, *args)
            if task is tasks[bad]:
                batch.boundary_values[0] = np.nan
            return batch

        monkeypatch.setattr(problems, "sample_batch", poisoned)
        before = diffcore.BLAS_THREADS[0]()
        with pytest.raises(trainer.TrainingError,
                           match=rf"^pre-training diverged at iteration 0 on "
                                 rf"task {bad + 10}: non-finite loss$"):
            mad.pretrain(tasks, net, cfg, task_ids=list(range(10, 10 + n)))
        assert diffcore.BLAS_THREADS[0]() == before

    @needs_blas_setter
    def test_blas_pinned_to_one_thread_inside_and_restored_after(self, monkeypatch):
        tasks, net, cfg = _grouped_setup()
        assemble = trainer.assemble_multitask_loss
        inside = []

        def watched(*args, **kw):
            inside.append(diffcore.BLAS_THREADS[0]())
            return assemble(*args, **kw)

        monkeypatch.setattr(trainer, "assemble_multitask_loss", watched)
        before = diffcore.BLAS_THREADS[0]()
        mad.pretrain(tasks, net, cfg)
        assert diffcore.BLAS_THREADS[0]() == before
        assert inside == [1] * (2 * cfg.total_iters)

    @needs_blas_setter
    def test_overlapping_pins_restore_after_the_last(self):
        # as two grouped steps on two threads would pin: enter, enter, exit, exit
        get = diffcore.BLAS_THREADS[0]
        before = get()
        first, second = trainer._one_blas_thread(), trainer._one_blas_thread()
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert get() == 1
        second.__exit__(None, None, None)
        assert get() == before

    @needs_blas_setter
    def test_pins_from_many_threads_keep_one_thread_inside(self):
        get = diffcore.BLAS_THREADS[0]
        before, seen = get(), []

        def pin_often():
            for _ in range(300):
                with trainer._one_blas_thread():
                    seen.append(get())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=pin_often) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert seen == [1] * 1200
        assert get() == before

    @needs_blas_setter
    def test_previous_step_tapes_dead_when_the_next_starts(self, monkeypatch):
        # the grouped counterpart of TestOneTapeAlive
        tasks, net, cfg = _grouped_setup()
        assemble, adam_step = trainer.assemble_multitask_loss, trainer.adam_step
        tapes, done, checks = [], [0], []

        def watched(*args, **kw):
            checks.append(all(t() is None for t in tapes[:done[0]]))
            loss = assemble(*args, **kw)
            tapes.append(weakref.ref(loss.tape))
            return loss

        def stepped(*args, **kw):
            checks.append(all(t() is None for t in tapes))
            done[0] = len(tapes)
            return adam_step(*args, **kw)

        monkeypatch.setattr(trainer, "assemble_multitask_loss", watched)
        monkeypatch.setattr(trainer, "adam_step", stepped)
        gc.disable()
        try:
            mad.pretrain(tasks, net, cfg)
        finally:
            gc.enable()
        assert len(tapes) == 2 * cfg.total_iters
        assert all(checks), checks

    @needs_blas_setter
    def test_groups_in_turn_hold_one_tape_at_a_time(self, monkeypatch):
        # one CPU: group 0 is assembled and swept before group 1 is assembled
        tasks, net, cfg = _grouped_setup()
        monkeypatch.setattr(trainer, "usable_cpus", lambda: 1)
        assemble = trainer.assemble_multitask_loss
        last, checks = [None], []

        def watched(*args, **kw):
            checks.append(last[0] is None or last[0]() is None)
            loss = assemble(*args, **kw)
            last[0] = weakref.ref(loss.tape)
            return loss

        monkeypatch.setattr(trainer, "assemble_multitask_loss", watched)
        gc.disable()
        try:
            mad.pretrain(tasks, net, cfg)
        finally:
            gc.enable()
        assert len(checks) == 2 * cfg.total_iters and all(checks), checks


class TestFrozenGroups:
    """Over frozen weights a step stacks consecutive groups of
    ``GROUP_ELEMENTS // hidden_values([task])`` tasks; each group is
    assembled and swept before the next is assembled, and every task's
    divergence guard runs once all are solved."""

    HELD = [OdeShiftTask(e) for e in (0.2, 0.7, 1.1, 1.5, 1.9)]
    LABELS = ["a", "b", "c", "d", "e"]

    @pytest.fixture()
    def cfg(self, monkeypatch):
        """A fine-tuning config whose groups hold two tasks: [a, b], [c, d], [e]."""
        cfg = quick_cfg(total_iters=12, eval_every=4, lr0=1e-2, clip_grad_norm=1e-3)
        per_task = trainer.hidden_values(self.HELD[:1], cfg, ode_net().width)
        monkeypatch.setattr(trainer, "GROUP_ELEMENTS", 2 * per_task + 1)
        return cfg

    def finetune(self, ck, cfg, g=slice(None), Z0=None):
        grids = [evaluation.for_task(t) for t in self.HELD[g]]
        Z0 = np.zeros((len(grids), 1)) if Z0 is None else Z0
        return mad.finetune_L_batch(ck, self.HELD[g], Z0, cfg, grids,
                                    self.LABELS[g], record_snapshots=True)

    def test_each_group_matches_a_run_over_it_alone(self, small_checkpoint, cfg,
                                                    monkeypatch):
        optimize, runs = trainer.optimize, []

        def kept(*args, **kw):
            runs.append(optimize(*args, **kw))
            return runs[-1]

        monkeypatch.setattr(trainer, "optimize", kept)
        sizes = _group_sizes(monkeypatch)
        Z0 = np.stack([mad.init_latent(t, small_checkpoint, "nearest")
                       for t in self.HELD])
        Z, recs = self.finetune(small_checkpoint, cfg, Z0=Z0)
        assert sizes == [2, 2, 1] * cfg.total_iters
        whole = runs[-1].per_task_loss
        for g in trainer.task_groups(self.HELD, cfg, ode_net().width, False):
            Zg, recs_g = self.finetune(small_checkpoint, cfg, g, Z0[g])
            assert np.array_equal(Z[g], Zg)
            assert np.array_equal(whole[g], runs[-1].per_task_loss)
            for rec, alone in zip(recs[g], recs_g):
                assert rec.task_id == alone.task_id and rec.series == alone.series
                for (i, s), (i1, s1) in zip(rec.snapshots, alone.snapshots):
                    assert i == i1 and np.array_equal(s, s1)

    @pytest.mark.parametrize("bad", [np.nan, 1e30], ids=["non_finite", "blow_up"])
    def test_divergence_in_a_later_group_names_its_task(self, small_checkpoint,
                                                        cfg, monkeypatch, bad):
        assemble = trainer.assemble_multitask_loss
        second_group = []

        def poisoned(tasks, batches, *args, **kw):
            if tasks[0] is self.HELD[2]:
                second_group.append(1)
                if len(second_group) == 4:  # iteration 3: task "d" goes bad
                    b = batches[1]
                    batches = [batches[0], problems.SampleBatch(
                        b.interior, b.boundary, np.full_like(b.boundary_values, bad))]
            return assemble(tasks, batches, *args, **kw)

        monkeypatch.setattr(trainer, "assemble_multitask_loss", poisoned)
        with pytest.raises(trainer.TrainingError,
                           match="^fine-tuning diverged at iteration 3 on d:"):
            self.finetune(small_checkpoint, cfg)

    def test_earlier_group_tape_dead_when_the_next_is_assembled(
            self, small_checkpoint, cfg, monkeypatch):
        # the frozen counterpart of TestOneTapeAlive
        assemble = trainer.assemble_multitask_loss
        last, checks = [None], []

        def watched(*args, **kw):
            checks.append(last[0] is None or last[0]() is None)
            loss = assemble(*args, **kw)
            last[0] = weakref.ref(loss.tape)
            return loss

        monkeypatch.setattr(trainer, "assemble_multitask_loss", watched)
        gc.disable()
        try:
            self.finetune(small_checkpoint, cfg)
        finally:
            gc.enable()
        assert len(checks) == 3 * cfg.total_iters and all(checks), checks

    def test_large_tasks_run_one_per_group_unpinned(self, monkeypatch):
        # at the shape of TestGroupedPretrain one task holds more than
        # GROUP_ELEMENTS values, so each is its own group, with BLAS as it is
        tasks, net, cfg = _grouped_setup()
        assemble = trainer.assemble_multitask_loss

        def blas_threads():
            return None if diffcore.BLAS_THREADS is None else diffcore.BLAS_THREADS[0]()

        seen = []

        def watched(tasks, *args, **kw):
            seen.append((len(tasks), blas_threads()))
            return assemble(tasks, *args, **kw)

        monkeypatch.setattr(trainer, "assemble_multitask_loss", watched)
        streams = [np.random.default_rng(i) for i in range(len(tasks))]
        trainer.optimize("fine-tuning", tasks, streams, network.init_siren(net, 0),
                         np.zeros((len(tasks), net.latent_dim)), cfg,
                         tune_theta=False)
        assert seen == [(1, blas_threads())] * (2 * cfg.total_iters)

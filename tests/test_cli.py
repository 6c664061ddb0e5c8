import dataclasses
import json
import os

import numpy as np
import pytest

from madpde import baselines, benchviz, cli, diffcore, evaluation, mad, problems, trainer


def write_config(path, **kw):
    cfg = {
        "experiment": "ode_mini",
        "problem": {"variant": "ode_shift", "eta_range": [0.0, 2.0]},
        "tasks": {"n_tasks": 6, "n_pretrain": 5, "seed": 7},
        "network": {"latent_dim": 1, "hidden_layers": 2, "width": 8,
                    "first_layer_omega": 2.0},
        "pretrain": {"lr0": 1e-2, "total_iters": 8, "M_r": 16, "M_bc": 2,
                     "inv_sigma2": 0.0, "eval_every": 4, "seed": 0},
        "finetune": {"lr0": 1e-2, "total_iters": 6, "M_r": 16, "M_bc": 2,
                     "inv_sigma2": 0.0, "eval_every": 3, "seed": 0,
                     "init_strategy": "nearest"},
    }
    cfg.update(kw)
    with open(path, "w") as f:
        json.dump(cfg, f)
    return str(path)


@pytest.fixture()
def ode_setup(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.json")
    tasks_dir = str(tmp_path / "tasks")
    assert cli.main(["gen-tasks", "--config", cfg_path, "--out", tasks_dir]) == 0
    return cfg_path, tasks_dir, tmp_path


class TestGenTasks:
    def test_counts_and_disjointness(self, ode_setup):
        _, tasks_dir, _ = ode_setup
        s1 = json.load(open(os.path.join(tasks_dir, "tasks_s1.json")))
        s2 = json.load(open(os.path.join(tasks_dir, "tasks_s2.json")))
        assert len(s1) == 5 and len(s2) == 1
        ids1 = {e["id"] for e in s1}
        ids2 = {e["id"] for e in s2}
        assert not ids1 & ids2
        assert ids1 | ids2 == set(range(6))

    def test_burgers_split_and_refs(self, tmp_path):
        cfg_path = write_config(
            tmp_path / "b.json",
            experiment="burgers_mini",
            problem={"variant": "burgers", "nu": 0.01, "grf": {"n_modes": 8}},
            tasks={"n_tasks": 5, "n_pretrain": 3, "seed": 7},
            reference={"nx": 64, "nt": 4},
        )
        out = str(tmp_path / "tasks_b")
        assert cli.main(["gen-tasks", "--config", cfg_path, "--out", out]) == 0
        s2 = json.load(open(os.path.join(out, "tasks_s2.json")))
        for e in s2:
            assert os.path.exists(os.path.join(out, "refs",
                                               f"task_{e['id']:04d}.ref"))

    def test_refuses_overwrite_without_force(self, ode_setup):
        cfg_path, tasks_dir, _ = ode_setup
        assert cli.main(["gen-tasks", "--config", cfg_path,
                         "--out", tasks_dir]) == 1
        assert cli.main(["gen-tasks", "--config", cfg_path, "--out", tasks_dir,
                         "--force"]) == 0

    def test_same_seed_identical_files(self, ode_setup, tmp_path):
        cfg_path, tasks_dir, _ = ode_setup
        other = str(tmp_path / "tasks2")
        assert cli.main(["gen-tasks", "--config", cfg_path, "--out", other]) == 0
        a = open(os.path.join(tasks_dir, "tasks_s1.json")).read()
        b = open(os.path.join(other, "tasks_s1.json")).read()
        assert a == b


class TestPipeline:
    def test_pretrain_finetune_eval_viz(self, ode_setup):
        cfg_path, tasks_dir, tmp_path = ode_setup
        pre_dir = str(tmp_path / "pre")
        assert cli.main(["pretrain", "--config", cfg_path, "--tasks", tasks_dir,
                         "--out", pre_dir]) == 0
        ckpt = os.path.join(pre_dir, "checkpoint.ckpt")
        assert os.path.exists(ckpt)

        ft_dir = str(tmp_path / "ft")
        assert cli.main(["finetune", "--config", cfg_path, "--tasks", tasks_dir,
                         "--checkpoint", ckpt, "--mode", "L",
                         "--out", ft_dir]) == 0
        conv = os.path.join(ft_dir, "convergence.csv")
        assert os.path.exists(conv)
        snaps = [os.path.join(ft_dir, "snapshots", f)
                 for f in os.listdir(os.path.join(ft_dir, "snapshots"))]
        assert snaps

        ev_dir = str(tmp_path / "ev")
        assert cli.main(["eval", "--config", cfg_path, "--tasks", tasks_dir,
                         "--checkpoint", ckpt, "--out", ev_dir]) == 0
        summary = json.load(open(os.path.join(ev_dir, "summary.json")))
        assert "mean" in summary and "per_task" in summary

        viz_dir = str(tmp_path / "viz")
        assert cli.main(["viz", "--config", cfg_path, "--records", conv,
                         "--snapshots", *snaps, "--out", viz_dir]) == 0
        assert os.path.exists(os.path.join(viz_dir, "aggregated.csv"))
        assert os.path.exists(os.path.join(viz_dir, "manifold.csv"))
        assert os.path.exists(os.path.join(viz_dir, "summary.json"))

    def test_finetune_zero_iters_single_eval(self, ode_setup):
        cfg_path, tasks_dir, tmp_path = ode_setup
        pre_dir = str(tmp_path / "pre0")
        cli.main(["pretrain", "--config", cfg_path, "--tasks", tasks_dir,
                  "--out", pre_dir])
        ft_dir = str(tmp_path / "ft0")
        assert cli.main(["finetune", "--config", cfg_path, "--tasks", tasks_dir,
                         "--checkpoint", os.path.join(pre_dir, "checkpoint.ckpt"),
                         "--mode", "L", "--out", ft_dir,
                         "--set", "finetune.total_iters=0"]) == 0
        lines = open(os.path.join(ft_dir, "convergence.csv")).read().splitlines()
        assert len(lines) == 2  # header + the single initial evaluation
        assert lines[1].split(",")[3] == "0"

    def test_baseline_from_scratch(self, ode_setup):
        cfg_path, tasks_dir, tmp_path = ode_setup
        out = str(tmp_path / "fs")
        assert cli.main(["baseline", "--config", cfg_path, "--tasks", tasks_dir,
                         "--method", "from-scratch", "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "convergence.csv"))

    def test_idempotent_rerun_with_force(self, ode_setup):
        cfg_path, tasks_dir, tmp_path = ode_setup
        pre_dir = str(tmp_path / "pre_idem")
        cli.main(["pretrain", "--config", cfg_path, "--tasks", tasks_dir,
                  "--out", pre_dir])
        first = open(os.path.join(pre_dir, "checkpoint.ckpt"), "rb").read()
        first_csv = open(os.path.join(pre_dir, "pretrain_loss.csv")).read()
        cli.main(["pretrain", "--config", cfg_path, "--tasks", tasks_dir,
                  "--out", pre_dir, "--force"])
        assert open(os.path.join(pre_dir, "checkpoint.ckpt"), "rb").read() == first
        assert open(os.path.join(pre_dir, "pretrain_loss.csv")).read() == first_csv


class TestManifest:
    def test_records_what_bit_exact_outputs_depend_on(self, ode_setup, monkeypatch):
        cfg_path, tasks_dir, tmp_path = ode_setup
        manifest = json.load(open(os.path.join(tasks_dir, "manifest.json")))
        assert manifest["numpy_version"] == np.__version__
        assert manifest["usable_cpus"] == trainer.usable_cpus() >= 1
        if diffcore.BLAS_THREADS is None:
            assert manifest["blas_threads"] is None
        else:
            assert manifest["blas_threads"] == diffcore.BLAS_THREADS[0]() >= 1
        # without a setter the count is unknown
        monkeypatch.setattr(diffcore, "BLAS_THREADS", None)
        out = tmp_path / "again"
        assert cli.main(["gen-tasks", "--config", cfg_path, "--out", str(out)]) == 0
        assert json.load(open(out / "manifest.json"))["blas_threads"] is None


class TestErrors:
    def test_missing_config_section(self, tmp_path):
        p = tmp_path / "bad.json"
        json.dump({"experiment": "x"}, open(p, "w"))
        assert cli.main(["gen-tasks", "--config", str(p)]) == 1

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "bad2.json"
        json.dump({"experiment": "x", "problem": {}, "tasks": {},
                   "bogus": {}}, open(p, "w"))
        assert cli.main(["gen-tasks", "--config", str(p)]) == 1

    def test_missing_task_file(self, ode_setup, tmp_path):
        cfg_path, _, _ = ode_setup
        assert cli.main(["pretrain", "--config", cfg_path,
                         "--tasks", str(tmp_path / "nope"),
                         "--out", str(tmp_path / "o")]) == 1

    def test_bad_network_settings_exit_without_traceback(self, ode_setup, capsys):
        _, tasks_dir, tmp_path = ode_setup
        bad = write_config(tmp_path / "bad_net.json",
                           network={"hidden_layers": 0})
        assert cli.main(["pretrain", "--config", bad, "--tasks", tasks_dir,
                         "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad network settings")
        assert "Traceback" not in err

    @pytest.mark.parametrize("meta, message", [
        ({"inner_steps": 1}, "meta_iters"),
        ({"meta_iters": 1, "inner_lr": -1}, "learning rates must be positive"),
    ], ids=["no_meta_iters", "negative_inner_lr"])
    def test_bad_meta_settings_exit_without_traceback(self, ode_setup, capsys,
                                                      meta, message):
        _, tasks_dir, tmp_path = ode_setup
        bad = write_config(tmp_path / "bad_meta.json", baseline={"meta": meta})
        capsys.readouterr()
        assert cli.main(["baseline", "--config", bad, "--tasks", tasks_dir,
                         "--method", "reptile", "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad baseline.meta settings")
        assert message in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_nearest_init_on_triangles_exits_without_traceback(self, tmp_path,
                                                              capsys):
        cfg_path = write_config(
            tmp_path / "lap.json", experiment="laplace_mini",
            problem={"variant": "laplace_triangle"},
            tasks={"n_tasks": 3, "n_pretrain": 2, "seed": 7},
            network={"latent_dim": 1, "hidden_layers": 1, "width": 4,
                     "first_layer_omega": 1.0},
            pretrain={"lr0": 1e-3, "total_iters": 1, "M_r": 8, "M_bc": 4},
            finetune={"lr0": 1e-3, "total_iters": 1, "M_r": 8, "M_bc": 4,
                      "init_strategy": "nearest"})
        tasks_dir = str(tmp_path / "tasks")
        pre_dir = str(tmp_path / "pre")
        assert cli.main(["gen-tasks", "--config", cfg_path, "--out", tasks_dir]) == 0
        assert cli.main(["pretrain", "--config", cfg_path, "--tasks", tasks_dir,
                         "--out", pre_dir]) == 0
        capsys.readouterr()
        assert cli.main(["finetune", "--config", cfg_path, "--tasks", tasks_dir,
                         "--checkpoint", os.path.join(pre_dir, "checkpoint.ckpt"),
                         "--mode", "L", "--out", str(tmp_path / "ft")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: nearest-latent initialization")
        assert "Traceback" not in err

    def test_unknown_init_strategy_exits_without_traceback(self, ode_setup, capsys):
        cfg_path, tasks_dir, tmp_path = ode_setup
        pre_dir = str(tmp_path / "pre")
        assert cli.main(["pretrain", "--config", cfg_path, "--tasks", tasks_dir,
                         "--out", pre_dir]) == 0
        capsys.readouterr()
        assert cli.main(["eval", "--config", cfg_path, "--tasks", tasks_dir,
                         "--checkpoint", os.path.join(pre_dir, "checkpoint.ckpt"),
                         "--out", str(tmp_path / "ev"),
                         "--set", "finetune.init_strategy=closest"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: latent init strategy 'closest'")
        assert "Traceback" not in err

    def test_seed_override_changes_tasks(self, ode_setup, tmp_path):
        cfg_path, tasks_dir, _ = ode_setup
        other = str(tmp_path / "tasks_seeded")
        assert cli.main(["gen-tasks", "--config", cfg_path, "--out", other,
                         "--seed", "123"]) == 0
        a = open(os.path.join(tasks_dir, "tasks_s1.json")).read()
        b = open(os.path.join(other, "tasks_s1.json")).read()
        assert a != b


def one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    return err


class TestFamilies:
    @pytest.fixture()
    def burgers_tasks(self, tmp_path):
        cfg_path = write_config(
            tmp_path / "b.json", experiment="burgers_mini",
            problem={"variant": "burgers", "nu": 0.01, "grf": {"n_modes": 8}},
            tasks={"n_tasks": 3, "n_pretrain": 2, "seed": 7},
            reference={"nx": 64, "nt": 4})
        out = str(tmp_path / "tasks_b")
        assert cli.main(["gen-tasks", "--config", cfg_path, "--out", out]) == 0
        return cfg_path, out

    @pytest.mark.parametrize("command, strategy", [
        ("finetune", "nearest"), ("finetune", "mean"), ("eval", "mean")])
    def test_checkpoint_of_another_family(self, ode_setup, burgers_tasks, capsys,
                                          command, strategy):
        ode_cfg, ode_tasks, tmp_path = ode_setup
        pre_dir = str(tmp_path / "pre")
        assert cli.main(["pretrain", "--config", ode_cfg, "--tasks", ode_tasks,
                         "--out", pre_dir]) == 0
        cfg_path, tasks_dir = burgers_tasks
        capsys.readouterr()
        argv = [command, "--config", cfg_path, "--tasks", tasks_dir,
                "--checkpoint", os.path.join(pre_dir, "checkpoint.ckpt"),
                "--out", str(tmp_path / "o"),
                "--set", f"finetune.init_strategy={strategy}"]
        if command == "finetune":
            argv += ["--mode", "L"]
        assert cli.main(argv) == 1
        err = one_error_line(capsys)
        assert "'ode_shift'" in err and "'burgers'" in err

    def test_config_variant_disagrees_with_task_file(self, ode_setup, capsys):
        _, tasks_dir, tmp_path = ode_setup
        bad = write_config(tmp_path / "burgers_cfg.json",
                           problem={"variant": "burgers"})
        capsys.readouterr()
        assert cli.main(["pretrain", "--config", bad, "--tasks", tasks_dir,
                         "--out", str(tmp_path / "o")]) == 1
        err = one_error_line(capsys)
        assert "'ode_shift'" in err and "'burgers'" in err

    def test_problem_section_without_variant(self, ode_setup):
        _, tasks_dir, tmp_path = ode_setup
        cfg = write_config(tmp_path / "no_variant.json", problem={})
        assert cli.main(["pretrain", "--config", cfg, "--tasks", tasks_dir,
                         "--out", str(tmp_path / "o")]) == 0

    def test_removed_network_key_rejected(self, ode_setup, capsys):
        _, tasks_dir, tmp_path = ode_setup
        bad = write_config(tmp_path / "tanh.json",
                           network={"latent_dim": 1, "activation": "tanh"})
        capsys.readouterr()
        assert cli.main(["pretrain", "--config", bad, "--tasks", tasks_dir,
                         "--out", str(tmp_path / "o")]) == 1
        err = one_error_line(capsys)
        assert "'activation'" in err and "latent_dim" in err


class TestTaskFileErrors:
    @pytest.mark.parametrize("entry, words", [
        ({"id": 0, "task": {"variant": "ode_shift"}}, ["ode_shift", "'eta'"]),
        ({"task": {"variant": "ode_shift", "eta": 0.5}}, ["tasks_s1.json", "'id'"]),
    ], ids=["no_eta", "no_id"])
    def test_missing_key_exits_without_traceback(self, tmp_path, capsys, entry,
                                                 words):
        cfg_path = write_config(tmp_path / "cfg.json")
        tasks_dir = tmp_path / "tasks"
        tasks_dir.mkdir()
        (tasks_dir / "tasks_s1.json").write_text(json.dumps([entry]))
        assert cli.main(["pretrain", "--config", cfg_path, "--tasks",
                         str(tasks_dir), "--out", str(tmp_path / "o")]) == 1
        err = one_error_line(capsys)
        assert all(w in err for w in words)


class TestGenTasksConfigErrors:
    @pytest.mark.parametrize("problem", [
        {"variant": "burgers", "nu": 0.01, "grf": {"n_mode": 8}},
        {"variant": "laplace_triangle", "grf": {"n_mode": 8}},
    ], ids=["burgers", "laplace"])
    def test_misspelt_grf_key(self, tmp_path, capsys, problem):
        cfg_path = write_config(tmp_path / "g.json", problem=problem)
        assert cli.main(["gen-tasks", "--config", cfg_path,
                         "--out", str(tmp_path / "t")]) == 1
        err = one_error_line(capsys)
        assert "'n_mode'" in err and "n_modes" in err and "scale" in err

    @pytest.mark.parametrize("missing", ["n_tasks", "n_pretrain"])
    def test_tasks_section_without_count(self, tmp_path, capsys, missing):
        tasks = {"n_tasks": 6, "n_pretrain": 5, "seed": 7}
        del tasks[missing]
        cfg_path = write_config(tmp_path / "t.json", tasks=tasks)
        assert cli.main(["gen-tasks", "--config", cfg_path,
                         "--out", str(tmp_path / "t")]) == 1
        err = one_error_line(capsys)
        assert f"'{missing}'" in err

    @pytest.mark.parametrize("tasks, words", [
        (None, ["'tasks'", "None"]),
        ([6, 5], ["'tasks'", "[6, 5]"]),
        ({"n_tasks": "six", "n_pretrain": 5}, ["tasks.n_tasks", "'six'"]),
        ({"n_tasks": 6, "n_pretrain": 5, "seed": "seven"}, ["tasks.seed", "'seven'"]),
    ], ids=["null", "list", "not_a_number", "bad_seed"])
    def test_malformed_tasks_section(self, tmp_path, capsys, tasks, words):
        cfg_path = write_config(tmp_path / "t.json", tasks=tasks)
        assert cli.main(["gen-tasks", "--config", cfg_path,
                         "--out", str(tmp_path / "t")]) == 1
        err = one_error_line(capsys)
        assert all(w in err for w in words)
        assert not (tmp_path / "t").exists()  # nothing written before the check


def read_records(path):
    return {r.task_id: r for r in benchviz.read_convergence_csv(path)}


def read_split(tasks_dir, split):
    with open(os.path.join(tasks_dir, f"tasks_{split}.json")) as f:
        return [(e["id"], problems.task_from_json(e["task"])) for e in json.load(f)]


class TestBatchedFinetune:
    """MAD-L solves the held-out tasks in one run whose steps stack them in
    groups (here of two, ``trainer.task_groups``); records match one-task
    runs to 1e-12."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("batched")
        cfg_path = write_config(
            tmp / "cfg.json", tasks={"n_tasks": 5, "n_pretrain": 2, "seed": 7},
            finetune={"lr0": 1e-2, "total_iters": 8, "M_r": 16, "M_bc": 2,
                      "eval_every": 4, "seed": 0, "init_strategy": "nearest",
                      "clip_grad_norm": 0.01})
        tasks_dir, pre = str(tmp / "tasks"), str(tmp / "pre")
        assert cli.main(["gen-tasks", "--config", cfg_path, "--out", tasks_dir]) == 0
        assert cli.main(["pretrain", "--config", cfg_path, "--tasks", tasks_dir,
                         "--out", pre]) == 0
        return cfg_path, tasks_dir, os.path.join(pre, "checkpoint.ckpt"), tmp

    @pytest.fixture()
    def batch_sizes(self, trained, monkeypatch):
        """The task count of every group assembled, with two tasks a group."""
        cfg = json.load(open(trained[0]))
        task = read_split(trained[1], "s2")[0][1]
        per_task = trainer.hidden_values([task], cli.train_config(cfg, "finetune"),
                                         cli.network_config(cfg, task).width)
        monkeypatch.setattr(trainer, "GROUP_ELEMENTS", 2 * per_task)
        sizes = []
        assemble = trainer.assemble_multitask_loss

        def counted(tasks, *args, **kw):
            sizes.append(len(tasks))
            return assemble(tasks, *args, **kw)

        monkeypatch.setattr(trainer, "assemble_multitask_loss", counted)
        return sizes

    def finetune(self, trained, out, *extra):
        cfg_path, tasks_dir, ck, tmp = trained
        assert cli.main(["finetune", "--config", cfg_path, "--tasks", tasks_dir,
                         "--checkpoint", ck, "--mode", "L", "--force",
                         "--out", str(tmp / out), *extra]) == 0
        return read_records(str(tmp / out / "convergence.csv"))

    @staticmethod
    def assert_close(rec, ref):
        np.testing.assert_array_equal(rec.iterations(), ref.iterations())
        np.testing.assert_allclose(rec.errors(), ref.errors(), rtol=1e-12)
        np.testing.assert_allclose(rec.losses(), ref.losses(), rtol=1e-12)

    def test_two_batches_match_single_task_runs(self, trained, batch_sizes):
        records = self.finetune(trained, "full")
        assert batch_sizes == [2, 1] * 8
        cfg_path, tasks_dir, ck_path, _ = trained
        ck = mad.load_checkpoint(ck_path)
        fine = cli.train_config(json.load(open(cfg_path)), "finetune")
        for tid, task in read_split(tasks_dir, "s2"):
            _, alone = mad.finetune_L(ck, task, mad.init_latent(task, ck, "nearest"),
                                      fine, evaluation.for_task(task, seed=tid))
            self.assert_close(records[f"s2-{tid}"], alone)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_task_index_matches_full_run(self, trained, batch_sizes, k):
        full = self.finetune(trained, "all")
        tid = read_split(trained[1], "s2")[k][0]
        one = self.finetune(trained, f"one_{k}", "--task-index", str(tid))
        assert batch_sizes == [2, 1] * 8 + [1] * 8
        assert list(one) == [f"s2-{tid}"]
        self.assert_close(one[f"s2-{tid}"], full[f"s2-{tid}"])


class TestBaselineMetaTrainsOnce:
    def test_reptile_meta_trains_once_for_all_held_out_tasks(self, tmp_path,
                                                             monkeypatch):
        meta = {"meta_iters": 3, "inner_steps": 2}
        cfg_path = write_config(tmp_path / "cfg.json", baseline={"meta": meta},
                                tasks={"n_tasks": 6, "n_pretrain": 4, "seed": 7})
        tasks_dir = str(tmp_path / "tasks")
        assert cli.main(["gen-tasks", "--config", cfg_path, "--out", tasks_dir]) == 0
        calls = []
        adapt = baselines.inner_adapt

        def counted(*args, **kw):
            calls.append(1)
            return adapt(*args, **kw)

        monkeypatch.setattr(baselines, "inner_adapt", counted)
        out = tmp_path / "reptile"
        assert cli.main(["baseline", "--config", cfg_path, "--tasks", tasks_dir,
                         "--method", "reptile", "--out", str(out)]) == 0
        assert len(calls) == meta["meta_iters"]

        # byte for byte what meta-training afresh for each task writes
        cfg = json.load(open(cfg_path))
        fine = cli.train_config(cfg, "finetune")
        s1 = [t for _, t in read_split(tasks_dir, "s1")]
        held = read_split(tasks_dir, "s2")
        assert len(held) == 2
        net = dataclasses.replace(cli.network_config(cfg, s1[0]), latent_dim=0)
        records = [baselines.pinn_train(
            task, net, fine, eval_grid=evaluation.for_task(task, seed=tid),
            method="reptile", task_label=f"s2-{tid}",
            theta0=baselines.reptile_theta(
                s1, net, baselines.MetaConfig(seed=fine.seed, **meta), fine)[0])[1]
            for tid, task in held]
        benchviz.write_convergence_csv(str(tmp_path / "alone.csv"), records)
        assert (out / "convergence.csv").read_bytes() == \
            (tmp_path / "alone.csv").read_bytes()


class TestConfigErrorsLeaveNoDirectory:
    """pretrain, finetune and baseline check their config sections and input
    files before they create the output directory, so the corrected rerun
    needs no --force."""

    GOOD_TRAIN = {"lr0": 1e-2, "total_iters": 2, "M_r": 8, "M_bc": 2,
                  "eval_every": 1, "seed": 0}

    @pytest.fixture()
    def checkpoint(self, ode_setup):
        cfg_path, tasks_dir, tmp_path = ode_setup
        pre = str(tmp_path / "pre")
        assert cli.main(["pretrain", "--config", cfg_path, "--tasks", tasks_dir,
                         "--out", pre]) == 0
        return os.path.join(pre, "checkpoint.ckpt")

    @pytest.mark.parametrize("command, fault", [
        ("pretrain", "section"), ("pretrain", "tasks"),
        ("finetune", "section"), ("finetune", "tasks"),
        ("baseline", "section"), ("baseline", "tasks"),
    ])
    def test_rerun_after_fix_needs_no_force(self, ode_setup, checkpoint, capsys,
                                            command, fault):
        cfg_path, tasks_dir, tmp_path = ode_setup
        section = "pretrain" if command == "pretrain" else "finetune"
        bad_cfg = cfg_path
        if fault == "section":
            bad_cfg = write_config(tmp_path / "bad.json",
                                   **{section: dict(self.GOOD_TRAIN, lr0=-1.0)})
        out = tmp_path / "out"

        def run(cfg, tasks):
            argv = [command, "--config", cfg, "--tasks", tasks, "--out", str(out)]
            if command == "finetune":
                argv += ["--checkpoint", checkpoint, "--mode", "L"]
            if command == "baseline":
                argv += ["--method", "from-scratch"]
            return cli.main(argv)

        capsys.readouterr()
        bad_tasks = str(tmp_path / "no_tasks") if fault == "tasks" else tasks_dir
        assert run(bad_cfg, bad_tasks) == 1
        err = one_error_line(capsys)
        assert (f"bad {section} settings" if fault == "section"
                else "cannot read task file") in err
        assert not out.exists()
        assert run(cfg_path, tasks_dir) == 0
        assert (out / "manifest.json").exists()


class TestWorkers:
    """--workers is at least 1 everywhere, and above 1 only for finetune
    --mode LM, the one command that runs held-out tasks on threads."""

    @pytest.fixture()
    def argvs(self, ode_setup):
        cfg_path, tasks_dir, tmp_path = ode_setup
        pre = str(tmp_path / "pre")
        assert cli.main(["pretrain", "--config", cfg_path, "--tasks", tasks_dir,
                         "--out", pre]) == 0
        ck = os.path.join(pre, "checkpoint.ckpt")
        common = ["--config", cfg_path]
        held = common + ["--tasks", tasks_dir, "--checkpoint", ck]
        return {
            "gen-tasks": ["gen-tasks"] + common,
            "pretrain": ["pretrain"] + common + ["--tasks", tasks_dir],
            "finetune L": ["finetune"] + held + ["--mode", "L"],
            "finetune LM": ["finetune"] + held + ["--mode", "LM"],
            "baseline": ["baseline"] + common + ["--tasks", tasks_dir,
                                                 "--method", "from-scratch"],
            "eval": ["eval"] + held,
        }, tmp_path

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_below_one_rejected_everywhere(self, argvs, capsys, workers):
        commands, tmp_path = argvs
        for name, argv in commands.items():
            out = tmp_path / f"w{workers}_{name.replace(' ', '_')}"
            capsys.readouterr()
            assert cli.main(argv + ["--workers", workers, "--out", str(out)]) == 1
            err = one_error_line(capsys)
            assert f"--workers must be at least 1, got {workers}" in err
            assert not out.exists()

    def test_above_one_only_where_read(self, argvs, capsys):
        commands, tmp_path = argvs
        for name, argv in commands.items():
            out = tmp_path / f"w2_{name.replace(' ', '_')}"
            capsys.readouterr()
            rc = cli.main(argv + ["--workers", "2", "--out", str(out)])
            if name == "finetune LM":
                assert rc == 0
                continue
            assert rc == 1
            err = one_error_line(capsys)
            assert "applies only to finetune --mode LM" in err
            assert not out.exists()

    def test_one_accepted_everywhere(self, argvs):
        commands, tmp_path = argvs
        for name, argv in commands.items():
            out = tmp_path / f"w1_{name.replace(' ', '_')}"
            assert cli.main(argv + ["--workers", "1", "--out", str(out)]) == 0, name

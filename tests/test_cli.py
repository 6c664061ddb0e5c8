import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

from madpde import baselines, benchviz, cli, diffcore, evaluation, mad, problems, trainer


def read_json(path):
    with open(path) as f:
        return json.load(f)


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
        s1 = read_json(os.path.join(tasks_dir, "tasks_s1.json"))
        s2 = read_json(os.path.join(tasks_dir, "tasks_s2.json"))
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
        s2 = read_json(os.path.join(out, "tasks_s2.json"))
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
        a = Path(tasks_dir, "tasks_s1.json").read_text()
        b = Path(other, "tasks_s1.json").read_text()
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
        summary = read_json(os.path.join(ev_dir, "summary.json"))
        assert "mean" in summary and "per_task" in summary

        viz_dir = str(tmp_path / "viz")
        assert cli.main(["viz", "--config", cfg_path, "--records", conv,
                         "--snapshots", *snaps, "--out", viz_dir]) == 0
        assert os.path.exists(os.path.join(viz_dir, "aggregated.csv"))
        assert os.path.exists(os.path.join(viz_dir, "manifold.csv"))
        assert os.path.exists(os.path.join(viz_dir, "summary.json"))

    def test_viz_writes_every_number_as_a_plain_float(self, tmp_path):
        records = tmp_path / "convergence.csv"
        benchviz.write_convergence_csv(str(records), [
            benchviz.ConvergenceRecord(f"s2-{i}", "mad_L", 0,
                                       [(0, 0.5 + i, 1.0), (3, 0.4 + i, 0.8)])
            for i in range(2)])
        out = tmp_path / "viz"
        assert cli.main(["viz", "--config", write_config(tmp_path / "cfg.json"),
                         "--records", str(records), "--out", str(out)]) == 0
        header, *rows = (out / "aggregated.csv").read_text().splitlines()
        assert header == "method,iteration,mean_rel_l2,ci_lo,ci_hi"
        assert len(rows) == 2
        for row in rows:
            method, *numbers = row.split(",")
            assert method == "mad_L" and len(numbers) == 4
            for cell in numbers:
                float(cell)

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
        lines = Path(ft_dir, "convergence.csv").read_text().splitlines()
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
        first = Path(pre_dir, "checkpoint.ckpt").read_bytes()
        first_csv = Path(pre_dir, "pretrain_loss.csv").read_text()
        cli.main(["pretrain", "--config", cfg_path, "--tasks", tasks_dir,
                  "--out", pre_dir, "--force"])
        assert Path(pre_dir, "checkpoint.ckpt").read_bytes() == first
        assert Path(pre_dir, "pretrain_loss.csv").read_text() == first_csv


class TestManifest:
    def test_records_what_bit_exact_outputs_depend_on(self, ode_setup, monkeypatch):
        cfg_path, tasks_dir, tmp_path = ode_setup
        manifest = read_json(os.path.join(tasks_dir, "manifest.json"))
        assert manifest["numpy_version"] == np.__version__
        simd = np.show_config(mode="dicts")["SIMD Extensions"]
        assert manifest["cpu_simd"] == simd["found"]
        assert all(isinstance(t, str) for t in manifest["cpu_simd"])
        assert manifest["usable_cpus"] == trainer.usable_cpus() >= 1
        if diffcore.BLAS_THREADS is None:
            assert manifest["blas_threads"] is None
        else:
            assert manifest["blas_threads"] == diffcore.BLAS_THREADS[0]() >= 1
        # without a setter the count is unknown
        monkeypatch.setattr(diffcore, "BLAS_THREADS", None)
        out = tmp_path / "again"
        assert cli.main(["gen-tasks", "--config", cfg_path, "--out", str(out)]) == 0
        assert read_json(out / "manifest.json")["blas_threads"] is None

    @pytest.mark.parametrize("lean, stated", [
        ({"variant": "burgers"},
         {"variant": "burgers", "nu": 0.01,
          "grf": {"scale": 1000.0, "shift": 9.0, "power": 3, "n_modes": 32}}),
        ({"variant": "laplace_triangle", "grf": {"n_modes": 8}},
         {"variant": "laplace_triangle",
          "grf": {"scale": 10.0 ** 1.5, "shift": 100.0, "power": 3, "n_modes": 8}}),
    ], ids=["burgers", "laplace"])
    def test_problem_defaults_are_part_of_the_experiment(self, lean, stated):
        """Configs that differ only in a stated problem default are one
        experiment, and the manifest records it (``dataclasses.asdict``)."""
        base = {"experiment": "e", "tasks": {"n_tasks": 3, "n_pretrain": 2}}
        a = cli.read_experiment(dict(base, problem=lean), None)
        b = cli.read_experiment(dict(base, problem=stated), None)
        assert a == b and a.problem == stated
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_config_is_the_experiment_after_defaults(self, tmp_path):
        train = {"lr0": 1e-3, "total_iters": 2, "M_r": 8, "M_bc": 2}
        lean = {"experiment": "lean", "problem": {"variant": "ode_shift"},
                "tasks": {"n_tasks": 3, "n_pretrain": 2}, "pretrain": train,
                "finetune": train, "baseline": {"meta": {"meta_iters": 1}}}
        train_defaults = dict(train, lambda_bc=1.0, inv_sigma2=1e-4, eval_every=10,
                              seed=0, clip_grad_norm=None)
        full = dict(lean, problem={"variant": "ode_shift", "eta_range": [0.0, 2.0]},
                    tasks={"n_tasks": 3, "n_pretrain": 2, "seed": 0},
                    reference={"nx": 256, "nt": 50, "which": "s2"},
                    network={"latent_dim": 0, "hidden_layers": 4, "width": 64,
                             "first_layer_omega": 30.0},
                    pretrain=train_defaults,
                    finetune=dict(train_defaults, init_strategy="mean"),
                    baseline={"meta": {"meta_iters": 1, "inner_steps": 8,
                                       "inner_lr": 1e-3, "meta_lr": 1e-3, "eps0": 1.0,
                                       "anneal_eps": True, "meta_batch": 5}})

        def config(cfg, *flags):
            path, out = tmp_path / "cfg.json", tmp_path / "out"
            path.write_text(json.dumps(cfg))
            assert cli.main(["gen-tasks", "--config", str(path), "--out", str(out),
                             "--force", *flags]) == 0
            return read_json(out / "manifest.json")["config"]

        assert config(full) == config(lean)
        assert config(lean)["problem"] == full["problem"]
        seeded = config(lean, "--seed", "5")
        assert sorted(seeded) == sorted(f.name for f in
                                        dataclasses.fields(cli.Experiment))
        assert [seeded[s]["seed"] for s in ("tasks", "pretrain", "finetune", "meta")] \
            == [5] * 4


class TestErrors:
    def test_missing_config_section(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"experiment": "x"}))
        assert cli.main(["gen-tasks", "--config", str(p)]) == 1

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "bad2.json"
        p.write_text(json.dumps({"experiment": "x", "problem": {}, "tasks": {},
                                 "bogus": {}}))
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

    def test_failed_training_leaves_no_directory(self, ode_setup, capsys):
        cfg_path, tasks_dir, tmp_path = ode_setup
        out = tmp_path / "pre"
        capsys.readouterr()
        assert cli.main(["pretrain", "--config", cfg_path, "--tasks", tasks_dir,
                         "--out", str(out), "--set", "pretrain.lr0=1e6"]) == 1
        err = one_error_line(capsys)
        assert err.startswith("error: pre-training diverged at iteration")
        assert not out.exists()

    def test_failed_training_keeps_a_directory_it_did_not_make(self, ode_setup,
                                                                capsys):
        cfg_path, tasks_dir, tmp_path = ode_setup
        out = tmp_path / "pre"
        out.mkdir()
        (out / "kept.txt").write_text("earlier run")
        capsys.readouterr()
        assert cli.main(["pretrain", "--config", cfg_path, "--tasks", tasks_dir,
                         "--out", str(out), "--force",
                         "--set", "pretrain.lr0=1e6"]) == 1
        one_error_line(capsys)
        assert (out / "kept.txt").read_text() == "earlier run"

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
        a = Path(tasks_dir, "tasks_s1.json").read_text()
        b = Path(other, "tasks_s1.json").read_text()
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

    def test_problem_section_without_variant(self, ode_setup, capsys):
        # the network's input size and encoding come from the variant
        _, tasks_dir, tmp_path = ode_setup
        cfg = write_config(tmp_path / "no_variant.json", problem={})
        capsys.readouterr()
        assert cli.main(["pretrain", "--config", cfg, "--tasks", tasks_dir,
                         "--out", str(tmp_path / "o")]) == 1
        err = one_error_line(capsys)
        assert "bad problem settings" in err and str(sorted(problems.VARIANTS)) in err
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("payload, words", [
        ({"a": 1}, ["list of task objects"]),
        ([3], ["list of task objects"]),
        ([{"id": "x", "task": {"variant": "ode_shift", "eta": 0.5}}],
         ["ids must be integers", "'x'"]),
        ([{"id": 0, "task": "ode_shift"}], ["JSON object", "'ode_shift'"]),
        ([{"id": 0, "task": {"variant": "ode_shift", "eta": "abc"}}],
         ["bad ode_shift task", "'abc'"]),
        ([{"id": 0, "task": {"variant": "burgers", "nu": 0.01, "u0": {
            "cos": [0.0, 1.0], "sin": "x", "domain": "unit_interval_periodic"}}}],
         ["bad burgers task", "'x'"]),
    ], ids=["object", "number_entry", "id_not_a_number", "task_string",
            "eta_not_a_number", "u0_sin_not_a_number"])
    def test_malformed_file_exits_without_traceback(self, tmp_path, capsys,
                                                    payload, words):
        cfg_path = write_config(tmp_path / "cfg.json")
        tasks_dir = tmp_path / "tasks"
        tasks_dir.mkdir()
        (tasks_dir / "tasks_s1.json").write_text(json.dumps(payload))
        out = tmp_path / "o"
        assert cli.main(["pretrain", "--config", cfg_path, "--tasks",
                         str(tasks_dir), "--out", str(out)]) == 1
        err = one_error_line(capsys)
        assert all(w in err for w in ["tasks_s1.json", *words]), err
        assert not out.exists()


class TestUnreadableBinaryInputs:
    """A checkpoint or reference field that cannot be opened is one error
    line that names it, before any output directory exists."""

    def test_missing_checkpoint(self, ode_setup, capsys):
        cfg_path, tasks_dir, tmp_path = ode_setup
        nope, out = tmp_path / "nope.ckpt", tmp_path / "ft"
        assert cli.main(["finetune", "--config", cfg_path, "--tasks", tasks_dir,
                         "--checkpoint", str(nope), "--mode", "L",
                         "--out", str(out)]) == 1
        err = one_error_line(capsys)
        assert str(nope) in err and "cannot read the checkpoint file" in err
        assert not out.exists()

    def test_reference_field_that_is_a_directory(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "b.json", experiment="burgers_mini",
            problem={"variant": "burgers", "nu": 0.01, "grf": {"n_modes": 8}},
            tasks={"n_tasks": 3, "n_pretrain": 2, "seed": 7},
            reference={"nx": 32, "nt": 2})
        tasks_dir = tmp_path / "tasks"
        assert cli.main(["gen-tasks", "--config", cfg, "--out", str(tasks_dir)]) == 0
        held = read_split(str(tasks_dir), "s2")[0][0]
        ref = tasks_dir / "refs" / f"task_{held:04d}.ref"
        ref.unlink()
        ref.mkdir()
        out = tmp_path / "baseline"
        capsys.readouterr()
        assert cli.main(["baseline", "--config", cfg, "--tasks", str(tasks_dir),
                         "--method", "from-scratch", "--out", str(out)]) == 1
        err = one_error_line(capsys)
        assert str(ref) in err and "cannot read the reference-field file" in err
        assert not out.exists()


class TestGenTasksConfigErrors:
    # each family fixes its field's domain and keeps the constant mode, so
    # neither is a setting
    @pytest.mark.parametrize("problem, key", [
        ({"variant": "burgers", "nu": 0.01, "grf": {"n_mode": 8}}, "n_mode"),
        ({"variant": "laplace_triangle", "grf": {"n_mode": 8}}, "n_mode"),
        ({"variant": "burgers", "grf": {"domain": "unit_interval_periodic"}},
         "domain"),
        ({"variant": "laplace_triangle", "grf": {"domain": "unit_circle"}},
         "domain"),
        ({"variant": "burgers", "grf": {"include_constant": False}},
         "include_constant"),
    ], ids=["burgers", "laplace", "burgers_domain", "laplace_domain",
            "include_constant"])
    def test_misspelt_grf_key(self, tmp_path, capsys, problem, key):
        cfg_path = write_config(tmp_path / "g.json", problem=problem)
        assert cli.main(["gen-tasks", "--config", cfg_path,
                         "--out", str(tmp_path / "t")]) == 1
        err = one_error_line(capsys)
        assert f"unknown problem.grf settings ['{key}']" in err
        assert "allowed: ['scale', 'shift', 'power', 'n_modes']" in err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("problem", [
        {"variant": ["burgers"]},
        {"variant": "burgers", "nu": "abc"},
        {"variant": "burgers", "grf": 3},
        {"variant": "ode_shift", "eta_range": 5},
        {"variant": "burgers", "nu": 0.01, "grf": {"domain": "unit_circle"}},
    ], ids=["variant_list", "nu_not_a_number", "grf_number", "eta_range_number",
            "burgers_on_the_circle"])
    def test_malformed_problem_section(self, tmp_path, capsys, problem):
        cfg_path = write_config(tmp_path / "p.json", problem=problem)
        assert cli.main(["gen-tasks", "--config", cfg_path,
                         "--out", str(tmp_path / "t")]) == 1
        assert "bad problem settings" in one_error_line(capsys)
        assert not (tmp_path / "t").exists()

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

    @pytest.mark.parametrize("reference, words", [
        (3, ["'reference'", "3"]),
        ({"nx": "abc", "nt": 4}, ["reference.nx", "'abc'"]),
        ({"nx": 100, "nt": 4}, ["reference.nx", "power of two", "100"]),
        ({"nx": 64, "nt": 0}, ["reference.nt", "at least 1", "0"]),
        ({"nx": 64, "nt": 4, "which": "bogus"}, ["reference.which", "'bogus'"]),
    ], ids=["number", "nx_not_a_number", "nx_not_a_power_of_two", "no_time_step",
            "unknown_which"])
    def test_malformed_reference_section(self, tmp_path, capsys, reference, words):
        cfg_path = write_config(
            tmp_path / "b.json", experiment="burgers_mini",
            problem={"variant": "burgers", "nu": 0.01, "grf": {"n_modes": 8}},
            tasks={"n_tasks": 3, "n_pretrain": 2, "seed": 7}, reference=reference)
        assert cli.main(["gen-tasks", "--config", cfg_path,
                         "--out", str(tmp_path / "t")]) == 1
        err = one_error_line(capsys)
        assert all(w in err for w in words)
        assert not (tmp_path / "t").exists()


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
        exp = cli.read_experiment(read_json(trained[0]), None)
        task = read_split(trained[1], "s2")[0][1]
        per_task = trainer.hidden_values([task], exp.finetune, exp.network.width)
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
        fine = cli.read_experiment(read_json(cfg_path), None).finetune
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


class TestLatentModelFinetune:
    def test_one_finetune_LM_run_per_task_in_held_out_order(self, tmp_path):
        cfg_path = write_config(tmp_path / "cfg.json",
                                tasks={"n_tasks": 5, "n_pretrain": 2, "seed": 7})
        tasks_dir, pre, out = (str(tmp_path / "tasks"), str(tmp_path / "pre"),
                               tmp_path / "lm")
        assert cli.main(["gen-tasks", "--config", cfg_path, "--out", tasks_dir]) == 0
        assert cli.main(["pretrain", "--config", cfg_path, "--tasks", tasks_dir,
                         "--out", pre]) == 0
        ck_path = os.path.join(pre, "checkpoint.ckpt")
        assert cli.main(["finetune", "--config", cfg_path, "--tasks", tasks_dir,
                         "--checkpoint", ck_path, "--mode", "LM",
                         "--out", str(out)]) == 0

        ck = mad.load_checkpoint(ck_path)
        fine = cli.read_experiment(read_json(cfg_path), None).finetune
        held = read_split(tasks_dir, "s2")
        assert len(held) == 3
        records = [mad.finetune_LM(ck, task, mad.init_latent(task, ck, "nearest"),
                                   fine, evaluation.for_task(task, seed=tid),
                                   task_label=f"s2-{tid}", record_snapshots=True)[2]
                   for tid, task in held]
        benchviz.write_convergence_csv(str(tmp_path / "alone.csv"), records)
        assert (out / "convergence.csv").read_bytes() == \
            (tmp_path / "alone.csv").read_bytes()
        for rec in records:
            with np.load(out / "snapshots" / f"mad_lm_{rec.task_id}.npz") as data:
                np.testing.assert_array_equal(data["iterations"],
                                              [i for i, _ in rec.snapshots])
                np.testing.assert_array_equal(data["snapshots"],
                                              [v for _, v in rec.snapshots])


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
        exp = cli.read_experiment(read_json(cfg_path), None)
        fine = exp.finetune
        s1 = [t for _, t in read_split(tasks_dir, "s1")]
        held = read_split(tasks_dir, "s2")
        assert len(held) == 2
        assert exp.meta == baselines.MetaConfig(seed=fine.seed, **meta)
        net = dataclasses.replace(exp.network, latent_dim=0)
        records = [baselines.pinn_train(
            task, net, fine, eval_grid=evaluation.for_task(task, seed=tid),
            method="reptile", task_label=f"s2-{tid}",
            theta0=baselines.reptile_theta(s1, net, exp.meta, fine)[0])[1]
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
    META = {"baseline": {"meta": {"meta_iters": 1, "inner_steps": 1}}}
    META_KEYS = ("allowed: ['meta_iters', 'inner_steps', 'inner_lr', 'meta_lr', "
                 "'eps0', 'anneal_eps', 'meta_batch']")

    @pytest.fixture()
    def checkpoint(self, ode_setup):
        cfg_path, tasks_dir, tmp_path = ode_setup
        pre = str(tmp_path / "pre")
        assert cli.main(["pretrain", "--config", cfg_path, "--tasks", tasks_dir,
                         "--out", pre]) == 0
        return os.path.join(pre, "checkpoint.ckpt")

    @pytest.mark.parametrize("command, config, overrides, words", [
        ("pretrain", 5, [], ["JSON object", "5"]),
        ("pretrain", {}, ["experiment.name=1"],
         ["experiment.name=1", "'experiment'", "not a section"]),
        ("pretrain", {"experiment": 5}, [], ["'experiment'", "a name", "5"]),
        ("pretrain", {"pretrain": 5}, [], ["'pretrain'", "5"]),
        # ``eval`` is not a config section
        ("finetune", {"eval": 3}, [], ["unknown config sections", "'eval'"]),
        ("baseline", {"eval": 3}, [], ["unknown config sections", "'eval'"]),
        ("eval", {"eval": 3}, [], ["unknown config sections", "'eval'"]),
        ("eval", {"eval": {"n_laplace_points": "abc"}}, [],
         ["unknown config sections", "'eval'"]),
        # a key no command reads, and a value of the wrong JSON type, are
        # refused by every command
        ("pretrain", {}, ["problem.etarange=[0, 1]"],
         ["bad problem settings: unknown ['etarange']",
          "allowed: ['variant', 'eta_range']"]),
        ("pretrain", {}, ["tasks.n_taskz=6"],
         ["bad tasks settings: unknown ['n_taskz']",
          "allowed: ['n_tasks', 'n_pretrain', 'seed']"]),
        ("finetune", {}, ["reference.foo=1"],
         ["bad reference settings: unknown ['foo']", "allowed: ['nx', 'nt', 'which']"]),
        ("finetune", {}, ["finetune.init_strategi=mean"],
         ["bad finetune settings: unknown ['init_strategi']",
          "'clip_grad_norm', 'init_strategy']"]),
        ("baseline reptile", META, ["baseline.inner_stepz=5"],
         ["bad baseline settings: unknown ['inner_stepz']", "allowed: ['meta']"]),
        # the meta seed is finetune.seed
        ("baseline reptile", META, ["baseline.meta.seed=3"],
         ["bad baseline.meta settings: unknown ['seed']", META_KEYS]),
        ("baseline reptile", {"baseline": {"meta": 3}}, [],
         ["bad baseline.meta settings: must be an object, got 3"]),
        ("pretrain", {}, ["network.width=8.7"],
         ["bad network settings", "network.width must be int, got 8.7"]),
        ("pretrain", {}, ["pretrain.M_r=true"],
         ["bad pretrain settings", "pretrain.M_r must be int, got True"]),
        ("pretrain", {}, ["pretrain.total_iters=2.5"],
         ["pretrain.total_iters must be int, got 2.5"]),
        ("pretrain", {}, ["pretrain.seed=1.5"],
         ["pretrain.seed must be int, got 1.5"]),
        ("baseline reptile", META, ["baseline.meta.meta_iters=1.5"],
         ["bad baseline.meta settings",
          "baseline.meta.meta_iters must be int, got 1.5"]),
        ("baseline reptile", META, ["baseline.meta.anneal_eps=1"],
         ["baseline.meta.anneal_eps must be bool, got 1"]),
        ("eval", {}, ["finetune.init_strategy=3"],
         ["bad finetune settings", "finetune.init_strategy must be str, got 3"]),
        # a negative bound would flip the clipped gradient's sign
        ("pretrain", {}, ["pretrain.clip_grad_norm=-1"],
         ["bad pretrain settings", "clip_grad_norm must be > 0, got -1"]),
        ("finetune", {}, ["finetune.clip_grad_norm=0"],
         ["bad finetune settings", "clip_grad_norm must be > 0, got 0"]),
        ("baseline maml", META, ["baseline.meta.meta_batch=0"],
         ["bad baseline.meta settings", "meta_batch must be >= 1, got 0"]),
        ("baseline maml", META, ["baseline.meta.meta_batch=-2"],
         ["bad baseline.meta settings", "meta_batch must be >= 1, got -2"]),
        # a section the command does not use is checked all the same
        ("eval", {}, ["pretrain.lr0=-1"],
         ["bad pretrain settings", "lr0 must be positive"]),
        # a non-finite number is refused in every section, before it reaches
        # training as a "non-finite loss"
        ("pretrain", {}, ["pretrain.lr0=NaN"],
         ["bad pretrain settings", "pretrain.lr0 must be a finite number, got nan"]),
        ("pretrain", {}, ["pretrain.inv_sigma2=Infinity"],
         ["bad pretrain settings",
          "pretrain.inv_sigma2 must be a finite number, got inf"]),
        ("finetune", {}, ["finetune.lambda_bc=-Infinity"],
         ["bad finetune settings",
          "finetune.lambda_bc must be a finite number, got -inf"]),
        ("pretrain", {}, ["network.first_layer_omega=NaN"],
         ["bad network settings", "network.first_layer_omega must be a finite number"]),
        ("baseline reptile", META, ["baseline.meta.inner_lr=NaN"],
         ["bad baseline.meta settings",
          "baseline.meta.inner_lr must be a finite number"]),
        ("baseline reptile", META, ["baseline.meta.eps0=Infinity"],
         ["bad baseline.meta settings", "baseline.meta.eps0 must be a finite number"]),
        # problem values and the latent start are checked by every command
        ("pretrain", {}, ["problem.eta_range=abc"],
         ["bad problem settings", "problem.eta_range must be [low, high], got 'abc'"]),
        ("pretrain", {}, ["problem.eta_range=[0, NaN]"],
         ["bad problem settings", "problem.eta_range must be a finite number, got nan"]),
        ("pretrain", {}, ["finetune.init_strategy=closest"],
         ["latent init strategy 'closest'", "finetune.init_strategy"]),
        ("baseline reptile", META, ["finetune.init_strategy=closest"],
         ["latent init strategy 'closest'", "finetune.init_strategy"]),
    ], ids=["top_level_number", "set_below_a_name", "experiment_number",
            "pretrain_number", "finetune_eval_number", "baseline_eval_number",
            "eval_eval_number", "eval_points_not_a_number", "misspelt_problem_key",
            "misspelt_tasks_key", "unknown_reference_key", "misspelt_finetune_key",
            "misspelt_baseline_key",
            "meta_seed", "meta_number", "width_not_an_integer", "M_r_boolean",
            "total_iters_not_an_integer", "seed_not_an_integer",
            "meta_iters_not_an_integer", "anneal_eps_number", "init_strategy_number",
            "negative_clip", "zero_clip", "zero_meta_batch", "negative_meta_batch",
            "unused_section", "nan_lr0", "infinite_inv_sigma2", "infinite_lambda_bc",
            "nan_omega", "nan_inner_lr", "infinite_eps0", "eta_range_not_a_list",
            "nan_eta_range", "init_strategy_pretrain", "init_strategy_baseline"])
    def test_malformed_config(self, ode_setup, checkpoint, capsys, command, config,
                              overrides, words):
        _, tasks_dir, tmp_path = ode_setup
        bad = tmp_path / "bad.json"
        if isinstance(config, dict):
            write_config(bad, **config)
        else:
            bad.write_text(json.dumps(config))
        out = tmp_path / "out"
        command, *method = command.split()
        argv = [command, "--config", str(bad), "--tasks", tasks_dir, "--out", str(out)]
        argv += [a for o in overrides for a in ("--set", o)]
        if command in ("finetune", "eval"):
            argv += ["--checkpoint", checkpoint]
        if command == "finetune":
            argv += ["--mode", "LM"]
        if command == "baseline":
            argv += ["--method", *(method or ["from-scratch"])]
        capsys.readouterr()
        assert cli.main(argv) == 1
        err = one_error_line(capsys)
        assert all(w in err for w in words)
        assert not out.exists()

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
    """--workers is accepted, and must be 1, everywhere: how tasks share
    CPUs is not a setting."""

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
        self.assert_rejected_everywhere(argvs, capsys, workers)

    @pytest.mark.parametrize("workers", ["2", "4"])
    def test_above_one_rejected_everywhere(self, argvs, capsys, workers):
        self.assert_rejected_everywhere(argvs, capsys, workers)

    @staticmethod
    def assert_rejected_everywhere(argvs, capsys, workers):
        commands, tmp_path = argvs
        for name, argv in commands.items():
            out = tmp_path / f"w{workers}_{name.replace(' ', '_')}"
            capsys.readouterr()
            assert cli.main(argv + ["--workers", workers, "--out", str(out)]) == 1
            err = one_error_line(capsys)
            assert f"--workers must be 1, got {workers}" in err
            assert not out.exists()

    def test_one_accepted_everywhere(self, argvs):
        commands, tmp_path = argvs
        for name, argv in commands.items():
            out = tmp_path / f"w1_{name.replace(' ', '_')}"
            assert cli.main(argv + ["--workers", "1", "--out", str(out)]) == 0, name


class TestMisplacedTrainingKeys:
    """Only ``finetune.init_strategy`` is read beside the training settings;
    any other key a training section does not know is an error."""

    @pytest.mark.parametrize("command, override, section, key", [
        ("finetune", "finetune.mode=LM", "finetune", "mode"),
        ("finetune", "finetune.meta.meta_iters=3", "finetune", "meta"),
        ("baseline", "finetune.method=maml", "finetune", "method"),
        ("pretrain", "pretrain.init_strategy=mean", "pretrain", "init_strategy"),
        # every iteration draws a fresh batch
        ("pretrain", "pretrain.resample_every=3", "pretrain", "resample_every"),
    ], ids=["finetune_mode", "finetune_meta", "finetune_method",
            "pretrain_init_strategy", "pretrain_resample_every"])
    def test_rejected_before_the_directory(self, ode_setup, capsys, command,
                                           override, section, key):
        cfg_path, tasks_dir, tmp_path = ode_setup
        argv = ["--config", cfg_path, "--tasks", tasks_dir]
        if command != "pretrain":
            pre = str(tmp_path / "pre")
            assert cli.main(["pretrain"] + argv + ["--out", pre]) == 0
        if command == "finetune":
            argv += ["--checkpoint", os.path.join(pre, "checkpoint.ckpt"),
                     "--mode", "L"]
        if command == "baseline":
            argv += ["--method", "from-scratch"]
        out = tmp_path / "out"
        capsys.readouterr()
        assert cli.main([command] + argv + ["--out", str(out),
                                            "--set", override]) == 1
        err = one_error_line(capsys)
        assert f"bad {section} settings" in err and f"'{key}'" in err
        assert not out.exists()


class TestVizInputErrors:
    """viz reads and checks its records, its snapshots and the exact family
    before it creates the output directory."""

    @pytest.fixture()
    def inputs(self, tmp_path):
        records = tmp_path / "convergence.csv"
        benchviz.write_convergence_csv(str(records), [benchviz.ConvergenceRecord(
            "s2-1", "mad_L", 0, [(0, 0.5, 1.0), (3, 0.4, 0.8)])])
        snapshot = tmp_path / "mad_L_s2-1.npz"
        np.savez(snapshot, iterations=np.array([0, 3]),
                 snapshots=np.zeros((2, problems.ODE_GRID_POINTS)))
        return tmp_path, str(records), str(snapshot)

    def run_viz(self, capsys, tmp_path, records, snapshots, cfg=None):
        cfg = cfg or write_config(tmp_path / "cfg.json")
        out = tmp_path / "viz"
        capsys.readouterr()
        code = cli.main(["viz", "--config", cfg, "--records", records,
                         "--snapshots", *snapshots, "--out", str(out)])
        return code, out

    def test_good_inputs_pass(self, inputs, capsys):
        tmp_path, records, snapshot = inputs
        code, out = self.run_viz(capsys, tmp_path, records, [snapshot])
        assert code == 0
        assert (out / "manifold.csv").exists()

    @pytest.mark.parametrize("content, words", [
        (None, ["cannot read records", "missing.csv"]),
        ("task_id,seed,iteration\ns2-1,0,0\n", ["bad.csv", "'method'"]),
        ("method,task_id,seed,iteration,rel_l2,loss\nmad_L,s2-1,0,zero,0.5,1.0\n",
         ["bad.csv", "not a convergence CSV"]),
        ("method,task_id,seed,iteration,rel_l2,loss\nmad_L,a,0,0,0.5,1.0\n"
         "mad_L,b,0,1,0.5,1.0\n", ["cannot aggregate", "mismatched"]),
    ], ids=["missing", "no_method_column", "iteration_not_a_number",
            "mismatched_grids"])
    def test_bad_records(self, inputs, capsys, content, words):
        tmp_path, _, snapshot = inputs
        records = tmp_path / ("missing.csv" if content is None else "bad.csv")
        if content is not None:
            records.write_text(content)
        code, out = self.run_viz(capsys, tmp_path, str(records), [snapshot])
        assert code == 1
        err = one_error_line(capsys)
        assert all(w in err for w in words)
        assert not out.exists()

    @pytest.mark.parametrize("fault, words", [
        ("missing", ["cannot read snapshots", "gone.npz"]),
        ("text", ["bad.npz", "not a snapshot file"]),
        ("no_snapshots", ["bad.npz", "not a snapshot file", "snapshots"]),
        ("wrong_width", ["bad.npz", "shape (2, 5)"]),
        ("empty", ["bad.npz", "not a snapshot file"]),
        ("broken_zip", ["bad.npz", "not a snapshot file"]),
        ("npy", ["bad.npz", "not a snapshot file"]),
    ], ids=["missing", "text", "no_snapshots", "wrong_width", "empty",
            "broken_zip", "npy"])
    def test_bad_snapshots(self, inputs, capsys, fault, words):
        tmp_path, records, snapshot = inputs
        bad = tmp_path / ("gone.npz" if fault == "missing" else "bad.npz")
        if fault == "text":
            bad.write_text("not an archive\n")
        elif fault == "empty":
            bad.write_bytes(b"")
        elif fault == "broken_zip":
            bad.write_bytes(b"PK\x03\x04 cut short")
        elif fault == "npy":
            with open(bad, "wb") as f:
                np.save(f, np.zeros((2, problems.ODE_GRID_POINTS)))
        elif fault == "no_snapshots":
            np.savez(bad, iterations=np.array([0]))
        elif fault == "wrong_width":
            np.savez(bad, snapshots=np.zeros((2, 5)))
        code, out = self.run_viz(capsys, tmp_path, records, [snapshot, str(bad)])
        assert code == 1
        err = one_error_line(capsys)
        assert all(w in err for w in words)
        assert not out.exists()

    @pytest.mark.parametrize("config, words", [
        ({"problem": {"variant": "wave"}}, ["unknown task variant", "'wave'"]),
        ({"tasks": {"n_pretrain": 5}}, ["'tasks'", "'n_tasks'"]),
        ({"tasks": {"n_tasks": 0, "n_pretrain": 5}}, ["tasks.n_tasks", "0"]),
        ({"problem": {"variant": "ode_shift", "eta_range": [0.0]}},
         ["bad problem settings"]),
    ], ids=["unknown_variant", "no_n_tasks", "no_tasks", "bad_eta_range"])
    def test_bad_exact_family(self, inputs, capsys, config, words):
        tmp_path, records, snapshot = inputs
        cfg = write_config(tmp_path / "bad_cfg.json", **config)
        code, out = self.run_viz(capsys, tmp_path, records, [snapshot], cfg)
        assert code == 1
        err = one_error_line(capsys)
        assert all(w in err for w in words)
        assert not out.exists()


class TestBadValuesLeaveNoDirectory:
    """Inputs the commands cannot run on are refused in one error line
    before the output directory exists."""

    @pytest.mark.parametrize("command, flags, words", [
        ("gen-tasks", ["--set", "tasks.seed=-1"], ["tasks.seed must be >= 0", "-1"]),
        ("gen-tasks", ["--seed", "-3"], ["--seed must be >= 0", "-3"]),
        ("pretrain", ["--set", "pretrain.seed=-1"],
         ["bad pretrain settings", "seed must be >= 0", "-1"]),
        ("pretrain", ["--seed", "-3"], ["--seed must be >= 0", "-3"]),
    ], ids=["gen_tasks_set", "gen_tasks_flag", "pretrain_set", "pretrain_flag"])
    def test_negative_seed(self, ode_setup, capsys, command, flags, words):
        cfg_path, tasks_dir, tmp_path = ode_setup
        out = tmp_path / "out"
        argv = [command, "--config", cfg_path, "--out", str(out)] + flags
        if command == "pretrain":
            argv += ["--tasks", tasks_dir]
        capsys.readouterr()
        assert cli.main(argv) == 1
        err = one_error_line(capsys)
        assert all(w in err for w in words), err
        assert not out.exists()

    @pytest.fixture()
    def laplace_zero_field(self, tmp_path):
        """A Laplace task set whose one held-out task has zero boundary
        data, and a checkpoint pre-trained on the others."""
        cfg_path = write_config(
            tmp_path / "lap.json", experiment="laplace_mini",
            problem={"variant": "laplace_triangle"},
            tasks={"n_tasks": 3, "n_pretrain": 2, "seed": 7},
            network={"latent_dim": 1, "hidden_layers": 1, "width": 4,
                     "first_layer_omega": 1.0},
            pretrain={"lr0": 1e-3, "total_iters": 1, "M_r": 8, "M_bc": 4},
            finetune={"lr0": 1e-3, "total_iters": 1, "M_r": 8, "M_bc": 4,
                      "init_strategy": "mean"})
        tasks_dir = tmp_path / "tasks"
        pre_dir = str(tmp_path / "pre")
        assert cli.main(["gen-tasks", "--config", cfg_path, "--out",
                         str(tasks_dir)]) == 0
        assert cli.main(["pretrain", "--config", cfg_path, "--tasks",
                         str(tasks_dir), "--out", pre_dir]) == 0
        s2 = tasks_dir / "tasks_s2.json"
        (entry,) = json.loads(s2.read_text())
        field = entry["task"]["boundary_field"]
        field["cos"] = [0.0] * len(field["cos"])
        field["sin"] = [0.0] * len(field["sin"])
        s2.write_text(json.dumps([entry]))
        return (cfg_path, str(tasks_dir), os.path.join(pre_dir, "checkpoint.ckpt"),
                entry["id"], tmp_path)

    @pytest.mark.parametrize("command", ["eval", "finetune", "baseline"])
    def test_zero_reference_field(self, laplace_zero_field, capsys, command):
        cfg_path, tasks_dir, checkpoint, held, tmp_path = laplace_zero_field
        out = tmp_path / "out"
        argv = [command, "--config", cfg_path, "--tasks", tasks_dir,
                "--out", str(out)]
        if command != "baseline":
            argv += ["--checkpoint", checkpoint]
        argv += {"eval": [], "finetune": ["--mode", "L"],
                 "baseline": ["--method", "from-scratch"]}[command]
        capsys.readouterr()
        assert cli.main(argv) == 1
        err = one_error_line(capsys)
        assert f"task {held}: reference values have zero norm" in err
        assert not out.exists()

    def test_repeated_task_id(self, ode_setup, capsys):
        cfg_path, tasks_dir, tmp_path = ode_setup
        pre = str(tmp_path / "pre")
        assert cli.main(["pretrain", "--config", cfg_path, "--tasks", tasks_dir,
                         "--out", pre]) == 0
        s2 = Path(tasks_dir, "tasks_s2.json")
        (entry,) = json.loads(s2.read_text())
        s2.write_text(json.dumps([entry, entry]))
        out = tmp_path / "ev"
        capsys.readouterr()
        assert cli.main(["eval", "--config", cfg_path, "--tasks", tasks_dir,
                         "--checkpoint", os.path.join(pre, "checkpoint.ckpt"),
                         "--out", str(out)]) == 1
        err = one_error_line(capsys)
        assert f"tasks_s2.json: task id {entry['id']} appears more than once" in err
        assert not out.exists()


class TestRarePaths:
    """Paths of the commands that the pipeline tests do not take."""

    def test_reference_which_all_writes_every_reference(self, tmp_path):
        cfg = write_config(
            tmp_path / "b.json", experiment="burgers_mini",
            problem={"variant": "burgers", "nu": 0.01, "grf": {"n_modes": 8}},
            tasks={"n_tasks": 3, "n_pretrain": 2, "seed": 7},
            reference={"nx": 32, "nt": 2, "which": "all"})
        out = tmp_path / "tasks"
        assert cli.main(["gen-tasks", "--config", cfg, "--out", str(out)]) == 0
        ids = sorted(i for split in ("s1", "s2") for i, _ in read_split(str(out), split))
        assert ids == [0, 1, 2]
        assert sorted(os.listdir(out / "refs")) == [f"task_{i:04d}.ref" for i in ids]

    def test_task_index_outside_held_out_set(self, ode_setup, capsys):
        cfg_path, tasks_dir, tmp_path = ode_setup
        pre = str(tmp_path / "pre")
        assert cli.main(["pretrain", "--config", cfg_path, "--tasks", tasks_dir,
                         "--out", pre]) == 0
        s1_id = read_split(tasks_dir, "s1")[0][0]
        out = tmp_path / "ft"
        capsys.readouterr()
        assert cli.main(["finetune", "--config", cfg_path, "--tasks", tasks_dir,
                         "--checkpoint", os.path.join(pre, "checkpoint.ckpt"),
                         "--mode", "L", "--task-index", str(s1_id),
                         "--out", str(out)]) == 1
        err = one_error_line(capsys)
        assert f"task id {s1_id} not in the held-out set" in err
        assert not out.exists()

    def test_deleted_reference_file(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "b.json", experiment="burgers_mini",
            problem={"variant": "burgers", "nu": 0.01, "grf": {"n_modes": 8}},
            tasks={"n_tasks": 3, "n_pretrain": 2, "seed": 7},
            reference={"nx": 32, "nt": 2})
        tasks_dir = tmp_path / "tasks"
        assert cli.main(["gen-tasks", "--config", cfg, "--out", str(tasks_dir)]) == 0
        held = read_split(str(tasks_dir), "s2")[0][0]
        (tasks_dir / "refs" / f"task_{held:04d}.ref").unlink()
        out = tmp_path / "baseline"
        capsys.readouterr()
        assert cli.main(["baseline", "--config", cfg, "--tasks", str(tasks_dir),
                         "--method", "from-scratch", "--out", str(out)]) == 1
        err = one_error_line(capsys)
        assert "missing reference field" in err and f"task_{held:04d}.ref" in err
        assert not out.exists()

    def test_empty_task_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        tasks_dir = tmp_path / "tasks"
        tasks_dir.mkdir()
        (tasks_dir / "tasks_s1.json").write_text("[]\n")
        out = tmp_path / "pre"
        assert cli.main(["pretrain", "--config", cfg, "--tasks", str(tasks_dir),
                         "--out", str(out)]) == 1
        err = one_error_line(capsys)
        assert "tasks_s1.json holds no tasks" in err
        assert not out.exists()

    def test_default_out_under_madpde_out(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "cfg.json")
        monkeypatch.setenv("MADPDE_OUT", str(tmp_path / "root"))
        assert cli.main(["gen-tasks", "--config", cfg]) == 0
        out = tmp_path / "root" / "ode_mini" / "tasks"
        assert sorted(os.listdir(out)) == ["manifest.json", "tasks_s1.json",
                                           "tasks_s2.json"]

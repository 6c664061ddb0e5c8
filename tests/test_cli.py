import json
import os

import numpy as np
import pytest

from madpde import cli


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

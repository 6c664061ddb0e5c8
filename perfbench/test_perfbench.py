"""Fast checks of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from madpde import diffcore, network, trainer  # noqa: E402
from madpde.network import NetworkConfig  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


@pytest.fixture()
def tiny(monkeypatch, tmp_path):
    """Every workload shrunk to a few milliseconds of work per cycle."""
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(workloads, "BURGERS_NET", NetworkConfig(
        input_dim=2, latent_dim=2, hidden_layers=2, width=8,
        input_encoding="periodic_x"))
    monkeypatch.setattr(workloads, "BURGERS_PRETRAIN_TASKS", 2)
    monkeypatch.setattr(workloads.BurgersPretrain, "PRE_ITERS", 2)
    monkeypatch.setattr(workloads.BurgersNewTask, "HELD_OUT", 2)
    monkeypatch.setattr(workloads.BurgersNewTask, "SETUP_PRE_ITERS", 1)
    monkeypatch.setattr(workloads.BurgersNewTask, "FINE_ITERS", 2)
    monkeypatch.setattr(workloads.BurgersNewTask, "NX", 64)
    monkeypatch.setattr(workloads.BurgersNewTask, "NT", 4)
    monkeypatch.setattr(workloads.BurgersNewTask, "min_cycles", 2)
    monkeypatch.setattr(workloads.OdePipeline, "ITERS", 2)
    monkeypatch.setattr(workloads.OdePipeline, "META",
                        {"meta_iters": 1, "inner_steps": 1})
    return tmp_path


def _run(capsys, workload, trace):
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return rc, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_printed_with_its_unit(tiny, capsys, workload):
    for trace, section in [(0, "end_to_end"), (1, "per_layer")]:
        rc, lines, result = _run(capsys, workload, trace)
        assert rc == 0 and result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == expected
        for name, unit in expected.items():
            assert any(line.split()[:1] == [name] and line.split()[2] == unit
                       for line in lines[:-1]), name
        assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
        assert os.path.exists(tiny / f"{workload}-seed3-trace{trace}.json")


def test_wrong_gradients_fail_the_run(tiny, capsys, monkeypatch):
    exact = trainer.TapedLoss.gradients

    def skewed(self):
        g_theta, g_z = exact(self)
        return g_theta * 1.01, g_z

    monkeypatch.setattr(trainer.TapedLoss, "gradients", skewed)
    rc, _, result = _run(capsys, "burgers_pretrain", 0)
    assert rc == 1
    assert result["correct"] is False and result["metrics"] == {}


def test_benchmark_names_its_workloads():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)


def test_gradient_gate_accepts_the_tape_gradient():
    assert gate.check_gradients(seed=5) <= gate.GRAD_RTOL


def test_gradient_gate_rejects_a_perturbed_gradient():
    def perturbed(*probe):
        g = gate.tape_gradient(*probe)
        g[0] += 1e-3 * (abs(g[0]) + 1.0)
        return g

    with pytest.raises(gate.GateError):
        gate.check_gradients(seed=5, gradient=perturbed)


def test_gate_rejects_non_finite_output():
    with pytest.raises(gate.GateError):
        gate.require_finite("loss", [1.0, np.nan])


def test_workload_seed_changes_the_tasks():
    a, b = workloads.burgers_tasks(1, 3), workloads.burgers_tasks(2, 3)
    again = workloads.burgers_tasks(1, 3)
    assert all(np.array_equal(x.u0.cos_coeffs, y.u0.cos_coeffs)
               for x, y in zip(a, again))
    assert not any(np.array_equal(x.u0.cos_coeffs, y.u0.cos_coeffs)
                   for x, y in zip(a, b))
    ode = [workloads.OdePipeline(s, "unused").config(1, {}) for s in (1, 2)]
    assert ode[0]["problem"]["eta_range"] != ode[1]["problem"]["eta_range"]
    assert ode[0]["tasks"]["seed"] != ode[1]["tasks"]["seed"]


def test_self_time_excludes_children():
    tracer = spans.Tracer(clock=iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0]).__next__)
    leaf = tracer.wrap("leaf", lambda: None)
    outer = tracer.wrap("outer", lambda: (leaf(), leaf()))
    outer()
    tot = tracer.totals()
    assert tot["outer"] == {"calls": 1, "s": 10.0, "self_s": 7.5}
    assert tot["leaf"] == {"calls": 2, "s": 2.5, "self_s": 2.5}
    assert list(tracer.parent) == [-1, 0, 0]


def test_installed_wrappers_are_removed():
    original = diffcore.sin, diffcore.Tape.gradient, network.forward
    with spans.Installed(spans.Tracer()) as tracer:
        assert diffcore.sin is not original[0]
        diffcore.sin(diffcore.Tape().constant(np.ones(3)))
    assert (diffcore.sin, diffcore.Tape.gradient, network.forward) == original
    assert tracer.totals()["diffcore.sin"]["calls"] == 1

"""Command-line pipeline: task generation, pre-training, fine-tuning,
baselines, evaluation and visualization data.

One experiment = one config file (JSON); every hyperparameter lives there
and can be overridden on the command line with ``--set key.path=value``.
Outputs land under ``--out`` (default: $MADPDE_OUT or ./runs, plus the
experiment name), with a manifest written before any heavy work.  A command
checks its config sections and input files before it creates the output
directory, so a config error leaves nothing behind.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
import zipfile

import numpy as np

from . import (baselines, benchviz, diffcore, evaluation, mad, oracles, problems,
               trainer)
from .diffcore import DiffError
from .network import NetworkConfig
from .trainer import TrainConfig, TrainingError


class CliError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

_TOP_KEYS = {"experiment", "problem", "tasks", "network", "pretrain",
             "finetune", "baseline", "reference"}


def load_config(path: str, assignments: list[str]) -> dict:
    """The config at ``path`` with the ``--set`` ``assignments`` applied,
    once its top level is what every command reads: known sections, the
    required ones present, the experiment a name and every other an object."""
    try:
        with open(path) as f:
            cfg = json.load(f)
    except OSError as e:
        raise CliError(f"cannot read config: {e}")
    except ValueError as e:
        raise CliError(f"config is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise CliError(f"config must be a JSON object, got {cfg!r}")
    cfg = apply_overrides(cfg, assignments)
    unknown = set(cfg) - _TOP_KEYS
    if unknown:
        raise CliError(f"unknown config sections: {sorted(unknown)}")
    for key in ("experiment", "problem", "tasks"):
        if key not in cfg:
            raise CliError(f"config is missing the {key!r} section")
    for key, value in cfg.items():
        if not isinstance(value, str if key == "experiment" else dict):
            raise CliError(f"the {key!r} section must be "
                           f"{'a name' if key == 'experiment' else 'an object'}, "
                           f"got {value!r}")
    return cfg


def apply_overrides(cfg: dict, assignments: list[str]) -> dict:
    cfg = copy.deepcopy(cfg)
    for item in assignments or []:
        if "=" not in item:
            raise CliError(f"--set expects key.path=value, got {item!r}")
        path, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except ValueError:
            value = raw
        node = cfg
        parts = path.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise CliError(f"--set {item}: {p!r} holds {node!r}, not a section")
        node[parts[-1]] = value
    return cfg


def override_seeds(cfg: dict, seed: int) -> dict:
    cfg = copy.deepcopy(cfg)
    cfg.setdefault("tasks", {})["seed"] = seed
    for section in ("pretrain", "finetune", "baseline"):
        if section in cfg:
            cfg[section]["seed"] = seed
    return cfg


_NETWORK_KEYS = ("latent_dim", "hidden_layers", "width", "first_layer_omega")


def network_config(cfg: dict, task: problems.Task) -> NetworkConfig:
    """The ``network`` section, sized and encoded for the family of ``task``."""
    net = cfg.get("network", {})
    unknown = set(net) - set(_NETWORK_KEYS)
    if unknown:
        raise CliError(f"unknown network settings {sorted(unknown)}; "
                       f"allowed: {list(_NETWORK_KEYS)}")
    try:
        return NetworkConfig(
            input_dim=task.input_dim,
            latent_dim=int(net.get("latent_dim", 0)),
            hidden_layers=int(net.get("hidden_layers", 4)),
            width=int(net.get("width", 64)),
            first_layer_omega=float(net.get("first_layer_omega", 30.0)),
            input_encoding=task.encoding,
        )
    except (TypeError, ValueError) as e:
        raise CliError(f"bad network settings: {e}")


def train_config(cfg: dict, section: str) -> TrainConfig:
    if section not in cfg:
        raise CliError(f"config is missing the {section!r} section")
    d = dict(cfg[section])
    if section == "finetune":
        d.pop("init_strategy", None)  # read by the commands, not by training
    try:
        return TrainConfig(**d)
    except (TypeError, ValueError) as e:
        raise CliError(f"bad {section} settings: {e}")


def _int_setting(cfg: dict, section: str, key: str,
                 default: int | None = None) -> int:
    """The integer ``<section>.<key>``; required when ``default`` is None."""
    entries = cfg.get(section, {})
    if key not in entries:
        if default is not None:
            return default
        raise CliError(f"the {section!r} section has no {key!r} entry")
    value = entries[key]
    try:
        return int(value)
    except (TypeError, ValueError):
        raise CliError(f"{section}.{key} must be an integer, got {value!r}")


# ---------------------------------------------------------------------------
# run directories and manifests
# ---------------------------------------------------------------------------

def _source_revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=5,
                             cwd=os.path.dirname(os.path.abspath(__file__)))
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def prepare_out_dir(out: str, args) -> str:
    """``out``, made if missing and then named by ``args.made_out``, so
    that ``main`` removes it when the command fails."""
    if os.path.exists(out) and os.listdir(out):
        if not args.force:
            raise CliError(f"output directory {out!r} is not empty "
                           f"(use --force to overwrite)")
    if not os.path.exists(out):
        os.makedirs(out)
        args.made_out = out
    return out


def write_manifest(out: str, command: str, cfg: dict, args) -> None:
    manifest = {
        "experiment": cfg.get("experiment", "unnamed"),
        "command": command,
        "config_path": os.path.abspath(args.config) if args.config else None,
        "output_dir": os.path.abspath(out),
        "seeds": {section: cfg.get(section, {}).get("seed")
                  for section in ("tasks", "pretrain", "finetune")},
        "source_revision": _source_revision(),
        # outputs repeat bit for bit only under the same numpy, BLAS thread
        # count and CPU dispatch of numpy's SIMD loops (float64 sin and cos
        # are computed from np.tan, whose bits follow the dispatched target)
        "numpy_version": np.__version__,
        "cpu_simd": np.show_config(mode="dicts")["SIMD Extensions"]["found"],
        "blas_threads": (None if diffcore.BLAS_THREADS is None
                         else diffcore.BLAS_THREADS[0]()),
        "usable_cpus": trainer.usable_cpus(),
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    with open(os.path.join(out, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def default_out(cfg: dict, command: str, out_flag) -> str:
    if out_flag:
        return out_flag
    root = os.environ.get("MADPDE_OUT", "runs")
    return os.path.join(root, cfg.get("experiment", "unnamed"), command)


# ---------------------------------------------------------------------------
# task file IO
# ---------------------------------------------------------------------------

def _write_task_file(path: str, ids: list[int], tasks: list[problems.Task]):
    payload = [{"id": i, "task": t.to_json()} for i, t in zip(ids, tasks)]
    with open(path, "w") as f:
        json.dump(payload, f, sort_keys=True)
        f.write("\n")


def read_tasks(cfg: dict, tasks_dir: str, split: str
               ) -> tuple[list[int], list[problems.Task]]:
    """Ids and tasks of ``tasks_<split>.json``, all of the config's family."""
    path = os.path.join(tasks_dir, f"tasks_{split}.json")
    try:
        with open(path) as f:
            payload = json.load(f)
    except OSError as e:
        raise CliError(f"cannot read task file: {e}")
    except ValueError as e:
        raise CliError(f"{path} is not valid JSON: {e}")
    if not isinstance(payload, list) or not all(isinstance(e, dict) for e in payload):
        raise CliError(f"{path} must hold a list of task objects")
    try:
        ids = [e["id"] for e in payload]
        tasks = [problems.task_from_json(e["task"]) for e in payload]
    except KeyError as e:
        raise CliError(f"{path}: a task entry has no {e} entry")
    except problems.ProblemError as e:
        raise CliError(f"{path}: {e}")
    bad = [i for i in ids if type(i) is not int]
    if bad:
        raise CliError(f"{path}: task ids must be integers, got {bad[0]!r}")
    if not tasks:
        raise CliError(f"{path} holds no tasks")
    repeated = next((i for k, i in enumerate(ids) if i in ids[:k]), None)
    if repeated is not None:
        raise CliError(f"{path}: task id {repeated} appears more than once")
    named = cfg["problem"].get("variant", tasks[0].variant)
    for t in tasks:
        if t.variant != named:
            raise CliError(f"{path} holds a {t.variant!r} task where the config "
                           f"expects {named!r} tasks")
    return ids, tasks


def _held_out(cfg: dict, args) -> tuple[list[int], list[problems.Task],
                                        mad.Checkpoint]:
    """Held-out ids and tasks, and a checkpoint pre-trained on their family."""
    ids, tasks = read_tasks(cfg, args.tasks, "s2")
    ck = mad.load_checkpoint(args.checkpoint)
    if type(ck.tasks[0]) is not type(tasks[0]):
        raise CliError(f"{args.checkpoint} was pre-trained on "
                       f"{ck.tasks[0].variant!r} tasks, not {tasks[0].variant!r}")
    return ids, tasks, ck


def _ref_path(tasks_dir: str, task_id: int) -> str:
    return os.path.join(tasks_dir, "refs", f"task_{task_id:04d}.ref")


def _eval_grid(task, tasks_dir: str, task_id: int):
    reference = None
    if task.solve_reference is not None:
        path = _ref_path(tasks_dir, task_id)
        if not os.path.exists(path):
            raise CliError(f"missing reference field {path}; run gen-tasks first")
        reference = oracles.load_reference(path)
    try:
        return evaluation.for_task(task, reference, task_id)
    except ValueError as e:  # a zero reference field: no relative error
        raise CliError(f"task {task_id}: {e}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen_tasks(cfg: dict, args) -> int:
    # a config error leaves no output directory behind
    prob = cfg["problem"]
    n_tasks = _int_setting(cfg, "tasks", "n_tasks")
    n_pre = _int_setting(cfg, "tasks", "n_pretrain")
    seed = _int_setting(cfg, "tasks", "seed", default=0)
    if seed < 0:
        raise CliError(f"tasks.seed must be >= 0, got {seed}")
    if not 1 <= n_pre < n_tasks:
        raise CliError("need 1 <= n_pretrain < n_tasks")
    try:
        family = problems.family(prob.get("variant"))
        tasks = family.build(prob, n_tasks, seed)
    except (TypeError, ValueError) as e:
        raise CliError(f"bad problem settings: {e}")
    if family.solve_reference is not None:
        nx = _int_setting(cfg, "reference", "nx", 256)
        nt = _int_setting(cfg, "reference", "nt", 50)
        which = cfg.get("reference", {}).get("which", "s2")
        if nx < 2 or nx & (nx - 1):
            raise CliError(f"reference.nx must be a power of two, got {nx}")
        if nt < 1:
            raise CliError(f"reference.nt must be at least 1, got {nt}")
        if which not in ("s2", "all"):
            raise CliError(f"reference.which must be 's2' or 'all', got {which!r}")
    out = prepare_out_dir(default_out(cfg, "tasks", args.out), args)
    write_manifest(out, "gen-tasks", cfg, args)
    perm = np.random.default_rng([seed, 0x5917]).permutation(n_tasks)
    s1_ids = sorted(int(i) for i in perm[:n_pre])
    s2_ids = sorted(int(i) for i in perm[n_pre:])
    s1, s2 = [tasks[i] for i in s1_ids], [tasks[i] for i in s2_ids]
    _write_task_file(os.path.join(out, "tasks_s1.json"), s1_ids, s1)
    _write_task_file(os.path.join(out, "tasks_s2.json"), s2_ids, s2)
    if family.solve_reference is not None:
        os.makedirs(os.path.join(out, "refs"), exist_ok=True)
        targets = list(zip(s2_ids, s2))
        if which == "all":
            targets += list(zip(s1_ids, s1))
        for tid, task in targets:
            oracles.save_reference(_ref_path(out, tid),
                                   task.solve_reference(nx, nt, {"task_id": tid}))
    print(f"wrote {len(s1)} pre-training and {len(s2)} held-out tasks to {out}")
    return 0


def cmd_pretrain(cfg: dict, args) -> int:
    ids, tasks = read_tasks(cfg, args.tasks, "s1")
    net_cfg = network_config(cfg, tasks[0])
    pre_cfg = train_config(cfg, "pretrain")
    out = prepare_out_dir(default_out(cfg, "pretrain", args.out), args)
    write_manifest(out, "pretrain", cfg, args)
    ck = mad.pretrain(tasks, net_cfg, pre_cfg, task_ids=ids)
    mad.save_checkpoint(os.path.join(out, "checkpoint.ckpt"), ck)
    with open(os.path.join(out, "pretrain_loss.csv"), "w") as f:
        f.write("iteration,loss\n")
        for it, v in ck.loss_series:
            f.write(f"{it},{v!r}\n")
    print(f"pre-trained on {len(tasks)} tasks; checkpoint in {out}")
    return 0


def cmd_finetune(cfg: dict, args) -> int:
    ids, tasks, ck = _held_out(cfg, args)
    if args.task_index is not None:
        if args.task_index not in ids:
            raise CliError(f"task id {args.task_index} not in the held-out set")
        keep = ids.index(args.task_index)
        ids, tasks = [ids[keep]], [tasks[keep]]
    fine_cfg = train_config(cfg, "finetune")
    strategy = cfg.get("finetune", {}).get("init_strategy", "mean")
    # snapshots feed the manifold plot, which needs the exact family
    snapshots = tasks[0].exact_family is not None
    grids = [_eval_grid(task, args.tasks, tid) for tid, task in zip(ids, tasks)]
    Z0 = [mad.init_latent(task, ck, strategy) for task in tasks]
    labels = [f"s2-{tid}" for tid in ids]
    out = prepare_out_dir(default_out(cfg, f"finetune_{args.mode}", args.out), args)
    write_manifest(out, "finetune", cfg, args)

    if args.mode == "L":
        _, records = mad.finetune_L_batch(ck, tasks, Z0, fine_cfg, grids, labels,
                                          record_snapshots=snapshots)
    else:
        records = [mad.finetune_LM(ck, task, z0, fine_cfg, grid, task_label=label,
                                   record_snapshots=snapshots)[2]
                   for task, z0, grid, label in zip(tasks, Z0, grids, labels)]

    benchviz.write_convergence_csv(os.path.join(out, "convergence.csv"), records)
    if snapshots:
        snap_dir = os.path.join(out, "snapshots")
        os.makedirs(snap_dir, exist_ok=True)
        for rec in records:
            arr = np.stack([v for _, v in rec.snapshots])
            its = np.asarray([i for i, _ in rec.snapshots])
            np.savez(os.path.join(snap_dir, f"{rec.method}_{rec.task_id}.npz"),
                     iterations=its, snapshots=arr)
    benchviz.write_summary_json(os.path.join(out, "summary.json"),
                                {records[0].method: records})
    print(f"fine-tuned {len(records)} task(s); records in {out}")
    return 0


def cmd_baseline(cfg: dict, args) -> int:
    s1_ids, s1 = read_tasks(cfg, args.tasks, "s1")
    s2_ids, s2 = read_tasks(cfg, args.tasks, "s2")
    net_cfg = dataclasses.replace(network_config(cfg, s2[0]), latent_dim=0)
    fine_cfg = train_config(cfg, "finetune")
    if args.method in ("reptile", "maml"):
        try:
            meta = baselines.MetaConfig(seed=fine_cfg.seed,
                                        **cfg.get("baseline", {}).get("meta", {}))
        except (TypeError, ValueError) as e:
            raise CliError(f"bad baseline.meta settings: {e}")
    pre_cfg = train_config(cfg, "pretrain") if args.method == "transfer" else None
    grids = [_eval_grid(task, args.tasks, tid) for tid, task in zip(s2_ids, s2)]
    out = prepare_out_dir(default_out(cfg, f"baseline_{args.method}", args.out), args)
    write_manifest(out, "baseline", cfg, args)
    # every held-out task starts from the same weights, computed once
    if args.method == "from-scratch":
        theta0, method = None, "from_scratch"
    elif args.method == "transfer":
        pick = int(np.random.default_rng([fine_cfg.seed, 0x7AFE]).integers(len(s1)))
        theta0 = baselines.transfer_theta(s1[pick], net_cfg, pre_cfg)
        method = "transfer"
    elif args.method == "reptile":
        theta0, _ = baselines.reptile_theta(s1, net_cfg, meta, fine_cfg)
        method = "reptile"
    else:  # maml: argparse's choices admit no other method
        theta0, _ = baselines.maml_fo_theta(s1, net_cfg, meta, fine_cfg)
        method = "maml_fo"
    records = []
    for tid, task, grid in zip(s2_ids, s2, grids):
        _, rec = baselines.pinn_train(task, net_cfg, fine_cfg, theta0=theta0,
                                      eval_grid=grid, method=method,
                                      task_label=f"s2-{tid}")
        records.append(rec)
    benchviz.write_convergence_csv(os.path.join(out, "convergence.csv"), records)
    benchviz.write_summary_json(os.path.join(out, "summary.json"),
                                {records[0].method: records})
    print(f"ran {args.method} on {len(records)} task(s); records in {out}")
    return 0


def cmd_eval(cfg: dict, args) -> int:
    """Error of the pre-trained model on held-out tasks, no fine-tuning."""
    ids, tasks, ck = _held_out(cfg, args)
    strategy = cfg.get("finetune", {}).get("init_strategy", "mean")
    grids = [_eval_grid(task, args.tasks, tid) for tid, task in zip(ids, tasks)]
    Z0 = [mad.init_latent(task, ck, strategy) for task in tasks]
    out = prepare_out_dir(default_out(cfg, "eval", args.out), args)
    write_manifest(out, "eval", cfg, args)
    errors = [evaluation.rel_l2(grid, ck.params(), z0) for grid, z0 in zip(grids, Z0)]
    summary = {"n_tasks": len(errors), "mean": float(np.mean(errors))}
    if len(errors) >= 2:
        ci = oracles.mean_ci(errors)
        summary["ci_lo"] = ci.lo
        summary["ci_hi"] = ci.hi
    summary["per_task"] = {str(i): e for i, e in zip(ids, errors)}
    with open(os.path.join(out, "summary.json"), "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"evaluated {len(errors)} task(s); mean rel L2 {summary['mean']:.4f}")
    return 0


def _read_records(path: str) -> list[benchviz.ConvergenceRecord]:
    try:
        return benchviz.read_convergence_csv(path)
    except OSError as e:
        raise CliError(f"cannot read records: {e}")
    except KeyError as e:
        raise CliError(f"{path} has no {e} column")
    except (TypeError, ValueError) as e:
        raise CliError(f"{path} is not a convergence CSV: {e}")


def _manifold_curves(cfg: dict, paths: list[str]):
    """(label, (steps, points) values) of the exact family and of every
    snapshot file, or None when there is nothing to project."""
    family = problems.family(cfg["problem"].get("variant")) if paths else None
    if family is None or family.exact_family is None:
        return None
    n_tasks = _int_setting(cfg, "tasks", "n_tasks")
    if n_tasks < 1:
        raise CliError(f"tasks.n_tasks must be at least 1, got {n_tasks}")
    try:
        exact = family.exact_family(cfg["problem"], n_tasks)
    except (TypeError, ValueError) as e:
        raise CliError(f"bad problem settings: {e}")
    named = [(label, values[None, :]) for label, values in exact]
    for path in paths:
        try:
            # np.load leaves a path it opened open when the archive is broken
            with open(path, "rb") as f, np.load(f) as data:
                snaps = data["snapshots"].astype(np.float64)
        except OSError as e:
            raise CliError(f"cannot read snapshots: {e}")
        except (EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as e:
            raise CliError(f"{path} is not a snapshot file: {e}")
        if snaps.ndim != 2 or snaps.shape[1] != named[0][1].shape[1]:
            raise CliError(f"{path} holds snapshots of shape {snaps.shape}, not "
                           f"(steps, {named[0][1].shape[1]})")
        named.append((os.path.splitext(os.path.basename(path))[0], snaps))
    return named


def cmd_viz(cfg: dict, args) -> int:
    # every input is read and checked before the output directory exists
    by_method: dict[str, list] = {}
    for path in args.records:
        for r in _read_records(path):
            by_method.setdefault(r.method, []).append(r)
    if not by_method:
        raise CliError("no convergence records found")
    try:
        curves = {m: benchviz.aggregate(recs) for m, recs in sorted(by_method.items())}
    except ValueError as e:
        raise CliError(f"cannot aggregate the records: {e}")
    named = _manifold_curves(cfg, args.snapshots)
    out = prepare_out_dir(default_out(cfg, "viz", args.out), args)
    write_manifest(out, "viz", cfg, args)
    with open(os.path.join(out, "aggregated.csv"), "w") as f:
        f.write("method,iteration,mean_rel_l2,ci_lo,ci_hi\n")
        for method, agg in curves.items():
            for j, it in enumerate(agg.iterations):
                lo = "" if agg.ci_lo is None else repr(float(agg.ci_lo[j]))
                hi = "" if agg.ci_hi is None else repr(float(agg.ci_hi[j]))
                f.write(f"{method},{int(it)},{float(agg.mean[j])!r},{lo},{hi}\n")
    benchviz.write_summary_json(os.path.join(out, "summary.json"), by_method)
    if named is not None:
        # one shared basis: exact family plus every recorded snapshot
        proj = benchviz.pca_fit(np.concatenate([s for _, s in named], axis=0))
        labelled = {name: benchviz.project_trajectory(proj, s) for name, s in named}
        benchviz.write_manifold_csv(os.path.join(out, "manifold.csv"), labelled)
    print(f"visualization data in {out}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="madpde",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, tasks=False, checkpoint=False):
        sp.add_argument("--config", required=True, help="experiment config JSON")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="override every seed in the config")
        sp.add_argument("--workers", type=int, default=1,
                        help="must be 1, kept for existing scripts: every "
                             "command runs its tasks one after another")
        sp.add_argument("--force", action="store_true",
                        help="allow writing into a non-empty output directory")
        sp.add_argument("--set", action="append", default=[], metavar="K=V",
                        dest="overrides", help="override a config entry")
        if tasks:
            sp.add_argument("--tasks", required=True,
                            help="directory produced by gen-tasks")
        if checkpoint:
            sp.add_argument("--checkpoint", required=True)

    common(sub.add_parser("gen-tasks", help="sample task families and references"))
    common(sub.add_parser("pretrain", help="pre-train on the S1 tasks"),
           tasks=True)
    sp = sub.add_parser("finetune", help="fine-tune on held-out tasks")
    common(sp, tasks=True, checkpoint=True)
    sp.add_argument("--mode", choices=["L", "LM"], required=True)
    sp.add_argument("--task-index", type=int, default=None)
    sp = sub.add_parser("baseline", help="run a comparison method")
    common(sp, tasks=True)
    sp.add_argument("--method", required=True,
                    choices=["from-scratch", "transfer", "reptile", "maml"])
    common(sub.add_parser("eval", help="evaluate a checkpoint on S2"),
           tasks=True, checkpoint=True)
    sp = sub.add_parser("viz", help="aggregate records into plot-ready CSVs")
    common(sp)
    sp.add_argument("--records", nargs="+", required=True,
                    help="convergence.csv files to aggregate")
    sp.add_argument("--snapshots", nargs="*", default=[],
                    help="snapshot .npz files for the manifold projection")
    return p


_COMMANDS = {
    "gen-tasks": cmd_gen_tasks,
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "baseline": cmd_baseline,
    "eval": cmd_eval,
    "viz": cmd_viz,
}


def check_workers(args) -> None:
    """``--workers`` is 1: no command runs its tasks on threads of its own."""
    if args.workers != 1:
        raise CliError(f"--workers must be 1, got {args.workers}: every command "
                       f"runs its tasks one after another")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.made_out = None
    try:
        check_workers(args)
        if args.seed is not None and args.seed < 0:
            raise CliError(f"--seed must be >= 0, got {args.seed}")
        cfg = load_config(args.config, args.overrides)
        if args.seed is not None:
            cfg = override_seeds(cfg, args.seed)
        return _COMMANDS[args.command](cfg, args)
    except (CliError, mad.CheckpointError, oracles.OracleError, TrainingError,
            problems.ProblemError, DiffError) as e:
        if args.made_out is not None:
            shutil.rmtree(args.made_out)
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line pipeline: task generation, pre-training, fine-tuning,
baselines, evaluation and visualization data.

One experiment = one config file (JSON), read once into the frozen
``Experiment`` that every command takes; ``--set key.path=value`` overrides
an entry.  Sections and keys (* required): ``experiment``* (the name),
``problem``* (``variant``* and the settings of the family's
``check_settings``), ``tasks``* (``n_tasks``*, ``n_pretrain``*,
``seed``), ``reference`` (``nx``, ``nt``, ``which``), ``network``
(``latent_dim``, ``hidden_layers``, ``width``, ``first_layer_omega``),
``pretrain`` and ``finetune`` (``TrainConfig``'s fields; ``finetune``
also ``init_strategy``) and ``baseline`` (``meta``: ``MetaConfig``'s but
``seed``, which is ``finetune.seed``).  Every section
is checked, also one the command does not use: an unknown key is an error,
and so is a value of another JSON type than its field's (an int takes an
integer only, a float any finite number, a bool or string only its own
type).  ``--seed`` replaces the tasks, pretrain and finetune seeds.
Outputs land under ``--out`` (default: $MADPDE_OUT or ./runs, plus the
experiment name) with a manifest; an error before the output directory
exists leaves none.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import time
import typing
import zipfile

import numpy as np

from . import (baselines, benchviz, diffcore, evaluation, mad, oracles, problems,
               trainer)
from .baselines import MetaConfig
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


@dataclasses.dataclass(frozen=True)
class Tasks:
    n_tasks: int
    n_pretrain: int
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"tasks.seed must be >= 0, got {self.seed}")
        if not 1 <= self.n_pretrain < self.n_tasks:
            raise ValueError(f"need 1 <= tasks.n_pretrain < tasks.n_tasks, "
                             f"got {self.n_pretrain} and {self.n_tasks}")


@dataclasses.dataclass(frozen=True)
class Reference:
    nx: int = 256
    nt: int = 50
    which: str = "s2"

    def __post_init__(self):
        if self.nx < 2 or self.nx & (self.nx - 1):
            raise ValueError(f"reference.nx must be a power of two, got {self.nx}")
        if self.nt < 1:
            raise ValueError(f"reference.nt must be at least 1, got {self.nt}")
        if self.which not in ("s2", "all"):
            raise ValueError(f"reference.which must be 's2' or 'all', got {self.which!r}")


@dataclasses.dataclass(frozen=True)
class Experiment:
    """One config, read and checked; None for a section it lacks."""
    name: str
    problem: dict
    tasks: Tasks
    reference: Reference
    network: NetworkConfig
    pretrain: TrainConfig | None
    finetune: TrainConfig | None
    init_strategy: str
    meta: MetaConfig | None

    @property
    def family(self) -> type:
        return problems.VARIANTS[self.problem["variant"]]


def _typed(section: str, key: str, value, hint):
    """``value``, if of ``hint``'s JSON type; a float field takes any finite
    number."""
    kind, *none = typing.get_args(hint) or (hint,)
    if value is None and none:
        return None
    if type(value) not in ((int, float) if kind is float else (kind,)):
        raise CliError(f"bad {section} settings: {section}.{key} must be "
                       f"{kind.__name__}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise CliError(f"bad {section} settings: {section}.{key} must be "
                       f"a finite number, got {value!r}")
    return float(value) if kind is float else value


def _refuse_unknown(section: str, given: dict, allowed: list[str]) -> None:
    unknown = sorted(set(given) - set(allowed))
    if unknown:
        raise CliError(f"bad {section} settings: unknown {unknown}; allowed: {allowed}")


def _section(name: str, given: dict, cls, **fixed):
    """Section ``name`` as a ``cls``; ``fixed`` sets the fields no key sets."""
    if not isinstance(given, dict):
        raise CliError(f"bad {name} settings: must be an object, got {given!r}")
    fields = [f for f in dataclasses.fields(cls) if f.name not in fixed]
    _refuse_unknown(name, given, [f.name for f in fields])
    missing = [f.name for f in fields
               if f.name not in given and f.default is dataclasses.MISSING]
    if missing:
        raise CliError(f"bad {name} settings: the {name!r} section lacks {missing}")
    hints = typing.get_type_hints(cls)
    try:
        return cls(**{k: _typed(name, k, v, hints[k]) for k, v in given.items()}, **fixed)
    except ValueError as e:
        raise CliError(f"bad {name} settings: {e}")


def read_experiment(cfg: dict, seed: int | None) -> Experiment:
    """``cfg``, a ``load_config`` result, with ``seed`` (when given) as every seed."""
    try:
        family = problems.family(cfg["problem"].get("variant"))
    except problems.ProblemError as e:
        raise CliError(f"bad problem settings: {e}")
    _refuse_unknown("problem", cfg["problem"], ["variant", *family.check_settings({})])
    try:
        problem = {"variant": family.variant, **family.check_settings(cfg["problem"])}
    except problems.ProblemError as e:
        raise CliError(f"bad problem settings: {e}")
    seeded = {} if seed is None else {"seed": seed}
    fine = dict(cfg.get("finetune", {}))
    train_keys = [f.name for f in dataclasses.fields(TrainConfig)]
    _refuse_unknown("finetune", fine, [*train_keys, "init_strategy"])
    strategy = _typed("finetune", "init_strategy", fine.pop("init_strategy", "mean"), str)
    if strategy not in mad.INIT_STRATEGIES:
        raise CliError(f"latent init strategy {strategy!r} is not one of "
                       f"{mad.INIT_STRATEGIES} (finetune.init_strategy)")
    pretrain = finetune = meta = None
    if "pretrain" in cfg:
        pretrain = _section("pretrain", {**cfg["pretrain"], **seeded}, TrainConfig)
    if "finetune" in cfg:
        finetune = _section("finetune", {**fine, **seeded}, TrainConfig)
    _refuse_unknown("baseline", cfg.get("baseline", {}), ["meta"])
    if "meta" in cfg.get("baseline", {}):
        meta = _section("baseline.meta", cfg["baseline"]["meta"], MetaConfig,
                        seed=finetune.seed if finetune else 0)
    return Experiment(
        name=cfg["experiment"], problem=problem,
        tasks=_section("tasks", {**cfg["tasks"], **seeded}, Tasks),
        reference=_section("reference", cfg.get("reference", {}), Reference),
        network=_section("network", cfg.get("network", {}), NetworkConfig,
                         input_dim=family.input_dim, output_dim=1,
                         input_encoding=family.encoding),
        pretrain=pretrain, finetune=finetune, init_strategy=strategy, meta=meta)


def _needed(value, section: str):
    """``value``, unless the config lacks the ``section`` it comes from."""
    if value is None:
        raise CliError(f"config is missing the {section!r} section")
    return value


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


def write_manifest(out: str, command: str, exp: Experiment, args) -> None:
    manifest = {
        "experiment": exp.name,
        "command": command,
        "config_path": os.path.abspath(args.config) if args.config else None,
        "output_dir": os.path.abspath(out),
        "config": dataclasses.asdict(exp),
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


def default_out(exp: Experiment, command: str, out_flag) -> str:
    if out_flag:
        return out_flag
    root = os.environ.get("MADPDE_OUT", "runs")
    return os.path.join(root, exp.name, command)


# ---------------------------------------------------------------------------
# task file IO
# ---------------------------------------------------------------------------

def _write_task_file(path: str, ids: list[int], tasks: list[problems.Task]):
    payload = [{"id": i, "task": t.to_json()} for i, t in zip(ids, tasks)]
    with open(path, "w") as f:
        json.dump(payload, f, sort_keys=True)
        f.write("\n")


def read_tasks(exp: Experiment, tasks_dir: str, split: str
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
    wrong = next((t for t in tasks if type(t) is not exp.family), None)
    if wrong is not None:
        raise CliError(f"{path} holds a {wrong.variant!r} task where the config "
                       f"expects {exp.family.variant!r} tasks")
    return ids, tasks


def _held_out(exp: Experiment, args) -> tuple[list[int], list[problems.Task],
                                               mad.Checkpoint]:
    """Held-out ids and tasks, and a checkpoint pre-trained on their family."""
    ids, tasks = read_tasks(exp, args.tasks, "s2")
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

def cmd_gen_tasks(exp: Experiment, args) -> int:
    family, n_tasks, seed = exp.family, exp.tasks.n_tasks, exp.tasks.seed
    tasks = family.build(exp.problem, n_tasks, seed)
    out = prepare_out_dir(default_out(exp, "tasks", args.out), args)
    write_manifest(out, "gen-tasks", exp, args)
    perm = np.random.default_rng([seed, 0x5917]).permutation(n_tasks)
    s1_ids = sorted(int(i) for i in perm[:exp.tasks.n_pretrain])
    s2_ids = sorted(int(i) for i in perm[exp.tasks.n_pretrain:])
    s1, s2 = [tasks[i] for i in s1_ids], [tasks[i] for i in s2_ids]
    _write_task_file(os.path.join(out, "tasks_s1.json"), s1_ids, s1)
    _write_task_file(os.path.join(out, "tasks_s2.json"), s2_ids, s2)
    if family.solve_reference is not None:
        os.makedirs(os.path.join(out, "refs"), exist_ok=True)
        targets = list(zip(s2_ids, s2))
        if exp.reference.which == "all":
            targets += list(zip(s1_ids, s1))
        for tid, task in targets:
            oracles.save_reference(_ref_path(out, tid), task.solve_reference(
                exp.reference.nx, exp.reference.nt, {"task_id": tid}))
    print(f"wrote {len(s1)} pre-training and {len(s2)} held-out tasks to {out}")
    return 0


def cmd_pretrain(exp: Experiment, args) -> int:
    ids, tasks = read_tasks(exp, args.tasks, "s1")
    pre_cfg = _needed(exp.pretrain, "pretrain")
    out = prepare_out_dir(default_out(exp, "pretrain", args.out), args)
    write_manifest(out, "pretrain", exp, args)
    ck = mad.pretrain(tasks, exp.network, pre_cfg, task_ids=ids)
    mad.save_checkpoint(os.path.join(out, "checkpoint.ckpt"), ck)
    with open(os.path.join(out, "pretrain_loss.csv"), "w") as f:
        f.write("iteration,loss\n")
        for it, v in ck.loss_series:
            f.write(f"{it},{v!r}\n")
    print(f"pre-trained on {len(tasks)} tasks; checkpoint in {out}")
    return 0


def cmd_finetune(exp: Experiment, args) -> int:
    ids, tasks, ck = _held_out(exp, args)
    if args.task_index is not None:
        if args.task_index not in ids:
            raise CliError(f"task id {args.task_index} not in the held-out set")
        keep = ids.index(args.task_index)
        ids, tasks = [ids[keep]], [tasks[keep]]
    fine_cfg = _needed(exp.finetune, "finetune")
    # snapshots feed the manifold plot, which needs the exact family
    snapshots = tasks[0].exact_family is not None
    grids = [_eval_grid(task, args.tasks, tid) for tid, task in zip(ids, tasks)]
    Z0 = [mad.init_latent(task, ck, exp.init_strategy) for task in tasks]
    labels = [f"s2-{tid}" for tid in ids]
    out = prepare_out_dir(default_out(exp, f"finetune_{args.mode}", args.out), args)
    write_manifest(out, "finetune", exp, args)

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


def cmd_baseline(exp: Experiment, args) -> int:
    s1_ids, s1 = read_tasks(exp, args.tasks, "s1")
    s2_ids, s2 = read_tasks(exp, args.tasks, "s2")
    net_cfg = dataclasses.replace(exp.network, latent_dim=0)
    fine_cfg = _needed(exp.finetune, "finetune")
    meta = (_needed(exp.meta, "baseline.meta") if args.method in ("reptile", "maml")
            else None)
    pre_cfg = _needed(exp.pretrain, "pretrain") if args.method == "transfer" else None
    grids = [_eval_grid(task, args.tasks, tid) for tid, task in zip(s2_ids, s2)]
    out = prepare_out_dir(default_out(exp, f"baseline_{args.method}", args.out), args)
    write_manifest(out, "baseline", exp, args)
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


def cmd_eval(exp: Experiment, args) -> int:
    """Error of the pre-trained model on held-out tasks, no fine-tuning."""
    ids, tasks, ck = _held_out(exp, args)
    grids = [_eval_grid(task, args.tasks, tid) for tid, task in zip(ids, tasks)]
    Z0 = [mad.init_latent(task, ck, exp.init_strategy) for task in tasks]
    out = prepare_out_dir(default_out(exp, "eval", args.out), args)
    write_manifest(out, "eval", exp, args)
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


def _manifold_curves(exp: Experiment, paths: list[str]):
    """(label, (steps, points) values) of the exact family and of every
    snapshot file, or None when there is nothing to project."""
    if not paths or exp.family.exact_family is None:
        return None
    exact = exp.family.exact_family(exp.problem, exp.tasks.n_tasks)
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


def cmd_viz(exp: Experiment, args) -> int:
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
    named = _manifold_curves(exp, args.snapshots)
    out = prepare_out_dir(default_out(exp, "viz", args.out), args)
    write_manifest(out, "viz", exp, args)
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
                        help="must be 1, kept for existing scripts: how "
                             "tasks share CPUs is not a setting")
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
    """``--workers`` is 1: how tasks share CPUs is not a setting.  Large
    pre-training steps run half their tasks in a worker process of their
    own (``trainer``); everything else runs its tasks one after another."""
    if args.workers != 1:
        raise CliError(f"--workers must be 1, got {args.workers}: how tasks "
                       f"share CPUs is not a setting")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.made_out = None
    try:
        check_workers(args)
        if args.seed is not None and args.seed < 0:
            raise CliError(f"--seed must be >= 0, got {args.seed}")
        exp = read_experiment(load_config(args.config, args.overrides), args.seed)
        return _COMMANDS[args.command](exp, args)
    except (CliError, mad.CheckpointError, oracles.OracleError, TrainingError,
            problems.ProblemError, DiffError) as e:
        if args.made_out is not None:
            shutil.rmtree(args.made_out)
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""In-memory span tracer and the wrappers that attach it to ``madpde``.

A span is (name, start, end, parent).  Spans live in flat arrays while the
workload runs and are written out once, when the benchmark ends.  The
wrappers are installed from here, at the attribute each caller looks up
(``madpde.trainer.jet_forward``, ``madpde.diffcore.sin``,
``madpde.diffcore.Tape.gradient``, ...), and removed afterwards, so the
package itself carries no tracing code.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from collections import Counter

import numpy as np

# Tape node kinds reported one by one; leaves and anything else are lumped.
TAPE_KINDS = ("add", "sub", "neg", "mul", "matmul", "sin", "cos", "sum",
              "mean", "reshape", "repeat_rows", "concat_cols")
_LEAF_OPS = {"W", "b", "Z", "z", "const"}


class Tracer:
    """Span recorder for one single-threaded run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(args, result)`` may add
        counts once the call has returned (outside the span)."""
        nid = self._intern(name)
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def __len__(self):
        return len(self.start)

    def nbytes(self) -> int:
        """Memory held by the span buffers."""
        return sum(a.itemsize * len(a)
                   for a in (self.name_id, self.parent, self.start, self.end))

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the time covered by its direct
        children; calls are single-threaded, so children never overlap.
        """
        n = len(self.start)
        if n == 0:
            return {}
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        covered = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=dur - covered, minlength=k)
        return {name: {"calls": int(calls[i]), "s": float(incl[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def save(self, path: str) -> None:
        """Write every span (and the counts) to one ``.npz`` file."""
        start = np.frombuffer(self.start, dtype=np.float64)
        t0 = start[0] if start.size else 0.0
        np.savez_compressed(
            path, names=np.asarray(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=start - t0,
            end=np.frombuffer(self.end, dtype=np.float64) - t0,
            count_keys=np.asarray(sorted(self.counts), dtype=str),
            count_values=np.asarray([self.counts[k] for k in sorted(self.counts)],
                                    dtype=np.float64))


# ---------------------------------------------------------------------------
# wrapping madpde
# ---------------------------------------------------------------------------

def _tape_stats(tracer: Tracer):
    def after_gradient(args, _result):
        tape = args[0]
        kinds = Counter()
        nbytes = 0
        for node in tape.nodes:
            op = node.op
            kinds[op if op in TAPE_KINDS else
                  ("leaf" if op in _LEAF_OPS else "other")] += 1
            nbytes += node.value.nbytes
        c = tracer.counts
        c["tapes"] += 1
        c["tape_nodes"] += len(tape.nodes)
        c["tape_bytes"] += nbytes
        for kind, k in kinds.items():
            c["tape_nodes." + kind] += k
    return after_gradient


def _forward_rows(tracer: Tracer):
    def after_forward(args, _result):
        tracer.counts["forward_rows"] += np.atleast_2d(args[1]).shape[0]
    return after_forward


def _checkpoint_bytes(tracer: Tracer):
    def after_save(args, _result):
        tracer.counts["checkpoint_bytes"] += os.path.getsize(args[0])
    return after_save


def _targets():
    """(owner, attribute, span name, count hook) for every traced lookup site.

    A function imported by name into another module is looked up there, so
    each such site gets its own entry under the same span name.
    """
    from madpde import (baselines, benchviz, cli, diffcore, evaluation, grf,
                        mad, network, oracles, problems, trainer)
    dc_ops = ["add", "sub", "neg", "mul", "matmul", "sin", "cos", "vsum",
              "vmean", "reshape", "repeat_rows", "concat_cols"]
    out = [(diffcore, op, f"diffcore.{op}", None) for op in dc_ops]
    out += [
        (diffcore.Tape, "gradient", "diffcore.reverse", _tape_stats),
        (network, "jet_forward", "network.jet_forward", None),
        (trainer, "jet_forward", "network.jet_forward", None),
        (network, "forward", "network.forward", _forward_rows),
        (evaluation, "forward", "network.forward", _forward_rows),
        (trainer, "assemble_multitask_loss", "trainer.assemble_loss", None),
        (trainer, "adam_step", "trainer.adam_step", None),
        (trainer, "clip_gradient", "trainer.clip_gradient", None),
        (problems, "sample_batch", "problems.sample_batch", None),
        (grf, "evaluate_grf", "grf.evaluate_grf", None),
        (mad, "evaluate_grf", "grf.evaluate_grf", None),
        (oracles, "evaluate_grf", "grf.evaluate_grf", None),
        (evaluation, "rel_l2", "evaluation.rel_l2", None),
        (oracles, "burgers_solve", "oracles.burgers_solve", None),
        (oracles, "save_reference", "oracles.save_reference", None),
        (oracles, "load_reference", "oracles.load_reference", None),
        (mad, "pretrain", "mad.pretrain", None),
        (mad, "finetune_L", "mad.finetune_L", None),
        (mad, "finetune_LM", "mad.finetune_LM", None),
        (mad, "save_checkpoint", "mad.save_checkpoint", _checkpoint_bytes),
        (mad, "load_checkpoint", "mad.load_checkpoint", None),
        (baselines, "pinn_train", "baselines.pinn_train", None),
        (baselines, "inner_adapt", "baselines.inner_adapt", None),
        (benchviz, "write_convergence_csv", "benchviz.write_convergence_csv", None),
        (benchviz, "write_summary_json", "benchviz.write_summary_json", None),
    ]
    out += [(cli._COMMANDS, name, f"cli.{name}", None) for name in cli._COMMANDS]
    return out


class Installed:
    """Context manager: tracer wrappers in place inside the ``with`` block."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer
        self._targets = _targets()
        self._saved = []

    def __enter__(self):
        for owner, attr, name, hook in self._targets:
            is_dict = isinstance(owner, dict)
            original = owner[attr] if is_dict else getattr(owner, attr)
            wrapped = self._tracer.wrap(name, original,
                                        None if hook is None else hook(self._tracer))
            self._saved.append((owner, attr, original, is_dict))
            if is_dict:
                owner[attr] = wrapped
            else:
                setattr(owner, attr, wrapped)
        return self._tracer

    def __exit__(self, *exc):
        for owner, attr, original, is_dict in reversed(self._saved):
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._saved.clear()
        return False


# ---------------------------------------------------------------------------
# per-layer metrics from one traced phase
# ---------------------------------------------------------------------------

# (metric, span, statistic, unit): "ms"/"self_ms" per training iteration,
# "call_ms"/"call_s" per call of the span.
_SPAN_METRICS = [
    ("diffcore.sin.ms", "diffcore.sin", "ms", "ms"),
    ("diffcore.cos.ms", "diffcore.cos", "ms", "ms"),
    ("diffcore.neg.ms", "diffcore.neg", "ms", "ms"),
    ("diffcore.matmul.ms", "diffcore.matmul", "ms", "ms"),
    ("diffcore.mul.ms", "diffcore.mul", "ms", "ms"),
    ("diffcore.add.ms", "diffcore.add", "ms", "ms"),
    ("diffcore.reverse.ms", "diffcore.reverse", "ms", "ms"),
    ("network.jet_forward.ms", "network.jet_forward", "ms", "ms"),
    ("network.forward.ms", "network.forward", "ms", "ms"),
    ("trainer.assemble_loss.self_ms", "trainer.assemble_loss", "self_ms", "ms"),
    ("trainer.adam_step.ms", "trainer.adam_step", "ms", "ms"),
    ("trainer.clip_gradient.ms", "trainer.clip_gradient", "ms", "ms"),
    ("problems.sample_batch.ms", "problems.sample_batch", "ms", "ms"),
    ("grf.evaluate_grf.ms", "grf.evaluate_grf", "ms", "ms"),
    ("evaluation.rel_l2.ms", "evaluation.rel_l2", "ms", "ms"),
    ("oracles.burgers_solve.s", "oracles.burgers_solve", "call_s", "s"),
    ("oracles.save_reference.ms", "oracles.save_reference", "call_ms", "ms"),
    ("oracles.load_reference.ms", "oracles.load_reference", "call_ms", "ms"),
    ("mad.save_checkpoint.ms", "mad.save_checkpoint", "call_ms", "ms"),
    ("mad.load_checkpoint.ms", "mad.load_checkpoint", "call_ms", "ms"),
]
CLI_COMMANDS = ("gen-tasks", "pretrain", "finetune", "baseline")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {m: u for m, _, _, u in _SPAN_METRICS}
    units.update({f"cli.{c}.s": "s" for c in CLI_COMMANDS})
    units["diffcore.tape_nodes"] = "count"
    units.update({f"diffcore.tape_nodes.{k}": "count"
                  for k in TAPE_KINDS + ("leaf", "other")})
    units["diffcore.tape_mb"] = "MB"
    units["network.forward.rows"] = "count"
    units["mad.checkpoint_bytes"] = "count"
    units["trainer.iterations"] = "count"
    return units


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced phase; a layer that did no work
    reads 0."""
    tot = tracer.totals()
    c = tracer.counts
    iters = tot.get("trainer.adam_step", {}).get("calls", 0)
    out = {}
    for metric, span, stat, _ in _SPAN_METRICS:
        t = tot.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0})
        if stat == "ms":
            out[metric] = 1e3 * t["s"] / iters if iters else 0.0
        elif stat == "self_ms":
            out[metric] = 1e3 * t["self_s"] / iters if iters else 0.0
        else:
            per_call = t["s"] / t["calls"] if t["calls"] else 0.0
            out[metric] = per_call * (1e3 if stat == "call_ms" else 1.0)
    for cmd in CLI_COMMANDS:
        t = tot.get(f"cli.{cmd}", {"calls": 0, "s": 0.0})
        out[f"cli.{cmd}.s"] = t["s"] / t["calls"] if t["calls"] else 0.0
    tapes = c["tapes"]
    out["diffcore.tape_nodes"] = c["tape_nodes"] / tapes if tapes else 0.0
    for kind in TAPE_KINDS + ("leaf", "other"):
        out[f"diffcore.tape_nodes.{kind}"] = (c["tape_nodes." + kind] / tapes
                                              if tapes else 0.0)
    out["diffcore.tape_mb"] = c["tape_bytes"] / tapes / 1e6 if tapes else 0.0
    fwd = tot.get("network.forward", {}).get("calls", 0)
    out["network.forward.rows"] = c["forward_rows"] / fwd if fwd else 0.0
    saves = tot.get("mad.save_checkpoint", {}).get("calls", 0)
    out["mad.checkpoint_bytes"] = c["checkpoint_bytes"] / saves if saves else 0.0
    out["trainer.iterations"] = float(iters)
    return out

"""Convergence records, aggregation with confidence bands, and the PCA
projection used to visualize solution-manifold trajectories.

Downstream plotting consumes the CSV outputs; nothing here draws figures.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .oracles import mean_ci


@dataclass
class ConvergenceRecord:
    task_id: str
    method: str
    seed: int
    series: list[tuple[int, float, float]]  # (iteration, relative_l2, loss_total)
    snapshots: Optional[list[tuple[int, np.ndarray]]] = None

    def __post_init__(self):
        iters = [s[0] for s in self.series]
        if any(b <= a for a, b in zip(iters, iters[1:])):
            raise ValueError("iterations must be strictly increasing")
        vals = np.asarray([[s[1], s[2]] for s in self.series], dtype=float)
        if vals.size and not np.all(np.isfinite(vals)):
            raise ValueError("record contains non-finite values")

    def iterations(self) -> np.ndarray:
        return np.asarray([s[0] for s in self.series], dtype=int)

    def errors(self) -> np.ndarray:
        return np.asarray([s[1] for s in self.series], dtype=float)

    def losses(self) -> np.ndarray:
        return np.asarray([s[2] for s in self.series], dtype=float)

    def first_iteration_reaching(self, threshold: float) -> Optional[int]:
        for it, err, _ in self.series:
            if err <= threshold:
                return it
        return None


@dataclass
class AggregatedCurve:
    iterations: np.ndarray
    mean: np.ndarray
    ci_lo: Optional[np.ndarray]  # None in mean-only mode (single record)
    ci_hi: Optional[np.ndarray]


def aggregate(records: Sequence[ConvergenceRecord]) -> AggregatedCurve:
    """Pointwise mean and 95% band across records sharing an iteration grid."""
    if not records:
        raise ValueError("no records to aggregate")
    grid = records[0].iterations()
    for r in records[1:]:
        if not np.array_equal(r.iterations(), grid):
            raise ValueError("records have mismatched evaluation grids")
    E = np.stack([r.errors() for r in records])
    if len(records) == 1:
        return AggregatedCurve(grid, E[0], None, None)
    cis = [mean_ci(E[:, j]) for j in range(E.shape[1])]
    return AggregatedCurve(grid,
                           np.asarray([c.mean for c in cis]),
                           np.asarray([c.lo for c in cis]),
                           np.asarray([c.hi for c in cis]))


# ---------------------------------------------------------------------------
# PCA projection of discretized functions
# ---------------------------------------------------------------------------

@dataclass
class PcaProjection:
    basis: np.ndarray   # (2, D), orthonormal rows
    center: np.ndarray  # (D,)


def pca_fit(functions: np.ndarray) -> PcaProjection:
    """Top-2 principal directions of a stack of function discretizations.

    Sign convention: each basis row has its largest-magnitude entry positive.
    """
    X = np.asarray(functions, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need at least two function vectors")
    center = X.mean(axis=0)
    Xc = X - center
    _, s, Vt = np.linalg.svd(Xc, full_matrices=False)
    if s[0] == 0.0:
        raise ValueError("data has rank zero")
    basis = Vt[:2].copy()
    if basis.shape[0] < 2:
        raise ValueError("need at least a rank-1 spread and two samples")
    for row in basis:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return PcaProjection(basis, center)


def project_trajectory(proj: PcaProjection, snapshots) -> np.ndarray:
    S = np.atleast_2d(np.asarray(snapshots, dtype=np.float64))
    if S.shape[1] != proj.center.size:
        raise ValueError(f"snapshot length {S.shape[1]} != {proj.center.size}")
    return (S - proj.center) @ proj.basis.T


# ---------------------------------------------------------------------------
# CSV / JSON outputs
# ---------------------------------------------------------------------------

def write_convergence_csv(path: str, records: Sequence[ConvergenceRecord]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["method", "task_id", "seed", "iteration", "rel_l2", "loss"])
        for r in records:
            for it, err, loss in r.series:
                w.writerow([r.method, r.task_id, r.seed, it, repr(err), repr(loss)])


def read_convergence_csv(path: str) -> list[ConvergenceRecord]:
    rows: dict[tuple, list] = {}
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            key = (row["method"], row["task_id"], int(row["seed"]))
            rows.setdefault(key, []).append(
                (int(row["iteration"]), float(row["rel_l2"]), float(row["loss"])))
    out = []
    for (method, task_id, seed), series in rows.items():
        out.append(ConvergenceRecord(task_id, method, seed, sorted(series)))
    return out


def write_manifold_csv(path: str, labelled_trajectories: dict[str, np.ndarray]) -> None:
    """label -> (n_steps, 2) projected trajectory."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["label", "step", "pc1", "pc2"])
        for label, xy in labelled_trajectories.items():
            for step, (p1, p2) in enumerate(np.atleast_2d(xy)):
                w.writerow([label, step, repr(float(p1)), repr(float(p2))])


def summary_json(records_by_method: dict[str, Sequence[ConvergenceRecord]]) -> dict:
    """Final-error mean and 95% CI per method (requires >= 2 records for CI)."""
    out = {}
    for method, records in sorted(records_by_method.items()):
        finals = np.asarray([r.errors()[-1] for r in records])
        entry = {"n_tasks": len(records), "final_mean": float(finals.mean())}
        if finals.size >= 2:
            ci = mean_ci(finals)
            entry["final_ci_lo"] = ci.lo
            entry["final_ci_hi"] = ci.hi
        out[method] = entry
    return out


def write_summary_json(path: str, records_by_method) -> None:
    with open(path, "w") as f:
        json.dump(summary_json(records_by_method), f, indent=2, sort_keys=True)
        f.write("\n")

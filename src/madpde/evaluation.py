"""Per-task evaluation grids: where to measure errors, and against what
(each family's ``eval_points`` decides), and the errors there.

Errors are a monitoring metric, so the network is evaluated in float32
while training stays in float64: float32 ``np.sin`` runs as vector code, and
one evaluation on the 13,056-point Burgers grid (width 64 x 4) takes 7.1 ms,
against 32 ms in float64 through ``diffcore``'s tangent half-angle sine
kernel and 47 ms through float64 ``np.sin`` (2-CPU AVX-512 Xeon, median of
20).  On pre-trained networks of every
family (``tools/bench_eval.py``), float32 moved a relative L2 error by at
most 1.7e-6 of its value and a prediction by at most 5.8e-6 of max|u|,
well inside the 1e-3 to which the Burgers oracle itself is checked.
Training, probes and checkpoints never read these values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import oracles
from .network import ModelParams, forward
from .oracles import ReferenceField
from .problems import Task

@dataclass
class EvalGrid:
    points: np.ndarray      # (P, d)
    ref_values: np.ndarray  # (P,)

    def __post_init__(self):
        if np.linalg.norm(self.ref_values) == 0.0:
            raise ValueError("reference values have zero norm")


def for_task(task: Task, reference: Optional[ReferenceField] = None,
             seed: int = 0) -> EvalGrid:
    """Points and reference values from the family's ``eval_points``."""
    return EvalGrid(*task.eval_points(reference, seed))


def predict(params: ModelParams, z: Optional[np.ndarray], points: np.ndarray) -> np.ndarray:
    """The network's first output at ``points``: float64 values of a
    float32 forward (see the module docstring for what that costs in
    precision)."""
    return forward(params, points, z, np.float32)[:, 0]


def rel_l2(grid: EvalGrid, params: ModelParams, z: Optional[np.ndarray]) -> float:
    return oracles.relative_l2(predict(params, z, grid.points), grid.ref_values)

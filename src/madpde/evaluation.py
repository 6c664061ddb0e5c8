"""Per-task evaluation grids: where to measure errors, and against what
(each family's ``eval_points`` decides), and the errors there."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import oracles
from .network import ModelParams, forward
from .oracles import ReferenceField
from .problems import Task

LAPLACE_EVAL_POINTS = 16 * 1024


@dataclass
class EvalGrid:
    points: np.ndarray      # (P, d)
    ref_values: np.ndarray  # (P,)

    def __post_init__(self):
        if np.linalg.norm(self.ref_values) == 0.0:
            raise ValueError("reference values have zero norm")


def for_task(task: Task, reference: Optional[ReferenceField] = None,
             seed: int = 0, n_laplace: int = LAPLACE_EVAL_POINTS) -> EvalGrid:
    """Points and reference values from the family's ``eval_points``."""
    return EvalGrid(*task.eval_points(reference, seed, n_laplace))


def predict(params: ModelParams, z: Optional[np.ndarray], points: np.ndarray) -> np.ndarray:
    return forward(params, points, z)[:, 0]


def rel_l2(grid: EvalGrid, params: ModelParams, z: Optional[np.ndarray]) -> float:
    return oracles.relative_l2(predict(params, z, grid.points), grid.ref_values)

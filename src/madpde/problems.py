"""The parametric PDE families, one frozen dataclass each.

A family class owns all that differs between families.  It declares the
class data ``variant`` (registry key and JSON tag), ``input_dim``,
``encoding`` (the network input encoding), ``directions`` (coordinate
direction -> derivative order the residual reads), and the methods
``to_json``/``from_json``, ``check_settings`` (the settings of a config's
``problem`` section beside ``variant``, checked, with their defaults filled
in; its keys on ``{}`` are the keys a section may hold),
``residual_coefficients`` (per row, so they stack across the tasks of a
batch), ``residual`` (from jets and those coefficients),
``boundary_targets`` (validated Dirichlet data), ``sample`` (reached
through ``sample_batch``), ``distance`` (for nearest-latent
initialization), ``eval_points`` (where to score, against what) and
``build`` (the family from those settings).  Two more are None where a
family has no use for them: ``solve_reference`` (scored against a stored
reference field) and ``exact_family`` (fine-tuning records snapshots for
the manifold plot).  A new family is one more such class in ``VARIANTS``.

* ``OdeShiftTask``  -- du/dx = 2(x-eta)cos((x-eta)^2) on (-pi, pi) with both
  endpoint values prescribed; the task parameter is the shift eta.  The
  network sees x / pi (``unit_pi`` encoding), inputs in [-1, 1].
* ``BurgersTask``   -- u_t + u u_x = nu u_xx on the periodic unit interval,
  t in (0,1]; the parameter is the initial condition (a GRF sample).  The
  spatial periodicity is enforced exactly by the network's periodic input
  encoding, so the boundary batch carries only the t=0 condition.
* ``LaplaceTriangleTask`` -- u_xx + u_yy = 0 on a triangle inscribed in the
  unit circle, with Dirichlet data given by the harmonic extension of a GRF
  on the circle, restricted to the triangle edges.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from . import diffcore as dc
from . import grf, oracles
from .grf import GrfSample


class ProblemError(ValueError):
    pass


@dataclass
class SampleBatch:
    """Interior collocation points plus (boundary point, target) pairs."""

    interior: np.ndarray        # (M_r, d)
    boundary: np.ndarray        # (M_bc, d)
    boundary_values: np.ndarray  # (M_bc,)

    def __post_init__(self):
        if self.interior.ndim != 2 or self.boundary.ndim != 2:
            raise ValueError("points must be 2-D arrays")
        if self.boundary.shape[0] != self.boundary_values.shape[0]:
            raise ValueError("boundary targets must match boundary points")


_BOUNDARY_TOL = 1e-9
ODE_GRID_POINTS = 128
_DISCRETIZE_GRID = np.arange(128) / 128.0
MIN_ANGLE_GAP = 1e-3


def _check_jets(cls, jets: dict) -> None:
    """Raise unless ``jets`` holds every derivative ``cls.directions`` asks for."""
    for d, order in cls.directions.items():
        if d not in jets or (order == 2 and jets[d].d2 is None):
            raise ProblemError(f"{cls.variant} residual needs order-{order} "
                               f"derivatives along direction {d}")


def ode_forcing(eta: float, x: np.ndarray) -> np.ndarray:
    return 2.0 * (x - eta) * np.cos((x - eta) ** 2)


@dataclass(frozen=True)
class OdeShiftTask:
    eta: float

    variant = "ode_shift"
    input_dim = 1
    encoding = "unit_pi"
    directions = {0: 1}
    solve_reference = None

    def __post_init__(self):
        if not np.isfinite(self.eta):
            raise ProblemError("eta must be finite")

    def to_json(self) -> dict:
        return {"variant": self.variant, "eta": self.eta}

    @classmethod
    def from_json(cls, d: dict) -> "OdeShiftTask":
        return cls(float(d["eta"]))

    @classmethod
    def check_settings(cls, problem: dict) -> dict:
        """``eta_range``, [0, 2] by default."""
        eta_range = problem.get("eta_range", [0.0, 2.0])
        if not isinstance(eta_range, (list, tuple)) or len(eta_range) != 2:
            raise ProblemError(f"problem.eta_range must be [low, high], "
                               f"got {eta_range!r}")
        return {"eta_range": [_finite("eta_range", e) for e in eta_range]}

    @classmethod
    def build(cls, problem: dict, n_tasks: int, seed: int) -> list:
        """Shifts evenly spaced over ``problem["eta_range"]`` (seed unused)."""
        lo, hi = cls.check_settings(problem)["eta_range"]
        return [cls(float(e)) for e in np.linspace(lo, hi, n_tasks)]

    def residual_coefficients(self, points: np.ndarray) -> dict:
        return {"forcing": ode_forcing(self.eta, points[:, :1])}

    @classmethod
    def residual(cls, jets: dict, coef: dict):
        _check_jets(cls, jets)
        return dc.sub(jets[0].d1, coef["forcing"])

    def boundary_targets(self, points: np.ndarray) -> np.ndarray:
        x = points[:, 0]
        if np.any(np.minimum(np.abs(x - np.pi), np.abs(x + np.pi)) > _BOUNDARY_TOL):
            raise ProblemError("ODE boundary points must be the interval endpoints")
        return oracles.ode_exact(self.eta, x)

    def sample(self, M_r: int, M_bc: int, rng: np.random.Generator) -> SampleBatch:
        """The equidistant grid on [-pi, pi]; both endpoints (M_bc unused)."""
        x = np.linspace(-np.pi, np.pi, M_r).reshape(-1, 1)
        bc = np.array([[-np.pi], [np.pi]])
        return SampleBatch(x, bc, self.boundary_targets(bc))

    def distance(self, other: "OdeShiftTask") -> float:
        return abs(self.eta - other.eta)

    def eval_points(self, reference, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """The equidistant 128-point grid, against the closed form
        (``reference`` and ``seed`` unused)."""
        pts = np.linspace(-np.pi, np.pi, ODE_GRID_POINTS).reshape(-1, 1)
        return pts, oracles.ode_exact(self.eta, pts[:, 0])

    @classmethod
    def exact_family(cls, problem: dict, n_tasks: int) -> list:
        """(label, exact solution on the evaluation grid) for every task."""
        return [(f"exact_eta_{t.eta:.3f}", t.eval_points(None, 0)[1])
                for t in cls.build(problem, n_tasks, 0)]


def _finite(name: str, value, integer: bool = False):
    """``value`` as a float, or as an int with ``integer``, if it is a
    finite number (an integer with ``integer``); else ProblemError naming
    ``problem.<name>``."""
    kinds = (int,) if integer else (int, float)
    if (isinstance(value, bool) or not isinstance(value, kinds)
            or not np.isfinite(value)):
        raise ProblemError(f"problem.{name} must be a finite "
                           f"{'integer' if integer else 'number'}, got {value!r}")
    return int(value) if integer else float(value)


def _grf_settings(base: grf.GrfSpec, problem: dict) -> dict:
    """Every field of ``base`` but its domain, which each family fixes,
    updated by the config's ``problem["grf"]`` entries and checked."""
    given = problem.get("grf", {})
    if not isinstance(given, dict):
        raise ProblemError(f"problem.grf must be an object, got {given!r}")
    spec_fields = [f for f in fields(grf.GrfSpec) if f.name != "domain"]
    allowed = [f.name for f in spec_fields]
    unknown = sorted(set(given) - set(allowed))
    if unknown:
        raise ProblemError(f"unknown problem.grf settings {unknown}; "
                           f"allowed: {allowed}")
    settings = {f.name: _finite(f"grf.{f.name}",
                                given.get(f.name, getattr(base, f.name)),
                                integer=f.type == "int")
                for f in spec_fields}
    try:
        grf.GrfSpec(**settings, domain=base.domain)
    except ValueError as e:
        raise ProblemError(f"bad problem.grf settings: {e}")
    return settings


@dataclass(frozen=True)
class BurgersTask:
    u0: GrfSample
    nu: float

    variant = "burgers"
    input_dim = 2  # (x, t)
    encoding = "periodic_x"
    directions = {0: 2, 1: 1}  # u_x, u_xx and u_t
    exact_family = None

    def __post_init__(self):
        if self.nu <= 0:
            raise ProblemError("viscosity must be positive")
        if self.u0.domain != "unit_interval_periodic":
            raise ProblemError("initial condition must live on the periodic "
                               "unit interval")

    def to_json(self) -> dict:
        return {"variant": self.variant, "nu": self.nu, "u0": self.u0.to_json()}

    @classmethod
    def from_json(cls, d: dict) -> "BurgersTask":
        return cls(GrfSample.from_json(d["u0"]), float(d["nu"]))

    @classmethod
    def check_settings(cls, problem: dict) -> dict:
        """``nu``, 0.01 by default, and ``grf``, ``grf.BURGERS_GRF``'s."""
        nu = _finite("nu", problem.get("nu", 0.01))
        if not nu > 0:
            raise ProblemError(f"problem.nu must be positive, got {nu!r}")
        return {"nu": nu, "grf": _grf_settings(grf.BURGERS_GRF, problem)}

    @classmethod
    def build(cls, problem: dict, n_tasks: int, seed: int) -> list:
        """Initial condition i drawn from stream [seed, i] of the GRF
        ``grf.BURGERS_GRF`` updated by ``problem["grf"]``."""
        settings = cls.check_settings(problem)
        spec = grf.GrfSpec(**settings["grf"], domain=grf.BURGERS_GRF.domain)
        return [cls(grf.sample_grf(spec, np.random.default_rng([seed, i])),
                    settings["nu"]) for i in range(n_tasks)]

    def residual_coefficients(self, points: np.ndarray) -> dict:
        return {"nu": np.full((points.shape[0], 1), self.nu)}

    @classmethod
    def residual(cls, jets: dict, coef: dict):
        _check_jets(cls, jets)
        advect = dc.add(jets[1].d1, dc.mul(jets[0].val, jets[0].d1))
        return dc.sub(advect, dc.mul(coef["nu"], jets[0].d2))

    def boundary_targets(self, points: np.ndarray) -> np.ndarray:
        if np.any(np.abs(points[:, 1]) > _BOUNDARY_TOL):
            raise ProblemError("Burgers boundary points must lie on the t=0 slice")
        return grf.evaluate_grf(self.u0, points[:, 0])

    def sample(self, M_r: int, M_bc: int, rng: np.random.Generator) -> SampleBatch:
        """Uniform (x, t) on (0, 1) x (0, 1] and M_bc points of the t=0 slice."""
        x = rng.random(M_r)
        t = 1.0 - rng.random(M_r)  # (0, 1]
        interior = np.stack([x, t], axis=1)
        bc = np.stack([rng.random(M_bc), np.zeros(M_bc)], axis=1)
        return SampleBatch(interior, bc, self.boundary_targets(bc))

    def distance(self, other: "BurgersTask") -> float:
        """Euclidean distance between the initial conditions on a 128-point grid."""
        a = grf.evaluate_grf(self.u0, _DISCRETIZE_GRID)
        b = grf.evaluate_grf(other.u0, _DISCRETIZE_GRID)
        return float(np.linalg.norm(a - b))

    def eval_points(self, reference, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """The full space-time grid of the reference field (``seed`` unused)."""
        if reference is None:
            raise ValueError("Burgers evaluation needs a reference field")
        t, x = reference.axes
        tt, xx = np.meshgrid(t, x, indexing="ij")
        return np.stack([xx.ravel(), tt.ravel()], axis=1), reference.values.ravel()

    def solve_reference(self, nx: int, nt: int, meta: dict) -> oracles.ReferenceField:
        return oracles.burgers_solve(self.u0, self.nu, nx, nt, meta=meta)


def _barycentric(verts: np.ndarray, points: np.ndarray) -> np.ndarray:
    a, b, c = verts
    T = np.array([[b[0] - a[0], c[0] - a[0]], [b[1] - a[1], c[1] - a[1]]])
    uv = np.linalg.solve(T, (points - a).T).T
    return np.stack([1.0 - uv[:, 0] - uv[:, 1], uv[:, 0], uv[:, 1]], axis=1)


@dataclass(frozen=True)
class LaplaceTriangleTask:
    vertex_angles: tuple[float, float, float]
    boundary_field: GrfSample

    variant = "laplace_triangle"
    input_dim = 2  # (x, y)
    encoding = "identity"
    directions = {0: 2, 1: 2}
    solve_reference = None
    exact_family = None
    EVAL_POINTS = 16 * 1024  # interior points an error is measured at

    def __post_init__(self):
        a = np.mod(np.asarray(self.vertex_angles, dtype=float), 2 * np.pi)
        for i in range(3):
            for j in range(i + 1, 3):
                gap = abs(a[i] - a[j])
                gap = min(gap, 2 * np.pi - gap)
                if gap < MIN_ANGLE_GAP:
                    raise ProblemError(f"degenerate triangle: vertices {i} and {j} "
                                       f"are {gap:.2e} rad apart")
        if self.boundary_field.domain != "unit_circle":
            raise ProblemError("boundary field must live on the unit circle")

    def vertices(self) -> np.ndarray:
        a = np.asarray(self.vertex_angles, dtype=float)
        return np.stack([np.cos(a), np.sin(a)], axis=1)

    def to_json(self) -> dict:
        return {"variant": self.variant, "vertex_angles": list(self.vertex_angles),
                "boundary_field": self.boundary_field.to_json()}

    @classmethod
    def from_json(cls, d: dict) -> "LaplaceTriangleTask":
        return cls(tuple(float(a) for a in d["vertex_angles"]),
                   GrfSample.from_json(d["boundary_field"]))

    @classmethod
    def check_settings(cls, problem: dict) -> dict:
        """``grf``, ``grf.LAPLACE_GRF``'s by default."""
        return {"grf": _grf_settings(grf.LAPLACE_GRF, problem)}

    @classmethod
    def build(cls, problem: dict, n_tasks: int, seed: int) -> list:
        """Task i draws sorted vertex angles and then its boundary data (the
        GRF ``grf.LAPLACE_GRF`` updated by ``problem["grf"]``) from stream
        [seed, i], drawing again while the triangle is near-degenerate."""
        spec = grf.GrfSpec(**cls.check_settings(problem)["grf"],
                           domain=grf.LAPLACE_GRF.domain)
        tasks = []
        for i in range(n_tasks):
            rng = np.random.default_rng([seed, i])
            while True:
                angles = np.sort(rng.uniform(0, 2 * np.pi, 3))
                try:
                    tasks.append(cls(tuple(angles), grf.sample_grf(spec, rng)))
                    break
                except ProblemError:
                    pass
        return tasks

    def residual_coefficients(self, points: np.ndarray) -> dict:
        return {}

    @classmethod
    def residual(cls, jets: dict, coef: dict):
        _check_jets(cls, jets)
        return dc.add(jets[0].d2, jets[1].d2)

    def boundary_targets(self, points: np.ndarray) -> np.ndarray:
        bary = _barycentric(self.vertices(), points)
        inside = np.all(bary > -1e-9, axis=1)
        on_edge = np.min(np.abs(bary), axis=1) < 1e-7
        if not np.all(inside & on_edge):
            raise ProblemError("points must lie on the triangle edges")
        return oracles.laplace_solution_xy(self.boundary_field, points[:, 0], points[:, 1])

    def sample(self, M_r: int, M_bc: int, rng: np.random.Generator) -> SampleBatch:
        """Uniform interior by barycentric sampling; boundary uniform by
        length over the edges."""
        a, b, c = self.vertices()
        u = rng.random(M_r)
        v = rng.random(M_r)
        flip = u + v > 1.0
        u[flip] = 1.0 - u[flip]
        v[flip] = 1.0 - v[flip]
        interior = a + np.outer(u, b - a) + np.outer(v, c - a)
        edges = [(a, b), (b, c), (c, a)]
        lengths = np.array([np.linalg.norm(q - p) for p, q in edges])
        which = rng.choice(3, size=M_bc, p=lengths / lengths.sum())
        s = rng.random(M_bc)
        bc = np.empty((M_bc, 2))
        for i, (p, q) in enumerate(edges):
            m = which == i
            bc[m] = p + np.outer(s[m], q - p)
        return SampleBatch(interior, bc, self.boundary_targets(bc))

    def distance(self, other) -> float:
        raise ProblemError(
            "nearest-latent initialization is ill-defined for triangle tasks "
            "(the parameter includes the domain shape); use strategy='mean'")

    def eval_points(self, reference, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """``EVAL_POINTS`` interior points drawn from stream [seed, 0x5EED],
        against the analytic harmonic extension (``reference`` unused)."""
        rng = np.random.default_rng([seed, 0x5EED])
        pts = sample_batch(self, self.EVAL_POINTS, 1, rng).interior
        return pts, oracles.laplace_solution_xy(self.boundary_field,
                                                pts[:, 0], pts[:, 1])


Task = Union[OdeShiftTask, BurgersTask, LaplaceTriangleTask]

VARIANTS = {cls.variant: cls for cls in (OdeShiftTask, BurgersTask,
                                         LaplaceTriangleTask)}


def family(variant) -> type:
    """The task class registered under ``variant``."""
    if not isinstance(variant, str) or variant not in VARIANTS:
        raise ProblemError(f"unknown task variant {variant!r}; "
                           f"choose from {sorted(VARIANTS)}")
    return VARIANTS[variant]


def task_from_json(d: dict) -> Task:
    """The task ``to_json`` wrote as ``d``; ProblemError names what is wrong."""
    if not isinstance(d, dict):
        raise ProblemError(f"a task must be a JSON object, got {d!r}")
    cls = family(d.get("variant"))
    try:
        return cls.from_json(d)
    except KeyError as e:
        raise ProblemError(f"{cls.variant} task has no {e} entry") from None
    except (TypeError, ValueError) as e:
        raise ProblemError(f"bad {cls.variant} task: {e}") from e


def default_encoding(task: Task) -> str:
    return task.encoding


def directions_needed(task: Task) -> dict[int, int]:
    """Coordinate direction -> derivative order required by the residual."""
    return dict(task.directions)


def sample_batch(task: Task, M_r: int, M_bc: int, rng: np.random.Generator) -> SampleBatch:
    """Collocation batch for one task; see each family's ``sample``."""
    if M_r < 1 or M_bc < 1:
        raise ValueError("batch sizes must be >= 1")
    return task.sample(M_r, M_bc, rng)

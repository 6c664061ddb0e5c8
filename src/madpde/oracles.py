"""Reference solutions and error metrics.

Contains the closed-form ODE solution, a Fourier pseudo-spectral Burgers
solver stepped by ETDRK4 (primary reference; diffusion is integrated exactly,
so only the advective CFL limit bounds its step) together with an
independent Crank-Nicolson finite-difference solver (cross-check only; its
circulant implicit solve is a division in rfft space), the harmonic
extension of circle boundary data, and the L2 / confidence-interval metrics
used by the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import container
from .grf import GrfSample, evaluate_grf

_REF_MAGIC = b"MADREF1\n"


class OracleError(RuntimeError):
    pass


@dataclass
class ReferenceField:
    """Solution values on a tensor grid; values[i, j] = u(x=grid[1][j], t=grid[0][i])
    for time-dependent fields (axis order follows ``axes``)."""

    axes: tuple[np.ndarray, ...]
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.axes = tuple(np.asarray(a, dtype=np.float64) for a in self.axes)
        if self.values.shape != tuple(a.size for a in self.axes):
            raise ValueError("values shape must match the grid axes")
        for a in self.axes:
            if a.size > 1 and not np.all(np.diff(a) > 0):
                raise ValueError("grid axes must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("reference values must be finite")


def save_reference(path: str, ref: ReferenceField) -> None:
    header = {"axes": [a.tolist() for a in ref.axes],
              "shape": list(ref.values.shape), "meta": ref.meta}
    container.write(path, _REF_MAGIC, header, [ref.values])


def load_reference(path: str) -> ReferenceField:
    header, (values,) = container.read(path, _REF_MAGIC, "reference-field",
                                       OracleError, lambda h: [h["shape"]])
    with container.header_errors(path, OracleError):
        return ReferenceField(tuple(header["axes"]), values, header.get("meta", {}))


# ---------------------------------------------------------------------------
# ODE: du/dx = 2(x - eta) cos((x - eta)^2)
# ---------------------------------------------------------------------------

def ode_exact(eta: float, x) -> np.ndarray:
    return np.sin((np.asarray(x, dtype=np.float64) - eta) ** 2)


# ---------------------------------------------------------------------------
# viscous Burgers on the periodic unit interval
# ---------------------------------------------------------------------------

_CONTOUR_POINTS = 32  # Kassam-Trefethen contour quadrature for the phi-functions


def _etdrk4_coefficients(L: np.ndarray, h: float):
    """E, E2, Q, f1, 2 f2, f3 of ETDRK4 for the diagonal linear part ``L``
    and step ``h``.  The phi-functions are means over a circle of radius 1 about
    each h*L (Kassam & Trefethen, SIAM J. Sci. Comput. 2005), which avoids
    the cancellation of their closed forms at small |h*L|, including L = 0."""
    r = np.exp(1j * np.pi * (np.arange(1, _CONTOUR_POINTS + 1) - 0.5)
               / _CONTOUR_POINTS)
    LR = h * L[:, None] + r[None, :]
    eLR = np.exp(LR)
    LR3 = LR ** 3
    Q = h * np.real(np.mean((np.exp(LR / 2) - 1) / LR, axis=1))
    f1 = h * np.real(np.mean((-4 - LR + eLR * (4 - 3 * LR + LR ** 2)) / LR3, axis=1))
    f2 = h * np.real(np.mean((2 + LR + eLR * (LR - 2)) / LR3, axis=1))
    f3 = h * np.real(np.mean((-4 - 3 * LR - LR ** 2 + eLR * (4 - LR)) / LR3, axis=1))
    return np.exp(h * L), np.exp(h * L / 2), Q, f1, 2 * f2, f3


def burgers_solve(u0: GrfSample, nu: float, nx: int, nt: int,
                  meta: Optional[dict] = None, safety: float = 0.25,
                  max_steps: int = 2_000_000) -> ReferenceField:
    """Pseudo-spectral (2/3-dealiased) ETDRK4 integration of
    u_t + u u_x = nu u_xx on [0,1] x [0,1]; returns an (nt+1, nx) field.

    Exponential time differencing (Cox & Matthews 2002, in the form of
    Kassam & Trefethen 2005) applies the diffusion -nu k^2 exactly, so only
    the advective limit bounds the step: dt <= safety * dx / max|u|,
    re-chosen per output interval.  A blow-up that pushes the step count
    past ``max_steps`` raises OracleError, as does a non-finite slice.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    if nx & (nx - 1):
        raise ValueError("nx must be a power of two")
    x = np.arange(nx) / nx
    t = np.linspace(0.0, 1.0, nt + 1)
    dx = 1.0 / nx
    k = 2.0 * np.pi * np.fft.rfftfreq(nx, d=dx)
    kc = nx // 3  # 2/3-rule cutoff (in integer wavenumbers)
    mask = (np.arange(k.size) <= kc).astype(float)
    L = -nu * k ** 2
    # -u u_x is evaluated as -(u^2)_x / 2.  u holds no mode above kc, so
    # neither product aliases onto a kept mode, and on those modes the two
    # forms are the same term; this one needs two transforms instead of three.
    half_ik = -0.5j * k * mask

    def advection(v):
        u = np.fft.irfft(v)
        return half_ik * np.fft.rfft(u * u)

    values = np.empty((nt + 1, nx))
    values[0] = evaluate_grf(u0, x)
    v = np.fft.rfft(values[0]) * mask

    coefficients = {}  # substep count -> ETDRK4 coefficients
    steps_taken = 0
    dt_interval = t[1] - t[0]
    for i in range(nt):
        umax = float(np.max(np.abs(np.fft.irfft(v))))
        dt_max = safety * dx / max(umax, 1e-12)
        n_sub = max(1, int(np.ceil(dt_interval / dt_max)))
        steps_taken += n_sub
        if steps_taken > max_steps:
            raise OracleError(f"time step collapsed (CFL) near t={t[i]:.4f}")
        if n_sub not in coefficients:
            coefficients[n_sub] = _etdrk4_coefficients(L, dt_interval / n_sub)
        E, E2, Q, f1, f2x2, f3 = coefficients[n_sub]
        for _ in range(n_sub):
            Nv = advection(v)
            a = E2 * v + Q * Nv
            Na = advection(a)
            b = E2 * v + Q * Na
            Nb = advection(b)
            c = E2 * a + Q * (2 * Nb - Nv)
            Nc = advection(c)
            v = E * v + f1 * Nv + f2x2 * (Na + Nb) + f3 * Nc
        slice_i = np.fft.irfft(v)
        if not np.all(np.isfinite(slice_i)):
            raise OracleError(f"solution blew up near t={t[i + 1]:.4f}")
        values[i + 1] = slice_i

    return ReferenceField((t, x), values, dict(meta or {}, solver="spectral_etdrk4",
                                               nu=nu))


def burgers_solve_cn(u0: GrfSample, nu: float, nx: int, nt: int,
                     substeps_per_interval: int = 40) -> ReferenceField:
    """Independent cross-check: central finite differences in space,
    Crank-Nicolson diffusion with Adams-Bashforth-2 advection in time.

    The periodic second-difference operator is circulant, so the implicit
    solve is a division in rfft space by the symbol of I - (nu dt / 2) D2,
    with D2's eigenvalues (2 cos(2 pi m / nx) - 2) / dx^2."""
    x = np.arange(nx) / nx
    t = np.linspace(0.0, 1.0, nt + 1)
    dx = 1.0 / nx

    dt = (t[1] - t[0]) / substeps_per_interval
    lam = (2.0 * np.cos(2.0 * np.pi * np.arange(nx // 2 + 1) / nx) - 2.0) / dx ** 2
    A = 1.0 - 0.5 * nu * dt * lam
    B = 1.0 + 0.5 * nu * dt * lam

    def advect(u):
        return u * (np.roll(u, -1) - np.roll(u, 1)) / (2.0 * dx)

    values = np.empty((nt + 1, nx))
    values[0] = evaluate_grf(u0, x)
    u = values[0].copy()
    n_prev = advect(u)
    for i in range(nt):
        for _ in range(substeps_per_interval):
            n_cur = advect(u)
            rhs_hat = B * np.fft.rfft(u) - dt * np.fft.rfft(1.5 * n_cur - 0.5 * n_prev)
            u = np.fft.irfft(rhs_hat / A, n=nx)
            n_prev = n_cur
        values[i + 1] = u
    return ReferenceField((t, x), values, {"solver": "cn_fd", "nu": nu})


# ---------------------------------------------------------------------------
# Laplace: harmonic extension of circle data into the unit disk
# ---------------------------------------------------------------------------

def laplace_disk_solution(h: GrfSample, r, theta) -> np.ndarray:
    """u(r, theta) = a0 + sum_k r^k (a_k cos k theta + b_k sin k theta)."""
    if h.domain != "unit_circle":
        raise ValueError("boundary data must live on the unit circle")
    r = np.asarray(r, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    if np.any(r > 1.0 + 1e-12) or np.any(r < 0):
        raise OracleError("radius outside the unit disk")
    k = np.arange(1, h.n_modes + 1)
    rk = np.power.outer(r, k)
    ang = np.multiply.outer(theta, k)
    return (h.cos_coeffs[0]
            + np.sum(rk * (np.cos(ang) * h.cos_coeffs[1:]
                           + np.sin(ang) * h.sin_coeffs), axis=-1))


def laplace_solution_xy(h: GrfSample, x, y) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    r = np.hypot(x, y)
    theta = np.arctan2(y, x)
    return laplace_disk_solution(h, r, theta)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def relative_l2(pred, ref) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if pred.shape != ref.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {ref.shape}")
    denom = np.linalg.norm(ref.ravel())
    if denom == 0.0:
        raise ValueError("reference has zero norm")
    return float(np.linalg.norm((pred - ref).ravel()) / denom)


@dataclass(frozen=True)
class MeanCI:
    mean: float
    lo: float
    hi: float


def mean_ci(errors) -> MeanCI:
    """Mean with normal-approximation 95% interval (n >= 2 required)."""
    e = np.asarray(errors, dtype=np.float64)
    if e.size < 2:
        raise ValueError("need at least two values for a confidence interval")
    m = float(e.mean())
    half = 1.96 * float(e.std(ddof=1)) / np.sqrt(e.size)
    return MeanCI(m, m - half, m + half)

"""Reference solutions and error metrics.

Contains the closed-form ODE solution, a Fourier pseudo-spectral Burgers
solver (primary reference) together with an independent Crank-Nicolson
finite-difference solver (cross-check only), the harmonic extension of
circle boundary data, and the L2 / confidence-interval metrics used by the
benchmark harness.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg

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
    header = {
        "axes": [a.tolist() for a in ref.axes],
        "shape": list(ref.values.shape),
        "meta": ref.meta,
    }
    hbytes = json.dumps(header, sort_keys=True).encode()
    payload = np.ascontiguousarray(ref.values, dtype="<f8").tobytes()
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(_REF_MAGIC)
        f.write(struct.pack("<I", len(hbytes)))
        f.write(hbytes)
        f.write(payload)
    os.replace(tmp, path)


def load_reference(path: str) -> ReferenceField:
    with open(path, "rb") as f:
        blob = f.read()
    if not blob.startswith(_REF_MAGIC):
        raise OracleError(f"{path}: not a reference-field file")
    if len(blob) < 12:
        raise OracleError(f"{path}: truncated header ({len(blob)} bytes)")
    n = struct.unpack("<I", blob[8:12])[0]
    try:
        header = json.loads(blob[12:12 + n])
        shape = tuple(header["shape"])
        axes = tuple(np.asarray(a) for a in header["axes"])
    except (ValueError, KeyError, TypeError) as e:
        raise OracleError(f"{path}: corrupt header ({type(e).__name__}: {e})") from e
    need = 12 + n + 8 * int(np.prod(shape))
    if len(blob) != need:
        raise OracleError(f"{path}: truncated payload ({len(blob)} of {need} bytes)")
    values = np.frombuffer(blob[12 + n:], dtype="<f8").reshape(shape).copy()
    return ReferenceField(axes, values, header.get("meta", {}))


# ---------------------------------------------------------------------------
# ODE: du/dx = 2(x - eta) cos((x - eta)^2)
# ---------------------------------------------------------------------------

def ode_exact(eta: float, x) -> np.ndarray:
    return np.sin((np.asarray(x, dtype=np.float64) - eta) ** 2)


# ---------------------------------------------------------------------------
# viscous Burgers on the periodic unit interval
# ---------------------------------------------------------------------------

def _burgers_rhs(u_hat, k, nu, mask):
    u = np.fft.irfft(u_hat)
    ux = np.fft.irfft(1j * k * u_hat)
    conv_hat = np.fft.rfft(u * ux) * mask
    return -conv_hat - nu * k ** 2 * u_hat


def burgers_solve(u0: GrfSample, nu: float, nx: int, nt: int,
                  meta: Optional[dict] = None, safety: float = 0.25,
                  max_steps: int = 2_000_000) -> ReferenceField:
    """Pseudo-spectral (2/3-dealiased) RK4 integration of
    u_t + u u_x = nu u_xx on [0,1] x [0,1]; returns an (nt+1, nx) field.

    The step satisfies dt <= safety * min(dx / max|u|, dx^2 / (2 nu)) and is
    re-chosen per output interval; a blow-up that pushes the step count past
    ``max_steps`` raises OracleError.
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

    values = np.empty((nt + 1, nx))
    values[0] = evaluate_grf(u0, x)
    u_hat = np.fft.rfft(values[0]) * mask

    steps_taken = 0
    dt_interval = t[1] - t[0]
    for i in range(nt):
        umax = float(np.max(np.abs(np.fft.irfft(u_hat))))
        dt_max = safety * min(dx / max(umax, 1e-12), dx * dx / (2.0 * nu))
        n_sub = max(1, int(np.ceil(dt_interval / dt_max)))
        steps_taken += n_sub
        if steps_taken > max_steps:
            raise OracleError(f"time step collapsed (CFL) near t={t[i]:.4f}")
        dt = dt_interval / n_sub
        for _ in range(n_sub):
            k1 = _burgers_rhs(u_hat, k, nu, mask)
            k2 = _burgers_rhs(u_hat + 0.5 * dt * k1, k, nu, mask)
            k3 = _burgers_rhs(u_hat + 0.5 * dt * k2, k, nu, mask)
            k4 = _burgers_rhs(u_hat + dt * k3, k, nu, mask)
            u_hat = u_hat + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        slice_i = np.fft.irfft(u_hat)
        if not np.all(np.isfinite(slice_i)):
            raise OracleError(f"solution blew up near t={t[i + 1]:.4f}")
        values[i + 1] = slice_i

    return ReferenceField((t, x), values, dict(meta or {}, solver="spectral_rk4",
                                               nu=nu))


def burgers_solve_cn(u0: GrfSample, nu: float, nx: int, nt: int,
                     substeps_per_interval: int = 40) -> ReferenceField:
    """Independent cross-check: central finite differences in space,
    Crank-Nicolson diffusion with Adams-Bashforth-2 advection in time."""
    x = np.arange(nx) / nx
    t = np.linspace(0.0, 1.0, nt + 1)
    dx = 1.0 / nx

    main = np.full(nx, -2.0)
    ident = np.eye(nx)
    D2 = (np.diag(main) + np.roll(ident, 1, axis=1) + np.roll(ident, -1, axis=1)) / dx ** 2

    dt = (t[1] - t[0]) / substeps_per_interval
    A = ident - 0.5 * nu * dt * D2
    B = ident + 0.5 * nu * dt * D2
    lu, piv = scipy.linalg.lu_factor(A)

    def advect(u):
        return u * (np.roll(u, -1) - np.roll(u, 1)) / (2.0 * dx)

    values = np.empty((nt + 1, nx))
    values[0] = evaluate_grf(u0, x)
    u = values[0].copy()
    n_prev = advect(u)
    for i in range(nt):
        for _ in range(substeps_per_interval):
            n_cur = advect(u)
            rhs = B @ u - dt * (1.5 * n_cur - 0.5 * n_prev)
            u = scipy.linalg.lu_solve((lu, piv), rhs)
            n_prev = n_cur
        values[i + 1] = u
    return ReferenceField((t, x), values, {"solver": "cn_fd", "nu": nu})


# ---------------------------------------------------------------------------
# Laplace: harmonic extension of circle data into the unit disk
# ---------------------------------------------------------------------------

def laplace_disk_solution(h: GrfSample, r, theta, K: Optional[int] = None) -> np.ndarray:
    """u(r, theta) = a0 + sum_k r^k (a_k cos k theta + b_k sin k theta)."""
    if h.domain != "unit_circle":
        raise ValueError("boundary data must live on the unit circle")
    r = np.asarray(r, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    if np.any(r > 1.0 + 1e-12) or np.any(r < 0):
        raise OracleError("radius outside the unit disk")
    K = h.n_modes if K is None else min(K, h.n_modes)
    k = np.arange(1, K + 1)
    rk = np.power.outer(r, k)
    ang = np.multiply.outer(theta, k)
    return (h.cos_coeffs[0]
            + np.sum(rk * (np.cos(ang) * h.cos_coeffs[1:K + 1]
                           + np.sin(ang) * h.sin_coeffs[:K]), axis=-1))


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

"""Gaussian random fields sampled spectrally (truncated Karhunen-Loeve).

Fields live either on the periodic unit interval (Burgers initial
conditions) or on the unit circle (Laplace boundary data).  The covariance
is scale * (-Laplacian + shift*I)^(-power), whose eigenvalues are
lambda_k = (2 pi k)^2 on the unit interval and k^2 on the circle; the cos
and sin coefficient of mode k each carry the full mode variance
scale * (lambda_k + shift)^(-power).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DOMAINS = ("unit_interval_periodic", "unit_circle")


@dataclass(frozen=True)
class GrfSpec:
    scale: float
    shift: float
    power: int
    n_modes: int
    domain: str = "unit_interval_periodic"
    include_constant: bool = True

    def __post_init__(self):
        if self.scale <= 0 or self.shift <= 0:
            raise ValueError("scale and shift must be positive")
        if self.n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        if self.domain not in DOMAINS:
            raise ValueError(f"domain must be one of {DOMAINS}")


# covariance specs used by the two PDE families
BURGERS_GRF = GrfSpec(scale=1000.0, shift=9.0, power=3, n_modes=32,
                      domain="unit_interval_periodic")
LAPLACE_GRF = GrfSpec(scale=10.0 ** 1.5, shift=100.0, power=3, n_modes=16,
                      domain="unit_circle")


@dataclass
class GrfSample:
    """Truncated Fourier series: index 0 of cos_coeffs is the constant mode."""

    cos_coeffs: np.ndarray  # length K+1
    sin_coeffs: np.ndarray  # length K
    domain: str

    def __post_init__(self):
        self.cos_coeffs = np.asarray(self.cos_coeffs, dtype=np.float64)
        self.sin_coeffs = np.asarray(self.sin_coeffs, dtype=np.float64)
        if self.cos_coeffs.size != self.sin_coeffs.size + 1:
            raise ValueError("need one more cos coefficient (constant mode) than sin")
        if self.domain not in DOMAINS:
            raise ValueError(f"domain must be one of {DOMAINS}")
        if not (np.all(np.isfinite(self.cos_coeffs)) and np.all(np.isfinite(self.sin_coeffs))):
            raise ValueError("coefficients must be finite")

    @property
    def n_modes(self) -> int:
        return self.sin_coeffs.size

    def to_json(self) -> dict:
        return {"cos": self.cos_coeffs.tolist(), "sin": self.sin_coeffs.tolist(),
                "domain": self.domain}

    @classmethod
    def from_json(cls, d: dict) -> "GrfSample":
        return cls(np.asarray(d["cos"]), np.asarray(d["sin"]), d["domain"])


def mode_variances(spec: GrfSpec) -> np.ndarray:
    """Per-mode variance for k = 0..n_modes (index 0 = constant mode)."""
    k = np.arange(spec.n_modes + 1)
    if spec.domain == "unit_interval_periodic":
        lam = (2.0 * np.pi * k) ** 2
    else:
        lam = k.astype(float) ** 2
    return spec.scale * (lam + spec.shift) ** (-spec.power)


def sample_grf(spec: GrfSpec, rng: np.random.Generator) -> GrfSample:
    var = mode_variances(spec)
    std = np.sqrt(var)
    cos_coeffs = rng.normal(size=spec.n_modes + 1) * std
    sin_coeffs = rng.normal(size=spec.n_modes) * std[1:]
    if not spec.include_constant:
        cos_coeffs[0] = 0.0
    return GrfSample(cos_coeffs, sin_coeffs, spec.domain)


def evaluate_grf(sample: GrfSample, points) -> np.ndarray:
    """Series value at x in [0,1] (interval) or theta in [0,2pi) (circle)."""
    pts = np.asarray(points, dtype=np.float64)
    k = np.arange(1, sample.n_modes + 1)
    if sample.domain == "unit_interval_periodic":
        phase = 2.0 * np.pi * np.multiply.outer(pts, k)
    else:
        phase = np.multiply.outer(pts, k)
    out = (np.cos(phase) @ sample.cos_coeffs[1:]
           + np.sin(phase) @ sample.sin_coeffs
           + sample.cos_coeffs[0])
    return out

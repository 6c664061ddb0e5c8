"""Latent-conditioned MLP with sine activations and optional periodic encoding.

The network evaluates f(x, z) on the concatenation of the (optionally
encoded) coordinates x and a per-task latent vector z.  ``forward`` is plain
numpy for cheap evaluation on grids; ``jet_forward`` (training's path, on
the weights that ``stage_network`` puts on a tape; ``forward_jets`` stages
them on a fresh one) runs the same computation in Jet2 arithmetic, so that
du/dv and d2u/dv2 per coordinate direction stay differentiable with respect
to the weights and the latent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import diffcore as dc
from .diffcore import Jet2, Tape

ENCODINGS = ("identity", "periodic_x", "unit_pi")

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class NetworkConfig:
    input_dim: int
    latent_dim: int = 0
    hidden_layers: int = 4
    width: int = 64
    output_dim: int = 1
    first_layer_omega: float = 30.0
    input_encoding: str = "identity"

    def __post_init__(self):
        if self.latent_dim < 0:
            raise ValueError("latent_dim must be >= 0")
        if self.hidden_layers < 1:
            raise ValueError("hidden_layers must be >= 1")
        if self.width < 1:
            raise ValueError("width must be >= 1")
        if self.input_encoding not in ENCODINGS:
            raise ValueError(f"input_encoding must be one of {ENCODINGS}")
        if self.input_encoding == "periodic_x" and self.input_dim < 1:
            raise ValueError("periodic_x encoding needs at least one coordinate")

    @property
    def encoded_dim(self) -> int:
        if self.input_encoding == "periodic_x":
            return self.input_dim + 1  # x -> (cos 2pi x, sin 2pi x), rest pass through
        return self.input_dim

    def layer_dims(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) of every weight matrix, input to output."""
        d0 = self.encoded_dim + self.latent_dim
        dims = [(d0, self.width)]
        dims += [(self.width, self.width)] * (self.hidden_layers - 1)
        dims.append((self.width, self.output_dim))
        return dims


def param_count(config: NetworkConfig) -> int:
    return sum(fi * fo + fo for fi, fo in config.layer_dims())


@dataclass
class ModelParams:
    """Flat parameter vector; layout is layer-major, weights then bias."""

    flat: np.ndarray
    config: NetworkConfig

    def __post_init__(self):
        expected = param_count(self.config)
        if self.flat.size != expected:
            raise ValueError(f"expected {expected} parameters, got {self.flat.size}")

    def layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(W, b) views into the flat vector, in layer order."""
        out = []
        pos = 0
        for fi, fo in self.config.layer_dims():
            W = self.flat[pos:pos + fi * fo].reshape(fi, fo)
            pos += fi * fo
            b = self.flat[pos:pos + fo]
            pos += fo
            out.append((W, b))
        return out


def init_siren(config: NetworkConfig, seed: int) -> ModelParams:
    """Sine-net initialization: hidden W ~ U(+-sqrt(6/fan_in)), first layer
    W ~ U(+-1/fan_in) scaled by first_layer_omega, biases U(+-1/sqrt(fan_in))."""
    rng = np.random.default_rng(seed)
    chunks = []
    for li, (fi, fo) in enumerate(config.layer_dims()):
        if li == 0:
            bound = 1.0 / fi
            W = rng.uniform(-bound, bound, size=(fi, fo)) * config.first_layer_omega
        else:
            bound = np.sqrt(6.0 / fi)
            W = rng.uniform(-bound, bound, size=(fi, fo))
        b = rng.uniform(-1.0, 1.0, size=fo) / np.sqrt(fi)
        chunks.append(W.ravel())
        chunks.append(b)
    return ModelParams(np.concatenate(chunks), config)


def _check_dims(config: NetworkConfig, x: np.ndarray, z) -> tuple[np.ndarray, np.ndarray]:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != config.input_dim:
        raise ValueError(f"x has {x.shape[1]} columns, expected {config.input_dim}")
    if config.latent_dim == 0:
        return x, np.zeros((x.shape[0], 0))
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 1:
        if z.size != config.latent_dim:
            raise ValueError(f"z has length {z.size}, expected {config.latent_dim}")
        z = np.broadcast_to(z, (x.shape[0], z.size))
    elif z.shape != (x.shape[0], config.latent_dim):
        raise ValueError("z rows must match x rows")
    return x, z


def encode(config: NetworkConfig, x: np.ndarray) -> np.ndarray:
    """The first layer's coordinate features: x as it is (``identity``),
    x / pi (``unit_pi``, which maps [-pi, pi] to [-1, 1]), or the first
    coordinate on the unit circle (``periodic_x``)."""
    if config.input_encoding == "identity":
        return x
    if config.input_encoding == "unit_pi":
        return x / np.pi
    x0 = x[:, :1]
    return np.concatenate([np.cos(TWO_PI * x0), np.sin(TWO_PI * x0), x[:, 1:]], axis=1)


def encode_jets(config: NetworkConfig, x: np.ndarray, direction: int):
    """First and second derivatives of the first layer's input along one raw
    coordinate direction: (B, encoded_dim + latent_dim) arrays whose latent
    columns are zero, or 0.0 for a second derivative that is zero
    everywhere.  Everything is constant data (no tape nodes)."""
    d1 = np.zeros((x.shape[0], config.encoded_dim + config.latent_dim))
    if config.input_encoding != "periodic_x":
        d1[:, direction] = 1.0 if config.input_encoding == "identity" else 1.0 / np.pi
        return d1, 0.0
    if direction == 0:
        c = np.cos(TWO_PI * x[:, :1])
        s = np.sin(TWO_PI * x[:, :1])
        d2 = np.zeros_like(d1)
        d1[:, :1] = -TWO_PI * s
        d1[:, 1:2] = TWO_PI * c
        d2[:, :1] = -(TWO_PI ** 2) * c
        d2[:, 1:2] = -(TWO_PI ** 2) * s
        return d1, d2
    d1[:, direction + 1] = 1.0  # x expands into two features
    return d1, 0.0


def forward(params: ModelParams, x, z=None, dtype=np.float64) -> np.ndarray:
    """Plain numpy evaluation; returns float64 (B, output_dim).

    Every layer is computed in ``dtype``: the encoded inputs, the latent and
    each layer's weights are cast once per call (a no-op for float64), and
    the bias add and the sine run in place in the layer's GEMM output, which
    is the only array written.  ``params``, ``x`` and ``z`` are never
    written.  The sine is ``diffcore.sin_array``: float64 goes through its
    tangent half-angle kernel, so the values are those of
    ``sin_array(h @ W + b)`` and of ``jet_forward``'s value channel bit for
    bit, and float32 goes to ``np.sin``.
    """
    cfg = params.config
    x, z = _check_dims(cfg, x, z)
    h = np.concatenate([encode(cfg, x), z], axis=1, dtype=dtype)
    layers = params.layers()
    for li, (W, b) in enumerate(layers):
        h = h @ W.astype(dtype, copy=False)
        h += b.astype(dtype, copy=False)
        if li < len(layers) - 1:
            dc.sin_array(h, out=h)
    return h.astype(np.float64, copy=False)


def stage_network(tape: Tape, params: ModelParams, trainable: bool = True) -> list:
    """The (W, b) pairs of ``params`` in layer order: leaves on ``tape`` when
    ``trainable``, else the plain arrays, which cost nothing in the reverse
    sweep."""
    if not trainable:
        return params.layers()
    return [(tape.constant(W, "W"), tape.constant(b, "b")) for W, b in params.layers()]


def _sine_jets(pre: list[Jet2]) -> list[Jet2]:
    """sin through jets, with sin'' = -sin folded in: d2 = f1*d2 - f0*d1^2.

    All jets in ``pre`` hold the same .val (the layer pre-activation), so
    sin and cos are computed once for every direction.  A value-only pass
    (every derivative a structural zero) records sin alone.  Otherwise sin
    and cos come from one ``sincos``, and each channel's terms are recorded
    in the order of the ``dc.jet_sin`` chain: d1, d1^2, f0*d1^2, f1*d2.  With
    one order-2 direction the reverse sweep then yields the same gradients
    as that chain, bit for bit.
    """
    val = pre[0].val
    if all(dc._is_zero(j.d1) and (j.d2 is None or dc._is_zero(j.d2)) for j in pre):
        f0 = dc.sin(val)
        return [Jet2(f0, j.d1, j.d2) for j in pre]
    f0, f1 = dc.sincos(val)
    out = []
    for j in pre:
        d1 = dc._jmul(f1, j.d1)
        d2 = None
        if j.d2 is not None:
            curvature = dc._jmul(f0, dc._jmul(j.d1, j.d1))
            d2 = dc._jsub(dc._jmul(f1, j.d2), curvature)
        out.append(Jet2(f0, d1, d2))
    return out


def _matvec(h, W):
    if dc._is_zero(h):
        return 0.0
    return dc.matmul(h, W)


def jet_forward(cfg: NetworkConfig, weights: list, x: np.ndarray, z_rows,
                orders: dict[int, int]) -> dict[int, Jet2]:
    """Network jets per coordinate direction, sharing the value channel.

    ``weights`` are the (W, b) pairs of ``stage_network``; ``z_rows`` is a
    (B, latent_dim) Var or array (or None when latent_dim is 0); ``orders``
    maps each direction to its derivative order, 1 or 2, and its key order
    is the order of the channels.  Returns {direction: Jet2 of the (B,
    output_dim) outputs}; an empty ``orders`` asks for a value-only forward,
    returned as {None: Jet2}.
    """
    for d in orders:
        if not (0 <= d < cfg.input_dim):
            raise ValueError(f"direction {d} out of range for input_dim {cfg.input_dim}")

    feats = encode(cfg, x)
    if cfg.latent_dim > 0:
        if z_rows is None:
            raise ValueError("latent network needs z")
        val = dc.concat_cols([feats, z_rows])
    else:
        val = feats

    chans: list[Jet2] = []
    for d, order in orders.items():
        e1, e2 = encode_jets(cfg, x, d)
        chans.append(Jet2(val, e1, e2 if order == 2 else None))
    if not chans:
        chans = [Jet2(val, 0.0, None)]

    for li, (W, b) in enumerate(weights):
        lin_val = dc.add(_matvec(chans[0].val, W), b)
        new = []
        for j in chans:
            d2 = None if j.d2 is None else _matvec(j.d2, W)
            new.append(Jet2(lin_val, _matvec(j.d1, W), d2))
        chans = new
        if li < len(weights) - 1:
            chans = _sine_jets(chans)

    return dict(zip(orders, chans)) if orders else {None: chans[0]}


def forward_jets(params: ModelParams, x, z, directions: Sequence[int],
                 orders: Optional[dict] = None):
    """Fresh-tape jets of the network outputs along coordinate directions.

    ``orders`` maps direction -> 1 or 2 (default 2 for every direction).
    Returns (jets, weights) where jets maps direction -> Jet2 and
    ``weights`` are the (W, b) leaves, for parameter gradients.
    """
    cfg = params.config
    x, z = _check_dims(cfg, x, z)
    tape = Tape()
    weights = stage_network(tape, params)
    z_rows = tape.constant(z, "z") if cfg.latent_dim > 0 else None
    orders = {d: 2 if orders is None else orders.get(d, 2) for d in directions}
    jets = jet_forward(cfg, weights, x, z_rows, orders)
    return jets, weights

"""Latent-conditioned MLP with sine activations and optional periodic encoding.

The network evaluates f(x, z) on the concatenation of the (optionally
encoded) coordinates x and a per-task latent vector z.  ``forward`` is plain
numpy for cheap evaluation on grids; ``jet_forward`` (training's path, on
the weights that ``stage_network`` puts on a tape; ``forward_jets`` stages
them on a fresh one) runs the same computation in Jet2 arithmetic, so that
du/dv and d2u/dv2 per coordinate direction stay differentiable with respect
to the weights and the latent.

``jet_forward`` records the whole pass as one tape node, whose forward and
backward each sweep the batch in row blocks of ``BLOCK_VALUES // width``
rows (512 at width 64).  A layer's arrays of one block then take 256 KB
each, so each pass of a layer (the GEMMs, the bias, the sine kernel, the
jet products and, backwards, their adjoints) reads what the pass before
wrote while it is still in L2; over the whole batch, each pass streams
arrays of 1.28 MB (2,500 rows at the ``burgers_pretrain`` shape).
Measured on a 2-CPU AVX-512 Xeon with 2 MB of L2 per core, at that shape:

* one 5-task group's loss and gradient, BLAS on one thread: 50-52 ms
  against 65-67 ms on the per-op tape; by block size, 46-50 ms at 128
  rows, 52-55 at 512 and 60-66 ms unblocked;
* the step of two such groups at once: 71 ms against 89 ms on the per-op
  tape; by block size, 96-97 ms at 128 rows, 79-80 at 256, 74-75 at 512,
  77 at 1024 and 78-82 unblocked.  Two threads share one interpreter, and
  small blocks spend more of their time in it.  A ``trainer`` step now
  runs one task per group, five on each thread, in the same time.

The blocks change no bit of the outputs: every block but the last holds a
multiple of 64 rows, and the OpenBLAS that numpy ships then computes each
row of a block as in the product over the whole batch, as the tests check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import diffcore as dc
from .diffcore import Jet2, Tape, Var

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


# Values per layer array of one block of ``jet_forward`` (module docstring).
BLOCK_VALUES = 1 << 15


def _block_edges(rows: int, width: int) -> list[int]:
    """Row edges of ``jet_forward``'s blocks: BLOCK_VALUES // width rows
    each, rounded down to a multiple of 64 (at least 64), and whatever is
    left in the last.  A last block of one row joins the one before it,
    since numpy computes a one-row product as a matrix-vector product,
    which rounds differently from the same row of a matrix product."""
    step = 64 * max(1, BLOCK_VALUES // (64 * width))
    edges = list(range(0, rows, step)) + [rows]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return edges


def _sine_layer(hs: list, W, b, chans, keep: bool):
    """One sine layer over one block: the layer's outputs in the order of
    its inputs ``hs`` (the value, then each channel's d1 and d2; 0.0 for a
    structural zero), and, with ``keep``, the (cos, pre-activation
    derivatives) its backward reads.  The values are those of the
    ``dc.jet_sin`` chain bit for bit: a = h W + b, p = h' W, d1 = c p1 and
    d2 = c p2 - s (p1 p1), which is -s (p1 p1) where p2 is zero."""
    a = hs[0] @ W
    a += b
    p = [None] + [0.0 if dc._is_zero(h) else h @ W for h in hs[1:]]
    if not keep and not chans:
        return [dc.sin_array(a, out=a)], None
    s, c = dc.sincos_array(a, out=(a, np.empty_like(a)))
    out = [s] + [None] * (len(hs) - 1)
    for i1, i2 in chans:
        p1 = p[i1]
        out[i1] = c * p1
        if i2 is not None:
            q = p1 * p1
            q *= s
            if dc._is_zero(p[i2]):
                out[i2] = np.negative(q, out=q)
            else:
                d2 = c * p[i2]
                d2 -= q
                out[i2] = d2
    return out, ((c, p) if keep else None)


def _times_transpose(g, WT):
    """g @ WT; an outer product (one output column) as a broadcast product,
    which numpy runs in about two thirds of the GEMM's time."""
    return g * WT if WT.shape[0] == 1 else g @ WT


def _add_into(total, part):
    """total + part, in place; ``part`` itself where ``total`` is None (no
    term yet)."""
    if total is None:
        return part
    total += part
    return total


def _sub_from(total, part):
    """total - part, in place; -part, in place, where ``total`` is None."""
    if total is None:
        return np.negative(part, out=part)
    total -= part
    return total


def _sine_layer_backward(gh: list, s, c, p: list, chans) -> list:
    """Adjoints of one sine layer's pre-activations (a, then each p) from
    those of its outputs ``gh``, which it overwrites.  None stands for an
    adjoint that is zero: an output none of whose uses reaches the loss, or
    a p that is a structural zero."""
    ga = gh[0]
    if ga is not None:
        ga *= c
    gp = [None] * len(p)
    for i1, i2 in chans:
        g1, p1 = gh[i1], p[i1]
        g2 = None if i2 is None else gh[i2]
        t = None  # g1 p1 + g2 p2: s times it is d/da of c p1 and of c p2
        if g1 is not None:
            t = g1 * p1
            g1 *= c
            gp[i1] = g1
        if g2 is not None:
            u = g2 * p1  # d/da of -s p1^2 is -c p1^2, d/dp1 is -2 s p1
            if not dc._is_zero(p[i2]):
                t = _add_into(t, g2 * p[i2])
                g2 *= c
                gp[i2] = g2
            v = u * p1
            v *= c
            ga = _sub_from(ga, v)
            u *= s
            u += u
            gp[i1] = _sub_from(gp[i1], u)
        if t is not None:
            t *= s
            ga = _sub_from(ga, t)
    gp[0] = ga
    return gp


def jet_forward(cfg: NetworkConfig, weights: list, x: np.ndarray, z_rows,
                orders: dict[int, int]) -> dict[int, Jet2]:
    """Network jets per coordinate direction, sharing the value channel.

    ``weights`` are the (W, b) pairs of ``stage_network``; ``z_rows`` is a
    (B, latent_dim) Var or array (or None when latent_dim is 0); ``orders``
    maps each direction to its derivative order, 1 or 2, and its key order
    is the order of the channels.  Returns {direction: Jet2 of the (B,
    output_dim) outputs}; an empty ``orders`` asks for a value-only forward,
    returned as {None: Jet2}.

    The whole pass is one ``network`` tape node (``dc.fused``) over the
    ``Var``s among the weights and ``z_rows``, run block by block
    (``_block_edges``); its value stacks the output channels, value first,
    and each channel is a ``take`` of it.  The node's backward returns only
    what a ``Var`` parent needs: dW and db of the leaves among the weights,
    and, at the first layer, the gradient of the latent columns alone.  A
    pass over plain arrays records nothing and keeps nothing.
    """
    for d in orders:
        if not (0 <= d < cfg.input_dim):
            raise ValueError(f"direction {d} out of range for input_dim {cfg.input_dim}")

    feats = encode(cfg, x)
    if cfg.latent_dim > 0:
        if z_rows is None:
            raise ValueError("latent network needs z")
        h0 = np.concatenate([feats, dc.value_of(z_rows)], axis=1)
    else:
        h0, z_rows = feats, None
    inputs, chans = [h0], []  # first-layer parts; (d1, d2 or None) indices
    for d, order in orders.items():
        e1, e2 = encode_jets(cfg, x, d)
        inputs.append(e1)
        if order == 2:
            inputs.append(e2)
        chans.append((len(inputs) - order, len(inputs) - 1 if order == 2 else None))

    parents = [v for pair in weights for v in pair if isinstance(v, Var)]
    z_var = isinstance(z_rows, Var)
    if z_var:
        parents.append(z_rows)
    Ws = [dc.value_of(W) for W, _ in weights]
    bs = [dc.value_of(b) for _, b in weights]
    train_W = [isinstance(W, Var) for W, _ in weights]
    train_b = [isinstance(b, Var) for _, b in weights]
    keep = bool(parents)
    if keep:  # the lowest layer the backward reaches
        lowest = 0 if z_var else min(
            li for li, t in enumerate(zip(train_W, train_b)) if any(t))

    B = h0.shape[0]
    Y = np.empty((len(inputs), B, cfg.output_dim))
    blocks = []  # per block: per layer (inputs kept for dW, sine state)
    edges = _block_edges(B, cfg.width)
    for r0, r1 in zip(edges, edges[1:]):
        hs = [h if dc._is_zero(h) else h[r0:r1] for h in inputs]
        layers = []
        for li in range(len(Ws) - 1):
            out, state = _sine_layer(hs, Ws[li], bs[li], chans, keep)
            if keep:
                layers.append((hs if train_W[li] else hs[:1], state))
            hs = out
        for k, h in enumerate(hs):
            np.matmul(h, Ws[-1], out=Y[k, r0:r1])
        Y[0, r0:r1] += bs[-1]
        if keep:
            layers.append((hs if train_W[-1] else hs[:1], None))
            blocks.append((r0, r1, layers))

    def backward(G):
        dW, db, gz = [None] * len(Ws), [None] * len(Ws), []
        # W^T made contiguous: BLAS multiplies by a transposed view at width
        # 32 in about 1.6 times the time
        WT = [np.ascontiguousarray(W.T) for W in Ws]
        Wz = WT[0][:, cfg.encoded_dim:]  # the first layer's latent rows
        ones = np.ones(B)  # db as a GEMV, not a sum
        live = [G[k].any() for k in range(len(inputs))]  # channels the loss reads
        while blocks:  # each block's arrays are freed once swept
            r0, r1, layers = blocks.pop(0)
            gh = [g if on else None for g, on in zip(G[:, r0:r1], live)]
            for li in range(len(Ws) - 1, lowest - 1, -1):
                hs, state = layers.pop()
                g = gh if state is None else _sine_layer_backward(gh, s, *state, chans)
                if train_W[li]:
                    for h, gk in zip(hs, g):
                        if gk is not None and not dc._is_zero(h):
                            dW[li] = _add_into(dW[li], h.T @ gk)
                if train_b[li] and g[0] is not None:
                    db[li] = _add_into(db[li], ones[:r1 - r0] @ g[0])
                s = hs[0]  # the sine output of the layer below
                if li > lowest:
                    gh = [None if gk is None else _times_transpose(gk, WT[li])
                          for gk in g]
                elif z_var:
                    gz.append(np.zeros((r1 - r0, Wz.shape[1])) if g[0] is None
                              else g[0] @ Wz)
        grads = []
        for li in range(len(Ws)):
            if train_W[li]:
                grads.append(np.zeros_like(Ws[li]) if dW[li] is None else dW[li])
            if train_b[li]:
                grads.append(np.zeros_like(bs[li]) if db[li] is None else db[li])
        if z_var:
            grads.append(gz[0] if len(gz) == 1 else np.concatenate(gz))
        return grads

    if not keep:
        parts = list(Y)
    else:
        node = dc.fused("network", Y, parents, backward)
        parts = [dc.take(node, k) for k in range(len(inputs))]
    if not orders:
        return {None: Jet2(parts[0], 0.0, None)}
    return {d: Jet2(parts[0], parts[i1], None if i2 is None else parts[i2])
            for d, (i1, i2) in zip(orders, chans)}


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

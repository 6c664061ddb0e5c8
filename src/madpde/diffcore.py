"""Reverse-mode autodiff tape with second-order forward jets.

Every value on the tape is a float64 numpy array (scalars included), so one
tape op can cover a whole batch of collocation points at once.  Input
derivatives up to second order travel *forward* as truncated Taylor jets
(``Jet2``) whose coefficients are themselves tape nodes; a single reverse
sweep over the tape then yields exact parameter gradients of expressions that
contain du/dx and d2u/dx2.

Plain numpy arrays and Python floats mix freely with tape variables: an op
records a node only when at least one argument is a ``Var``, otherwise it
just computes the numpy result.  Every op but ``sin`` and ``cos``, whose
one operand needs no check, records through one helper
(``_node``), which is also where the ``Var`` operands of an op are checked
to share one tape: an op over ``Var``s of two tapes raises ``DiffError``.
``Var`` has no arithmetic operators, so nodes are recorded only through
this module's functions; ``var + 1`` and ``np.ones(3) + var`` raise
``TypeError`` instead of building an object array with one node per
element.  The float 0.0 is treated as a structural zero by the jet helpers
so that derivative channels known to vanish cost nothing.

Ownership runs one way.  A ``Var`` handle holds its ``Tape``; the tape holds
plain ``Node`` records, and neither a record nor its backward closures refer
back to a ``Var`` or to the tape.  There are no reference cycles, so a tape
and every array on it are freed as soon as its last handle is dropped,
without waiting for the garbage collector.

A tape keeps only what its reverse sweep reads.  A ``Node`` holds its value
through a weak reference (numpy scalars, which cannot be weakly referenced
and take a few bytes, are held as they are); the arrays stay alive only
while a backward closure or a caller's ``Var`` holds them.  An intermediate
that no closure reads, such as the output of a matmul feeding a bias add,
is freed as soon as the caller drops its handle, and ``Node.value`` then
reads as an empty array.  A tape takes one reverse sweep
(``Tape.gradient``), which goes further: it drops each node's closures once
it has used them, so the arrays they hold are freed while the sweep runs.

Freed tape memory stays in the process heap.  A Burgers pre-training step
peaks at about 105 MB of node values and reverse-sweep temporaries, in arrays
of 2.5 MB or less.  By default glibc's malloc serves blocks above a dynamic
threshold with their own ``mmap``, and gives the free top of its heap back to
the OS once it exceeds twice that threshold, so every training step would
page-fault its tape back in (17k–47k minor faults per step at that shape).
Importing this module therefore pins two ``mallopt`` thresholds:
``M_MMAP_THRESHOLD`` at 32 MiB, glibc's own 64-bit ceiling for the dynamic
threshold, and ``M_TRIM_THRESHOLD`` at -1, which turns trimming off.  The
cost: the heap is never trimmed, so resident memory stays at its peak until
the process exits.  Outside glibc, where the C library has no ``mallopt``,
nothing is changed.  The arithmetic is unaffected.

Float64 sine and cosine come from one kernel, ``sincos_array`` (and
``sin_array`` for sin alone, which may write in place): t = tan(x/2), then
sin = 2t / (1 + t^2) and cos = (1 - t)(1 + t) / (1 + t^2), in numpy ops that
work in place on fresh arrays or on the caller's (``out=``).  ``sin``,
``cos``, ``network.forward`` and the sine layers of ``network.jet_forward``
(one ``fused`` node, which writes sin over each layer's pre-activation and
cos into an array of its own) all go through it, so a value computed on the
tape and one computed off it agree bit for bit.  The reason is speed: numpy
runs float64 ``np.tan`` as SIMD code where the CPU has AVX-512 (its ``X86_V4``
dispatch target), but float64 ``np.sin`` and ``np.cos`` as scalar libm
calls.  On a 2-CPU AVX-512 Xeon, 320k values take 5.6-6.4 ms for
``np.sin``, 5.7-5.8 ms for ``np.cos`` and 0.6-0.8 ms for ``np.tan``; the
kernel takes 1.6 ms for sin alone and 2.4 ms for both.  The cost is
accuracy and portability of the bits:

* the absolute error is within 2 ulp of 1 (against a long-double
  reference over |x| from 1e-6 to 1e8: 0.97 ulp for sin, 1.25 for cos;
  libm's: 0.25); sin(+-0) = +-0, cos(0) = 1, and +-inf and NaN give NaN,
  as libm does;
* the bits follow the ``np.tan`` code numpy dispatches to, so they differ
  between CPUs with and without AVX-512 (the CLI manifest records the
  dispatch targets, ``cpu_simd``);
* where numpy's float64 ``np.tan`` is scalar too (no AVX-512; measured on
  the same host with numpy's AVX-512 targets disabled), the kernel is one
  libm call plus a few vector passes: both values take 8.8 ms against
  11.9 ms for ``np.sin`` and ``np.cos``, but sin alone takes 7.9 ms
  against 5.9 ms.

Other dtypes go to ``np.sin`` and ``np.cos``: float32 ``np.sin`` is
vector code already (0.2 ms for 320k values, against 0.7 ms through the
kernel).

Importing this module also looks up, without calling it, the thread-count
setter of the OpenBLAS that numpy has loaded (``BLAS_THREADS``), so that
``trainer`` can run two task groups at once with one BLAS thread each.
"""

from __future__ import annotations

import ctypes
import weakref
from itertools import accumulate
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

Arraylike = Union["Var", np.ndarray, float, int]

_M_TRIM_THRESHOLD = -1  # glibc mallopt parameter numbers
_M_MMAP_THRESHOLD = -3


def pin_heap(libc) -> bool:
    """Keep freed memory in the heap of ``libc``'s malloc: serve blocks up to
    32 MiB from the heap and never trim it.  True if both thresholds were
    set; False, without raising, if ``libc`` has no ``mallopt``."""
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1
            and mallopt(_M_TRIM_THRESHOLD, -1) == 1)


def _process_libc():
    """The C library the interpreter is linked against, or None."""
    try:
        return ctypes.CDLL(None)
    except (OSError, TypeError):
        return None


pin_heap(_process_libc())

# (get, set) symbol names of the BLAS thread count: numpy's bundled
# scipy-openblas, an ILP64 OpenBLAS, a plain OpenBLAS
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def blas_threads(libraries) -> Optional[tuple[Callable[[], int],
                                              Callable[[int], None]]]:
    """The (get, set) functions of the BLAS thread count exported by the
    first of ``libraries`` (ctypes handles) that has both; None if none
    does."""
    for lib in libraries:
        for get_name, set_name in _BLAS_THREAD_SYMBOLS:
            get = getattr(lib, get_name, None)
            put = getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                return get, put
    return None


def _loaded_openblas() -> list:
    """ctypes handles of the OpenBLAS libraries this process has loaded
    (numpy's among them), as /proc/self/maps lists them; none where that
    file cannot be read."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split(None, 5)[5].strip() for line in f
                     if "openblas" in line.lower()}
    except (OSError, IndexError):
        return []
    libs = []
    for path in sorted(paths):
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:
            pass
    return libs


BLAS_THREADS = blas_threads(_loaded_openblas())


class DiffError(ValueError):
    """Misuse of the tape (wrong tape, non-scalar output, ...)."""


_GONE = np.empty(0)
_GONE.flags.writeable = False


class Node:
    """One tape record: op kind, numpy value, parent ids and local partials.

    The local partials are stored as vector-Jacobian closures, one per
    parent; the reverse sweep calls them with the adjoint of this node.  A
    record refers to no ``Var`` and to no tape, and does not keep its value
    alive: ``value`` is the array while something else holds it, else an
    empty array.
    """

    __slots__ = ("op", "_value", "parents", "vjps")

    def __init__(self, op, value, parents, vjps):
        self.op = op
        self._value = weakref.ref(value) if isinstance(value, np.ndarray) else value
        self.parents = parents
        self.vjps = vjps

    @property
    def value(self):
        v = self._value
        if type(v) is weakref.ref:
            v = v()
            return _GONE if v is None else v
        return v


class Var:
    """Caller's handle on one tape node: its tape, index, op kind and value.

    The handle keeps its tape alive; the tape never points back at it.
    """

    __slots__ = ("tape", "idx", "op", "value")

    def __init__(self, tape, idx, op, value):
        self.tape = tape
        self.idx = idx
        self.op = op
        self.value = value

    def __repr__(self):
        return f"Var({self.op}#{self.idx}, shape={self.value.shape})"


class Tape:
    """Append-only list of ``Node`` records in topological order.

    Single-writer: nodes are only appended.  A built tape is swept once by
    ``gradient``, which empties it; after that every sweep raises
    ``DiffError``.  The tape lives as long as a ``Var`` on it (or the tape
    object itself) is referenced.
    """

    __slots__ = ("nodes", "released", "__weakref__")

    def __init__(self):
        self.nodes: list[Node] = []
        self.released = False

    def __len__(self):
        return len(self.nodes)

    def constant(self, value, op="const") -> Var:
        """Record a leaf node (no parents).  Used for trainable inputs."""
        return self._record(op, _as_array(value), (), ())

    def _record(self, op, value, parents, vjps) -> Var:
        self.nodes.append(Node(op, value, parents, vjps))
        return Var(self, len(self.nodes) - 1, op, value)

    def gradient(self, output: Var, wrt: Sequence[Var]) -> list[np.ndarray]:
        """Reverse-mode gradient of a scalar output w.r.t. the given nodes.

        Each node's closures are dropped as soon as the sweep has used them,
        which frees the arrays they hold while the sweep runs; the tape is
        then spent, and any later sweep of it raises ``DiffError``.
        """
        if self.released:
            raise DiffError("tape was released by an earlier sweep")
        if not isinstance(output, Var) or output.tape is not self:
            raise DiffError("output is not a node of this tape")
        if output.value.size != 1:
            raise DiffError(f"output must be scalar, got shape {output.value.shape}")
        wrt = list(wrt)
        for w in wrt:
            if not isinstance(w, Var) or w.tape is not self:
                raise DiffError("wrt node is not on this tape")
        keep = {w.idx for w in wrt}

        self.released = True

        adjoint: list = [None] * (output.idx + 1)
        adjoint[output.idx] = np.ones_like(output.value)
        for i in range(output.idx, -1, -1):
            node = self.nodes[i]
            vjps, node.vjps = node.vjps, ()  # frees what the closures hold once used
            g = adjoint[i]
            if g is None:
                continue
            for pid, vjp in zip(node.parents, vjps):
                contrib = vjp(g)
                if adjoint[pid] is None:
                    adjoint[pid] = contrib
                else:
                    adjoint[pid] = adjoint[pid] + contrib
            if i not in keep:
                adjoint[i] = None  # free as we go

        out = []
        for w in wrt:
            g = adjoint[w.idx]
            out.append(np.zeros_like(w.value) if g is None else np.asarray(g))
        return out


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def value_of(x) -> np.ndarray:
    """Underlying numpy value of a Var or array-like."""
    return x.value if isinstance(x, Var) else _as_array(x)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# primitive ops: record a node when any argument is a Var
# ---------------------------------------------------------------------------

def _node(op: str, out, operands):
    """Record ``out`` as an ``op`` node whose parents are the ``Var``s among
    ``operands``, (operand, vector-Jacobian closure) pairs, and return its
    ``Var``; return ``out`` as it is when no operand is a ``Var``.  Raises
    DiffError when the ``Var``s sit on two tapes."""
    tape, parents, vjps = None, (), ()
    for x, vjp in operands:
        if isinstance(x, Var):
            if tape is None:
                tape = x.tape
            elif x.tape is not tape:
                raise DiffError(f"{op}: operands sit on different tapes")
            parents += (x.idx,)
            vjps += (vjp,)
    if tape is None:
        return out
    return tape._record(op, out, parents, vjps)


def add(a: Arraylike, b: Arraylike):
    av, bv = value_of(a), value_of(b)
    return _node("add", av + bv,
                 ((a, lambda g, sh=av.shape: _unbroadcast(g, sh)),
                  (b, lambda g, sh=bv.shape: _unbroadcast(g, sh))))


def sub(a: Arraylike, b: Arraylike):
    av, bv = value_of(a), value_of(b)
    return _node("sub", av - bv,
                 ((a, lambda g, sh=av.shape: _unbroadcast(g, sh)),
                  (b, lambda g, sh=bv.shape: _unbroadcast(-g, sh))))


def neg(a: Arraylike):
    return _node("neg", -value_of(a), ((a, lambda g: -g),))


def mul(a: Arraylike, b: Arraylike):
    av, bv = value_of(a), value_of(b)
    return _node("mul", av * bv,
                 ((a, lambda g, o=bv, sh=av.shape: _unbroadcast(g * o, sh)),
                  (b, lambda g, o=av, sh=bv.shape: _unbroadcast(g * o, sh))))


def _tan_half(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """t = tan(x/2) and 1 + t^2 of a float64 array, as fresh arrays."""
    t = np.multiply(x, 0.5, out=np.empty(x.shape))
    np.tan(t, out=t)
    d = np.multiply(t, t)
    d += 1.0
    return t, d


def sin_array(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """sin of a plain array, into ``out`` when given (it may be ``x``).

    float64 goes through the tangent half-angle formula, sin = 2t / (1 +
    t^2) with t = tan(x/2) (module docstring); other dtypes go to
    ``np.sin``.  The values are those of ``sincos_array(x)[0]`` bit for bit.
    """
    if x.dtype != np.float64:
        return np.sin(x, out=out)
    t, d = _tan_half(x)
    s = np.add(t, t, out=out)
    s /= d
    return s


def sincos_array(x: np.ndarray, out: Optional[tuple[np.ndarray, np.ndarray]] = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(sin x, cos x) of a plain array, into the two arrays of ``out`` when
    given (the first may be ``x``).

    float64 shares one t = tan(x/2): sin = 2t / (1 + t^2) and cos = (1 - t)
    (1 + t) / (1 + t^2); other dtypes go to ``np.sin`` and ``np.cos``.
    """
    s_out, c_out = (None, None) if out is None else out
    if x.dtype != np.float64:
        return np.sin(x, out=s_out), np.cos(x, out=c_out)
    t, d = _tan_half(x)
    s = np.add(t, t, out=s_out)
    s /= d
    c = np.subtract(1.0, t, out=c_out)
    t += 1.0
    c *= t
    c /= d
    return s, c


def sin(a: Arraylike):
    if not isinstance(a, Var):
        return sin_array(value_of(a))
    s, c = sincos_array(a.value)
    return a.tape._record("sin", s, (a.idx,), (lambda g, c=c: g * c,))


def cos(a: Arraylike):
    if not isinstance(a, Var):
        return sincos_array(value_of(a))[1]
    s, c = sincos_array(a.value)
    return a.tape._record("cos", c, (a.idx,), (lambda g, s=s: -g * s,))


def matmul(a: Arraylike, b: Arraylike):
    av, bv = value_of(a), value_of(b)
    return _node("matmul", av @ bv,
                 ((a, lambda g, o=bv: g @ o.T), (b, lambda g, o=av: o.T @ g)))


def vsum(a: Arraylike, axis=None):
    av = value_of(a)
    out = np.sum(av, axis=axis)

    def vjp(g, sh=av.shape, axis=axis):
        if axis is None:
            return np.broadcast_to(g, sh).copy()
        return np.broadcast_to(np.expand_dims(g, axis), sh).copy()

    # a node's value is an array even where the sum is a numpy scalar
    return _node("sum", _as_array(out) if isinstance(a, Var) else out, ((a, vjp),))


def vmean(a: Arraylike, axis=None):
    av = value_of(a)
    out = np.mean(av, axis=axis)
    n = av.size if axis is None else av.shape[axis]

    def vjp(g, sh=av.shape, axis=axis, n=n):
        if axis is None:
            return np.broadcast_to(g / n, sh).copy()
        return np.broadcast_to(np.expand_dims(g / n, axis), sh).copy()

    return _node("mean", _as_array(out) if isinstance(a, Var) else out, ((a, vjp),))


def reshape(a: Arraylike, shape):
    av = value_of(a)
    return _node("reshape", av.reshape(shape),
                 ((a, lambda g, sh=av.shape: g.reshape(sh)),))


def repeat_rows(a: Arraylike, m: int):
    """Repeat each row of a 2-D array m times (block layout, rows grouped)."""
    av = value_of(a)

    def vjp(g, sh=av.shape):
        n, w = sh
        return g.reshape(n, m, w).sum(axis=1)

    return _node("repeat_rows", np.repeat(av, m, axis=0), ((a, vjp),))


def concat_cols(parts: Iterable[Arraylike]):
    parts = list(parts)
    vals = [value_of(p) for p in parts]
    edges = list(accumulate((v.shape[1] for v in vals), initial=0))
    return _node("concat_cols", np.concatenate(vals, axis=1),
                 [(p, lambda g, a=a, b=b: g[:, a:b])
                  for p, a, b in zip(parts, edges, edges[1:])])


def take(a: Arraylike, i: int):
    """``a[i]`` along the first axis, as a view; its adjoint is ``g`` in
    slot i of zeros shaped like ``a``."""
    av = value_of(a)

    def vjp(g, sh=av.shape):
        full = np.zeros(sh)
        full[i] = g
        return full

    return _node("take", av[i], ((a, vjp),))


def fused(op: str, out: np.ndarray, parents: Sequence[Var],
          backward: Callable[[np.ndarray], list]) -> Var:
    """Record ``out`` as one ``op`` node over ``parents``, all ``Var``s of
    one tape, whose adjoints come from one call: ``backward(g)`` returns
    them as a list in the order of ``parents``.

    The sweep calls a node's closures once each, in parent order, so the
    first runs ``backward`` and each hands over its own entry.
    """
    grads: list = []

    def vjp(g, k):
        if k == 0:
            grads[:] = backward(g)
        mine, grads[k] = grads[k], None
        return mine

    return _node(op, out, [(p, lambda g, k=k: vjp(g, k))
                           for k, p in enumerate(parents)])


# ---------------------------------------------------------------------------
# order-2 Taylor jets
# ---------------------------------------------------------------------------

def _is_zero(x) -> bool:
    return isinstance(x, (int, float)) and x == 0


def _jadd(a, b):
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return add(a, b)


def _jsub(a, b):
    if _is_zero(b):
        return a
    if _is_zero(a):
        return neg(b)
    return sub(a, b)


def _jmul(a, b):
    if _is_zero(a) or _is_zero(b):
        return 0.0
    return mul(a, b)


class Jet2:
    """Value plus first and second directional derivative at a point.

    Each coefficient is either a tape node or a plain array; ``d2`` may be
    ``None`` when the second order was not requested.  Constants lift to
    jets with d1 = d2 = 0.
    """

    __slots__ = ("val", "d1", "d2")

    def __init__(self, val, d1=0.0, d2=0.0):
        self.val = val
        self.d1 = d1
        self.d2 = d2

    def __repr__(self):
        return f"Jet2(val={self.val!r}, d1={self.d1!r}, d2={self.d2!r})"


def jet_const(value) -> Jet2:
    return Jet2(value, 0.0, 0.0)


def _pair(a, b):
    a = a if isinstance(a, Jet2) else jet_const(a)
    b = b if isinstance(b, Jet2) else jet_const(b)
    track2 = a.d2 is not None and b.d2 is not None
    return a, b, track2


def jet_add(a, b) -> Jet2:
    a, b, track2 = _pair(a, b)
    return Jet2(add(a.val, b.val), _jadd(a.d1, b.d1),
                _jadd(a.d2, b.d2) if track2 else None)


def jet_sub(a, b) -> Jet2:
    a, b, track2 = _pair(a, b)
    return Jet2(sub(a.val, b.val), _jsub(a.d1, b.d1),
                _jsub(a.d2, b.d2) if track2 else None)


def jet_mul(a, b) -> Jet2:
    # Leibniz: (ab)'' = a''b + 2a'b' + ab''
    a, b, track2 = _pair(a, b)
    d1 = _jadd(_jmul(a.val, b.d1), _jmul(a.d1, b.val))
    d2 = None
    if track2:
        cross = _jmul(a.d1, b.d1)
        if not _is_zero(cross):
            cross = mul(2.0, cross)
        d2 = _jadd(_jadd(_jmul(a.d2, b.val), cross), _jmul(a.val, b.d2))
    return Jet2(mul(a.val, b.val), d1, d2)


def _jet_chain(a: Jet2, f0, f1, f2) -> Jet2:
    """Faa di Bruno through a scalar map: f(a)'' = f''(a) a'^2 + f'(a) a''."""
    d1 = _jmul(f1, a.d1)
    d2 = None
    if a.d2 is not None:
        sq = _jmul(a.d1, a.d1)
        d2 = _jadd(_jmul(f2, sq), _jmul(f1, a.d2))
    return Jet2(f0, d1, d2)


def jet_sin(a) -> Jet2:
    a = a if isinstance(a, Jet2) else jet_const(a)
    s = sin(a.val)
    c = cos(a.val)
    return _jet_chain(a, s, c, neg(s))

"""The binary file layout of checkpoints and reference fields: magic,
header length (<I), JSON header (sorted keys), then little-endian float64
blocks whose shapes the header declares.  A file is written to
``path + ".tmp"`` and moved into place, so no reader sees half a file.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct

import numpy as np


def write(path: str, magic: bytes, header: dict, blocks) -> None:
    hbytes = json.dumps(header, sort_keys=True).encode()
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(magic)
        f.write(struct.pack("<I", len(hbytes)))
        f.write(hbytes)
        for block in blocks:
            f.write(np.ascontiguousarray(block, dtype="<f8").tobytes())
    os.replace(tmp, path)


@contextlib.contextmanager
def header_errors(path: str, error):
    """Report a header that lacks an entry or holds a bad one as ``error``."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as e:
        raise error(f"{path}: corrupt header ({type(e).__name__}: {e})") from e


def read(path: str, magic: bytes, kind: str, error,
         block_shapes) -> tuple[dict, list[np.ndarray]]:
    """Header and blocks of a file made by ``write``; ``block_shapes(header)``
    lists the block shapes.  Every defect raises ``error`` naming ``path``."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        raise error(f"{path}: cannot read the {kind} file ({e.strerror or e})") from e
    if not blob.startswith(magic):
        raise error(f"{path}: not a {kind} file")
    start = len(magic) + 4
    if len(blob) < start:
        raise error(f"{path}: truncated header ({len(blob)} bytes)")
    n = struct.unpack("<I", blob[len(magic):start])[0]
    with header_errors(path, error):
        header = json.loads(blob[start:start + n])
        shapes = [tuple(int(k) for k in shape) for shape in block_shapes(header)]
    sizes = [int(np.prod(shape)) for shape in shapes]
    need = start + n + 8 * sum(sizes)
    if len(blob) != need:
        raise error(f"{path}: {len(blob)} bytes where the header declares {need}")
    flat = np.frombuffer(blob, "<f8", offset=start + n)
    pieces = np.split(flat, np.cumsum(sizes)[:-1])
    return header, [p.reshape(shape).copy() for p, shape in zip(pieces, shapes)]

"""Length-prefixed frame protocol of the distributed plane.

Every message between a driver and a worker node — over a TCP socket or
a subprocess stdio pipe — is one *frame*:

``[8-byte big-endian payload length] [1-byte codec tag] [payload]``

The payload is one :mod:`pickle`-encoded message tree (tuples/lists,
dicts with string keys, scalars, ``bytes`` and numpy arrays — arrays
ride as ordinary pickled ``ndarray`` objects).  The codec tag is always
``b"P"``; it travels per-frame, each side replies in the tag of the
request it received, and any other tag (an old peer's ``b"M"``
included) is a typed :class:`~repro.dist.errors.ProtocolError`.

Message shapes (tuples on the wire, positional):

- ``("ping",)`` → ``("pong", info_dict)``
- ``("call", task_name, arrays_dict, args_list)`` →
  ``("ok", result)`` or ``("err", kind, message, traceback_str)``
  with ``kind`` in ``{"task", "unknown-task"}``
- ``("shutdown",)`` → ``("bye",)`` and the worker exits.

Security note: remote nodes execute only allowlisted task names
(:mod:`repro.dist.registry`); the protocol never ships callables.  The
pickle codec still implies mutual trust between driver and workers —
run them under one user on hosts you control (``docs/distributed.md``).
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, BinaryIO, Tuple

from repro.dist.errors import ProtocolError

#: Frame header: payload byte length (excludes header and codec tag).
HEADER = struct.Struct(">Q")

#: Hard ceiling on one frame (16 GiB); anything larger is a corrupt
#: header, not a plausible shard payload.
MAX_FRAME_BYTES = 1 << 34

PICKLE_TAG = b"P"


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------
def encode(message: Any, tag: bytes) -> bytes:
    """Encode one message tree under the given codec tag."""
    if tag == PICKLE_TAG:
        return pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    raise ProtocolError(f"unknown codec tag {tag!r}")


def decode(payload: bytes, tag: bytes) -> Any:
    """Decode one payload under the given codec tag."""
    if tag == PICKLE_TAG:
        return pickle.loads(payload)
    raise ProtocolError(f"unknown codec tag {tag!r}")


# ----------------------------------------------------------------------
# Framing over file-like byte streams
# ----------------------------------------------------------------------
def write_frame(stream: BinaryIO, message: Any, tag: bytes) -> None:
    """Encode and write one frame; flushes so the peer can make progress."""
    payload = encode(message, tag)
    stream.write(HEADER.pack(len(payload)))
    stream.write(tag)
    stream.write(payload)
    stream.flush()


def _read_exact(stream: BinaryIO, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            raise EOFError(f"stream closed {remaining} byte(s) short of a frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(stream: BinaryIO) -> Tuple[Any, bytes]:
    """Read one frame; returns ``(message, codec_tag)``.

    Raises :class:`EOFError` on a clean close at a frame boundary and
    :class:`~repro.dist.errors.ProtocolError` on a corrupt header.
    """
    header = stream.read(HEADER.size)
    if not header:
        raise EOFError("stream closed")
    if len(header) < HEADER.size:
        header += _read_exact(stream, HEADER.size - len(header))
    (length,) = HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    tag = _read_exact(stream, 1)
    payload = _read_exact(stream, int(length))
    return decode(payload, tag), tag

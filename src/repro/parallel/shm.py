"""Shared-memory numpy transport for the shard executor.

A shard task's *inputs* are large, read-only numpy blocks (delivered
message columns, CSR forward adjacencies, bitset matrices); its *outputs*
are small (clique tables, partial counts).  The right transport is
therefore asymmetric: inputs go through
:class:`multiprocessing.shared_memory.SharedMemory` blocks — one memcpy
into the block on the parent side, zero copies on the worker side — and
outputs come back through the ordinary pool result pickle.

The unit of exchange is an :class:`ArrayRef`, a picklable description of
an array that resolves to a real ``np.ndarray`` in any process:

- ``kind="shm"`` — name/shape/dtype of a shared block (the fast lane);
- ``kind="mem"`` — the array itself, carried inline.  Used for small or
  zero-byte arrays and for the executor's inline (``workers=1``) mode,
  so worker task code is *identical* whether it runs in-process or in a
  pool child.

Lifetime contract: the parent creates blocks via :class:`SharedBlock`
(or the :func:`sharing` context manager), keeps them alive for the
duration of the pool call, then closes+unlinks.  Workers attach through
:func:`resolved`, which closes their handle on exit.  Pool workers share
the parent's ``resource_tracker`` (the executor starts it before
forking), so the parent's unlink is the one unregister every block
needs, and no "leaked shared_memory" warnings survive the run.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional, Tuple

import numpy as np

try:  # stdlib since 3.8; guarded so a stripped build degrades to "mem"
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover - full stdlib in every target env
    _shm = None

#: Arrays at or below this many bytes ride the pickle lane ("mem" refs):
#: a SharedMemory block costs two syscalls plus a tracker round-trip,
#: which only pays for itself on blocks the pickler would memcpy twice.
SHM_MIN_BYTES = 1 << 16


@dataclass(frozen=True)
class ArrayRef:
    """A picklable reference to a numpy array in either transport lane."""

    kind: str  # "shm" | "mem"
    shape: Tuple[int, ...]
    dtype: str
    name: str = ""
    array: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in ("shm", "mem"):
            raise ValueError(f"unknown ArrayRef kind {self.kind!r}")
        if self.kind == "shm" and not self.name:
            raise ValueError("shm refs need a block name")
        if self.kind == "mem" and self.array is None:
            raise ValueError("mem refs carry the array inline")

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


def mem_ref(array: np.ndarray) -> ArrayRef:
    """Wrap an array as an inline ("mem") reference."""
    array = np.ascontiguousarray(array)
    return ArrayRef(kind="mem", shape=array.shape, dtype=str(array.dtype), array=array)


class SharedBlock:
    """Parent-side handle of one shared-memory numpy block.

    Copies ``array`` into a fresh block on construction; :attr:`ref`
    is the picklable descriptor workers resolve.  :meth:`close` both
    closes and unlinks — parent blocks never outlive the pool call.
    """

    def __init__(self, array: np.ndarray) -> None:
        array = np.ascontiguousarray(array)
        if _shm is None:  # pragma: no cover - stripped-stdlib fallback
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        self._block = _shm.SharedMemory(create=True, size=max(1, array.nbytes))
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=self._block.buf)
        view[...] = array
        self.ref = ArrayRef(
            kind="shm",
            shape=array.shape,
            dtype=str(array.dtype),
            name=self._block.name,
        )

    def close(self) -> None:
        try:
            self._block.close()
            self._block.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - double close
            pass


def share(array: np.ndarray, force_mem: bool = False) -> Tuple[ArrayRef, Optional[SharedBlock]]:
    """Pick the transport lane for one array: ``(ref, block-or-None)``.

    Small (or empty) arrays — and everything when ``force_mem`` is set
    or shared memory is unavailable — travel inline; the caller must
    :meth:`SharedBlock.close` any returned block after the pool call.
    """
    array = np.ascontiguousarray(array)
    if force_mem or _shm is None or array.nbytes <= SHM_MIN_BYTES:
        return mem_ref(array), None
    block = SharedBlock(array)
    return block.ref, block


@contextmanager
def sharing(
    arrays: Mapping[str, np.ndarray], force_mem: bool = False
) -> Iterator[Dict[str, ArrayRef]]:
    """Share a named set of arrays for the duration of one pool call."""
    blocks = []
    refs: Dict[str, ArrayRef] = {}
    try:
        for name, array in arrays.items():
            ref, block = share(array, force_mem=force_mem)
            refs[name] = ref
            if block is not None:
                blocks.append(block)
        yield refs
    finally:
        for block in blocks:
            block.close()


def _attach(ref: ArrayRef):
    """Resolve one ref to ``(array, handle-or-None)`` in this process."""
    if ref.kind == "mem":
        return ref.array, None
    handle = _shm.SharedMemory(name=ref.name)
    array = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=handle.buf)
    return array, handle


@contextmanager
def resolved(refs: Mapping[str, ArrayRef]) -> Iterator[Dict[str, np.ndarray]]:
    """Worker-side view of a ref set; valid only inside the ``with``.

    Shared views die with the block, so tasks must return fresh arrays
    (every numpy fancy-index / reduction output already is one).
    """
    handles = []
    arrays: Dict[str, np.ndarray] = {}
    try:
        for name, ref in refs.items():
            array, handle = _attach(ref)
            arrays[name] = array
            if handle is not None:
                handles.append(handle)
        yield arrays
    finally:
        for handle in handles:
            handle.close()

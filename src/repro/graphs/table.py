"""Columnar clique tables: the canonical listing result type.

A :class:`CliqueTable` wraps a canonical ``(count, p)`` ``uint32``
matrix — every row is a clique with its members in ascending order,
rows are unique and sorted lexicographically.  Canonical form makes
structural operations cheap numpy work instead of python-set work:

- equality is ``np.array_equal`` on the raw matrix,
- membership is a per-column ``searchsorted`` window narrowing,
- set difference/union are vectorized structured-view ``np.isin`` and
  merge-sorts,
- per-owner attribution is a column slice (``rows[:, 0]`` is the
  minimum member of each clique).

Frozenset materialization (:meth:`as_frozenset`) is lazy and cached at
most once per table; everything upstream of the API edge works on the
matrix.  Tables are immutable after construction — the backing array is
marked non-writeable so accidental mutation fails loudly, which is what
lets snapshots, query caches, and epochs share one table (and its one
cached frozenset) without copying.
"""

from __future__ import annotations

import gc
from typing import FrozenSet, Iterable, Iterator, List, Optional, Set

import numpy as np

Clique = FrozenSet[int]

__all__ = [
    "CliqueTable",
    "canonical_rows",
    "frozenset_rows",
    "materialize_rows",
    "rows_from_cliques",
    "structured_view",
]


def structured_view(rows: np.ndarray) -> np.ndarray:
    """A 1-D structured view of ``rows`` whose element order is the
    numeric lexicographic order of the rows.

    Structured dtypes compare field-by-field (numerically), unlike raw
    ``np.void`` byte views which compare by memcmp and would mis-sort
    little-endian integers.  Works for ``sort``/``searchsorted``/
    ``isin`` on any contiguous 2-D integer matrix.
    """
    rows = np.ascontiguousarray(rows)
    dtype = np.dtype([(f"f{k}", rows.dtype) for k in range(rows.shape[1])])
    return rows.view(dtype)[:, 0]


def canonical_rows(rows: np.ndarray, p: Optional[int] = None) -> np.ndarray:
    """Canonicalize a clique matrix: sort members within each row,
    lex-sort the rows, drop duplicates, cast to ``uint32``."""
    rows = np.asarray(rows)
    if rows.ndim != 2:
        if rows.size == 0 and p is not None:
            return np.empty((0, p), dtype=np.uint32)
        raise ValueError(f"clique table must be 2-D, got shape {rows.shape}")
    if p is not None and rows.shape[1] != p:
        raise ValueError(
            f"clique table width {rows.shape[1]} does not match p={p}"
        )
    if rows.shape[0] == 0:
        return np.empty((0, rows.shape[1]), dtype=np.uint32)
    if not np.issubdtype(rows.dtype, np.integer):
        raise TypeError(f"clique table must be integral, got {rows.dtype}")
    rows = np.sort(rows, axis=1).astype(np.uint32, copy=False)
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    if rows.shape[0] > 1:
        keep = np.empty(rows.shape[0], dtype=bool)
        keep[0] = True
        np.any(rows[1:] != rows[:-1], axis=1, out=keep[1:])
        if not keep.all():
            rows = rows[keep]
    return np.ascontiguousarray(rows)


def rows_from_cliques(cliques: Iterable[Clique], p: int) -> np.ndarray:
    """Canonical uint32 rows from an iterable of size-``p`` cliques."""
    flat: List[int] = []
    count = 0
    for clique in cliques:
        members = sorted(clique)
        if len(members) != p:
            raise ValueError(
                f"clique {members} has size {len(members)}, expected {p}"
            )
        flat.extend(members)
        count += 1
    rows = np.asarray(flat, dtype=np.int64).reshape(count, p)
    return canonical_rows(rows, p=p)


def frozenset_rows(rows: np.ndarray) -> List[Clique]:
    """Materialize each row as a frozenset, preserving row order.

    Column-major: ``p`` flat python lists (one per column) zipped into
    row tuples — never the ``(count, p)`` list-of-lists that
    ``table.tolist()`` would build.
    """
    rows = np.asarray(rows)
    if rows.shape[0] == 0:
        return []
    cols = rows.T.tolist()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return list(map(frozenset, zip(*cols)))
    finally:
        if was_enabled:
            gc.enable()


def materialize_rows(rows: np.ndarray) -> Set[Clique]:
    """Bulk-materialize a clique matrix as ``set[frozenset[int]]``.

    Same column-major trick as :func:`frozenset_rows`; GC is paused
    during the bulk allocation burst (collection cannot free anything
    mid-build, it only adds bookkeeping per container).
    """
    rows = np.asarray(rows)
    if rows.shape[0] == 0:
        return set()
    cols = rows.T.tolist()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return set(map(frozenset, zip(*cols)))
    finally:
        if was_enabled:
            gc.enable()


class CliqueTable:
    """An immutable canonical ``(count, p)`` uint32 clique matrix.

    Construct with :meth:`from_rows` (canonicalizes arbitrary integer
    input) or :meth:`from_cliques`; the bare constructor trusts its
    input to already be canonical and is for internal fast paths.
    """

    __slots__ = ("rows", "_frozen")

    def __init__(self, rows: np.ndarray, *, _trusted: bool = False) -> None:
        if not _trusted:
            rows = canonical_rows(rows)
        if not rows.flags.writeable:
            self.rows = rows
        else:
            self.rows = rows
            rows.flags.writeable = False
        self._frozen: Optional[FrozenSet[Clique]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, rows: np.ndarray, p: Optional[int] = None) -> "CliqueTable":
        """Canonicalize any 2-D integer matrix of cliques."""
        return cls(canonical_rows(rows, p=p), _trusted=True)

    @classmethod
    def from_cliques(cls, cliques: Iterable[Clique], p: int) -> "CliqueTable":
        """Build from python cliques (sets/frozensets/sequences)."""
        return cls(rows_from_cliques(cliques, p), _trusted=True)

    @classmethod
    def empty(cls, p: int) -> "CliqueTable":
        return cls(np.empty((0, p), dtype=np.uint32), _trusted=True)

    # ------------------------------------------------------------------
    # Shape / identity
    # ------------------------------------------------------------------
    @property
    def p(self) -> int:
        return int(self.rows.shape[1])

    def __len__(self) -> int:
        return int(self.rows.shape[0])

    def __bool__(self) -> bool:
        return self.rows.shape[0] > 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CliqueTable):
            return np.array_equal(self.rows, other.rows)
        if isinstance(other, (set, frozenset)):
            return len(other) == len(self) and self.as_frozenset() == other
        return NotImplemented

    def __hash__(self) -> int:  # tables are immutable values
        return hash((self.rows.shape, self.rows.tobytes()))

    def __repr__(self) -> str:
        return f"CliqueTable(p={self.p}, count={len(self)})"

    # ------------------------------------------------------------------
    # Lazy set semantics
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Clique]:
        """Yield cliques in lexicographic row order, without building
        (or caching) the full set unless it is already cached."""
        if self._frozen is not None:
            return iter(self._frozen)
        return iter(frozenset_rows(self.rows))

    def __contains__(self, clique: object) -> bool:
        """Row binary search: narrow a ``[lo, hi)`` window column by
        column with ``searchsorted`` — no set materialization."""
        try:
            members = sorted(clique)  # type: ignore[arg-type]
        except TypeError:
            return False
        if len(members) != self.p:
            return False
        if any(m < 0 or m != int(m) for m in members):
            return False
        lo, hi = 0, len(self)
        for col, value in enumerate(members):
            column = self.rows[lo:hi, col]
            lo_off = int(np.searchsorted(column, value, side="left"))
            hi_off = int(np.searchsorted(column, value, side="right"))
            lo, hi = lo + lo_off, lo + hi_off
            if lo >= hi:
                return False
        return True

    def as_frozenset(self) -> FrozenSet[Clique]:
        """The table as ``frozenset[frozenset[int]]``, materialized at
        most once and cached (a benign race under the GIL: two threads
        may both build it, one assignment wins, both are equal)."""
        cached = self._frozen
        if cached is None:
            cached = frozenset(materialize_rows(self.rows))
            self._frozen = cached
        return cached

    # ------------------------------------------------------------------
    # Vectorized set algebra
    # ------------------------------------------------------------------
    def _other_rows(self, other) -> np.ndarray:
        if isinstance(other, CliqueTable):
            if other.p != self.p:
                raise ValueError(f"p mismatch: {self.p} vs {other.p}")
            return other.rows
        return canonical_rows(other, p=self.p)

    def membership(self, other) -> np.ndarray:
        """Boolean mask over ``self.rows``: which rows appear in
        ``other`` (a CliqueTable or any integer clique matrix)."""
        rows = self._other_rows(other)
        if len(self) == 0 or rows.shape[0] == 0:
            return np.zeros(len(self), dtype=bool)
        return np.isin(structured_view(self.rows), structured_view(rows))

    def difference(self, other) -> "CliqueTable":
        """Rows of ``self`` not in ``other`` (canonical order kept)."""
        rows = self._other_rows(other)
        if len(self) == 0 or rows.shape[0] == 0:
            return self
        keep = ~np.isin(structured_view(self.rows), structured_view(rows))
        if keep.all():
            return self
        return CliqueTable(np.ascontiguousarray(self.rows[keep]), _trusted=True)

    def union(self, other) -> "CliqueTable":
        """Merge of ``self`` and ``other`` (deduplicated, canonical)."""
        rows = self._other_rows(other)
        if rows.shape[0] == 0:
            return self
        if len(self) == 0:
            return CliqueTable(rows, _trusted=True)
        merged = canonical_rows(np.concatenate([self.rows, rows]))
        return CliqueTable(merged, _trusted=True)

    def owners(self) -> np.ndarray:
        """The minimum member of every clique — rows ascend, so this is
        just the first column."""
        return self.rows[:, 0]

"""Edge sets as sorted ``int64`` key arrays.

On ``n`` nodes the undirected edge {u, v} (u < v) has the key
``u * n + v`` and the arc (oriented edge) src -> dst the key
``src * n + dst``.  A sorted, duplicate-free key array is a set:
union is :func:`key_union`, difference ``np.setdiff1d``, membership a
sorted lookup (:func:`key_member`), and the arcs leaving one node form
one contiguous run of a sorted arc array.
The ARB-LIST state (Ês, Êr, goal and bad edges, and the witness
orientations) and the expander decomposition carry their edge sets in
this form; :func:`key_edges` is the one way back to Python tuples.
"""

from __future__ import annotations

from typing import Set

import numpy as np

from repro.graphs.graph import Edge

EMPTY = np.empty(0, dtype=np.int64)
EMPTY.flags.writeable = False


def unique_keys(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an ``int64`` key array.

    One sort and one neighbor comparison.  ``np.unique`` hashes integer
    input first on numpy 2.x, which over wide key ranges costs about 25
    times as much (11.7 ms against 0.46 ms for 44k keys below 384³,
    numpy 2.4).
    """
    keys = np.sort(np.asarray(keys, dtype=np.int64).ravel())
    fresh = np.empty(keys.size, dtype=bool)
    fresh[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    return keys[fresh]


def key_union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Union of two key arrays, sorted and duplicate-free."""
    return unique_keys(np.concatenate([a, b]))


def edge_keys(pairs, n: int) -> np.ndarray:
    """Sorted unique keys of an iterable or ``(k, 2)`` array of node pairs
    (either orientation; duplicates collapse)."""
    if not isinstance(pairs, np.ndarray):
        pairs = list(pairs)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    return unique_keys(lo * n + np.maximum(pairs[:, 0], pairs[:, 1]))


def key_pairs(keys: np.ndarray, n: int) -> np.ndarray:
    """The ``(k, 2)`` pairs of edge (or arc) keys, in key order."""
    pairs = np.empty((keys.size, 2), dtype=np.int64)
    np.divmod(keys, n, out=(pairs[:, 0], pairs[:, 1]))
    return pairs


def key_edges(keys: np.ndarray, n: int) -> Set[Edge]:
    """Edge keys as a set of canonical ``(u, v)`` tuples."""
    return set(map(tuple, key_pairs(keys, n).tolist()))


def key_member(keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Boolean mask: which ``query`` keys (any order, repeats allowed)
    are in the sorted key array ``keys``."""
    query = np.asarray(query, dtype=np.int64)
    if not keys.size:
        return np.zeros(query.shape, dtype=bool)
    at = np.searchsorted(keys, query)
    return keys[np.minimum(at, keys.size - 1)] == query


def arc_edge_keys(arcs: np.ndarray, n: int) -> np.ndarray:
    """Undirected edge key of every arc, in arc order."""
    src, dst = np.divmod(arcs, n)
    return np.minimum(src, dst) * n + np.maximum(src, dst)


def merge_arcs(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Union of two orientations of disjoint edge sets.

    Out-degrees add, matching the (c+1)·n^δ witness bound of Theorem
    2.9.  Raises ``ValueError`` if an edge is oriented in both.
    """
    if np.intersect1d(arc_edge_keys(a, n), arc_edge_keys(b, n)).size:
        raise ValueError("orientations share an edge")
    return key_union(a, b)


def restrict_arcs(arcs: np.ndarray, keys: np.ndarray, n: int) -> np.ndarray:
    """The arcs whose undirected edge is in ``keys``; directions kept,
    so out-degree bounds only ever decrease."""
    return arcs[key_member(keys, arc_edge_keys(arcs, n))]


def max_out_degree(arcs: np.ndarray, n: int) -> int:
    """Largest out-degree of a sorted arc array."""
    if not arcs.size:
        return 0
    return int(np.bincount(arcs // n).max())


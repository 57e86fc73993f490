"""Low-out-degree edge orientations (arboricity witnesses).

The paper's iterative machinery (Theorems 2.8/2.9) never works with
"arboricity" abstractly — it always carries an *orientation of the edges
with bounded out-degree* as a constructive witness.  This module provides
that object plus the standard way to obtain one (degeneracy / core
ordering), which yields out-degree ≤ degeneracy ≤ 2·arboricity − 1.

The orientation is also what drives load-balancing: each node is
"responsible" for the ≤ A edges oriented away from it (§2.4.3,
"Reshuffling the edges").
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.graphs.edge_keys import EMPTY, key_member, max_out_degree
from repro.graphs.graph import Edge, Graph, canonical_edge


class Orientation:
    """An orientation of a set of undirected edges.

    Stored as its sorted arc keys ``src·n + dst``
    (:mod:`repro.graphs.edge_keys`): the counts, the out-degree bound
    ``max_out_degree`` (the arboricity witness the paper threads through
    its iterations) and the vectorized lookups read the keys, and the
    per-node out-sets ``out(v)`` are a view built on first set-style
    access.
    """

    __slots__ = ("_n", "_arcs", "_sets")

    def __init__(self, n: int, arcs: Optional[np.ndarray] = None) -> None:
        """Orientation on ``n`` nodes of the sorted, duplicate-free arc
        keys ``arcs`` (none by default)."""
        self._n = n
        self._arcs = EMPTY if arcs is None else np.asarray(arcs, dtype=np.int64)
        self._sets: Optional[Dict[int, Set[int]]] = None

    @property
    def _out(self) -> Dict[int, Set[int]]:
        if self._sets is None:
            src, dst = np.divmod(self._arcs, self._n)
            bounds = np.searchsorted(src, np.arange(self._n + 1)).tolist()
            flat = dst.tolist()
            self._sets = {
                v: set(flat[bounds[v] : bounds[v + 1]]) for v in range(self._n)
            }
        return self._sets

    @property
    def num_nodes(self) -> int:
        return self._n

    def orient(self, src: int, dst: int) -> None:
        """Record the edge ``{src, dst}`` as oriented ``src -> dst``.

        One insertion into the sorted keys, so this is for hand-built
        orientations; the builders below collect their keys and
        construct once.
        """
        if src == dst:
            raise ValueError(f"cannot orient self-loop at {src}")
        if self.covers(src, dst):
            raise ValueError(f"edge ({src}, {dst}) already oriented")
        key = src * self._n + dst
        self._arcs = np.insert(self._arcs, np.searchsorted(self._arcs, key), key)
        self._out[src].add(dst)

    def out_neighbors(self, v: int) -> Set[int]:
        """Targets of edges oriented away from ``v``."""
        return self._out[v]

    def out_degree(self, v: int) -> int:
        return len(self._out[v])

    @property
    def max_out_degree(self) -> int:
        """The witness bound: max over nodes of out-degree."""
        return max_out_degree(self._arcs, self._n)

    def direction(self, u: int, v: int) -> Tuple[int, int]:
        """Return the oriented pair for edge ``{u, v}``.

        Raises
        ------
        KeyError
            If the edge is not oriented by this orientation.
        """
        if v in self._out.get(u, set()):
            return (u, v)
        if u in self._out.get(v, set()):
            return (v, u)
        raise KeyError(f"edge ({u}, {v}) not present in orientation")

    def covers(self, u: int, v: int) -> bool:
        """Whether edge ``{u, v}`` is oriented by this orientation."""
        return v in self._out.get(u, set()) or u in self._out.get(v, set())

    def encoded_oriented(self) -> np.ndarray:
        """All oriented edges as one sorted ``src·n + dst`` key array
        (the storage itself; do not modify)."""
        return self._arcs

    def direction_array(self, a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`direction`: oriented (src, dst) per input pair.

        Every input pair must be oriented one way or the other (the same
        contract the scalar method enforces with ``KeyError``).
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        n = self.num_nodes
        arcs = self.encoded_oriented()
        as_is = key_member(arcs, a * n + b)
        missing = ~(as_is | key_member(arcs, b * n + a))
        if missing.any():
            u, v = int(a[missing][0]), int(b[missing][0])
            raise KeyError(f"edge ({u}, {v}) not present in orientation")
        src = np.where(as_is, a, b)
        dst = np.where(as_is, b, a)
        return src, dst

    def edges(self) -> Iterator[Edge]:
        """All oriented edges, in canonical (undirected) form."""
        for src, targets in self._out.items():
            for dst in targets:
                yield canonical_edge(src, dst)

    def oriented_edges(self) -> Iterator[Tuple[int, int]]:
        """All edges as (source, target) pairs."""
        for src, targets in self._out.items():
            for dst in targets:
                yield (src, dst)

    def num_edges(self) -> int:
        return int(self._arcs.size)

    def __repr__(self) -> str:
        return (
            f"Orientation(n={self.num_nodes}, m={self.num_edges()}, "
            f"max_out={self.max_out_degree})"
        )


#: Below this edge count the dict/set bucket queue beats building a CSR
#: snapshot; ``backend="auto"`` switches over past it.
AUTO_CSR_MIN_EDGES = 2048

#: The names accepted by every function with a backend seam.
BACKENDS = ("auto", "python", "csr")


def resolve_backend(graph: Graph, backend: str) -> str:
    """Map ``"auto"`` to a concrete backend for this graph.

    The single routing rule shared by every seam function
    (``enumerate_cliques``, ``count_cliques``, ``degeneracy_orientation``,
    ``degeneracy``, ...): csr for graphs with at least
    :data:`AUTO_CSR_MIN_EDGES` edges, python below.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; use one of {BACKENDS}")
    if backend != "auto":
        return backend
    return "csr" if graph.num_edges >= AUTO_CSR_MIN_EDGES else "python"


def degeneracy_orientation(graph: Graph, backend: str = "auto") -> Orientation:
    """Orient each edge from the earlier node in a degeneracy order.

    Repeatedly removes the *lowest-id node among those of minimum
    remaining degree* and orients its remaining edges away from it.  The
    resulting max out-degree equals the degeneracy of the graph, which
    is a 2-approximation of arboricity — exactly the kind of witness
    Theorem 2.8 consumes.  The lowest-id tie-break is a library-wide
    contract: :func:`repro.graphs.csr.degeneracy_order` implements the
    identical rule, so every backend yields the same orientation.

    Parameters
    ----------
    graph:
        Input graph.
    backend:
        ``"python"`` — bucket-queue peeling over the dict adjacency;
        ``"csr"`` — order computed by the vectorized kernel of
        :mod:`repro.graphs.csr`; ``"auto"`` — csr for graphs with at
        least :data:`AUTO_CSR_MIN_EDGES` edges, python below.
    """
    if resolve_backend(graph, backend) == "csr":
        return _degeneracy_orientation_csr(graph)
    n = graph.num_nodes
    arcs: List[int] = []
    degree = {v: graph.degree(v) for v in graph.nodes()}
    # Bucket queue keyed by current degree.
    buckets: List[Set[int]] = [set() for _ in range(n)] if n else []
    for v, d in degree.items():
        buckets[d].add(v)
    removed: Set[int] = set()
    pointer = 0
    for _ in range(n):
        while pointer < len(buckets) and not buckets[pointer]:
            pointer += 1
        if pointer >= len(buckets):
            break
        v = min(buckets[pointer])  # deterministic lowest-id tie-break
        buckets[pointer].discard(v)
        removed.add(v)
        for u in graph.neighbors(v):
            if u in removed:
                continue
            arcs.append(v * n + u)
            buckets[degree[u]].discard(u)
            degree[u] -= 1
            buckets[degree[u]].add(u)
        pointer = max(0, pointer - 1)
    return Orientation(n, np.sort(np.asarray(arcs, dtype=np.int64)))


def _degeneracy_orientation_csr(graph: Graph) -> Orientation:
    """CSR-backed construction of the same degeneracy orientation.

    Forward rows are grouped by source and sorted within, so their arc
    keys come out sorted.
    """
    fptr, findices = graph.to_csr().forward()
    n = graph.num_nodes
    sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(fptr))
    return Orientation(n, sources * n + findices)


def orientation_from_order(graph: Graph, order: Iterable[int]) -> Orientation:
    """Orient every edge from the node appearing earlier in ``order``."""
    position = {v: i for i, v in enumerate(order)}
    if len(position) != graph.num_nodes:
        raise ValueError("order must be a permutation of the node set")
    n = graph.num_nodes
    arcs = [
        u * n + v if position[u] < position[v] else v * n + u
        for u, v in graph.edges()
    ]
    return Orientation(n, np.sort(np.asarray(arcs, dtype=np.int64)))


def validate_orientation(graph: Graph, orientation: Orientation) -> None:
    """Check an orientation covers exactly the graph's edges, or raise.

    The listing pipeline calls this in its internal assertions (and the
    tests call it directly): an orientation that drops or invents edges
    would silently break the reshuffling load-balance argument.
    """
    oriented = {canonical_edge(u, v) for u, v in orientation.oriented_edges()}
    actual = graph.edge_set()
    missing = actual - oriented
    extra = oriented - actual
    if missing:
        raise ValueError(f"orientation misses {len(missing)} edges, e.g. {next(iter(missing))}")
    if extra:
        raise ValueError(f"orientation has {len(extra)} non-edges, e.g. {next(iter(extra))}")

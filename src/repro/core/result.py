"""Result object shared by every listing algorithm in the library.

A listing result is stored in one representation only: a list of
columnar :class:`Attribution` parts, each an ``(owners, rows)`` pair in
which row ``i`` is a clique (members ascending) that node ``owners[i]``
output.  Every driver and baseline records its output with
:meth:`ListingResult.attribute_table`.  Verification, counting and the
stream/serve paths read the canonical :meth:`ListingResult.table`; the
python ``cliques`` / ``per_node`` views are built from the parts only
when something reads them, and cached until the next attribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set

import numpy as np

from repro.congest.ledger import RoundLedger
from repro.graphs.table import CliqueTable, materialize_rows, rows_from_cliques

Clique = FrozenSet[int]


@dataclass
class Attribution:
    """Columnar listing output: row ``i`` of ``rows`` (a ``(c, p)``
    integer matrix, members ascending) was output by node ``owners[i]``.

    The Theorem 1.1/1.2 pipeline carries this pair from the in-cluster
    listing up to :meth:`ListingResult.attribute_table`; each of its
    outcome layers extends it.  Layers merge by concatenation, so a
    clique one node lists in two ARB-LIST iterations appears twice —
    :class:`ListingResult` dedupes when it builds its views.  The
    ``listed`` / ``cliques`` views serve those views, tests and reports,
    never the driver path.
    """

    owners: np.ndarray
    rows: np.ndarray

    @classmethod
    def joined(cls, parts: Sequence["Attribution"], p: int, **fields):
        """A ``cls`` holding the rows of ``parts`` in order, plus ``fields``."""
        owners = [part.owners for part in parts] or [np.empty(0, dtype=np.int64)]
        rows = [part.rows for part in parts] or [np.empty((0, p), dtype=np.int64)]
        return cls(owners=np.concatenate(owners), rows=np.concatenate(rows), **fields)

    @property
    def listed(self) -> Dict[int, np.ndarray]:
        """node -> the ``(c_node, p)`` rows it output (one argsort + split)."""
        order = np.argsort(self.owners, kind="stable")
        nodes, starts = np.unique(self.owners[order], return_index=True)
        return dict(zip(nodes.tolist(), np.split(self.rows[order], starts[1:])))

    @property
    def cliques(self) -> Set[Clique]:
        return materialize_rows(self.rows)

    def cliques_of(self, node: int) -> Set[Clique]:
        return materialize_rows(self.rows[self.owners == node])


class ListingResult:
    """Outcome of one listing run.

    Attributes
    ----------
    p:
        Clique size listed.
    model:
        ``"congest"``, ``"congested-clique"`` or a baseline tag.
    cliques:
        Union of all per-node outputs — must equal the ground-truth Kp
        set of the input graph (``analysis.verification`` checks this).
        A view built from the attributed parts on first read.
    per_node:
        Which node output which cliques.  The listing problem only
        requires the union to be complete; per-node attribution follows
        the algorithm's assignment (the cluster node owning the clique's
        part tuple, the light node that queried it, ...).  A view like
        ``cliques``.
    ledger:
        Round accounting with one entry per algorithm phase.
    stats:
        Free-form run metadata (iterations, cluster counts, ...).

    ``cliques=`` seeds the result with a clique collection, each clique
    attributed to its minimum member (tests build corrupt results so).
    """

    __slots__ = (
        "p", "model", "ledger", "stats", "_parts", "_table", "_cliques", "_per_node",
    )

    def __init__(
        self,
        p: int,
        model: str,
        cliques: Optional[Iterable[Clique]] = None,
        ledger: Optional[RoundLedger] = None,
        stats: Optional[Dict[str, float]] = None,
    ) -> None:
        self.p = p
        self.model = model
        self.ledger = ledger if ledger is not None else RoundLedger()
        self.stats: Dict[str, float] = stats if stats is not None else {}
        self._parts: List[Attribution] = []
        self._table: Optional[CliqueTable] = None
        self._cliques: Optional[Set[Clique]] = None
        self._per_node: Optional[Dict[int, Set[Clique]]] = None
        if cliques:
            rows = rows_from_cliques(cliques, p)
            self.attribute_table(rows[:, 0], rows)

    @property
    def rounds(self) -> float:
        """Total charged rounds."""
        return self.ledger.total_rounds

    @property
    def makespan(self) -> float:
        """Total topology-aware completion time (== ``rounds`` on the
        default clique topology — see ``repro.congest.topology``)."""
        return self.ledger.total_makespan

    def attribute_table(self, owners: np.ndarray, rows: np.ndarray) -> None:
        """Record a whole ``(count, p)`` clique table at once: row ``i``
        was output by node ``owners[i]``.  No python objects are built
        until someone reads :attr:`cliques` / :attr:`per_node`."""
        rows = np.asarray(rows)
        if rows.shape[0] == 0:
            return
        if rows.ndim != 2 or rows.shape[1] != self.p:
            raise ValueError(
                f"expected (count, {self.p}) rows, got shape {rows.shape}"
            )
        owners = np.broadcast_to(np.asarray(owners), (rows.shape[0],))
        self._parts.append(Attribution(owners=owners, rows=rows))
        self._table = self._cliques = self._per_node = None

    def attribute(self, node: int, clique: Clique) -> None:
        """Record that ``node`` output ``clique`` (a one-row table)."""
        self.attribute_table(
            np.asarray([node]), np.asarray([sorted(clique)], dtype=np.int64)
        )

    @property
    def num_cliques(self) -> int:
        """``len(cliques)`` without materializing python objects."""
        return len(self.table())

    def table(self) -> CliqueTable:
        """The union of all outputs as a canonical :class:`CliqueTable`."""
        if self._table is None:
            rows = Attribution.joined(self._parts, self.p).rows
            self._table = CliqueTable.from_rows(rows, p=self.p)
        return self._table

    @property
    def cliques(self) -> Set[Clique]:
        if self._cliques is None:
            self._cliques = materialize_rows(self.table().rows)
        return self._cliques

    @property
    def per_node(self) -> Dict[int, Set[Clique]]:
        if self._per_node is None:
            listed = Attribution.joined(self._parts, self.p).listed
            self._per_node = {
                node: materialize_rows(rows) for node, rows in listed.items()
            }
        return self._per_node

    def cliques_of(self, node: int) -> FrozenSet[Clique]:
        """The cliques attributed to ``node``: a mask over each part's
        owners, materializing only that node's rows (the serve plane's
        ``learned`` reads call this once per request)."""
        return frozenset().union(*(part.cliques_of(node) for part in self._parts))

    def __repr__(self) -> str:
        return (
            f"ListingResult(p={self.p}, model={self.model!r}, "
            f"cliques={self.num_cliques}, rounds={self.rounds:.1f})"
        )

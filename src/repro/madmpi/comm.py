"""Communicators: isolated matching scopes over a set of ranks.

The §5.2 experiment deliberately issues every segment of its multi-segment
ping on a *different* communicator "to demonstrate that the scope of
MAD-MPI optimizations is really global" — so communicators must genuinely
isolate matching (they map to engine flows) while the engine is free to
coalesce across them.

With ``sessions="epoch"`` the communicator also carries the ULFM-style
fault-tolerance surface: a rank that learned of a peer's death
(:class:`~repro.errors.PeerDeadError` out of wait/test) calls
:meth:`Communicator.revoke` to fence further traffic on the communicator,
then :meth:`Communicator.shrink` to build a fresh one over the survivors.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence

from repro.errors import MpiError

__all__ = ["Communicator"]

_comm_ids = itertools.count(0)


class Communicator:
    """A group of ranks with a private matching scope (an engine flow id)."""

    def __init__(self, ranks_to_nodes: Sequence[int], comm_id: int | None = None):
        if not ranks_to_nodes:
            raise MpiError("a communicator needs at least one rank")
        if len(set(ranks_to_nodes)) != len(ranks_to_nodes):
            raise MpiError(f"duplicate nodes in communicator: {ranks_to_nodes}")
        self.ranks_to_nodes = tuple(ranks_to_nodes)
        # The group is immutable, so both directions are settled here:
        # rank_of runs on every status read of a completed receive.
        self._size = len(self.ranks_to_nodes)
        self._rank_of = {node: rank
                         for rank, node in enumerate(self.ranks_to_nodes)}
        self.id = next(_comm_ids) if comm_id is None else comm_id
        #: Set by :meth:`revoke`; a revoked communicator rejects new
        #: operations with :class:`~repro.errors.CommRevokedError`.
        self.revoked = False

    @property
    def size(self) -> int:
        return self._size

    def node_of(self, rank: int) -> int:
        """Cluster node id of ``rank`` (with a helpful error)."""
        if not 0 <= rank < self._size:
            raise MpiError(
                f"rank {rank} out of range for communicator of size {self.size}"
            )
        return self.ranks_to_nodes[rank]

    def rank_of(self, node: int) -> int:
        """Rank of a cluster node in this communicator."""
        try:
            return self._rank_of[node]
        except KeyError:
            raise MpiError(
                f"node {node} is not part of this communicator"
            ) from None

    def dup(self) -> Communicator:
        """MPI_Comm_dup: same group, fresh isolated matching scope."""
        return Communicator(self.ranks_to_nodes)

    # -- ULFM-style fault tolerance ----------------------------------------
    def revoke(self) -> None:
        """MPI_Comm_revoke: mark this communicator dead (idempotent).

        After a failure is detected, revocation fences the communicator:
        every subsequent isend/irecv/collective on it raises
        :class:`~repro.errors.CommRevokedError` immediately, so no rank
        blocks on a peer that will never answer.  The model is local (each
        rank revokes its own handle); in-flight requests are unaffected —
        they already carry their own failure path.
        """
        self.revoked = True

    def shrink(self, dead_nodes: Iterable[int]) -> Communicator:
        """MPI_Comm_shrink: a fresh communicator over the surviving nodes.

        ``dead_nodes`` are cluster node ids (e.g. ``engine.dead_peers``);
        ranks are renumbered densely in the survivors' original order.  The
        new communicator has a fresh matching scope, so no old-epoch
        traffic can match into it.
        """
        dead = set(dead_nodes)
        survivors = [n for n in self.ranks_to_nodes if n not in dead]
        if not survivors:
            raise MpiError(
                f"shrink of {self!r} leaves no survivors "
                f"(dead nodes: {sorted(dead)})"
            )
        return Communicator(survivors)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Communicator id={self.id} ranks={self.ranks_to_nodes}>"

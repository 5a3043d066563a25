"""Waits-for graph and cycle detection for the lock manager of every level."""

from __future__ import annotations

from typing import Hashable, Optional


class WaitsForGraph:
    """Tracks which transaction waits for which, per resource.

    Edges are stored keyed by ``(resource, waiter)`` so that a change to
    one resource's queue can be re-stated atomically without disturbing
    edges contributed by other resources.
    """

    def __init__(self) -> None:
        self._blockers: dict[tuple[Hashable, str], set[str]] = {}

    def set_blockers(self, resource: Hashable, waiter: str, blockers: set[str]) -> None:
        """Declare that ``waiter`` waits for ``blockers`` on ``resource``."""
        blockers = {b for b in blockers if b != waiter}
        if blockers:
            self._blockers[(resource, waiter)] = blockers
        else:
            self._blockers.pop((resource, waiter), None)

    def clear(self, resource: Hashable, waiter: str) -> None:
        """Remove the waiting edge of ``waiter`` on ``resource``."""
        self._blockers.pop((resource, waiter), None)

    def clear_txn(self, txn_id: str) -> None:
        """Remove every edge where ``txn_id`` is the waiter."""
        stale = [key for key in self._blockers if key[1] == txn_id]
        for key in stale:
            del self._blockers[key]

    def adjacency(self) -> dict[str, set[str]]:
        """Aggregate waiter -> blockers adjacency over all resources."""
        adjacency: dict[str, set[str]] = {}
        for (_resource, waiter), blockers in self._blockers.items():
            adjacency.setdefault(waiter, set()).update(blockers)
        return adjacency

    def find_cycle_from(self, start: str) -> Optional[list[str]]:
        """Return a cycle through ``start`` if one exists, else ``None``.

        Iterative DFS; deterministic because neighbours are visited in
        sorted order.
        """
        adjacency = self.adjacency()
        path: list[str] = []
        on_path: set[str] = set()
        visited: set[str] = set()

        def dfs(node: str) -> Optional[list[str]]:
            path.append(node)
            on_path.add(node)
            for neighbour in sorted(adjacency.get(node, ())):
                if neighbour == start:
                    return path + [start]
                if neighbour in on_path or neighbour in visited:
                    continue
                cycle = dfs(neighbour)
                if cycle is not None:
                    return cycle
            on_path.discard(node)
            visited.add(node)
            path.pop()
            return None

        return dfs(start)

    def __len__(self) -> int:
        return len(self._blockers)

    def __repr__(self) -> str:
        return f"<WaitsForGraph edges={len(self._blockers)}>"

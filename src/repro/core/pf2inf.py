"""Pf2Inf: path-finding algorithms as influential recommenders (§III-B).

The item graph is built from the training sequences; the influence path is
the shortest path (Dijkstra) — or the tree path within a minimum spanning
tree (MST) — from the last item of the user's history to the objective item,
truncated to the first ``M`` items.  networkx is imported where it is used,
as in :mod:`repro.core.item_graph`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.base import InfluentialRecommender, influential_registry
from repro.core.item_graph import build_item_graph
from repro.data.splitting import DatasetSplit
from repro.utils.exceptions import ConfigurationError

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["Pf2Inf"]


@influential_registry.register("pf2inf")
class Pf2Inf(InfluentialRecommender):
    """Graph path-finding influential recommender.

    Parameters
    ----------
    method:
        ``"dijkstra"`` for shortest paths on the item graph or ``"mst"`` for
        paths inside a minimum spanning tree of the graph.
    count_weights:
        Use transition counts as (inverse) edge weights instead of the
        paper's uniform weights.
    """

    def __init__(self, method: str = "dijkstra", count_weights: bool = False) -> None:
        super().__init__()
        method = method.lower()
        if method not in {"dijkstra", "mst"}:
            raise ConfigurationError(f"unknown Pf2Inf method '{method}'")
        self.method = method
        self.count_weights = count_weights
        self.name = f"Pf2Inf-{method.upper() if method == 'mst' else method.capitalize()}"
        self._graph: nx.Graph | None = None
        self._search_graph: nx.Graph | None = None

    # ------------------------------------------------------------------ #
    def fit(self, split: DatasetSplit) -> "Pf2Inf":
        import networkx as nx

        self.corpus = split.corpus
        self._graph = build_item_graph(
            (sequence.items for sequence in split.train), count_weights=self.count_weights
        )
        if self.method == "mst":
            # The MST of a disconnected graph is computed per component
            # (a minimum spanning forest), which preserves reachability.
            self._search_graph = nx.minimum_spanning_tree(self._graph, weight="weight")
        else:
            self._search_graph = self._graph
        return self

    # ------------------------------------------------------------------ #
    def _shortest_path(self, source: int, target: int) -> list[int] | None:
        import networkx as nx

        assert self._search_graph is not None
        if source not in self._search_graph or target not in self._search_graph:
            return None
        try:
            path = nx.dijkstra_path(self._search_graph, source, target, weight="weight")
        except nx.NetworkXNoPath:
            return None
        return [int(node) for node in path]

    def plan_path(
        self, history: Sequence[int], objective: int, max_length: int = 20
    ) -> list[int]:
        """Return the whole (truncated) graph path, excluding the source item."""
        self._require_fitted()
        if not history:
            return []
        source = history[-1]
        path = self._shortest_path(int(source), int(objective))
        if path is None or len(path) < 2:
            return []
        return path[1 : max_length + 1]

    def next_step(
        self,
        history: Sequence[int],
        objective: int,
        path_so_far: Sequence[int],
        user_index: int | None = None,
    ) -> int | None:
        """Return the next item along the pre-planned graph path."""
        planned = self.plan_path(history, objective, max_length=len(path_so_far) + 1)
        if len(planned) <= len(path_so_far):
            return None
        return planned[len(path_so_far)]

    def generate_path(
        self,
        history: Sequence[int],
        objective: int,
        user_index: int | None = None,
        max_length: int = 20,
    ) -> list[int]:
        """Plan the whole path at once (equivalent to, but faster than, Algorithm 1)."""
        return self.plan_path(history, objective, max_length=max_length)

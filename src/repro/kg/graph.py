"""Item knowledge graph: items, attribute (genre) nodes and typed edges.

The graph has two node types:

* ``("item", index)`` — one node per vocabulary item (padding excluded);
* ``("genre", name)`` — one node per genre/attribute.

and two edge types:

* ``has_genre`` — connects an item to each of its genres (weight
  ``genre_edge_weight``);
* ``co_consumed`` — connects two items that appear consecutively in some
  training sequence (weight inversely related to the transition count, so
  frequent transitions are "shorter").

Because every item with metadata is connected through its genre nodes, the
graph stays connected even when the co-consumption graph is sparse or
disjoint — precisely the failure mode of the plain Pf2Inf baseline the paper
points out (§III-C's critique of §III-B).  networkx is imported by the
methods that use it, as in :mod:`repro.core.item_graph`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.data.interactions import SequenceCorpus
from repro.utils.exceptions import ConfigurationError

__all__ = ["ItemKnowledgeGraph"]


def _item_node(item: int) -> tuple[str, int]:
    return ("item", int(item))


def _genre_node(genre: str) -> tuple[str, str]:
    return ("genre", genre)


class ItemKnowledgeGraph:
    """Heterogeneous item/attribute graph built from a corpus and its splits.

    Parameters
    ----------
    genre_edge_weight:
        Length of an item—genre edge.  Going through a genre node costs two
        such hops, so the default of 0.75 makes a shared-genre connection
        (1.5) slightly more expensive than a strong co-consumption edge but
        cheaper than a chain of weak ones.
    count_weights:
        If True, co-consumption edges get weight ``1 / count`` (frequent
        transitions are shorter); if False every co-consumption edge has
        weight 1.
    """

    def __init__(self, genre_edge_weight: float = 0.75, count_weights: bool = True) -> None:
        import networkx as nx

        if genre_edge_weight <= 0:
            raise ConfigurationError("genre_edge_weight must be positive")
        self.genre_edge_weight = genre_edge_weight
        self.count_weights = count_weights
        self.graph = nx.Graph()
        self._corpus: SequenceCorpus | None = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def build(
        self,
        corpus: SequenceCorpus,
        sequences: Iterable[Sequence[int]] | None = None,
    ) -> "ItemKnowledgeGraph":
        """Build the graph from ``corpus`` metadata and training ``sequences``.

        ``sequences`` defaults to the corpus' full user sequences; pass the
        training sub-sequences to avoid leaking evaluation transitions.
        """
        import networkx as nx

        self._corpus = corpus
        self.graph = nx.Graph()
        for item in range(1, corpus.vocab.size):
            self.graph.add_node(_item_node(item), kind="item")
        for genre in corpus.genre_names:
            self.graph.add_node(_genre_node(genre), kind="genre")

        # has_genre edges
        if corpus.item_genre_matrix is not None:
            for item in range(1, corpus.vocab.size):
                for genre in corpus.item_genres(item):
                    self.graph.add_edge(
                        _item_node(item),
                        _genre_node(genre),
                        relation="has_genre",
                        weight=self.genre_edge_weight,
                    )

        # co_consumed edges
        if sequences is None:
            sequences = corpus.user_sequences
        for sequence in sequences:
            items = [item for item in sequence if item != 0]
            for previous, current in zip(items[:-1], items[1:]):
                if previous == current:
                    continue
                first, second = _item_node(previous), _item_node(current)
                if self.graph.has_edge(first, second):
                    self.graph[first][second]["count"] += 1
                else:
                    self.graph.add_edge(first, second, relation="co_consumed", count=1)
        for _, _, attributes in self.graph.edges(data=True):
            if attributes.get("relation") == "co_consumed":
                count = attributes["count"]
                attributes["weight"] = 1.0 / count if self.count_weights else 1.0
        return self

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def corpus(self) -> SequenceCorpus:
        if self._corpus is None:
            raise ConfigurationError("the knowledge graph has not been built yet")
        return self._corpus

    @property
    def num_item_nodes(self) -> int:
        return sum(1 for _, data in self.graph.nodes(data=True) if data.get("kind") == "item")

    @property
    def num_genre_nodes(self) -> int:
        return sum(1 for _, data in self.graph.nodes(data=True) if data.get("kind") == "genre")

    def item_neighbors(self, item: int) -> list[int]:
        """Items directly co-consumed with ``item``."""
        node = _item_node(item)
        if node not in self.graph:
            return []
        return sorted(
            neighbor[1]
            for neighbor in self.graph.neighbors(node)
            if neighbor[0] == "item"
        )

    def genres_of(self, item: int) -> list[str]:
        """Genre names adjacent to ``item`` in the graph."""
        node = _item_node(item)
        if node not in self.graph:
            return []
        return sorted(
            neighbor[1]
            for neighbor in self.graph.neighbors(node)
            if neighbor[0] == "genre"
        )

    def shared_genres(self, first: int, second: int) -> list[str]:
        """Genres shared by two items."""
        return sorted(set(self.genres_of(first)) & set(self.genres_of(second)))

    # ------------------------------------------------------------------ #
    # Distances
    # ------------------------------------------------------------------ #
    def distance(self, source: int, target: int) -> float:
        """Weighted shortest-path distance between two items (inf if disconnected)."""
        import networkx as nx

        source_node, target_node = _item_node(source), _item_node(target)
        if source_node not in self.graph or target_node not in self.graph:
            return float("inf")
        try:
            return float(
                nx.shortest_path_length(self.graph, source_node, target_node, weight="weight")
            )
        except nx.NetworkXNoPath:
            return float("inf")

    def distances_from(self, target: int) -> dict[int, float]:
        """Distances from every reachable item to ``target`` (item indices only)."""
        import networkx as nx

        target_node = _item_node(target)
        if target_node not in self.graph:
            return {}
        lengths = nx.single_source_dijkstra_path_length(self.graph, target_node, weight="weight")
        return {node[1]: float(length) for node, length in lengths.items() if node[0] == "item"}

    def shortest_item_path(self, source: int, target: int) -> list[int]:
        """Item indices along the shortest path (genre hops are skipped)."""
        import networkx as nx

        source_node, target_node = _item_node(source), _item_node(target)
        if source_node not in self.graph or target_node not in self.graph:
            return []
        try:
            nodes = nx.shortest_path(self.graph, source_node, target_node, weight="weight")
        except nx.NetworkXNoPath:
            return []
        return [node[1] for node in nodes if node[0] == "item"]

    # ------------------------------------------------------------------ #
    # Interest subgraph
    # ------------------------------------------------------------------ #
    def interest_frontier(self, interest_items: Sequence[int]) -> list[int]:
        """Items adjacent to the user's interest subgraph but not yet in it.

        Adjacency is taken over both edge types: an item belongs to the
        frontier if it is co-consumed with an interest item *or* shares a
        genre with one.
        """
        interest = {int(item) for item in interest_items if item != 0}
        frontier: set[int] = set()
        for item in interest:
            node = _item_node(item)
            if node not in self.graph:
                continue
            for neighbor in self.graph.neighbors(node):
                if neighbor[0] == "item":
                    frontier.add(neighbor[1])
                else:
                    for second_hop in self.graph.neighbors(neighbor):
                        if second_hop[0] == "item":
                            frontier.add(second_hop[1])
        return sorted(frontier - interest)

    def popularity(self) -> np.ndarray:
        """Item popularity from the underlying corpus (used for tie-breaking)."""
        return self.corpus.item_popularity()

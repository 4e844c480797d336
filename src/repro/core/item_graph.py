"""Item graph construction from interaction sequences (§III-B).

Every item becomes a vertex; an undirected, equally weighted edge connects
two items whenever they appear consecutively in some training sequence
(following the item-graph practice of Wang et al., KDD 2018).  The graph is
the substrate of the Pf2Inf path-finding framework.  networkx is imported
where a graph is built, so a process that only plans with IRN (every
serving process) never loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["build_item_graph"]


def build_item_graph(
    sequences: Iterable[Sequence[int]],
    count_weights: bool = False,
) -> nx.Graph:
    """Build the undirected item graph from item-index sequences.

    Parameters
    ----------
    sequences:
        Iterable of item-index sequences (e.g. ``split.train`` item tuples).
    count_weights:
        If True, edge attribute ``count`` holds the co-occurrence count and
        ``weight`` its reciprocal (more frequent transitions = shorter
        edges).  If False every edge has ``weight`` 1, matching the paper's
        "assign equal weight to each edge".

    Returns
    -------
    networkx.Graph
        Vertices are item indices; isolated items (never adjacent to another
        item) still appear as nodes so membership checks are uniform.
    """
    import networkx as nx

    graph = nx.Graph()
    for sequence in sequences:
        items = list(sequence)
        graph.add_nodes_from(items)
        for previous, current in zip(items[:-1], items[1:]):
            if previous == current:
                continue
            if graph.has_edge(previous, current):
                graph[previous][current]["count"] += 1
            else:
                graph.add_edge(previous, current, count=1)
    for _, _, attributes in graph.edges(data=True):
        if count_weights:
            attributes["weight"] = 1.0 / attributes["count"]
        else:
            attributes["weight"] = 1.0
    return graph

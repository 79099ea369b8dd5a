"""Connected components by depth-first search.

The graph-search half of :func:`partcat.ops.compose_via_dfs`, the
cross-check of the union-find forest that :func:`partcat.ops.compose`
inlines.
"""

from __future__ import annotations


def components_by_dfs(vertices, edges) -> dict:
    """Map each vertex to a canonical representative of its connected component.

    Runs an iterative depth-first search over the undirected graph given by
    `edges`, in time linear in vertices plus edges. Edge endpoints must be
    listed in `vertices`.
    """
    adjacency = {v: [] for v in vertices}
    for u, v in edges:
        if u not in adjacency or v not in adjacency:
            raise ValueError(f"edge ({u}, {v}) references an unknown vertex")
        adjacency[u].append(v)
        adjacency[v].append(u)
    representative = {}
    for start in adjacency:
        if start in representative:
            continue
        representative[start] = start
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adjacency[u]:
                if w not in representative:
                    representative[w] = start
                    stack.append(w)
    return representative

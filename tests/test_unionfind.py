import random

import pytest

from partcat import components_by_dfs
from partcat.oracles import merge_overlapping


def test_dfs_examples():
    rep = components_by_dfs({1, 2, 3}, [(1, 2)])
    assert rep[1] == rep[2] != rep[3]
    rep = components_by_dfs({1, 2, 3}, [])
    assert len(set(rep.values())) == 3
    with pytest.raises(ValueError):
        components_by_dfs({1}, [(1, 2)])


def test_dfs_matches_merge_overlapping_on_random_graphs():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(1, 1000)
        vertices = list(range(n))
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
        rep = components_by_dfs(vertices, edges)
        dfs_classes = {}
        for v in vertices:
            dfs_classes.setdefault(rep[v], set()).add(v)
        # each vertex as a singleton group, so isolated vertices are classes too
        merged = merge_overlapping([{v} for v in vertices] + [set(e) for e in edges])
        assert sorted(map(sorted, merged)) == sorted(map(sorted, dfs_classes.values()))

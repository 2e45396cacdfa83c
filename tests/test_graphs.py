import math
from itertools import combinations

import networkx as nx
import numpy as np
import pytest

from netdiff.graphs import (
    Graph,
    InfiniteGraph,
    adjacency_matrix,
    augmented_truncation,
    ball,
    boundary,
    boundary2,
    cliques,
    complete_graph,
    cycle_graph,
    format_edge_list,
    graph_distance,
    grid_graph,
    is_2cutset,
    parse_edge_list,
    path_graph,
    regular_tree,
    square_graph,
    z_line,
)


def random_graph(rng, n, p):
    verts = list(range(n))
    edges = [(u, v) for u, v in combinations(verts, 2) if rng.random() < p]
    return Graph(verts, edges)


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges())
    return h


# ---------------------------------------------------------------- structure


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph([1, 1], [])
    with pytest.raises(ValueError):
        Graph([1, 2], [(1, 1)])
    with pytest.raises(ValueError):
        Graph([1, 2], [(1, 3)])
    with pytest.raises(ValueError):
        Graph([1, 2], [], root=9)


def test_adjacency_is_symmetric_and_deduplicated():
    g = Graph([1, 2, 3], [(1, 2), (2, 1), (2, 3)])
    assert g.neighbors(2) == (1, 3)
    assert g.neighbors(1) == (2,)
    assert g.has_edge(3, 2) and g.has_edge(2, 3)
    assert len(g.edges()) == 2


def test_neighbor_order_follows_vertex_order():
    g = Graph(["c", "a", "b"], [("b", "a"), ("c", "b")])
    assert g.neighbors("b") == ("c", "a")


def test_adjacency_matrix():
    g = path_graph(3)
    a = adjacency_matrix(g)
    assert np.array_equal(a, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float))


# ---------------------------------------------------------------- boundaries


def test_boundary_examples():
    g = path_graph(5)
    assert boundary(g, {2, 3}) == {1, 4}
    assert boundary2(g, {2, 3}) == {1, 4, 5}
    assert boundary(g, set()) == set()
    assert boundary2(g, set()) == set()


def test_boundary2_of_grid_center():
    g = grid_graph(3, 3)
    rest = set(g.vertices) - {(1, 1)}
    assert boundary2(g, {(1, 1)}) == rest


def test_boundary_bruteforce_matches(rng=None):
    rng = np.random.default_rng(7)
    for _ in range(30):
        g = random_graph(rng, 8, 0.3)
        size = int(rng.integers(1, 4))
        a = set(rng.choice(8, size=size, replace=False).tolist())
        d = {(u, v): graph_distance(g, u, v) for u in g.vertices for v in g.vertices}
        want1 = {v for v in g.vertices if v not in a and min(d[(v, u)] for u in a) == 1}
        want2 = {v for v in g.vertices if v not in a and min(d[(v, u)] for u in a) in (1, 2)}
        assert boundary(g, a) == want1
        assert boundary2(g, a) == want2
        # the two-pass definition: the boundary of a and its first boundary
        assert boundary2(g, a) == boundary(g, a) | boundary(g, a | boundary(g, a))


def test_boundary_unknown_vertex():
    with pytest.raises(ValueError):
        boundary(path_graph(3), {99})


# ---------------------------------------------------------------- distances


def test_graph_distance_basics():
    g = path_graph(5)
    assert graph_distance(g, 1, 1) == 0
    assert graph_distance(g, 1, 5) == 4
    h = Graph([1, 2, 3], [(1, 2)])
    assert graph_distance(h, 1, 3) == math.inf


def test_graph_distance_against_networkx():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_graph(rng, 9, 0.25)
        h = to_nx(g)
        lengths = dict(nx.all_pairs_shortest_path_length(h))
        for u in g.vertices:
            for v in g.vertices:
                want = lengths.get(u, {}).get(v, math.inf)
                assert graph_distance(g, u, v) == want


# ---------------------------------------------------------------- square graph


def test_square_graph_is_distance_one_or_two():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_graph(rng, 8, 0.25)
        sq = square_graph(g)
        for u, v in combinations(g.vertices, 2):
            want = graph_distance(g, u, v) in (1, 2)
            assert sq.has_edge(u, v) == want


def test_square_graph_keeps_order_and_root():
    g = path_graph(4, root=2)
    sq = square_graph(g)
    assert sq.vertices == g.vertices
    assert sq.root == 2
    assert square_graph(g) is sq


# ---------------------------------------------------------------- cliques


def bruteforce_diameter_sets(g, order, max_size=None):
    out = []
    verts = g.vertices
    top = len(verts) if max_size is None else max_size
    for size in range(1, top + 1):
        for sub in combinations(verts, size):
            if all(graph_distance(g, u, v) <= order for u, v in combinations(sub, 2)):
                out.append(frozenset(sub))
    return out


def test_clique_counts_from_examples():
    assert len(cliques(path_graph(5), 2)) == 15
    assert len(cliques(complete_graph(3), 1)) == 7


def test_cliques_match_bruteforce():
    rng = np.random.default_rng(19)
    for _ in range(15):
        g = random_graph(rng, 7, 0.3)
        for order in (1, 2):
            assert set(cliques(g, order)) == set(bruteforce_diameter_sets(g, order))


def test_cliques_sorted_and_exclude_empty():
    g = path_graph(4)
    cs = cliques(g, 1)
    assert frozenset() not in cs
    sizes = [len(c) for c in cs]
    assert sizes == sorted(sizes)
    singles = [c for c in cs if len(c) == 1]
    assert singles == [frozenset({v}) for v in g.vertices]


def test_cliques_order2_equals_square_order1():
    rng = np.random.default_rng(23)
    for _ in range(10):
        g = random_graph(rng, 7, 0.35)
        assert cliques(g, 2) == cliques(square_graph(g), 1)


def test_cliques_bad_order():
    with pytest.raises(ValueError):
        cliques(path_graph(3), 3)


# ---------------------------------------------------------------- balls, truncations


def test_ball_on_z_line():
    g = ball(z_line(), 3)
    assert set(g.vertices) == set(range(-3, 4))
    assert g.edge_set() == {frozenset((i, i + 1)) for i in range(-3, 3)}
    assert g.root == 0


def test_ball_requires_root():
    with pytest.raises(ValueError):
        ball(path_graph(5), 2)
    got = ball(path_graph(5), 1, root=3)
    assert set(got.vertices) == {2, 3, 4}


def test_augmented_truncation_z_line_example():
    t = augmented_truncation(z_line(), 4)
    assert set(t.vertices) == set(range(-4, 5))
    shell = {-4, -3, 3, 4}
    added = t.edge_set() - {frozenset((i, i + 1)) for i in range(-4, 4)}
    assert added == {
        frozenset((-4, 3)),
        frozenset((-4, 4)),
        frozenset((-3, 3)),
        frozenset((-3, 4)),
    }
    for u, v in combinations(shell, 2):
        assert t.has_edge(u, v)


def test_augmented_truncation_p9_example():
    g = path_graph(9, root=5)
    t = augmented_truncation(g, 4)
    assert set(t.vertices) == set(range(1, 10))
    added = t.edge_set() - g.edge_set()
    assert added == {
        frozenset((1, 8)),
        frozenset((1, 9)),
        frozenset((2, 8)),
        frozenset((2, 9)),
    }


def test_augmented_truncation_level_floor():
    with pytest.raises(ValueError):
        augmented_truncation(path_graph(9, root=5), 3)


def random_tree(rng, n, root=0):
    verts = list(range(n))
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    return Graph(verts, edges, root=root)


def test_truncation_preserves_second_boundaries_inside():
    # second boundaries of sets within radius n-3 agree between g and its
    # augmented truncation
    rng = np.random.default_rng(41)
    for _ in range(25):
        g = random_tree(rng, 16)
        n = int(rng.integers(4, 7))
        t = augmented_truncation(g, n)
        inner = [v for v in g.vertices if graph_distance(g, g.root, v) <= n - 3]
        if not inner:
            continue
        size = int(rng.integers(1, min(3, len(inner)) + 1))
        a = set(rng.choice(inner, size=size, replace=False).tolist())
        assert boundary2(t, a) == boundary2(g, a)


def test_truncation_shrinks_distances_and_keeps_cliques():
    rng = np.random.default_rng(43)
    for _ in range(15):
        g = random_tree(rng, 14)
        t = augmented_truncation(g, 4)
        for u in t.vertices:
            for v in t.vertices:
                assert graph_distance(t, u, v) <= graph_distance(g, u, v)
        inside = set(t.vertices)
        for k in cliques(g, 2):
            if k <= inside:
                assert all(
                    graph_distance(t, u, v) <= 2 for u, v in combinations(k, 2)
                )


# ---------------------------------------------------------------- 2-cutsets


def test_2cutset_examples():
    assert is_2cutset(path_graph(5), {1}, {4, 5}, {2, 3}) is True
    assert is_2cutset(cycle_graph(4), {1}, {3}, {2, 4}) is False


def test_2cutset_requires_disjoint_nonempty():
    g = path_graph(5)
    with pytest.raises(ValueError):
        is_2cutset(g, set(), {3}, {2})
    with pytest.raises(ValueError):
        is_2cutset(g, {1}, {1}, {2})


def all_paths_hit_consecutive(g, sa, sb, ss):
    """The exhaustive reference for is_2cutset: a DFS over simple paths from each
    vertex of a, failing on a path that reaches b without crossing an s-s edge."""

    def paths_ok(v, visited, had_pair, v_in_s):
        if v in sb:
            return had_pair
        for w in g.neighbors(v):
            if w in visited:
                continue
            pair = had_pair or (v_in_s and w in ss)
            if not paths_ok(w, visited | {w}, pair, w in ss):
                return False
        return True

    for start in sorted(sa, key=g.index):
        if not paths_ok(start, {start}, False, start in ss):
            return False
    return True


def test_2cutset_methods_agree():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 60:
        g = random_graph(rng, 8, 0.3)
        verts = list(g.vertices)
        rng.shuffle(verts)
        a, b = {verts[0]}, {verts[1]}
        s = set(verts[2 : 2 + int(rng.integers(0, 4))])
        via_paths = all_paths_hit_consecutive(g, a, b, s)
        via_square = is_2cutset(g, a, b, s)
        assert via_paths == via_square
        checked += 1


def test_2cutset_disconnected_pair_is_vacuous():
    g = Graph([1, 2, 3, 4], [(1, 2), (3, 4)])
    assert is_2cutset(g, {1}, {3}, set()) is True


# ---------------------------------------------------------------- edge-list io


def test_edge_list_round_trip():
    g = Graph(["a", "b", "c", "lonely"], [("a", "b"), ("b", "c")], root="b")
    back = parse_edge_list(format_edge_list(g))
    assert back == g


def test_edge_list_parsing_details():
    text = """
    # a comment
    root 2
    1 2   # trailing comment
    2 3
    vertex 9
    """
    g = parse_edge_list(text)
    assert set(g.vertices) == {"1", "2", "3", "9"}
    assert g.root == "2"
    assert g.degree("9") == 0
    assert g.has_edge("1", "2")


def test_edge_list_rejects_malformed():
    with pytest.raises(ValueError):
        parse_edge_list("1 2 3\n")
    with pytest.raises(ValueError):
        parse_edge_list("root 1\nroot 2\n1 2\n")


def test_edge_list_round_trip_random():
    rng = np.random.default_rng(17)
    for _ in range(20):
        g0 = random_graph(rng, 9, 0.25)
        g = Graph([str(v) for v in g0.vertices], [(str(u), str(v)) for u, v in g0.edges()])
        assert parse_edge_list(format_edge_list(g)) == g


# ---------------------------------------------------------------- generators


def test_generator_shapes():
    assert len(path_graph(5).edges()) == 4
    assert len(cycle_graph(6).edges()) == 6
    assert grid_graph(3, 3).degree((1, 1)) == 4
    t = regular_tree(3, 2)
    assert len(t) == 10  # 1 + 3 + 6
    assert t.degree(0) == 3
    assert all(t.degree(v) == 3 for v in t.vertices if 1 <= v <= 3)


def test_infinite_graph_symmetry_check():
    bad = InfiniteGraph(lambda v: (v + 1,), 0)
    with pytest.raises(ValueError):
        ball(bad, 2)

import json
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgedrs import (
    DisconnectedError,
    DuplicateEdgeError,
    EdgeNotInGraphError,
    EmptyEdgeSetError,
    Graph,
    GraphError,
    LoopEdgeError,
    VertexOutOfRangeError,
    canonical_edge,
    from_spec,
    graph_from_json_dict,
    graph_to_dot,
    graph_to_json_dict,
    line_graph,
    line_graph_to_dot,
    make_cycle,
    make_prism,
    make_sunlet,
)

import edgedrs.core as core

from conftest import (
    connected_graphs,
    frontier_bfs,
    naive_line_graph_edges,
    ring_rotation,
    rotation_graphs,
)


def test_build_triangle():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.order == 3
    assert g.size == 3
    assert g.edges == ((0, 1), (0, 2), (1, 2))


def test_build_single_edge():
    g = Graph(2, [(0, 1)])
    assert (g.order, g.size) == (2, 1)


def test_canonicalization_sorts_endpoints_and_edges():
    g = Graph(4, [(3, 2), (1, 0), (2, 0)])
    assert g.edges == ((0, 1), (0, 2), (2, 3))
    assert g.edge_index((3, 2)) == 2


def test_rejects_loop():
    with pytest.raises(LoopEdgeError):
        Graph(3, [(1, 1)])
    with pytest.raises(LoopEdgeError):
        canonical_edge(2, 2)


def test_rejects_duplicate_edge():
    with pytest.raises(DuplicateEdgeError):
        Graph(3, [(0, 1), (1, 0)])


def test_rejects_out_of_range_vertex():
    with pytest.raises(VertexOutOfRangeError):
        Graph(3, [(0, 3)])
    with pytest.raises(VertexOutOfRangeError):
        Graph(3, [(-1, 1)])


def test_disconnected_rejected_in_metric_mode():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedError):
        g.distance_matrix
    with pytest.raises(DisconnectedError):
        g.line_distance_matrix


def test_adjacency_symmetric_and_loop_free():
    g = make_prism(7).graph
    for v in range(g.order):
        assert v not in g.adjacency[v]
        for w in g.adjacency[v]:
            assert v in g.adjacency[w]


# ---------------------------------------------------------------------------
# line graphs
# ---------------------------------------------------------------------------

def test_line_graph_of_triangle_is_triangle():
    line = line_graph(Graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert line.order == 3
    assert line.edges == ((0, 1), (0, 2), (1, 2))


@pytest.mark.parametrize("n", [4, 5, 8])
def test_line_graph_of_cycle_is_cycle(n):
    line = line_graph(make_cycle(n).graph)
    assert line.order == n
    assert line.size == n
    assert all(len(line.adjacency[v]) == 2 for v in range(n))
    assert len(frontier_bfs(line.adjacency, 0)) == n


def test_line_graph_size_of_sunlet_8():
    g = make_sunlet(8).graph
    line = line_graph(g)
    assert line.order == 16
    # independent count: sum over vertices of C(deg, 2)
    expected = sum(
        len(g.adjacency[v]) * (len(g.adjacency[v]) - 1) // 2 for v in range(g.order)
    )
    assert expected == 24
    assert line.size == expected


def test_line_graph_rejects_edgeless():
    with pytest.raises(EmptyEdgeSetError):
        line_graph(Graph(3, []))


@pytest.mark.parametrize("make", [make_cycle, make_sunlet, make_prism])
@pytest.mark.parametrize("n", [3, 5, 8])
def test_line_graph_degree_identity(make, n):
    g = make(n).graph
    line = line_graph(g)
    for i, (u, v) in enumerate(g.edges):
        assert len(line.adjacency[i]) == len(g.adjacency[u]) + len(g.adjacency[v]) - 2


@settings(max_examples=60)
@given(connected_graphs(max_order=10))
def test_line_graph_matches_pairwise_construction(g):
    if not g.edges:
        return
    assert set(line_graph(g).edges) == naive_line_graph_edges(g.edges)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def test_path_distance():
    g = Graph(3, [(0, 1), (1, 2)])
    assert g.distance_matrix[0][2] == 2


def test_triangle_distances_all_one():
    dm = Graph(3, [(0, 1), (1, 2), (0, 2)]).distance_matrix
    for i in range(3):
        for j in range(3):
            assert dm[i][j] == (0 if i == j else 1)


def edge_distance(g, f, h):
    """Distance between two edges of ``g``, read off its line graph's matrix."""
    return g.line_distance_matrix[g.edge_index(f)][g.edge_index(h)]


def test_sunlet8_line_distance_e0_e4():
    s = make_sunlet(8)
    assert edge_distance(s.graph, s.edge_of("e0"), s.edge_of("e4")) == 4


def test_edge_distance_self_is_zero():
    g = make_prism(5).graph
    for e in g.edges:
        assert edge_distance(g, e, e) == 0


def test_prism6_edge_distance_f0_g0():
    p = make_prism(6)
    assert edge_distance(p.graph, p.edge_of("f0"), p.edge_of("g0")) == 1


def test_sunlet8_edge_distance_e0_f3():
    s = make_sunlet(8)
    assert edge_distance(s.graph, s.edge_of("e0"), s.edge_of("f3")) == 4


def test_edge_distance_unknown_edge():
    g = make_cycle(5).graph
    with pytest.raises(EdgeNotInGraphError):
        edge_distance(g, (0, 2), (0, 1))


@settings(max_examples=80, deadline=None)
@given(connected_graphs(max_order=12))
def test_edge_distance_matches_independent_bfs(g):
    if g.size < 1:
        return
    line = g.line_graph
    for src in range(min(line.order, 6)):
        oracle = frontier_bfs(line.adjacency, src)
        for j in range(line.order):
            assert g.line_distance_matrix[src][j] == oracle[j]


@settings(max_examples=100, deadline=None)
@given(connected_graphs(max_order=40))
def test_distance_matrix_axioms(g):
    dm = g.distance_matrix
    n = dm.n
    for i in range(n):
        assert dm[i][i] == 0
        for j in range(i + 1, n):
            assert dm[i][j] == dm[j][i]
            assert dm[i][j] >= 1
    for i in range(n):
        row_i = dm[i]
        for j in range(n):
            dij = row_i[j]
            row_j = dm[j]
            for k in range(n):
                assert row_i[k] <= dij + row_j[k]


# ---------------------------------------------------------------------------
# rows filled by the automorphisms, one BFS per orbit
# ---------------------------------------------------------------------------

def assert_matrices_are_bfs(g):
    """The vertex and line matrices of ``g`` equal the frontier-BFS oracle."""
    for h in [g, g.line_graph] if g.size else [g]:
        for src, row in enumerate(h.distance_matrix.rows):
            oracle = frontier_bfs(h.adjacency, src)
            assert row == tuple(oracle[j] for j in range(h.order))


@pytest.mark.parametrize(
    "spec",
    [f"cycle:{n}" for n in (3, 4, 5, 8, 31, 60)]
    + [f"sunlet:{n}" for n in (3, 4, 5, 6, 7, 30)]
    + [f"prism:{n}" for n in (3, 4, 5, 7, 12, 20)]
    + [f"gp:{n}:{k}" for n in range(5, 11) for k in range(1, (n + 1) // 2)]
    + ["gp:16:5", "gp:19:8", "gp:20:3", "path:7"],
)
def test_family_matrices_equal_independent_bfs(spec):
    assert_matrices_are_bfs(from_spec(spec).graph)


@settings(max_examples=60, deadline=None)
@given(rotation_graphs())
def test_rotation_graph_matrices_equal_independent_bfs(g):
    assert_matrices_are_bfs(g)


def counting_bfs(monkeypatch):
    """Record the source of every ``_bfs_row`` call from now on."""
    sources = []
    original = core._bfs_row

    def counting(adjacency, source):
        sources.append(source)
        return original(adjacency, source)

    monkeypatch.setattr(core, "_bfs_row", counting)
    return sources


@pytest.mark.parametrize("spec,orbits", [("sunlet:200", 2), ("prism:150", 3), ("gp:150:7", 3)])
def test_one_bfs_per_orbit_of_the_line_graph(monkeypatch, spec, orbits):
    g = from_spec(spec).graph
    sources = counting_bfs(monkeypatch)
    dm = g.line_distance_matrix
    assert len(sources) == orbits and tuple(sources) == dm.orbit_representatives()


def test_a_file_graph_runs_one_bfs_per_element(monkeypatch, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(make_prism(9).to_json_dict()))
    g = from_spec(f"file:{path}").graph
    sources = counting_bfs(monkeypatch)
    g.distance_matrix
    assert sources == list(range(g.order))
    del sources[:]
    assert g.line_distance_matrix.orbit_representatives() == tuple(range(g.size))
    assert sources == list(range(g.size))


TWO_TRIANGLES = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]


@pytest.mark.parametrize(
    "generator",
    [(1, 2, 0, 4, 5, 3),  # rotates each triangle: two orbits
     (3, 4, 5, 1, 2, 0)],  # also swaps them: one orbit, so one BFS
)
def test_a_disconnected_graph_with_automorphisms_raises(generator):
    g = Graph(6, TWO_TRIANGLES, [generator])
    with pytest.raises(DisconnectedError):
        g.distance_matrix
    with pytest.raises(DisconnectedError):
        g.line_distance_matrix


@pytest.mark.parametrize(
    "permutation", [(1, 0, 2, 3), (0, 0, 1, 2), (1, 2, 3, 0, 4)],
)
def test_a_bad_generator_raises_before_any_bfs(monkeypatch, permutation):
    def no_bfs(*args):
        raise AssertionError("the generators must be checked before the BFS")

    monkeypatch.setattr(core, "_bfs_row", no_bfs)
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [ring_rotation(4, 1), permutation])
    with pytest.raises(GraphError):
        g.distance_matrix


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_json_round_trip_with_labels():
    s = make_sunlet(5)
    data = graph_to_json_dict(s.graph, s.labels)
    g2, labels2 = graph_from_json_dict(data)
    assert g2.edges == s.graph.edges
    assert g2.order == s.graph.order
    assert labels2 == dict(s.labels)


def test_json_round_trip_without_labels():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    g2, labels2 = graph_from_json_dict(graph_to_json_dict(g))
    assert g2.edges == g.edges
    assert labels2 is None


def test_json_rejects_label_for_missing_edge():
    with pytest.raises(GraphError):
        graph_from_json_dict(
            {"order": 3, "edges": [[0, 1]], "labels": {"x": [1, 2]}}
        )


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["order", "edges", "labels"]) | st.text(max_size=3),
        inner,
        max_size=4,
    ),
    max_leaves=16,
)

# close enough to a graph to get past the first checks
GRAPH_LIKE_JSON = st.fixed_dictionaries(
    {
        "order": st.integers(-1, 6) | JSON_VALUES,
        "edges": st.lists(st.lists(st.integers(-1, 6), max_size=3), max_size=6)
        | JSON_VALUES,
    },
    optional={
        "labels": st.dictionaries(
            st.text(max_size=2), st.lists(st.integers(-1, 6), max_size=3) | JSON_VALUES,
            max_size=4,
        )
        | JSON_VALUES,
    },
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES | GRAPH_LIKE_JSON)
def test_graph_from_json_dict_raises_only_graph_error(data):
    try:
        graph_from_json_dict(data)
    except GraphError:
        pass


def test_dot_export():
    s = make_cycle(4)
    dot = graph_to_dot(s.graph, "cycle:4", {e: name for name, e in s.labels.items()})
    assert dot.startswith('graph "cycle:4"')
    assert '0 -- 1 [label="c0"];' in dot
    ldot = line_graph_to_dot(s.graph.line_graph, s.line_label_order())
    assert '"c0" -- "c1";' in ldot


def test_dot_escapes_quotes_and_backslashes():
    g = Graph(3, [(0, 1), (1, 2)])
    names = {(0, 1): 'a"x', (1, 2): "b\\"}
    dot = graph_to_dot(g, 'file:"g".json', names).splitlines()
    assert dot[0] == r'graph "file:\"g\".json" {'
    assert dot[4:6] == [r'  0 -- 1 [label="a\"x"];', r'  1 -- 2 [label="b\\"];']
    ldot = line_graph_to_dot(g.line_graph, [names[e] for e in g.edges], 'L("g")').splitlines()
    assert ldot == [
        r'graph "L(\"g\")" {', r'  "a\"x";', r'  "b\\";', r'  "a\"x" -- "b\\";', "}",
    ]

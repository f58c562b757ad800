from collections import Counter

import pytest

from edgedrs import (
    FamilyParameterError,
    GraphSpecError,
    from_spec,
    load_graph_file,
    make_cycle,
    make_generalized_petersen,
    make_path,
    make_prism,
    make_sunlet,
)

from conftest import cartesian_product, dm_row_multiset, girth


def edist(lg, a, b):
    return lg.graph.line_distance_matrix[lg.line_index(a)][lg.line_index(b)]


def line_partition(lg, base):
    dm = lg.graph.line_distance_matrix
    b = lg.line_index(base)
    fibers = {}
    for label in lg.line_label_order():
        fibers.setdefault(dm[b][lg.line_index(label)], set()).add(label)
    return fibers


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_cycle_basics():
    c = make_cycle(3)
    assert c.graph.edges == ((0, 1), (0, 2), (1, 2))
    c4 = make_cycle(4)
    assert max(max(row) for row in c4.graph.distance_matrix.rows) == 2
    c10 = make_cycle(10)
    assert c10.graph.distance_matrix[0][5] == 5


def test_sunlet_counts_and_degrees():
    s = make_sunlet(4)
    assert s.graph.order == 8
    assert s.graph.size == 8
    degs = Counter(len(s.graph.adjacency[v]) for v in range(8))
    assert degs == {3: 4, 1: 4}


@pytest.mark.parametrize("n", range(3, 12))
def test_sunlet_shape(n):
    s = make_sunlet(n)
    assert s.graph.order == 2 * n and s.graph.size == 2 * n
    assert Counter(len(s.graph.adjacency[v]) for v in range(2 * n)) == {3: n, 1: n}
    assert set(s.labels) == {f"{c}{i}" for c in "ef" for i in range(n)}


@pytest.mark.parametrize("n", range(3, 12))
def test_prism_shape(n):
    p = make_prism(n)
    assert p.graph.order == 2 * n and p.graph.size == 3 * n
    assert all(len(p.graph.adjacency[v]) == 3 for v in range(2 * n))


def test_parameter_bounds():
    for make in (make_cycle, make_sunlet, make_prism):
        with pytest.raises(FamilyParameterError):
            make(2)
    with pytest.raises(FamilyParameterError):
        make_path(1)
    with pytest.raises(FamilyParameterError):
        make_generalized_petersen(6, 3)  # k must stay below n/2
    with pytest.raises(FamilyParameterError):
        make_generalized_petersen(5, 0)


def test_gp_5_2_is_petersen():
    gp = make_generalized_petersen(5, 2)
    assert gp.graph.order == 10
    assert gp.graph.size == 15
    assert all(len(gp.graph.adjacency[v]) == 3 for v in range(10))
    assert girth(gp.graph) == 5


def test_gp_7_2_counts():
    gp = make_generalized_petersen(7, 2)
    assert gp.graph.size == 21
    assert all(len(gp.graph.adjacency[v]) == 3 for v in range(14))


def test_gp_n_1_equals_prism():
    gp = make_generalized_petersen(6, 1)
    pr = make_prism(6)
    assert gp.graph.edges == pr.graph.edges
    assert dm_row_multiset(gp.graph) == dm_row_multiset(pr.graph)


# ---------------------------------------------------------------------------
# labeling pins
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(3, 13))
def test_sunlet_labeling_pins(n):
    s = make_sunlet(n)
    assert edist(s, "e0", "e1") == 1
    for i in range(n):
        assert edist(s, f"e{i}", f"f{i}") == 1


@pytest.mark.parametrize("n", range(3, 13))
def test_prism_labeling_pins(n):
    p = make_prism(n)
    assert edist(p, "f0", "e0") == 1
    assert edist(p, "f0", "g0") == 1


def test_sunlet8_distance_partition():
    fibers = line_partition(make_sunlet(8), "e0")
    assert fibers == {
        0: {"e0"},
        1: {"f0", "e1", "f7", "e7"},
        2: {"f1", "e2", "f6", "e6"},
        3: {"f2", "e3", "f5", "e5"},
        4: {"f3", "f4", "e4"},
    }


def test_sunlet5_distance_class_3():
    assert line_partition(make_sunlet(5), "e0")[3] == {"f2"}


def test_prism6_distance_class_4():
    assert line_partition(make_prism(6), "f0")[4] == {"f3"}


def test_prism7_distance_class_4():
    assert line_partition(make_prism(7), "f0")[4] == {"f3", "e3", "g3", "f4"}


@pytest.mark.parametrize("n", range(4, 21))
def test_sunlet_rotation_symmetry(n):
    s = make_sunlet(n)
    for i in range(n):
        for j in range(n):
            assert edist(s, f"e{i}", f"e{j}") == edist(s, "e0", f"e{abs(j - i)}")


@pytest.mark.parametrize("n", range(6, 21))
def test_prism_rotation_symmetry(n):
    p = make_prism(n)
    for i in range(n):
        for j in range(n):
            assert edist(p, f"f{i}", f"f{j}") == edist(p, "f0", f"f{abs(j - i)}")


def test_labels_cover_edges_bijectively():
    for lg in (make_sunlet(7), make_prism(8), make_generalized_petersen(7, 3)):
        assert len(lg.labels) == lg.graph.size
        assert set(lg.labels.values()) == set(lg.graph.edges)
        for name, e in lg.labels.items():
            assert lg.line_label_order()[lg.graph.edge_index(e)] == name


def test_unknown_label_raises():
    s = make_sunlet(4)
    with pytest.raises(KeyError):
        s.edge_of("g0")
    with pytest.raises(KeyError):
        s.line_index("e9")


# ---------------------------------------------------------------------------
# cartesian products
# ---------------------------------------------------------------------------

def test_p2_square_p2_is_c4():
    prod = cartesian_product(make_path(2).graph, make_path(2).graph)
    assert dm_row_multiset(prod) == dm_row_multiset(make_cycle(4).graph)


def test_c3_square_p2_is_prism3():
    prod = cartesian_product(make_cycle(3).graph, make_path(2).graph)
    assert dm_row_multiset(prod) == dm_row_multiset(make_prism(3).graph)


def test_c6_square_p2_counts():
    prod = cartesian_product(make_cycle(6).graph, make_path(2).graph)
    assert prod.order == 12
    assert prod.size == 18


@pytest.mark.parametrize("n", range(3, 13))
def test_prism_is_cycle_times_p2(n):
    prod = cartesian_product(make_cycle(n).graph, make_path(2).graph)
    assert dm_row_multiset(prod) == dm_row_multiset(make_prism(n).graph)


# ---------------------------------------------------------------------------
# specs and files
# ---------------------------------------------------------------------------

def test_from_spec_families():
    assert from_spec("sunlet:8").family == "sunlet:8"
    assert from_spec("prism:6").graph.size == 18
    assert from_spec("cycle:5").graph.order == 5
    assert from_spec("path:4").graph.size == 3
    assert from_spec("gp:5:2").graph.size == 15


@pytest.mark.parametrize(
    "bad", ["nope", "sunlet", "sunlet:x", "gp:5", "sunlet:2", "gp:6:3", "file:"]
)
def test_from_spec_rejects(bad):
    with pytest.raises(GraphSpecError):
        from_spec(bad)


def test_file_round_trip(tmp_path):
    s = make_sunlet(6)
    path = tmp_path / "s6.json"
    path.write_text(__import__("json").dumps(s.to_json_dict()))
    loaded = load_graph_file(path)
    assert loaded.graph.edges == s.graph.edges
    assert dict(loaded.labels) == dict(s.labels)
    via_spec = from_spec(f"file:{path}")
    assert via_spec.graph.edges == s.graph.edges

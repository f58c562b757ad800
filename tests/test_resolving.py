import random
import sys
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgedrs import (
    DEFAULT_BUDGET,
    DOUBLY_RESOLVING,
    RESOLVING,
    BudgetExceededError,
    DistanceMatrix,
    Graph,
    GraphError,
    SearchResult,
    doubly_resolves,
    edge_metric_dimension,
    from_spec,
    greedy_doubly_resolving,
    is_doubly_resolving,
    is_resolving,
    labeled_set_report,
    labels_doubly_resolve_pair,
    line_graph,
    make_path,
    make_prism,
    make_sunlet,
    metric_dimension,
    min_cardinality_search,
    psi,
    psi_edge,
)

import edgedrs.resolving as resolving
from conftest import (
    combinations_search,
    connected_graphs,
    first_constant_pair,
    first_passing_subset,
    pending_pairs_greedy,
    plain_doubly_resolves,
    plain_resolves,
    powerset_min_size,
    pruned_search_matrices,
    random_connected_graph,
    ring_rotation,
    rotation_graphs,
    search_matrices,
)


K3 = Graph(3, [(0, 1), (1, 2), (0, 2)])


# ---------------------------------------------------------------------------
# representation
# ---------------------------------------------------------------------------

def representation(dm, element, landmarks):
    """Coordinate vector of ``element``: its distance to each landmark in order."""
    return tuple(dm[element][x] for x in landmarks)


def test_representation_zero_at_self():
    dm = K3.distance_matrix
    assert representation(dm, 1, (0, 1, 2)) == (1, 0, 1)


def test_representation_sunlet8_table_row():
    s = make_sunlet(8)
    dm = s.graph.line_distance_matrix
    lm = s.line_indices(("e0", "e1", "e4"))
    assert representation(dm, s.line_index("f3"), lm) == (4, 3, 1)


def test_representation_prism8_table_row():
    p = make_prism(8)
    dm = p.graph.line_distance_matrix
    lm = p.line_indices(("e0", "e3", "f5"))
    assert representation(dm, p.line_index("f0"), lm) == (1, 4, 4)


def test_representation_validates_indices():
    dm = K3.distance_matrix
    with pytest.raises(IndexError):
        is_resolving(dm, (5,))
    with pytest.raises(IndexError):
        is_resolving(dm, (0, -1))
    with pytest.raises(ValueError):
        is_resolving(dm, ())
    with pytest.raises(ValueError):
        is_resolving(dm, (1, 1))


# ---------------------------------------------------------------------------
# is_resolving
# ---------------------------------------------------------------------------

def test_full_set_is_resolving():
    for g in (K3, make_sunlet(5).graph):
        dm = g.distance_matrix
        assert is_resolving(dm, tuple(range(dm.n))).ok


def test_single_landmark_fails_on_triangle():
    report = is_resolving(K3.distance_matrix, (0,))
    assert not report.ok
    assert report.witness == (1, 2)


def test_sunlet4_line_pair_e0_e1_checked_by_brute_force():
    # dim_E(sunlet 4) is 2, but not every 2-set works; recompute from scratch.
    s = make_sunlet(4)
    dm = s.graph.line_distance_matrix
    lm = s.line_indices(("e0", "e1"))
    reps = {}
    for e in range(dm.n):
        reps.setdefault(tuple(dm[e][x] for x in lm), []).append(e)
    collides = any(len(v) > 1 for v in reps.values())
    report = is_resolving(dm, lm)
    assert report.ok == (not collides)
    assert not report.ok  # e2 and f1 share the vector (2, 1)
    u, v = report.witness
    assert tuple(dm[u][x] for x in lm) == tuple(dm[v][x] for x in lm)
    # the search still certifies dimension 2 with some other pair
    best = min_cardinality_search(dm, RESOLVING)
    assert best.cardinality == 2
    assert is_resolving(dm, best.best_set).ok


def test_resolving_witness_is_lexicographically_first():
    # representations wrt a single landmark on a star collide heavily
    star = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    report = is_resolving(star.distance_matrix, (0,))
    assert report.witness == (1, 2)


# ---------------------------------------------------------------------------
# doubly_resolves / is_doubly_resolving
# ---------------------------------------------------------------------------

def test_doubly_resolves_identical_pair_false():
    dm = K3.distance_matrix
    assert not doubly_resolves(dm, 0, 1, 2, 2)


def test_doubly_resolves_landmarks_equal_pair_true():
    dm = make_sunlet(5).graph.distance_matrix
    assert doubly_resolves(dm, 0, 4, 0, 4)


def test_doubly_resolves_requires_distinct_landmarks():
    with pytest.raises(ValueError):
        doubly_resolves(K3.distance_matrix, 1, 1, 0, 2)


def test_sunlet8_antipodal_pair_not_doubly_resolved():
    # pair {e4, e5} is blind to landmark sets {e0, ei} with 4 < i <= 7
    s = make_sunlet(8)
    dm = s.graph.line_distance_matrix
    e = {name: s.line_index(name) for name in s.line_label_order()}
    for i in (5, 6, 7):
        assert not doubly_resolves(dm, e["e0"], e[f"e{i}"], e["e4"], e["e5"])


def test_full_edge_set_is_doubly_resolving():
    for lg in (make_sunlet(5), make_prism(4)):
        dm = lg.graph.line_distance_matrix
        assert is_doubly_resolving(dm, tuple(range(dm.n))).ok


def test_sunlet8_pair_e0_e2_fails_with_confirmed_pair():
    s = make_sunlet(8)
    report = labeled_set_report(s, ("e0", "e2"))
    assert not report.ok
    # the claimed blind pair for this family of sets is {e0, e7}
    assert not labels_doubly_resolve_pair(s, ("e0", "e2"), ("e0", "e7"))
    labels = tuple(map(s.label_of_line_index, report.witness))
    assert not labels_doubly_resolve_pair(s, ("e0", "e2"), labels)


def test_sunlet8_reference_triple_passes():
    assert labeled_set_report(make_sunlet(8), ("e0", "e1", "e4")).ok


def test_sunlet9_reference_triple_passes():
    assert labeled_set_report(make_sunlet(9), ("e0", "e1", "e5")).ok


def test_is_doubly_resolving_needs_two_landmarks():
    with pytest.raises(ValueError):
        is_doubly_resolving(K3.distance_matrix, (0,))


# ---------------------------------------------------------------------------
# exact search
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [5, 8])
def test_path_doubly_resolving_is_the_two_ends(n):
    g = make_path(n).graph
    res = min_cardinality_search(g.distance_matrix, DOUBLY_RESOLVING)
    assert res.cardinality == 2
    assert res.best_set == (0, n - 1)
    res_e = psi_edge(g)
    assert res_e.cardinality == 2
    assert res_e.best_set == (0, n - 2)  # end edges of the path


def test_sunlet6_psi_edge_is_3():
    assert psi_edge(make_sunlet(6).graph).cardinality == 3


def test_prism6_psi_edge_is_3():
    assert psi_edge(make_prism(6).graph).cardinality == 3


def test_edge_metric_dimension_examples():
    assert edge_metric_dimension(make_sunlet(5).graph).cardinality == 3
    assert edge_metric_dimension(make_prism(7).graph).cardinality == 3
    assert psi_edge(make_sunlet(4).graph).cardinality == 3


def test_gp_5_2_edge_invariants():
    # no closed-form value exists for this one; 4 was frozen from an
    # independent exhaustive scan over all subset sizes
    from edgedrs import make_generalized_petersen

    g = make_generalized_petersen(5, 2).graph
    assert edge_metric_dimension(g).cardinality == 4
    assert psi_edge(g).cardinality == 4


def test_psi_requires_enough_elements():
    with pytest.raises(ValueError):
        psi(Graph(1, []))
    with pytest.raises(ValueError):
        psi_edge(Graph(2, [(0, 1)]))


def test_budget_exceeded():
    g = make_prism(8).graph
    with pytest.raises(BudgetExceededError):
        psi_edge(g, budget=10)


def test_budget_error_reports_the_subsets_counted():
    # prism:8 has 24 edges; level 2 is counted whole, as C(24, 2) = 276
    with pytest.raises(BudgetExceededError) as info:
        psi_edge(make_prism(8).graph, budget=5)
    exc = info.value
    assert (exc.budget, exc.cardinality, exc.examined) == (5, 2, comb(24, 2))
    assert str(exc) == "subset budget 5 exhausted while testing 2-subsets"


def test_all_optima_collects_every_optimum():
    dm = make_sunlet(6).graph.line_distance_matrix
    res = min_cardinality_search(dm, DOUBLY_RESOLVING, all_optima=True)
    assert res.all_optima[0] == res.best_set
    for s in res.all_optima:
        assert is_doubly_resolving(dm, s).ok
    # level-wise lexicographic order
    assert list(res.all_optima) == sorted(res.all_optima)
    # recount independently
    expected = sum(
        1
        for c in combinations(range(dm.n), res.cardinality)
        if is_doubly_resolving(dm, c).ok
    )
    assert len(res.all_optima) == expected


def test_search_counts_subsets():
    g = make_path(8).graph
    res = min_cardinality_search(g.distance_matrix, DOUBLY_RESOLVING)
    # pairs (0,1) .. (0,7) are tested in order; the seventh passes
    assert res.subsets_examined == 7


def test_search_result_json_shape():
    s = make_sunlet(6)
    res = psi_edge(s.graph)
    payload = res.to_json_dict(labels=s.line_label_order())
    assert payload["cardinality"] == 3
    assert set(payload) == {"cardinality", "set", "subsets_examined", "elapsed_ms"}
    assert all(isinstance(x, str) for x in payload["set"])
    assert "elapsed_ms" not in res.to_json_dict(include_timing=False)


# ---------------------------------------------------------------------------
# greedy upper bound
# ---------------------------------------------------------------------------

def test_greedy_always_passes_and_bounds_exact():
    rng = random.Random(7)
    for _ in range(25):
        g = random_connected_graph(rng, min_order=3, max_order=10)
        dm = g.distance_matrix
        picked = greedy_doubly_resolving(dm)
        assert is_doubly_resolving(dm, picked).ok
        exact = min_cardinality_search(dm, DOUBLY_RESOLVING).cardinality
        assert len(picked) >= exact


def test_greedy_vs_exact_on_prism8():
    dm = make_prism(8).graph.line_distance_matrix
    picked = greedy_doubly_resolving(dm)
    assert is_doubly_resolving(dm, picked).ok
    exact = min_cardinality_search(dm, DOUBLY_RESOLVING).cardinality
    assert exact == 3
    assert 3 <= len(picked) <= 5
    assert picked == pending_pairs_greedy(dm)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=60)
@given(connected_graphs(max_order=9), st.randoms(use_true_random=False))
def test_doubly_resolving_implies_resolving(g, rng):
    dm = g.distance_matrix
    size = rng.randint(2, dm.n)
    lm = tuple(sorted(rng.sample(range(dm.n), size)))
    if is_doubly_resolving(dm, lm).ok:
        assert is_resolving(dm, lm).ok


@settings(max_examples=50, deadline=None)
@given(connected_graphs(max_order=9), st.randoms(use_true_random=False))
def test_superset_monotonicity(g, rng):
    dm = g.distance_matrix
    # shrink the full set to a random passing set, then regrow a superset
    for check in (is_resolving, is_doubly_resolving):
        minimum = 1 if check is is_resolving else 2
        current = list(range(dm.n))
        for x in rng.sample(range(dm.n), dm.n):
            if len(current) > minimum:
                trial = [y for y in current if y != x]
                if rng.random() < 0.7 and check(dm, trial).ok:
                    current = trial
        extras = [x for x in range(dm.n) if x not in current]
        superset = sorted(current + rng.sample(extras, rng.randint(0, len(extras))))
        assert check(dm, superset).ok


@settings(max_examples=60)
@given(connected_graphs(max_order=9), st.randoms(use_true_random=False))
def test_permutation_invariance(g, rng):
    dm = g.distance_matrix
    size = rng.randint(2, dm.n)
    lm = rng.sample(range(dm.n), size)
    shuffled = lm[:]
    rng.shuffle(shuffled)
    assert is_resolving(dm, lm).ok == is_resolving(dm, shuffled).ok
    assert is_doubly_resolving(dm, lm).ok == is_doubly_resolving(dm, shuffled).ok


@settings(max_examples=60)
@given(connected_graphs(max_order=9), st.randoms(use_true_random=False))
def test_failure_witness_is_valid(g, rng):
    dm = g.distance_matrix
    size = rng.randint(2, dm.n)
    lm = tuple(rng.sample(range(dm.n), size))
    report = is_doubly_resolving(dm, lm)
    if not report.ok:
        u, v = report.witness
        for x, y in combinations(lm, 2):
            assert not doubly_resolves(dm, x, y, u, v)
    rep2 = is_resolving(dm, lm)
    if not rep2.ok:
        u, v = rep2.witness
        assert representation(dm, u, lm) == representation(dm, v, lm)


@settings(max_examples=40, deadline=None)
@given(connected_graphs(min_order=2, max_order=5))
def test_search_agrees_with_powerset_oracle(g):
    if g.size > 8:
        return
    dm = g.distance_matrix
    assert (
        min_cardinality_search(dm, RESOLVING).cardinality
        == powerset_min_size(dm, is_resolving, 1)
    )
    if dm.n >= 2:
        assert (
            min_cardinality_search(dm, DOUBLY_RESOLVING).cardinality
            == powerset_min_size(dm, is_doubly_resolving, 2)
        )


@settings(max_examples=40, deadline=None)
@given(connected_graphs(min_order=2, max_order=7))
def test_best_set_is_minimal(g):
    dm = g.distance_matrix
    res = min_cardinality_search(dm, DOUBLY_RESOLVING)
    if res.cardinality <= 4:
        for smaller in combinations(res.best_set, res.cardinality - 1):
            if len(smaller) >= 2:
                assert not is_doubly_resolving(dm, smaller).ok
    assert is_doubly_resolving(dm, res.best_set).ok


@settings(max_examples=40, deadline=None)
@given(connected_graphs(min_order=2, max_order=7))
def test_dim_at_most_psi(g):
    dim = metric_dimension(g).cardinality
    p = psi(g).cardinality
    assert dim <= p
    assert p >= 2


# ---------------------------------------------------------------------------
# plain-definition oracles on vertex and line matrices
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(search_matrices(), st.randoms(use_true_random=False))
def test_doubly_resolving_matches_pair_scan_oracle(dm, rng):
    lm = rng.sample(range(dm.n), rng.randint(2, dm.n))
    report = is_doubly_resolving(dm, lm)
    witness = first_constant_pair(dm, lm)
    assert report.ok == (witness is None)
    assert report.witness == witness


@settings(max_examples=40, deadline=None)
@given(search_matrices())
def test_search_matches_first_passing_subset_oracle(dm):
    for predicate, passes, minimum in (
        (RESOLVING, plain_resolves, 1),
        (DOUBLY_RESOLVING, plain_doubly_resolves, 2),
    ):
        res = min_cardinality_search(dm, predicate)
        assert (res.best_set, res.subsets_examined) == first_passing_subset(
            dm, passes, minimum
        )


@settings(max_examples=80, deadline=None)
@given(search_matrices())
def test_greedy_matches_pending_pairs_oracle(dm):
    assert greedy_doubly_resolving(dm) == pending_pairs_greedy(dm)


# ---------------------------------------------------------------------------
# the pruned prefix walk against the subset-by-subset loop
# ---------------------------------------------------------------------------

def search_outcome(dm, predicate, **kwargs):
    """:func:`min_cardinality_search` in the form of ``combinations_search``."""
    try:
        res = min_cardinality_search(dm, predicate, **kwargs)
    except BudgetExceededError as exc:
        return ("budget", exc.cardinality)
    except ValueError:
        return None
    return ("found", res.cardinality, res.best_set, res.all_optima, res.subsets_examined)


ORACLE_BUDGET = 6000  # keeps each oracle run to a few thousand subsets


@settings(max_examples=40, deadline=None)
@given(
    pruned_search_matrices(),
    st.sampled_from([(RESOLVING, 1), (DOUBLY_RESOLVING, 2)]),
    st.booleans(),
    st.sampled_from([None, 2, 3]),
)
# the bound is tight: on K3 a class of spread = 2 elements is split by one column
@example(K3.distance_matrix, (RESOLVING, 1), False, None)
# a level above the element count: no set at all
@example(make_path(3).graph.line_distance_matrix, (DOUBLY_RESOLVING, 2), False, 3)
# two optima at level 1, where each first landmark is a whole set
@example(make_path(5).graph.distance_matrix, (RESOLVING, 1), True, None)
def test_search_matches_combinations_oracle(dm, predicate_minimum, all_optima, start_k):
    predicate, minimum = predicate_minimum
    if dm.n < minimum:
        return
    options = {"start_k": start_k, "all_optima": all_optima}
    expected = combinations_search(dm, minimum, budget=ORACLE_BUDGET, **options)
    assert search_outcome(dm, predicate, budget=ORACLE_BUDGET, **options) == expected
    if expected is None or expected[0] == "budget":
        return
    # budgets around the answer's position: the same answer, or a raise at
    # the same cardinality as the subset-by-subset loop
    position = expected[-1]
    for budget in {1, position // 2, position - 1, position, position + 1}:
        if budget >= 1:
            assert search_outcome(
                dm, predicate, budget=budget, **options
            ) == combinations_search(dm, minimum, budget=budget, **options)


def test_pruned_jump_that_crosses_the_budget_raises(monkeypatch):
    # On a star every column splits the leaves into at most diam + 1 = 3
    # classes.  Level 1 is pruned whole (6 elements > 3); at level 2 the
    # centre's column leaves the 5 outer vertices in one class (> 3), so the
    # five subsets (0, x) are one jump: 6 + 5 = 11 > 8 crosses the budget.
    dm = Graph(6, [(0, i) for i in range(1, 6)]).distance_matrix

    def no_leaf_is_tested(*args):
        raise AssertionError("the budget should run out on a pruned jump")

    monkeypatch.setattr(resolving._Walk, "leaves", no_leaf_is_tested)
    with pytest.raises(BudgetExceededError) as info:
        min_cardinality_search(dm, RESOLVING, budget=8)
    assert info.value.cardinality == 2
    assert combinations_search(dm, 1, budget=8) == ("budget", 2)


def test_a_level_deeper_than_the_recursion_limit():
    # the walk keeps its own stack, one frame per landmark of the level
    n = sys.getrecursionlimit() + 100
    dm = DistanceMatrix([[abs(i - j) for j in range(n)] for i in range(n)])
    res = min_cardinality_search(dm, RESOLVING, start_k=n)
    assert (res.best_set, res.subsets_examined) == (tuple(range(n)), 1)


# ---------------------------------------------------------------------------
# the count by formula
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(search_matrices(), st.sampled_from([(RESOLVING, 1), (DOUBLY_RESOLVING, 2)]),
       st.booleans())
def test_subsets_examined_is_the_formula_and_the_plain_walks_count(dm, predicate_minimum,
                                                                   all_optima):
    predicate, minimum = predicate_minimum
    if dm.n < minimum:
        return
    res = min_cardinality_search(dm, predicate, all_optima=all_optima)
    m, k = dm.n, res.cardinality
    below = sum(comb(m, j) for j in range(minimum, k))
    rank = list(combinations(range(m), k)).index(res.best_set)
    assert resolving._lexrank(res.best_set, m) == rank
    assert res.subsets_examined == below + (comb(m, k) if all_optima else rank + 1)
    # the least budget that passes is the count itself, though the answer's
    # level may hold more subsets than that budget leaves
    again = min_cardinality_search(dm, predicate, all_optima=all_optima,
                                   budget=res.subsets_examined)
    assert again == SearchResult(k, res.best_set, res.all_optima, res.subsets_examined,
                                 again.elapsed)
    with pytest.raises(BudgetExceededError) as info:
        min_cardinality_search(dm, predicate, all_optima=all_optima,
                               budget=res.subsets_examined - 1)
    assert info.value.cardinality == k


@pytest.mark.parametrize("n,k", [(1, 1), (5, 1), (5, 3), (7, 7), (9, 4)])
def test_lexrank_counts_every_smaller_subset(n, k):
    for rank, subset in enumerate(combinations(range(n), k)):
        assert resolving._lexrank(subset, n) == rank


# ---------------------------------------------------------------------------
# levels searched by orbits
# ---------------------------------------------------------------------------

def trivial(dm):
    """The same distances with no automorphisms: one orbit per element, so
    the walks visit each level's subsets in the scan's order."""
    return DistanceMatrix(dm.rows)


def assert_symmetric_search_is_plain(dm, predicate, all_optima, budget=10**8):
    """Same outcome with and without the automorphisms, under ``budget``, under
    budgets one below, at and one above the end of each failing level that
    ends within it, and around the answer's ``subsets_examined``.  A budget
    that covers the answer leaves the trivial matrix's outcome as it is (the
    count-formula test checks that), so that search is not run again."""
    def outcome(m, budget):
        return search_outcome(m, predicate, budget=budget, all_optima=all_optima)

    plain = outcome(trivial(dm), budget)
    assert outcome(dm, budget) == plain
    minimum = 1 if predicate == RESOLVING else 2
    found = plain[0] == "found"
    budgets = {plain[-1] - 1, plain[-1], plain[-1] + 1} if found else set()
    level_end = 0
    for k in range(minimum, plain[1]):
        level_end += comb(dm.n, k)
        budgets |= {level_end - 1, level_end, level_end + 1}
    for budget in budgets:
        covered = found and budget >= plain[-1]
        assert outcome(dm, budget) == (plain if covered else outcome(trivial(dm), budget))


FAMILY_MATRICES = [
    (spec, mode)
    for spec in (
        [f"cycle:{n}" for n in (3, 4, 5, 8, 11, 60)]
        + [f"sunlet:{n}" for n in (3, 4, 5, 6, 7, 30)]
        + [f"prism:{n}" for n in (3, 4, 5, 7, 10, 20)]
        + [f"gp:{n}:{k}" for n in range(5, 11) for k in range(1, (n + 1) // 2)]
        + ["gp:16:5", "gp:19:8", "gp:20:3"]
    )
    for mode in ("vertex", "edge")
]


@pytest.mark.parametrize("all_optima", [False, True])
@pytest.mark.parametrize("predicate", [RESOLVING, DOUBLY_RESOLVING])
@pytest.mark.parametrize("spec,mode", FAMILY_MATRICES)
def test_family_search_with_rotation_equals_plain_walk(spec, mode, predicate, all_optima):
    g = from_spec(spec).graph
    dm = g.line_distance_matrix if mode == "edge" else g.distance_matrix
    if all_optima and dm.n > 60:
        return  # with one orbit per element, whole levels are walked, and slowly
    # the budget caps the few searches (vertex psi of sunlets, say) that need
    # more than 10**5 subsets; those must raise at the same level
    assert_symmetric_search_is_plain(dm, predicate, all_optima, budget=50_000)


@settings(max_examples=60, deadline=None)
@given(rotation_graphs(), st.sampled_from([RESOLVING, DOUBLY_RESOLVING]), st.booleans(),
       st.booleans())
def test_rotation_graph_search_equals_plain_walk(g, predicate, edge, all_optima):
    dm = g.line_distance_matrix if edge and g.size >= 2 else g.distance_matrix
    if dm.n < 2:
        return
    # a few drawn graphs need 10**5 subsets or more; the budget caps them
    assert_symmetric_search_is_plain(dm, predicate, all_optima, budget=20_000)


@pytest.mark.parametrize("squared_first", [False, True])
def test_all_optima_are_closed_under_every_generator(squared_first):
    # on the 4-prism the rotation's square alone has orbits of 2, so a
    # closure that skips either generator misses optima
    rotation = ring_rotation(4, 2)
    square = tuple(rotation[x] for x in rotation)
    g = Graph(8, make_prism(4).graph.edges,
              [square, rotation] if squared_first else [rotation, square])
    for dm in (g.distance_matrix, g.line_distance_matrix):
        assert len(dm.generators) == 2
        for predicate in (RESOLVING, DOUBLY_RESOLVING):
            symmetric = min_cardinality_search(dm, predicate, all_optima=True)
            plain = min_cardinality_search(trivial(dm), predicate, all_optima=True)
            assert symmetric.all_optima == plain.all_optima


def record_walks(monkeypatch):
    """(level, first landmark and companions) of each walk from the top."""
    walks = []
    original = resolving._Walk.descend

    def recording(self, columns, members, codes, start, r, prefix, stop):
        if prefix == ():
            walks.append((r, len(columns)))
        return original(self, columns, members, codes, start, r, prefix, stop)

    monkeypatch.setattr(resolving._Walk, "descend", recording)
    return walks


@pytest.mark.parametrize("search,minimum,best_set", [(edge_metric_dimension, 1, (0, 1, 4, 7)),
                                                     (psi_edge, 2, (0, 1, 5, 15))])
def test_each_level_walks_every_orbit_over_the_later_ones(monkeypatch, search, minimum,
                                                          best_set):
    walks = record_walks(monkeypatch)
    res = search(from_spec("gp:12:5").graph)
    # gp:12:5 has 36 edges in 3 rotation orbits of 12.  Level 2 is counted
    # whole; level 3 walks orbit 0 over all 35 others, orbit 1 over orbits
    # 1 and 2, orbit 2 over itself, and fails; at level 4 orbit 0 hits
    assert walks == [(3, 36), (3, 24), (3, 12), (4, 36)]
    assert (res.cardinality, res.best_set) == (4, best_set)
    below = sum(comb(36, j) for j in range(minimum, 4))
    assert res.subsets_examined == below + resolving._lexrank(best_set, 36) + 1


def test_an_optimum_that_avoids_element_0_is_found_from_a_later_orbit(monkeypatch):
    walks = record_walks(monkeypatch)
    g = from_spec("gp:30:7").graph
    # 90 edges in 3 orbits of 30; element 2, a spoke, is the least of orbit
    # 1.  Level 3 fails on all three; at level 4 orbit 0 fails and orbit 1
    # hits, so no walk of orbit 2 follows.  Under the search's own count as
    # budget, level 4's C(90, 4) subsets are more than the budget left, and
    # the level is walked by orbits all the same
    assert g.line_distance_matrix.orbit_representatives() == (0, 2, 60)
    for budget in (DEFAULT_BUDGET, 418_259):
        walks.clear()
        res = psi_edge(g, budget=budget)
        assert (res.cardinality, res.best_set) == (4, (2, 30, 84, 87))
        assert res.subsets_examined == 418_259
        assert walks == [(3, 90), (3, 60), (3, 30), (4, 90), (4, 60)]


@pytest.mark.parametrize(
    "spec,vertex_orbits,edge_orbits",
    [("cycle:7", 1, 1), ("path:5", 5, 4), ("sunlet:6", 2, 2), ("prism:5", 2, 3),
     ("gp:9:2", 2, 3)],
)
def test_orbit_representatives_of_the_families(spec, vertex_orbits, edge_orbits):
    g = from_spec(spec).graph
    for dm, orbits in ((g.distance_matrix, vertex_orbits),
                       (g.line_distance_matrix, edge_orbits)):
        reps = dm.orbit_representatives()
        assert len(reps) == orbits and reps[0] == 0 and list(reps) == sorted(reps)
        # orbits are numbered by least element and closed under the generators
        assert [dm.orbits[r] for r in reps] == list(range(orbits))
        assert all(reps[dm.orbits[x]] <= x for x in range(dm.n))
        assert all(dm.orbits[p[x]] == dm.orbits[x] for p in dm.generators for x in range(dm.n))
        assert trivial(dm).orbit_representatives() == tuple(range(dm.n))
        assert (trivial(dm).orbits, trivial(dm).generators) == (tuple(range(dm.n)), ())


C4 = [(0, 1), (1, 2), (2, 3), (0, 3)]


@pytest.mark.parametrize(
    "permutation",
    [(1, 0, 2, 3),  # swaps adjacent 0, 1: maps edge (1, 2) to the non-edge (0, 2)
     (0, 0, 1, 2),  # not a permutation
     (1, 2, 3, 0, 4)],  # permutes five vertices, not four
)
def test_a_permutation_that_is_not_an_automorphism_raises(permutation):
    good = Graph(4, C4, [ring_rotation(4, 1)])
    assert good.distance_matrix.orbit_representatives() == (0,)
    assert psi(good).cardinality == 3
    g = Graph(4, C4, [ring_rotation(4, 1), permutation])
    with pytest.raises(GraphError):
        psi(g)  # Graph.distance_matrix checks the generators before any BFS
    with pytest.raises(GraphError):
        line_graph(g)

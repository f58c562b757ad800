"""Acceptance suite: one test per shipped guarantee, each printing a
PASS line with the checked statement (run with ``pytest -s`` to see them).
"""

import random
import time
from itertools import combinations

from edgedrs import (
    DOUBLY_RESOLVING,
    RESOLVING,
    doubly_resolves,
    edge_metric_dimension,
    is_doubly_resolving,
    is_resolving,
    line_graph,
    make_cycle,
    make_generalized_petersen,
    make_path,
    make_prism,
    make_sunlet,
    metric_dimension,
    min_cardinality_search,
    psi,
    psi_edge,
    reference_landmarks,
    coordinate_table,
    coordinate_rows_distinct,
    verify_family,
)
from edgedrs.report import two_set_failure_rows

from conftest import random_connected_graph


def _announce(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_01_psi_edge_sunlet():
    started = time.perf_counter()
    for n in range(4, 15):
        result = psi_edge(make_sunlet(n).graph)
        assert result.cardinality == 3, (n, result.cardinality)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"
    _announce(1, f"psi_E(sunlet n)=3 for n in 4..14 by exhaustive search ({elapsed:.2f}s)")


def test_criterion_02_psi_edge_prism():
    started = time.perf_counter()
    for n in range(6, 13):
        result = psi_edge(make_prism(n).graph)
        assert result.cardinality == 3, (n, result.cardinality)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"sweep took {elapsed:.1f}s"
    _announce(2, f"psi_E(prism n)=3 for n in 6..12 by exhaustive search ({elapsed:.2f}s)")


def test_criterion_03_dim_edge_sunlet_parity():
    for n in range(4, 15):
        want = 2 if n % 2 == 0 else 3
        got = edge_metric_dimension(make_sunlet(n).graph).cardinality
        assert got == want, (n, got, want)
    _announce(3, "dim_E(sunlet n)=2 for even n, 3 for odd n, n in 4..14")


def test_criterion_04_dim_edge_prism():
    for n in range(3, 13):
        got = edge_metric_dimension(make_prism(n).graph).cardinality
        assert got == 3, (n, got)
    _announce(4, "dim_E(prism n)=3 for n in 3..12")


def test_criterion_05_even_sunlet_two_sets_all_fail():
    for n in range(4, 15, 2):
        dm = make_sunlet(n).graph.line_distance_matrix
        for pair in combinations(range(dm.n), 2):
            assert not is_doubly_resolving(dm, pair).ok, (n, pair)
    for n in (8, 12):
        lg = make_sunlet(n)
        dm = lg.graph.line_distance_matrix
        rows = two_set_failure_rows(n)
        assert len(rows) == 7
        for name, instances in rows:
            for landmarks, witness in instances:
                lm = lg.line_indices(landmarks)
                assert not is_doubly_resolving(dm, lm).ok, (n, name, landmarks)
                assert not doubly_resolves(dm, *lm, *lg.line_indices(witness)), (
                    n, name, landmarks, witness,
                )
    _announce(
        5,
        "every 2-subset fails for even sunlets in 4..14; all seven parametric "
        "rows fail at n=8,12 with claimed blind pairs confirmed",
    )


def test_criterion_06_reference_triples_pass_and_are_minimal():
    cases = [("sunlet", range(4, 15)), ("prism", range(6, 14))]
    for family, ns in cases:
        make = make_sunlet if family == "sunlet" else make_prism
        for n in ns:
            lg = make(n)
            dm = lg.graph.line_distance_matrix
            landmarks = reference_landmarks(family, n)
            report = is_doubly_resolving(dm, lg.line_indices(landmarks))
            assert report.ok, (family, n, landmarks)
            for sub in combinations(landmarks, 2):
                assert not is_doubly_resolving(dm, lg.line_indices(sub)).ok, (family, n, sub)
    _announce(
        6,
        "the four reference landmark triples pass and every 2-subset of each "
        "fails (sunlet 4..14, prism 6..13)",
    )


def test_criterion_07_closed_form_matches_bfs():
    assert verify_family("sunlet", range(4, 21)) == []
    assert verify_family("prism", range(6, 21)) == []
    _announce(
        7,
        "closed-form edge distances match BFS on every edge pair "
        "(sunlet 4..20, prism 6..20)",
    )


def test_criterion_08_coordinate_tables():
    for family, n in (("sunlet", 8), ("sunlet", 9), ("prism", 8), ("prism", 9)):
        table = coordinate_table(family, n)
        assert table.mismatches == (), (family, n, table.mismatches)
        assert coordinate_rows_distinct(table), (family, n)
    _announce(
        8,
        "coordinate tables match the symbolic templates at n=8,9 for both "
        "families; rows pairwise distinct with no constant-difference pair",
    )


def test_criterion_09_randomized_property_suite():
    cases = 500

    rng = random.Random(90521)
    for _ in range(cases):
        g = random_connected_graph(rng, min_order=2, max_order=40)
        dm = g.distance_matrix
        n = dm.n
        for i in range(n):
            assert dm[i][i] == 0
            row = dm[i]
            for j in range(i + 1, n):
                assert row[j] == dm[j][i] and row[j] >= 1
        for j in range(n):
            row_j = dm[j]
            for i in range(n):
                dij = dm[i][j]
                row_i = dm[i]
                assert all(row_i[k] <= dij + row_j[k] for k in range(n))

    rng = random.Random(90522)
    for _ in range(cases):
        g = random_connected_graph(rng, min_order=2, max_order=12)
        dm = g.distance_matrix
        lm = tuple(rng.sample(range(dm.n), rng.randint(2, dm.n)))
        if is_doubly_resolving(dm, lm).ok:
            assert is_resolving(dm, lm).ok

    rng = random.Random(90523)
    for _ in range(cases):
        g = random_connected_graph(rng, min_order=2, max_order=10)
        dm = g.distance_matrix
        check = is_resolving if rng.random() < 0.5 else is_doubly_resolving
        minimum = 1 if check is is_resolving else 2
        current = list(range(dm.n))
        for x in rng.sample(range(dm.n), dm.n):
            if len(current) > minimum:
                trial = [y for y in current if y != x]
                if check(dm, trial).ok:
                    current = trial
        extras = [x for x in range(dm.n) if x not in current]
        superset = sorted(current + rng.sample(extras, rng.randint(0, len(extras))))
        assert check(dm, superset).ok

    rng = random.Random(90524)
    for _ in range(cases):
        g = random_connected_graph(rng, min_order=3, max_order=12)
        if g.size < 2:
            continue
        ldm = g.line_distance_matrix
        assert is_doubly_resolving(ldm, tuple(range(ldm.n))).ok

    rng = random.Random(90525)
    for _ in range(cases):
        g = random_connected_graph(rng, min_order=2, max_order=7)
        assert metric_dimension(g).cardinality <= psi(g).cardinality

    rng = random.Random(90526)
    for _ in range(cases):
        g = random_connected_graph(rng, min_order=2, max_order=10)
        dm = g.distance_matrix
        lm = tuple(rng.sample(range(dm.n), rng.randint(2, dm.n)))
        report = is_doubly_resolving(dm, lm)
        if not report.ok:
            u, v = report.witness
            for x, y in combinations(lm, 2):
                assert not doubly_resolves(dm, x, y, u, v)
        rep = is_resolving(dm, lm)
        if not rep.ok:
            u, v = rep.witness
            assert [dm[u][x] for x in lm] == [dm[v][x] for x in lm]

    _announce(
        9,
        f"randomized property suite: 6 properties x {cases} cases "
        "(matrix axioms, doubly=>resolving, superset monotonicity, "
        "full edge set, dim<=psi, witness validity)",
    )


def test_criterion_10_edge_versions_match_line_graph_dispatch():
    instances = []
    instances += [make_cycle(n).graph for n in range(3, 11)]
    instances += [make_path(n).graph for n in range(3, 11)]
    instances += [make_sunlet(n).graph for n in range(3, 11)]
    instances += [make_prism(n).graph for n in range(3, 11)]
    instances += [
        make_generalized_petersen(n, k).graph
        for n in range(5, 11)
        for k in range(1, (n - 1) // 2 + 1)
    ]
    for g in instances:
        line = line_graph(g)
        assert (
            edge_metric_dimension(g).cardinality
            == metric_dimension(line).cardinality
        )
        assert (
            psi_edge(g).cardinality
            == min_cardinality_search(line.distance_matrix, DOUBLY_RESOLVING).cardinality
        )
        assert (
            edge_metric_dimension(g).best_set
            == min_cardinality_search(line.distance_matrix, RESOLVING).best_set
        )
    _announce(
        10,
        f"edge versions equal vertex versions of the line graph on "
        f"{len(instances)} family instances up to n=10",
    )

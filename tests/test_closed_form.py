from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgedrs import (
    CoordinateRow,
    CoordinateTable,
    FamilyParameterError,
    InvalidLabelError,
    base_table,
    closed_edge_distance,
    coordinate_rows_distinct,
    coordinate_table,
    make_prism,
    make_sunlet,
    reference_landmarks,
    verify_family,
)
import edgedrs.closed_form as closed_form

from conftest import pairwise_deviations


def bfs_edge_distance(lg, a, b):
    return lg.graph.line_distance_matrix[lg.line_index(a)][lg.line_index(b)]


# ---------------------------------------------------------------------------
# base tables
# ---------------------------------------------------------------------------

def test_base_distance_examples():
    assert base_table("sunlet", 8)["f4"] == 4
    assert base_table("sunlet", 9)["f4"] == 5
    assert base_table("prism", 7)["g3"] == 4


def test_base_table_covers_all_edges():
    assert len(base_table("sunlet", 10)) == 20
    assert len(base_table("prism", 9)) == 27


@pytest.mark.parametrize("family,n", [("sunlet", 3), ("prism", 5), ("prism", 4)])
def test_unsupported_parameters(family, n):
    with pytest.raises(FamilyParameterError):
        base_table(family, n)


def test_unknown_family():
    with pytest.raises(FamilyParameterError):
        base_table("wheel", 8)


@pytest.mark.parametrize("n", range(4, 21))
def test_sunlet_fibers_match_bfs_partition(n):
    lg = make_sunlet(n)
    table = base_table("sunlet", n)
    for label, want in table.items():
        assert bfs_edge_distance(lg, "e0", label) == want
    top = max(table.values())
    k = n // 2
    assert top == (k if n % 2 == 0 else k + 1)


@pytest.mark.parametrize("n", range(6, 21))
def test_prism_fibers_match_bfs_partition(n):
    lg = make_prism(n)
    table = base_table("prism", n)
    for label, want in table.items():
        assert bfs_edge_distance(lg, "f0", label) == want
    assert max(table.values()) == n // 2 + 1


# ---------------------------------------------------------------------------
# closed-form distances
# ---------------------------------------------------------------------------

def test_self_distance_is_zero():
    for label in ("e0", "e3", "f0", "f5"):
        assert closed_edge_distance("sunlet", 8, label, label) == 0
    for label in ("e2", "f4", "g7"):
        assert closed_edge_distance("prism", 8, label, label) == 0


def test_sunlet8_f0_f4():
    assert closed_edge_distance("sunlet", 8, "f0", "f4") == 5
    s = make_sunlet(8)
    assert bfs_edge_distance(s, "f0", "f4") == 5


def test_prism8_e0_g0():
    assert closed_edge_distance("prism", 8, "e0", "g0") == 2
    p = make_prism(8)
    assert bfs_edge_distance(p, "e0", "g0") == 2


def test_invalid_labels():
    with pytest.raises(InvalidLabelError):
        closed_edge_distance("sunlet", 8, "g0", "e0")
    with pytest.raises(InvalidLabelError):
        closed_edge_distance("prism", 8, "x0", "e0")
    with pytest.raises(InvalidLabelError):
        closed_form.parse_label("e")


@pytest.mark.parametrize("family,ns", [("sunlet", (4, 7, 12, 15)), ("prism", (6, 9, 14, 17))])
def test_symmetry(family, ns):
    make = make_sunlet if family == "sunlet" else make_prism
    for n in ns:
        labels = sorted(make(n).line_label_order())
        for a, b in combinations_with_replacement(labels, 2):
            assert closed_edge_distance(family, n, a, b) == closed_edge_distance(
                family, n, b, a
            )


@st.composite
def label_pairs(draw):
    """A family, a size, and label pairs with indices below 3n (aliases mod n).

    The cyclic offset of a pair is drawn so that the boundary offsets
    around n/2, where the rule's corrections change sign, come up often.
    """
    family = draw(st.sampled_from(["sunlet", "prism"]))
    n = draw(st.integers(4 if family == "sunlet" else 6, 60))
    cls = st.sampled_from("ef" if family == "sunlet" else "efg")
    offset = st.sampled_from([0, 1, n // 2 - 1, n // 2, (n + 1) // 2, n - 1])
    pairs = []
    for _ in range(draw(st.integers(1, 20))):
        i = draw(st.integers(0, n - 1))
        j = (i + draw(offset | st.integers(0, n - 1))) % n
        qa, qb = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        pairs.append((f"{draw(cls)}{i + qa * n}", f"{draw(cls)}{j + qb * n}"))
    return family, n, pairs


@settings(max_examples=80, deadline=None)
@given(label_pairs())
def test_closed_form_matches_bfs_at_any_index(case):
    family, n, pairs = case
    lg = closed_form.make_family(family, n)
    dm = lg.graph.line_distance_matrix

    def index(label):
        return lg.line_index(f"{label[0]}{int(label[1:]) % n}")

    for a, b in pairs:
        want = dm[index(a)][index(b)]
        assert closed_edge_distance(family, n, a, b) == want, (a, b)
        assert closed_edge_distance(family, n, b, a) == want, (b, a)


def test_verify_family_sunlet_clean():
    assert verify_family("sunlet", range(4, 21)) == []


def test_verify_family_prism_clean():
    assert verify_family("prism", range(6, 21)) == []


# rule mutations, each a wrapper around the real ``_rule``
MUTATIONS = {
    "clean": lambda ca, cb, offset: 0,
    "offset 3": lambda ca, cb, offset: abs(offset) == 3,
    "mixed, i > j": lambda ca, cb, offset: ca != cb and offset < 0,
    "e/g": lambda ca, cb, offset: -({ca, cb} == {"e", "g"}),
}


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("family,ns", [("sunlet", range(4, 17)), ("prism", range(6, 17))])
def test_verify_family_equals_the_pairwise_oracle(monkeypatch, mutation, family, ns):
    real, shift = closed_form._rule, MUTATIONS[mutation]

    def mutated(family, n, base, ca, cb, offset):
        return real(family, n, base, ca, cb, offset) + shift(ca, cb, offset)

    monkeypatch.setattr(closed_form, "_rule", mutated)
    want = pairwise_deviations(family, ns)
    assert verify_family(family, ns) == want
    # every mutation but the e/g one on the sunlet (which has no g) shows
    assert bool(want) == (mutation != "clean" and (mutation, family) != ("e/g", "sunlet"))


def test_verify_family_detects_corruption(monkeypatch):
    # harness self-test: push one base entry off by one and expect the
    # deviation report to name pairs involving that entry
    real = closed_form.base_table

    def corrupted(family, n):
        table = dict(real(family, n))
        if family == "sunlet" and n == 8:
            table["f3"] += 1
        return table

    monkeypatch.setattr(closed_form, "base_table", corrupted)
    deviations = verify_family("sunlet", [8])
    assert deviations
    assert all(dev.n == 8 for dev in deviations)
    assert any("f3" in dev.pair for dev in deviations)
    for dev in deviations:
        assert dev.formula_value != dev.bfs_value


# ---------------------------------------------------------------------------
# coordinate tables
# ---------------------------------------------------------------------------

def test_sunlet8_e0_row():
    table = coordinate_table("sunlet", 8)
    row = next(r for r in table.rows if r.label == "e0")
    assert row.computed == (0, 1, 4)
    assert row.matches


def test_prism8_f4_row():
    table = coordinate_table("prism", 8)
    row = next(r for r in table.rows if r.label == "f4")
    assert row.computed == (4, 1, 2)


def test_prism9_e4_row():
    table = coordinate_table("prism", 9)
    row = next(r for r in table.rows if r.label == "e4")
    assert row.computed == (4, 0, 3)


def test_reference_landmarks():
    assert reference_landmarks("sunlet", 8) == ("e0", "e1", "e4")
    assert reference_landmarks("sunlet", 9) == ("e0", "e1", "e5")
    assert reference_landmarks("prism", 8) == ("e0", "e3", "f5")
    assert reference_landmarks("prism", 9) == ("e0", "e4", "g6")


@pytest.mark.parametrize("family,rng", [("sunlet", range(4, 21)), ("prism", range(6, 21))])
def test_templates_match_and_rows_distinct(family, rng):
    for n in rng:
        table = coordinate_table(family, n)
        assert table.mismatches == (), (family, n)
        assert coordinate_rows_distinct(table), (family, n)


def _table(*vectors):
    rows = tuple(CoordinateRow(0, f"e{i}", v, v) for i, v in enumerate(vectors))
    return CoordinateTable("sunlet", 4, ("e0", "e1", "e2"), rows)


@pytest.mark.parametrize(
    "last,distinct",
    [((1, 2, 3), False), ((3, 4, 5), False), ((-1, 0, 1), False), ((1, 2, 4), True)],
)
def test_coordinate_rows_distinct_rejects_equal_and_shifted_rows(last, distinct):
    assert coordinate_rows_distinct(_table((1, 2, 3), (0, 0, 0), last)) is distinct

"""Shared oracles and random-graph strategies.

The oracles here deliberately use different algorithms and enumeration
orders than the library so that agreement is meaningful: frontier-set BFS
instead of queue BFS, pairwise endpoint tests instead of incidence lists,
descending bitmask powerset scans instead of level-wise lexicographic
search, landmark-pair scans instead of injectivity of a shifted map, an
explicit pending-pairs dict instead of class partitions for the greedy, a
subset-by-subset ``combinations`` loop instead of the pruned prefix walk,
the prism as a Cartesian product instead of the family generator, and one
closed-form evaluation per label pair instead of a table per offset.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

from hypothesis import strategies as st

from edgedrs import DisconnectedError, Deviation, Graph, closed_edge_distance
from edgedrs.closed_form import make_family


def frontier_bfs(adjacency, source: int) -> dict[int, int]:
    """Layer-by-layer BFS over frontier sets; returns reached: distance."""
    dist = {source: 0}
    frontier = {source}
    d = 0
    while frontier:
        d += 1
        nxt = set()
        for u in frontier:
            for w in adjacency[u]:
                if w not in dist:
                    dist[w] = d
                    nxt.add(w)
        frontier = nxt
    return dist


def naive_line_graph_edges(edges) -> set[tuple[int, int]]:
    """Line-graph adjacencies by testing every edge pair for a shared endpoint."""
    out = set()
    for i, j in combinations(range(len(edges)), 2):
        if set(edges[i]) & set(edges[j]):
            out.add((i, j))
    return out


def dm_row_multiset(g: Graph):
    """Canonical multiset of sorted distance rows; equal for isomorphic graphs."""
    return sorted(tuple(sorted(row)) for row in g.distance_matrix.rows)


def cartesian_product(a: Graph, b: Graph) -> Graph:
    """Cartesian product: adjacent iff equal in one factor, adjacent in the other.

    An independent construction of the prism (C_n square P_2) for the
    family cross-checks.
    """
    if any(len(frontier_bfs(f.adjacency, 0)) < f.order for f in (a, b)):
        raise DisconnectedError("cartesian product factors must be connected")

    def idx(i: int, j: int) -> int:
        return i * b.order + j

    edges = []
    for i in range(a.order):
        for u, v in b.edges:
            edges.append((idx(i, u), idx(i, v)))
    for u, v in a.edges:
        for j in range(b.order):
            edges.append((idx(u, j), idx(v, j)))
    return Graph(a.order * b.order, edges)


def girth(g: Graph) -> int:
    """Length of a shortest cycle: per edge, shortest path avoiding that edge."""
    best = None
    for u, v in g.edges:
        dist = {u: 0}
        frontier = {u}
        d = 0
        while frontier and v not in dist:
            d += 1
            nxt = set()
            for a in frontier:
                for b in g.adjacency[a]:
                    if (a, b) in ((u, v), (v, u)):
                        continue
                    if b not in dist:
                        dist[b] = d
                        nxt.add(b)
            frontier = nxt
        if v in dist and (best is None or dist[v] + 1 < best):
            best = dist[v] + 1
    assert best is not None, "acyclic graph has no girth"
    return best


def pairwise_deviations(family: str, ns) -> list[Deviation]:
    """Every pair ``a <= b`` of sorted labels where the rule disagrees with BFS.

    One ``closed_edge_distance`` call per unordered pair (diagonal included),
    in (n, a, b) order: no offset table and no row comparison.
    """
    deviations = []
    for n in sorted(set(ns)):
        lg = make_family(family, n)
        dm = lg.graph.line_distance_matrix
        for a, b in combinations_with_replacement(sorted(lg.line_label_order()), 2):
            got = closed_edge_distance(family, n, a, b)
            want = dm[lg.line_index(a)][lg.line_index(b)]
            if got != want:
                deviations.append(Deviation(family, n, (a, b), got, want))
    return deviations


def powerset_min_size(dm, check, minimum: int) -> int:
    """Smallest passing subset size by scanning all bitmasks in descending order."""
    n = dm.n
    best = None
    for mask in range(2**n - 1, 0, -1):
        subset = tuple(i for i in range(n) if mask >> i & 1)
        if len(subset) < minimum or (best is not None and len(subset) >= best):
            continue
        if check(dm, subset).ok:
            best = len(subset)
    assert best is not None
    return best


def first_constant_pair(dm, landmarks):
    """First pair (u, v) in lexicographic order that no two landmarks tell apart.

    Straight from the definition: landmarks x, y doubly resolve u, v when
    d(u, x) - d(u, y) != d(v, x) - d(v, y).  None when every pair is told apart.
    """
    for u, v in combinations(range(dm.n), 2):
        if all(
            dm[u][x] - dm[u][y] == dm[v][x] - dm[v][y]
            for x, y in combinations(landmarks, 2)
        ):
            return (u, v)
    return None


def plain_resolves(dm, landmarks) -> bool:
    """Every element has its own vector of distances to the landmarks."""
    vectors = [tuple(dm[w][x] for x in landmarks) for w in range(dm.n)]
    return all(a != b for a, b in combinations(vectors, 2))


def plain_doubly_resolves(dm, landmarks) -> bool:
    return first_constant_pair(dm, landmarks) is None


def first_passing_subset(dm, passes, minimum: int):
    """First passing subset in ``itertools.combinations`` order, level by level,
    with its 1-based position in that enumeration."""
    position = 0
    for k in range(minimum, dm.n + 1):
        for subset in combinations(range(dm.n), k):
            position += 1
            if passes(dm, subset):
                return subset, position
    return None


def combinations_search(dm, minimum, start_k=None, budget=10**8, all_optima=False):
    """The exact search as a plain ``itertools.combinations`` loop, level by level.

    ``minimum`` is 1 for resolving and 2 for doubly resolving.  Every subset
    is tested one by one: the budget check comes before each test, and with
    ``all_optima`` the whole level is scanned.  Returns ``("found",
    cardinality, best_set, all_optima or None, subsets_examined)``,
    ``("budget", cardinality)``, or None when no set passes.  The per-subset
    test is injectivity of the (shifted) coordinate map, which the pair-scan
    oracle above checks.
    """
    n = dm.n
    shifted = {}  # first landmark -> shifted columns of every element

    def passes(subset):
        if minimum == 1:
            return len(set(zip(*(dm.rows[x] for x in subset)))) == n
        s1 = subset[0]
        if s1 not in shifted:
            shifted[s1] = [
                tuple(d - d1 for d, d1 in zip(dm.rows[x], dm.rows[s1])) for x in range(n)
            ]
        return len(set(zip(*(shifted[s1][x] for x in subset[1:])))) == n

    examined = 0
    for k in range(max(minimum, start_k or minimum), n + 1):
        hits = []
        for subset in combinations(range(n), k):
            examined += 1
            if examined > budget:
                return ("budget", k)
            if passes(subset):
                if not all_optima:
                    return ("found", k, subset, None, examined)
                hits.append(subset)
        if hits:
            return ("found", k, hits[0], tuple(hits), examined)
    return None


def pending_pairs_greedy(dm) -> tuple[int, ...]:
    """Greedy doubly resolving set over an explicit dict of unresolved pairs.

    Seed element 0; each step adds the element that resolves the most pending
    pairs (ties to the lowest index); then drop single elements while the set
    still doubly resolves.
    """
    n = dm.n
    pairs = list(combinations(range(n), 2))
    chosen = [0]
    # pair -> common difference over chosen landmarks; resolved pairs drop out
    pending = {(u, v): dm[u][0] - dm[v][0] for u, v in pairs}
    while pending:
        best_x, best_gain = -1, 0
        for x in range(n):
            gain = sum(
                1 for (u, v), common in pending.items() if dm[u][x] - dm[v][x] != common
            )
            if gain > best_gain:
                best_x, best_gain = x, gain
        assert best_x >= 0
        chosen.append(best_x)
        pending = {
            (u, v): common
            for (u, v), common in pending.items()
            if dm[u][best_x] - dm[v][best_x] == common
        }
    result = sorted(chosen)
    for x in list(result):
        trial = [y for y in result if y != x]
        if len(trial) >= 2 and plain_doubly_resolves(dm, trial):
            result = trial
    return tuple(result)


def random_connected_graph(rng, min_order=2, max_order=12) -> Graph:
    """Random spanning tree plus extra edges; connected by construction."""
    n = rng.randint(min_order, max_order)
    edges = {(rng.randint(0, v - 1), v) for v in range(1, n)}
    for _ in range(rng.randint(0, n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, edges)


@st.composite
def connected_graphs(draw, min_order=2, max_order=12):
    n = draw(st.integers(min_order, max_order))
    edges = set()
    for v in range(1, n):
        edges.add((draw(st.integers(0, v - 1)), v))
    extras = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=n,
        )
    )
    for u, v in extras:
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, edges)


@st.composite
def search_matrices(draw, max_order=7, max_elements=10):
    """Distance matrix of a random connected graph or of its line graph."""
    g = draw(connected_graphs(max_order=max_order))
    if g.size >= 2 and g.size <= max_elements and draw(st.booleans()):
        return g.line_distance_matrix
    return g.distance_matrix


@st.composite
def pruned_search_matrices(draw):
    """Line-graph matrices with up to 24 elements, mostly, where one column
    splits a class into few parts, so that the search prunes subtrees."""
    g = draw(connected_graphs(min_order=3, max_order=13))
    if g.size <= 24 and draw(st.integers(0, 3)):
        return g.line_distance_matrix
    return g.distance_matrix


def ring_rotation(n: int, rings: int) -> tuple[int, ...]:
    """``(ring, i) -> (ring, i + 1 mod n)`` with vertex ``(ring, i)`` numbered
    ``ring * n + i``, written out independently of the family generators."""
    return tuple(a * n + (i + 1) % n for a in range(rings) for i in range(n))


@st.composite
def rotation_graphs(draw):
    """Connected graphs on 1..3 rings of 3..5 vertices that the ring rotation
    maps onto themselves, with that rotation (and sometimes its square, a
    redundant second generator) as their automorphisms.

    Ring 0 is a cycle and ring ``a`` is joined to ring ``a + 1`` by spokes at
    a drawn offset, so the graph is connected.  Each extra edge orbit joins
    ``(a, i)`` to ``(b, i + j)`` for every ``i``.
    """
    n = draw(st.integers(3, 5))
    rings = draw(st.integers(1, 3))
    orbits = [(0, 0, 1)] + [
        (a, a + 1, draw(st.integers(0, n - 1))) for a in range(rings - 1)
    ]
    orbits += draw(st.lists(
        st.tuples(st.integers(0, rings - 1), st.integers(0, rings - 1),
                  st.integers(0, n - 1)),
        max_size=2,
    ))
    edges = set()
    for a, b, j in orbits:
        for i in range(n):
            u, v = a * n + i, b * n + (i + j) % n
            if u != v:
                edges.add((min(u, v), max(u, v)))
    rotation = ring_rotation(n, rings)
    generators = [rotation]
    if draw(st.booleans()):
        generators.append(tuple(rotation[x] for x in rotation))
    return Graph(rings * n, edges, generators)

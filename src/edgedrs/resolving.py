"""Resolving and doubly resolving set predicates plus exact minimum search.

All predicates read an immutable :class:`~edgedrs.core.DistanceMatrix`; for
edge versions that matrix belongs to the line graph, so an element index is
a line-graph vertex (= an edge of the base graph in canonical order).  The
module knows elements only by index: callers that name edges by label
translate the labels first.

Both predicates ask one question: is a coordinate map injective?  A
landmark sequence ``S = (s1, ..., sk)`` is resolving when
``w -> (d(w, s))`` over ``s`` in ``S`` is injective.  It is doubly resolving
when no element pair ``(u, v)`` has a constant difference vector
``(d(u, s) - d(v, s))``, which holds exactly when the shifted map
``w -> (d(w, s) - d(w, s1))`` over ``s`` in ``S`` is injective (Caceres et
al., SIAM J. Discrete Math. 21, 2007; Kratica et al., Comput. Oper. Res.
36, 2009): a pair collides under the shifted map exactly when all its
differences equal the one at ``s1``.  The shifted column of ``s1`` is all
zeros, so the doubly resolving test is the resolving test run on the
shifted columns of ``S[1:]``.  A failing set's witness is the
lexicographically first pair of elements with the same image.

The exact search visits the k-subsets in lexicographic order as a
depth-first walk over prefixes.  A prefix carries the non-singleton classes
of its coordinate map as integer codes; appending landmark ``x`` refines
every class by column ``x`` (:func:`_refinements`), so a prefix's work is
shared by all subsets below it.  A prefix one landmark short groups its
refined codes into classes once, and a full subset passes when its last
column is injective on every class of two or more.  The greedy upper bound
refines the same coded classes, one chosen landmark at a time.
A column takes at most ``spread`` values on a class: ``diam + 1`` for
resolving, ``2 diam + 1`` for the shifted columns of doubly resolving.  So
``r`` more landmarks split a class into at most ``spread ** r`` parts, and
a prefix with a larger class has no passing subset below it.  Such a prefix
is skipped and its ``C(n - x - 1, r)`` subsets (``x`` its last landmark) are
counted by arithmetic, so the walk's count bounds its work.

Both predicates read only distances, so an automorphism of the matrix maps
passing sets to passing sets (McKay, J. Algorithms 26, 1998).  A level is
walked once per orbit, in ascending order of least element, from that
element as first landmark (for doubly resolving, over the columns shifted by
it) with the later elements of that orbit and later orbits as companions.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from math import comb
from operator import add, itemgetter, sub
from typing import Literal, Sequence

from .core import DistanceMatrix, Graph

RESOLVING: Literal["resolving"] = "resolving"
DOUBLY_RESOLVING: Literal["doubly-resolving"] = "doubly-resolving"

Predicate = Literal["resolving", "doubly-resolving"]

DEFAULT_BUDGET = 10**8


class BudgetExceededError(Exception):
    """The search examined more candidate subsets than the budget allows."""

    def __init__(self, budget: int, cardinality: int, examined: int):
        super().__init__(
            f"subset budget {budget} exhausted while testing {cardinality}-subsets"
        )
        self.budget = budget
        self.cardinality = cardinality
        # the scan's count, or the walk's if the walk crossed the budget first
        self.examined = examined


@dataclass(frozen=True)
class ResolveReport:
    """Verdict of a set check; a witness pair is present exactly on failure."""

    ok: bool
    witness: tuple[int, int] | None = None


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an exact minimum-cardinality search."""

    cardinality: int
    best_set: tuple[int, ...]
    all_optima: tuple[tuple[int, ...], ...] | None
    subsets_examined: int
    elapsed: float

    def to_json_dict(
        self,
        labels: Sequence[str] | None = None,
        include_timing: bool = True,
    ) -> dict:
        def name(i: int):
            return labels[i] if labels is not None else i

        payload: dict = {
            "cardinality": self.cardinality,
            "set": [name(i) for i in self.best_set],
            "subsets_examined": self.subsets_examined,
        }
        if self.all_optima is not None:
            payload["all_optima"] = [[name(i) for i in s] for s in self.all_optima]
        if include_timing:
            payload["elapsed_ms"] = round(self.elapsed * 1000.0, 3)
        return payload


def _check_element(dm: DistanceMatrix, i: int) -> None:
    if not 0 <= i < dm.n:
        raise IndexError(f"element index {i} outside [0, {dm.n})")


def _check_landmarks(dm: DistanceMatrix, landmarks: Sequence[int], minimum: int) -> None:
    if len(landmarks) < minimum:
        raise ValueError(f"need at least {minimum} landmark(s), got {len(landmarks)}")
    if len(set(landmarks)) != len(landmarks):
        raise ValueError("landmark elements must be distinct")
    for x in landmarks:
        _check_element(dm, x)


def _shifted_columns(
    dm: DistanceMatrix, first: int, landmarks: Sequence[int]
) -> list[list[int]]:
    """Column ``d(w, x) - d(w, first)`` over all elements ``w``, per landmark ``x``.

    The matrix is symmetric, so row ``x`` doubles as column ``x``.
    """
    base = dm.rows[first]
    return [list(map(sub, dm.rows[x], base)) for x in landmarks]


def _collisions(members: Sequence[int], keys) -> list[list[int]]:
    """Groups of two or more members sharing a key, ordered by first member."""
    groups: dict = {}
    for w, key in zip(members, keys):
        groups.setdefault(key, []).append(w)
    return [group for group in groups.values() if len(group) > 1]


def _first_collision(columns: Sequence[Sequence[int]], n: int) -> ResolveReport:
    """Is ``w -> (column[w] for each column)`` injective on the ``n`` elements?"""
    collided = _collisions(range(n), zip(*columns))
    if not collided:
        return ResolveReport(True)
    return ResolveReport(False, (collided[0][0], collided[0][1]))


def is_resolving(dm: DistanceMatrix, landmarks: Sequence[int]) -> ResolveReport:
    """Do all elements get distinct coordinate vectors?

    On failure the witness is the lexicographically first colliding pair.
    """
    _check_landmarks(dm, landmarks, 1)
    return _first_collision([dm.rows[x] for x in landmarks], dm.n)


def doubly_resolves(dm: DistanceMatrix, x: int, y: int, u: int, v: int) -> bool:
    """Do landmarks ``x, y`` tell the pair ``u, v`` apart by distance differences?"""
    if x == y:
        raise ValueError("doubly resolving needs two distinct landmarks")
    for i in (x, y, u, v):
        _check_element(dm, i)
    return dm[u][x] - dm[u][y] != dm[v][x] - dm[v][y]


def is_doubly_resolving(dm: DistanceMatrix, landmarks: Sequence[int]) -> ResolveReport:
    """Is every element pair's difference vector over the landmarks non-constant?

    On failure the witness is the lexicographically first pair whose
    difference vector is constant.
    """
    _check_landmarks(dm, landmarks, 2)
    return _first_collision(_shifted_columns(dm, landmarks[0], landmarks[1:]), dm.n)


# ---------------------------------------------------------------------------
# Exact search
# ---------------------------------------------------------------------------

def _spread(dm: DistanceMatrix, doubly: bool) -> int:
    """The most values a column takes: ``diam + 1``, or ``2 diam + 1`` shifted."""
    width = max(map(max, dm.rows)) - min(map(min, dm.rows)) if dm.n else 0
    return 2 * width + 1 if doubly else width + 1


def _refinements(columns: Sequence[Sequence[int]], members: list[int], codes: list[int],
                 spread: int, candidates):
    """Per candidate ``x``: ``x``, the class codes of ``members`` refined by
    column ``x``, and the count of each refined code.  A code is a coordinate
    vector read in base ``spread``, so refining appends a digit: code times
    ``spread`` plus the column value.  ``members`` come in classes of two or
    more, so ``itemgetter(*members)`` returns a tuple unless there are none.
    """
    pick = itemgetter(*members) if members else lambda column: ()
    scaled = [c * spread for c in codes]
    for x in candidates:
        refined = list(map(add, scaled, pick(columns[x])))
        yield x, refined, Counter(refined)


def _kept(members: list[int], refined: list[int], sizes: Counter) -> tuple[list, list]:
    """The members left in refined classes of two or more, and their codes."""
    kept = [i for i, c in enumerate(refined) if sizes[c] > 1]
    return [members[i] for i in kept], [refined[i] for i in kept]


class _Walk:
    """Depth-first walk over the k-subsets of one level, in lexicographic order.

    A node is a prefix of landmarks.  It carries the members of the
    non-singleton classes of its coordinate map and their codes; the root
    holds all ``elements`` in one class.
    """

    def __init__(self, elements: int, spread: int, budget: int, all_optima: bool, k: int,
                 examined: int):
        # the root's one class and its codes, unless the class is a singleton
        self.everything = list(range(elements)) if elements > 1 else []
        self.same = [0] * len(self.everything)
        self.spread = spread
        self.budget = budget
        self.all_optima = all_optima
        self.k = k
        self.examined = examined

    def count(self, leaves: int) -> None:
        self.examined += leaves
        if self.examined > self.budget:
            raise BudgetExceededError(self.budget, self.k, self.examined)

    def descend(self, columns: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
        """The passing k-subsets of landmark positions that hold position 0;
        landmark ``x`` is column ``x``.  Without ``all_optima``, only the
        first.

        The walk keeps its own stack, one frame per landmark position, so
        its depth is not bounded by the interpreter's recursion limit.
        """
        if self.k == 1:
            return self.leaves(columns, self.everything, self.same, 0, (), 1)
        n = len(columns)
        hits: list[tuple[int, ...]] = []
        stack = [(self.everything, (), self.k, _refinements(
            columns, self.everything, self.same, self.spread, range(1)))]
        while stack:
            members, prefix, r, frame = stack[-1]
            bound = self.spread ** (r - 1)
            for x, refined, sizes in frame:  # resumes where the frame's last child left off
                if refined and max(sizes.values()) > bound:
                    # no completion can split the largest class: count its leaves
                    self.count(comb(n - x - 1, r - 1))
                    continue
                if r == 2:
                    hits += self.leaves(columns, members, refined, x + 1, prefix + (x,), n)
                    if hits and not self.all_optima:
                        return hits
                else:
                    members_x, codes_x = _kept(members, refined, sizes)
                    stack.append((members_x, prefix + (x,), r - 1, _refinements(
                        columns, members_x, codes_x, self.spread, range(x + 1, n - r + 2))))
                    break
            else:
                stack.pop()
        return hits

    def leaves(
        self,
        columns: Sequence[Sequence[int]],
        members: list[int],
        codes: list[int],
        start: int,
        prefix: tuple[int, ...],
        stop: int,
    ) -> list[tuple[int, ...]]:
        """The passing sets ``prefix + (x,)`` for ``start <= x < stop``, the
        first only without ``all_optima``: is column ``x`` injective on every
        class of two or more that ``codes`` give ``members``?  Largest
        classes first, as they fail most."""
        checks = [
            (itemgetter(*group), len(group))
            for group in sorted(_collisions(members, codes), key=len, reverse=True)
        ]
        hits = []
        for x in range(start, stop):
            column = columns[x]
            for get, size in checks:
                if len(set(get(column))) != size:
                    break
            else:
                hits.append(prefix + (x,))
                if not self.all_optima:
                    self.count(x + 1 - start)
                    return hits
        self.count(stop - start)
        return hits


def _columns(dm: DistanceMatrix, doubly: bool, first: int, elements) -> list:
    """The columns of ``elements``; for doubly resolving, shifted by ``first``."""
    if doubly:
        return _shifted_columns(dm, first, elements)
    return [dm.rows[x] for x in elements]


def _lexrank(subset: Sequence[int], n: int) -> int:
    """0-based rank of ascending ``subset`` among the ``len(subset)``-subsets
    of ``range(n)`` in lexicographic order: per position ``i``, the subsets
    that agree before ``i`` and hold a smaller element at ``i``."""
    k = len(subset)
    return sum(comb(n - before - 1, k - i) - comb(n - x, k - i)
               for i, (before, x) in enumerate(zip((-1, *subset), subset)))


def _closure(sets: Sequence[tuple[int, ...]], generators) -> tuple[tuple[int, ...], ...]:
    """``sets`` and their images under the group the generators generate, sorted."""
    found, work = set(sets), list(sets)
    for s in work:  # grows as new images turn up
        for p in generators:
            image = tuple(sorted(map(p.__getitem__, s)))
            if image not in found:
                found.add(image)
                work.append(image)
    return tuple(sorted(work))


def min_cardinality_search(
    dm: DistanceMatrix,
    predicate: Predicate,
    start_k: int | None = None,
    *,
    budget: int = DEFAULT_BUDGET,
    all_optima: bool = False,
) -> SearchResult:
    """Smallest landmark set passing the predicate, by level-wise search.

    The returned set is the lexicographically first optimum and no smaller
    set passes.  ``subsets_examined`` is what a scan of each level's
    k-subsets in lexicographic order would count: ``C(n, k)`` for a failing
    level or an ``all_optima`` level, ``lexrank(best_set) + 1`` for the
    level that passes.  When that count crosses ``budget``,
    :class:`BudgetExceededError` is raised at the level where the scan
    would raise it.

    Every level is walked by the matrix's orbits; a matrix without
    generators, such as a ``file:`` graph's, has one orbit per element.  For
    orbit ``j = 0, 1, ...`` in turn, the walk (see the module docstring) takes
    its least element ``r_j`` as first landmark and the elements of orbits
    ``>= j`` as companions.  A passing set maps onto one that holds the
    representative of the least orbit it meets, so once the walks before
    ``j`` have found nothing, no passing set meets those orbits and every
    element left is ``>= r_j``: the first hit is the lexicographically first
    optimum.  The walks count distinct subsets, each before the first hit in
    the scan's order, so their count never exceeds the scan's; it bounds
    their work and raises as soon as it crosses ``budget``.  With
    ``all_optima`` every walk runs and the hits are closed under the
    generators.  A level whose full element set is too large for its free
    landmarks is counted whole, with no walk.
    """
    if predicate == RESOLVING:
        minimum = 1
    elif predicate == DOUBLY_RESOLVING:
        minimum = 2
    else:
        raise ValueError(f"unknown predicate {predicate!r}")
    n = dm.n
    k0 = max(minimum, start_k if start_k is not None else minimum)
    started = time.perf_counter()
    doubly = minimum == 2
    spread = _spread(dm, doubly)
    orbits, representatives = dm.orbits, dm.orbit_representatives()
    examined = 0
    for k in range(k0, n + 1):
        walk = _Walk(n, spread, budget, all_optima, k, examined)
        hits: list[tuple[int, ...]] = []
        if n <= spread ** (k - minimum + 1):  # else the landmarks that refine are too few
            for j, first in enumerate(representatives):
                elements = [first] + [x for x in range(first + 1, n) if orbits[x] >= j]
                if len(elements) < k:
                    break
                found = walk.descend(_columns(dm, doubly, first, elements))
                hits += [tuple(list(map(elements.__getitem__, hit))) for hit in found]
                if found and not all_optima:
                    break
        # the scan's count, whatever the walks tested
        examined += _lexrank(hits[0], n) + 1 if hits and not all_optima else comb(n, k)
        if examined > budget:
            raise BudgetExceededError(budget, k, examined)
        if hits:
            optima = _closure(hits, dm.generators) if all_optima else None
            return SearchResult(k, hits[0], optima, examined, time.perf_counter() - started)
    raise ValueError(
        f"no {predicate} set exists; the matrix has only {dm.n} element(s)"
    )


def metric_dimension(g: Graph, **kwargs) -> SearchResult:
    """Minimum resolving set size over the graph's vertices."""
    return min_cardinality_search(g.distance_matrix, RESOLVING, **kwargs)


def edge_metric_dimension(g: Graph, **kwargs) -> SearchResult:
    """Minimum resolving set size over edges, i.e. in the line graph."""
    return min_cardinality_search(g.line_distance_matrix, RESOLVING, **kwargs)


def psi(g: Graph, **kwargs) -> SearchResult:
    """Minimum doubly resolving set size over vertices (always >= 2)."""
    if g.order < 2:
        raise ValueError("doubly resolving sets need at least 2 vertices")
    return min_cardinality_search(g.distance_matrix, DOUBLY_RESOLVING, **kwargs)


def psi_edge(g: Graph, **kwargs) -> SearchResult:
    """Minimum doubly resolving set size over edges, i.e. in the line graph."""
    if g.size < 2:
        raise ValueError("edge doubly resolving sets need at least 2 edges")
    return min_cardinality_search(g.line_distance_matrix, DOUBLY_RESOLVING, **kwargs)


# ---------------------------------------------------------------------------
# Greedy upper bound
# ---------------------------------------------------------------------------

def greedy_doubly_resolving(dm: DistanceMatrix) -> tuple[int, ...]:
    """Set-cover style heuristic: a doubly resolving set, pruned to minimality.

    Seeded with element 0, the still-constant pairs are the pairs inside one
    class of the shifted map over the chosen landmarks, coded and refined as
    in the exact walk (:func:`_refinements`).  Each step adds the landmark
    whose column cuts the most of those pairs, i.e. lowers sum C(|class|, 2)
    the most (ties to the lowest index); then single-element removals that
    keep the set valid are applied.  The result always passes
    :func:`is_doubly_resolving`; it is an upper bound for the exact optimum.
    """
    n = dm.n
    if n < 2:
        raise ValueError("need at least 2 elements")
    columns = _shifted_columns(dm, 0, range(n))
    spread = _spread(dm, True)
    chosen = [0]
    members, codes = list(range(n)), [0] * n
    pairs = n * (n - 1)  # twice the constant pairs, as is ``left``
    while members:
        left, x, refined, sizes = min(
            (sum(c * (c - 1) for c in sizes.values()), x, refined, sizes)
            for x, refined, sizes in _refinements(columns, members, codes, spread, range(n))
        )
        assert left < pairs, "greedy stalled; full element set must resolve"
        chosen.append(x)
        pairs = left
        members, codes = _kept(members, refined, sizes)
    result = sorted(chosen)
    for x in list(result):
        if len(result) > 2:
            trial = [y for y in result if y != x]
            if is_doubly_resolving(dm, trial).ok:
                result = trial
    return tuple(result)

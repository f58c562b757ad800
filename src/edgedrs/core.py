"""Core graph primitives: canonical edge lists, line graphs, BFS distances.

A :class:`Graph` is immutable once built. The all-pairs distance matrix of
the graph and of its line graph are computed lazily and cached on the graph
object, so every metric query against the same instance reuses one table.
The matrix runs one BFS per orbit of the graph's checked automorphisms and
fills every other row by reading a known row through a generator.
Distances are exact small integers stored densely: O(1) lookups beat any
cleverer storage, and a matrix side is capped at :data:`MAX_MATRIX_SIDE`.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

Edge = tuple[int, int]


class GraphError(Exception):
    """Base error for graph construction and lookups."""


class LoopEdgeError(GraphError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(GraphError):
    """The same unordered vertex pair appears twice."""


class VertexOutOfRangeError(GraphError):
    """An edge references a vertex outside [0, order)."""


class DisconnectedError(GraphError):
    """The graph is disconnected, so distances are undefined."""


class EmptyEdgeSetError(GraphError):
    """The line graph of an edgeless graph is undefined."""


class EdgeNotInGraphError(GraphError):
    """A queried edge does not belong to the graph."""


def canonical_edge(u: int, v: int) -> Edge:
    """Return the endpoints as a (min, max) pair, rejecting loops."""
    if u == v:
        raise LoopEdgeError(f"loop edge at vertex {u}")
    return (u, v) if u < v else (v, u)


class DistanceMatrix:
    """Dense symmetric all-pairs shortest-path table with integer entries.

    ``generators``, trusted, permute the elements preserving distances, and
    ``orbits[x]`` numbers ``x``'s orbit under them, orbits in ascending order
    of least element.  By default every element is its own orbit.
    """

    __slots__ = ("rows", "orbits", "generators")

    def __init__(self, rows: Iterable[Iterable[int]], orbits: Iterable[int] | None = None,
                 generators: Iterable[Sequence[int]] = ()):
        self.rows = tuple([tuple(row) for row in rows])
        self.orbits = tuple(range(self.n) if orbits is None else orbits)
        self.generators = tuple(generators)

    @property
    def n(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self.rows[i]

    def __repr__(self) -> str:
        return f"DistanceMatrix(n={self.n})"

    def orbit_representatives(self) -> tuple[int, ...]:
        """The least element of each orbit of the automorphisms, ascending."""
        least = dict(zip(self.orbits[::-1], range(self.n - 1, -1, -1)))  # last write wins
        return tuple(sorted(least.values()))


def _bfs_row(adjacency: Sequence[Sequence[int]], source: int) -> list[int]:
    dist = [-1] * len(adjacency)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for w in adjacency[u]:
            if dist[w] < 0:
                dist[w] = du
                queue.append(w)
    return dist


# The largest matrix side a search or ``distances`` builds.  A generator-free
# 4,000-cycle takes 6 s and peaks at 688 MB (ru_maxrss, Python 3.11); rows filled
# through generators share their ints, so cycle:3999 peaks at 140 MB.
MAX_MATRIX_SIDE = 4_000


def _check_side(n: int) -> None:
    if n > MAX_MATRIX_SIDE:
        raise GraphError(f"a distance matrix over {n} elements "
                         f"exceeds the maximum of {MAX_MATRIX_SIDE}")


def _checked_automorphisms(
    order: int, edge_index: Mapping[Edge, int], automorphisms: Sequence[Sequence[int]]
) -> list[list[int]]:
    """Each of ``automorphisms`` as the permutation it induces on the edges (the
    keys of ``edge_index``, in order), checked in O(|E|) to permute the vertices
    and map every edge to an edge, or :class:`GraphError`.  Such a map
    preserves distances, and its edge permutation is an automorphism of L(G)."""
    induced = []
    for p in automorphisms:
        if sorted(p) != list(range(order)):
            raise GraphError(f"an automorphism must permute the {order} vertices")
        images = [edge_index.get(canonical_edge(p[u], p[v])) for u, v in edge_index]
        if None in images:
            edge = list(edge_index)[images.index(None)]
            raise GraphError(f"a vertex permutation maps edge {edge} to a non-edge")
        induced.append(images)
    return induced


class Graph:
    """Simple, undirected graph with a canonical sorted edge list.

    Edges are canonicalized as (min endpoint, max endpoint) and ordered
    lexicographically; line-graph vertex ``i`` always means ``edges[i]``,
    which keeps search output reproducible across runs.  ``automorphisms``
    are vertex permutations, checked when a distance matrix is built.
    """

    def __init__(self, order: int, edges: Iterable[tuple[int, int]],
                 automorphisms: Iterable[Sequence[int]] = ()):
        if order < 1:
            raise VertexOutOfRangeError("a graph needs at least one vertex")
        seen: set[Edge] = set()
        for u, v in edges:
            e = canonical_edge(u, v)
            if e[0] < 0 or e[1] >= order:
                raise VertexOutOfRangeError(
                    f"edge {e} references a vertex outside [0, {order})"
                )
            if e in seen:
                raise DuplicateEdgeError(f"duplicate edge {e}")
            seen.add(e)
        self.order = order
        self.edges: tuple[Edge, ...] = tuple(sorted(seen))
        adj: list[list[int]] = [[] for _ in range(order)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(
            [tuple(sorted(nbrs)) for nbrs in adj]
        )
        self._edge_index: dict[Edge, int] = {e: i for i, e in enumerate(self.edges)}
        self.automorphisms: tuple[tuple[int, ...], ...] = tuple(list(map(tuple, automorphisms)))

    @property
    def size(self) -> int:
        return len(self.edges)

    def edge_index(self, edge: tuple[int, int]) -> int:
        """Index of an edge in the canonical order (= its line-graph vertex)."""
        e = canonical_edge(*edge)
        try:
            return self._edge_index[e]
        except KeyError:
            raise EdgeNotInGraphError(f"edge {e} is not in the graph") from None

    @cached_property
    def distance_matrix(self) -> DistanceMatrix:
        """BFS from the least element of each orbit of the automorphisms, the
        orbits numbered in that order; a generator ``p`` fills row ``p(x)`` with
        row ``x`` read through ``p^-1``.  ``DisconnectedError`` if disconnected."""
        _check_side(self.order)
        _checked_automorphisms(self.order, self._edge_index, self.automorphisms)
        # p^-1 lists the x sorted by p(x)
        readers = [(p, itemgetter(*sorted(range(self.order), key=p.__getitem__)))
                   for p in self.automorphisms]
        rows: list = [None] * self.order
        orbits = [-1] * self.order
        j = -1
        for source in range(self.order):
            if orbits[source] >= 0:
                continue
            # a row read through a permutation holds a -1 only if its source does
            row = _bfs_row(self.adjacency, source)
            if -1 in row:
                raise DisconnectedError("graph is disconnected")
            j += 1
            rows[source], orbits[source] = row, j
            orbit = [source]
            while orbit:
                x = orbit.pop()
                for p, read in readers:
                    y = p[x]
                    if orbits[y] < 0:
                        rows[y], orbits[y] = read(rows[x]), j
                        orbit.append(y)
        return DistanceMatrix(rows, orbits, self.automorphisms)

    @cached_property
    def line_graph(self) -> "Graph":
        return line_graph(self)

    @cached_property
    def line_distance_matrix(self) -> DistanceMatrix:
        _check_side(self.size)  # before the line graph is built
        return self.line_graph.distance_matrix

    def __repr__(self) -> str:
        return f"Graph(order={self.order}, size={self.size})"


def line_graph(g: Graph) -> Graph:
    """Build the line graph of ``g``.

    Vertex ``i`` of the result is ``g.edges[i]``; an adjacency means the two
    base edges share exactly one endpoint (a simple graph cannot share two).
    """
    if not g.edges:
        raise EmptyEdgeSetError("line graph of an edgeless graph is undefined")
    incident: list[list[int]] = [[] for _ in range(g.order)]
    for i, (u, v) in enumerate(g.edges):
        incident[u].append(i)
        incident[v].append(i)
    line_edges: set[Edge] = set()
    for ids in incident:
        # edge ids in `ids` are ascending, so combinations are canonical
        line_edges.update(combinations(ids, 2))
    induced = _checked_automorphisms(g.order, g._edge_index, g.automorphisms)
    return Graph(len(g.edges), sorted(line_edges), induced)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def graph_to_json_dict(
    g: Graph, labels: Mapping[str, Edge] | None = None
) -> dict:
    """Graph JSON: ``{"order": n, "edges": [[u, v], ...], "labels": {...}}``."""
    payload: dict = {"order": g.order, "edges": [list(e) for e in g.edges]}
    if labels:
        payload["labels"] = {
            name: list(labels[name]) for name in sorted(labels)
        }
    return payload


# Graph allocates per vertex, so without a cap a few bytes of JSON or a
# family spec could demand unbounded memory; dense distance matrices rule
# out larger graphs.
MAX_JSON_ORDER = 100_000


def graph_from_json_dict(data: Mapping) -> tuple[Graph, dict[str, Edge] | None]:
    """Parse graph JSON; any malformed input raises :class:`GraphError`."""
    try:
        order = int(data["order"])
        edges = [(int(u), int(v)) for u, v in data["edges"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise GraphError(f"malformed graph JSON: {exc}") from exc
    if order > MAX_JSON_ORDER:
        raise GraphError(f"order {order} exceeds the maximum of {MAX_JSON_ORDER}")
    g = Graph(order, edges)
    if data.get("labels") is None:
        return g, None
    if not isinstance(data["labels"], Mapping):
        raise GraphError("malformed graph JSON: labels must map names to edges")
    labels = {}
    for name, pair in data["labels"].items():
        try:
            e = canonical_edge(int(pair[0]), int(pair[1]))
        except (LookupError, TypeError, ValueError, OverflowError) as exc:
            raise GraphError(f"malformed label {name!r}: {exc}") from exc
        if e not in g._edge_index:
            raise GraphError(f"label {name!r} points at missing edge {e}")
        labels[str(name)] = e
    return g, labels


def _dot_id(text: str) -> str:
    """``text`` as a quoted DOT identifier."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(
    g: Graph,
    name: str = "G",
    edge_labels: Mapping[Edge, str] | None = None,
) -> str:
    """Render the graph in DOT format, labelling edges when names are known."""
    lines = [f"graph {_dot_id(name)} {{"]
    for v in range(g.order):
        lines.append(f"  {v};")
    for e in g.edges:
        u, v = e
        if edge_labels and e in edge_labels:
            lines.append(f"  {u} -- {v} [label={_dot_id(edge_labels[e])}];")
        else:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def line_graph_to_dot(line: Graph, names: Sequence[str], name: str = "L") -> str:
    """Render a line graph in DOT format, vertex ``i`` named ``names[i]``."""
    ids = [_dot_id(v) for v in names]
    lines = [f"graph {_dot_id(name)} {{"]
    for v in ids:
        lines.append(f"  {v};")
    for a, b in line.edges:
        lines.append(f"  {ids[a]} -- {ids[b]};")
    lines.append("}")
    return "\n".join(lines) + "\n"

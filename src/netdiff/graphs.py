"""Locally finite graphs and the combinatorics of second-order neighborhoods.

Finite graphs are immutable: a vertex tuple (insertion order is preserved and
meaningful, e.g. for deterministic clique enumeration), a symmetric adjacency
structure with no self-loops or multi-edges, and an optional distinguished
root.  Infinite graphs are represented by a neighbor callback plus a root and
are materialized only through balls and truncations.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

__all__ = [
    "Graph",
    "InfiniteGraph",
    "adjacency_matrix",
    "augmented_truncation",
    "ball",
    "boundary",
    "boundary2",
    "cliques",
    "complete_graph",
    "cycle_graph",
    "format_edge_list",
    "graph_distance",
    "grid_graph",
    "is_2cutset",
    "parse_edge_list",
    "path_graph",
    "regular_tree",
    "square_graph",
    "z_line",
]


class Graph:
    """A finite simple undirected graph with ordered, hashable vertex labels.

    Parameters
    ----------
    vertices : iterable
        Vertex labels in the order they should be enumerated.  Labels must be
        hashable and unique.
    edges : iterable of pairs
        Undirected edges between existing labels.  Duplicates collapse;
        self-loops are rejected.
    root : label, optional
        Distinguished vertex used by balls and truncations.
    """

    __slots__ = ("_vertices", "_index", "_adj", "_root", "_square", "_closed", "_plan")

    def __init__(self, vertices, edges=(), root=None):
        verts = tuple(vertices)
        index = {}
        for i, v in enumerate(verts):
            if v in index:
                raise ValueError(f"duplicate vertex label {v!r}")
            index[v] = i
        nbr_sets = {v: set() for v in verts}
        for e in edges:
            u, w = e
            if u == w:
                raise ValueError(f"self-loop at {u!r}")
            if u not in index or w not in index:
                raise ValueError(f"edge {e!r} references unknown vertex")
            nbr_sets[u].add(w)
            nbr_sets[w].add(u)
        if root is not None and root not in index:
            raise ValueError(f"root {root!r} is not a vertex")
        self._vertices = verts
        self._index = index
        # neighbor tuples in vertex order: deterministic iteration everywhere
        self._adj = {v: tuple(sorted(nbr_sets[v], key=index.__getitem__)) for v in verts}
        self._root = root
        self._square = None
        self._closed = {}
        self._plan = None

    @property
    def vertices(self):
        return self._vertices

    @property
    def root(self):
        return self._root

    def __len__(self):
        return len(self._vertices)

    def __contains__(self, v):
        return v in self._index

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            set(self._vertices) == set(other._vertices)
            and self.edge_set() == other.edge_set()
            and self._root == other._root
        )

    __hash__ = None

    def __repr__(self):
        r = f", root={self._root!r}" if self._root is not None else ""
        return f"Graph({len(self)} vertices, {len(self.edge_set())} edges{r})"

    def index(self, v):
        try:
            return self._index[v]
        except KeyError:
            raise ValueError(f"unknown vertex {v!r}") from None

    def neighbors(self, v):
        """Neighbors of ``v`` as a tuple in vertex order."""
        self.index(v)
        return self._adj[v]

    def degree(self, v):
        return len(self.neighbors(v))

    def has_edge(self, u, v):
        self.index(u)
        return v in self._adj[u]

    def edges(self):
        """Edges as (u, v) pairs with index(u) < index(v), in vertex order."""
        out = []
        for u in self._vertices:
            iu = self._index[u]
            for w in self._adj[u]:
                if self._index[w] > iu:
                    out.append((u, w))
        return out

    def edge_set(self):
        return {frozenset(e) for e in self.edges()}

    def with_root(self, root):
        return Graph(self._vertices, self.edges(), root=root)

    def subgraph(self, vertices):
        """Induced subgraph; vertex order inherited from this graph."""
        keep = set(vertices)
        for v in keep:
            self.index(v)
        verts = [v for v in self._vertices if v in keep]
        edges = [(u, w) for u, w in self.edges() if u in keep and w in keep]
        root = self._root if self._root in keep else None
        return Graph(verts, edges, root=root)


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense 0/1 adjacency matrix in the graph's vertex order."""
    n = len(g)
    a = np.zeros((n, n))
    for u, w in g.edges():
        i, j = g.index(u), g.index(w)
        a[i, j] = a[j, i] = 1.0
    return a


def _check_subset(g, a):
    s = set(a)
    for v in s:
        g.index(v)
    return s


def boundary(g: Graph, a) -> set:
    """First boundary: vertices outside ``a`` adjacent to some vertex of ``a``."""
    s = _check_subset(g, a)
    out = set()
    for v in s:
        out.update(w for w in g.neighbors(v) if w not in s)
    return out


def boundary2(g: Graph, a) -> set:
    """Second boundary: vertices outside ``a`` at graph distance 1 or 2 from
    ``a``, read off the stored square graph as its first boundary."""
    return boundary(square_graph(g), a)


def graph_distance(g: Graph, u, v):
    """Length of a shortest path between u and v; math.inf when disconnected."""
    g.index(v)
    return _bfs_distances(g, u).get(v, math.inf)


def square_graph(g: Graph) -> Graph:
    """Graph on the same vertices joining every pair at distance 1 or 2.

    Built on first use and stored on ``g``, which is immutable, so every
    later call returns that same graph.
    """
    if g._square is None:
        edges = [(v, w) for v in g.vertices for w in _bfs_distances(g, v, limit=2) if g.index(w) > g.index(v)]
        g._square = Graph(g.vertices, edges, root=g.root)
    return g._square


def _closed_masks(g: Graph, order: int) -> tuple:
    """Each vertex's closed neighbourhood in G (order 1) or G² (order 2) as a
    bitmask over vertex indices, built on first use and stored on ``g``."""
    if order not in g._closed:
        h = g if order == 1 else square_graph(g)
        g._closed[order] = tuple(1 << i | sum(1 << g._index[w] for w in h._adj[v]) for i, v in enumerate(g._vertices))
    return g._closed[order]


def _split(closed: tuple, a, names) -> tuple:
    """(S, rest): ∂ᵏA and V beyond it for index set ``a`` and order-k ``closed`` masks, as ``names[i]`` in index order."""
    reach = 0
    for i in a:
        reach |= closed[i]
    if reach == (1 << len(closed)) - 1:  # A's closed neighbourhood covers V: no rest, and no test
        return (), ()
    # tuple([...]), not tuple(generator), which grew the RSS by about 5 KB per exact scan of a 6x6 grid
    s = tuple([names[i] for i in range(len(closed)) if reach >> i & 1 and i not in a])
    return s, tuple([names[i] for i in range(len(closed)) if not reach >> i & 1])


def cliques(g: Graph, order: int):
    """All nonempty vertex sets of diameter at most ``order`` (1 or 2).

    A set has diameter ≤ 1 iff it is a clique of g, and diameter ≤ 2 iff it is
    a clique of the square graph, so both orders reduce to complete-subgraph
    enumeration (singletons included, the empty set excluded).  Results are
    frozensets sorted by size and then by vertex order.

    Parameters
    ----------
    g : Graph
    order : int
        1 for sets of pairwise-adjacent vertices, 2 for sets in which every
        pair is at graph distance ≤ 2.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    h = g if order == 1 else square_graph(g)
    idx = {v: h.index(v) for v in h.vertices}
    out = []

    def extend(current, candidates):
        for k, v in enumerate(candidates):
            grown = current + (v,)
            out.append(grown)
            nxt = tuple(w for w in candidates[k + 1 :] if h.has_edge(v, w))
            if nxt:
                extend(grown, nxt)

    extend((), h.vertices)
    sets = [frozenset(c) for c in out]
    sets.sort(key=lambda s: (len(s), tuple(sorted(idx[v] for v in s))))
    return sets


def ball(g, n: int, root=None) -> Graph:
    """Induced subgraph on vertices within graph distance n of the root.

    ``g`` may be a `Graph` or an `InfiniteGraph`; either way the result is a
    finite `Graph` rooted at the root.
    """
    if n < 0:
        raise ValueError("radius must be nonnegative")
    r = g.root if root is None else root
    if r is None:
        raise ValueError("ball requires a rooted graph or an explicit root")
    return _induced(g, _bfs_distances(g, r, limit=n), r)


def _bfs_distances(g, r, limit=None):
    """Graph distances from r, in BFS order, up to ``limit`` when given."""
    dist = {r: 0}
    frontier = [r]
    while frontier:
        nxt = []
        for v in frontier:
            dv = dist[v]
            if limit is not None and dv >= limit:
                continue
            for w in g.neighbors(v):
                if w not in dist:
                    dist[w] = dv + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def _induced(g, vertices, r) -> Graph:
    """Finite induced subgraph of either graph kind, rooted at r.

    A `Graph` keeps its own vertex order; an `InfiniteGraph` region takes the
    order of ``vertices`` and has its neighbor callback checked for symmetry.
    """
    if isinstance(g, Graph):
        sub = g.subgraph(vertices)
        return sub if sub.root == r else sub.with_root(r)
    pos = {v: i for i, v in enumerate(vertices)}
    edges = []
    for v in pos:
        for w in g.neighbors(v):
            if w in pos:
                if v not in g.neighbors(w):
                    raise ValueError(f"neighbor callback is not symmetric at ({v!r}, {w!r})")
                if pos[v] < pos[w]:
                    edges.append((v, w))
    return Graph(pos, edges, root=r)


def _truncate(g, n: int, root=None):
    """The level-n augmented truncation and its shell U_n = B_n \\ B_{n-2},
    the shell listed in the truncation's vertex order."""
    if n < 4:
        raise ValueError("truncation level must be at least 4")
    r = g.root if root is None else root
    if r is None:
        raise ValueError("augmented truncation requires a root")
    dist = _bfs_distances(g, r, limit=n)
    inner = _induced(g, dist, r)
    shell = [v for v in inner.vertices if dist[v] > n - 2]
    edges = inner.edges()
    edges.extend((u, w) for u, w in combinations(shell, 2) if not inner.has_edge(u, w))
    return Graph(inner.vertices, edges, root=r), shell


def augmented_truncation(g, n: int, root=None) -> Graph:
    """Ball of radius n with the outer shell completed into a clique.

    ``g`` may be a `Graph` or an `InfiniteGraph`.  The result keeps all
    induced edges of the radius-n ball around the root and additionally
    joins every pair of vertices in the shell U_n = B_n \\ B_{n-2}.  Within
    radius n-3 the second-order neighborhood structure of the original graph
    is preserved exactly, which is what makes the construction usable as a
    finite stand-in for a larger graph.
    """
    return _truncate(g, n, root)[0]


def is_2cutset(g: Graph, a, b, s) -> bool:
    """Whether every path from ``a`` to ``b`` passes two consecutive vertices of ``s``.

    Equivalently: whether removing ``s`` from the square graph disconnects
    ``a`` from ``b``, which is how it is computed.  The tests check it against
    an exhaustive walk over simple paths.
    """
    sa, sb, ss = _check_subset(g, a), _check_subset(g, b), _check_subset(g, s)
    if not sa or not sb:
        raise ValueError("a and b must be nonempty")
    if sa & sb or sa & ss or sb & ss:
        raise ValueError("a, b, s must be pairwise disjoint")
    h = square_graph(g)
    seen = set(sa)
    frontier = list(sa)
    while frontier:
        nxt = []
        for v in frontier:
            for w in h.neighbors(v):
                if w in ss or w in seen:
                    continue
                if w in sb:
                    return False
                seen.add(w)
                nxt.append(w)
        frontier = nxt
    return True


# ---------------------------------------------------------------------------
# edge-list text format


def parse_edge_list(text: str) -> Graph:
    """Parse the whitespace edge-list format.

    One edge per line as ``u v``; optional ``root w`` line; ``vertex u`` lines
    declare isolated vertices; ``#`` starts a comment.  Labels stay strings.
    """
    order = []
    seen = set()
    edges = []
    root = None

    def add_vertex(tok):
        if tok not in seen:
            seen.add(tok)
            order.append(tok)

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] == "root":
            if len(toks) != 2:
                raise ValueError(f"line {ln}: root line must be 'root w'")
            if root is not None:
                raise ValueError(f"line {ln}: duplicate root line")
            root = toks[1]
            add_vertex(root)
        elif toks[0] == "vertex":
            if len(toks) != 2:
                raise ValueError(f"line {ln}: vertex line must be 'vertex u'")
            add_vertex(toks[1])
        elif len(toks) == 2:
            u, w = toks
            add_vertex(u)
            add_vertex(w)
            edges.append((u, w))
        else:
            raise ValueError(f"line {ln}: expected 'u v', got {raw!r}")
    return Graph(order, edges, root=root)


def format_edge_list(g: Graph) -> str:
    """Serialize a graph so that parse(format(g)) reproduces it up to ordering."""
    lines = []
    if g.root is not None:
        lines.append(f"root {g.root}")
    for v in g.vertices:
        if g.degree(v) == 0 and v != g.root:
            lines.append(f"vertex {v}")
    for u, w in g.edges():
        lines.append(f"{u} {w}")
    return "\n".join(lines) + "\n"


# JSON form of labels and graphs, shared by every artifact that stores them


def _label_to_json(lab):
    """Tuples become lists and numpy scalars Python scalars, recursively."""
    if isinstance(lab, tuple):
        return [_label_to_json(x) for x in lab]
    if isinstance(lab, np.generic):
        return lab.item()
    return lab


def _label_from_json(lab):
    """Inverse of `_label_to_json`; decode(encode(v)) is v's canonical form."""
    if isinstance(lab, list):
        return tuple(_label_from_json(x) for x in lab)
    return lab


def _graph_to_json(g: Graph) -> dict:
    return {
        "vertices": [_label_to_json(v) for v in g.vertices],
        "edges": [[_label_to_json(u), _label_to_json(w)] for u, w in g.edges()],
        "root": _label_to_json(g.root),
    }


def _graph_from_json(doc: dict) -> Graph:
    vertices = [_label_from_json(v) for v in doc["vertices"]]
    edges = [(_label_from_json(u), _label_from_json(w)) for u, w in doc["edges"]]
    return Graph(vertices, edges, root=_label_from_json(doc.get("root")))


# ---------------------------------------------------------------------------
# named generators


def path_graph(n: int, root=None) -> Graph:
    if n < 1:
        raise ValueError("need at least one vertex")
    verts = list(range(1, n + 1))
    return Graph(verts, [(i, i + 1) for i in range(1, n)], root=root)


def cycle_graph(n: int, root=None) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least three vertices")
    verts = list(range(1, n + 1))
    edges = [(i, i + 1) for i in range(1, n)] + [(n, 1)]
    return Graph(verts, edges, root=root)


def complete_graph(n: int, root=None) -> Graph:
    verts = list(range(1, n + 1))
    return Graph(verts, list(combinations(verts, 2)), root=root)


def grid_graph(rows: int, cols: int, root=None) -> Graph:
    """rows × cols lattice; labels are (row, col) pairs, 0-based."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    verts = [(i, j) for i in range(rows) for j in range(cols)]
    edges = []
    for i in range(rows):
        for j in range(cols):
            if i + 1 < rows:
                edges.append(((i, j), (i + 1, j)))
            if j + 1 < cols:
                edges.append(((i, j), (i, j + 1)))
    return Graph(verts, edges, root=root)


def regular_tree(degree: int, depth: int) -> Graph:
    """Rooted tree in which the root has ``degree`` children and every other
    internal vertex has degree ``degree`` as well; vertices are numbered in
    BFS order starting from root 0."""
    if degree < 1 or depth < 0:
        raise ValueError("degree must be ≥ 1 and depth ≥ 0")
    verts = [0]
    edges = []
    frontier = [0]
    nxt_label = 1
    for level in range(depth):
        new_frontier = []
        for v in frontier:
            fanout = degree if level == 0 else degree - 1
            for _ in range(fanout):
                verts.append(nxt_label)
                edges.append((v, nxt_label))
                new_frontier.append(nxt_label)
                nxt_label += 1
        frontier = new_frontier
    return Graph(verts, edges, root=0)


class InfiniteGraph:
    """A locally finite graph given by a neighbor callback and a root.

    The callback must be symmetric (u in neighbors(v) iff v in neighbors(u));
    this is verified on every materialized region.  Only balls and augmented
    truncations are ever realized as finite graphs.
    """

    def __init__(self, neighbor_fn, root):
        self.neighbor_fn = neighbor_fn
        self.root = root

    def neighbors(self, v):
        return tuple(self.neighbor_fn(v))

    def with_root(self, root):
        return InfiniteGraph(self.neighbor_fn, root)


def z_line() -> InfiniteGraph:
    """The two-sided integer line rooted at 0."""
    return InfiniteGraph(lambda v: (v - 1, v + 1), 0)

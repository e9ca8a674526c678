"""Simple undirected graphs with indexed edges plus exact combinatorial oracles.

Players of the cost game live on edges, so every coalition-level question
(cover number, matching number, connectivity, diameter) is asked about the
edge-induced subgraph of a coalition.  The exact engines are deliberately
small: branch-and-bound search below a configurable vertex cap, with a
structural shortcut above it for star/pisces forests (trees of diameter at
most 3), where minimum covers and maximum matchings are read off the shapes
that ``decompose`` finds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import ContractViolation, GraphFormatError, OracleCapError

# A coalition is a set of edge indices.
Coalition = frozenset[int]

DEFAULT_VERTEX_CAP = 24

PATTERNS = ("K3", "C4", "P4", "P5")


@dataclass(frozen=True)
class Graph:
    """Finite simple undirected graph; edge index (0-based file order) = player id."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        labels = set()
        for v in self.vertices:
            if v in labels:
                raise GraphFormatError(f"duplicate vertex label {v}")
            labels.add(v)
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise GraphFormatError(f"self-loop at {u}")
            if u not in labels or v not in labels:
                raise GraphFormatError(f"edge endpoint not in vertex list: {u} {v}")
            key = frozenset((u, v))
            if key in seen:
                raise GraphFormatError(f"duplicate edge {u} {v}")
            seen.add(key)

    @classmethod
    def from_edges(cls, pairs, extra_vertices=()) -> "Graph":
        """Build a graph from (u, v) pairs; vertices ordered by first appearance."""
        order: list[str] = []
        seen: set[str] = set()
        for u, v in pairs:
            for w in (u, v):
                if w not in seen:
                    seen.add(w)
                    order.append(w)
        for w in extra_vertices:
            if w not in seen:
                seen.add(w)
                order.append(w)
        return cls(vertices=tuple(order), edges=tuple((u, v) for u, v in pairs))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def _incident(self) -> dict[str, tuple[int, ...]]:
        table: dict[str, list[int]] = {v: [] for v in self.vertices}
        for i, (u, v) in enumerate(self.edges):
            table[u].append(i)
            table[v].append(i)
        return {v: tuple(es) for v, es in table.items()}

    @cached_property
    def _ends(self) -> dict[int, tuple[str, str]]:
        """Endpoints by edge index; unlike edges[i], looking up -1 fails."""
        return dict(enumerate(self.edges))

    @cached_property
    def _adjacency(self) -> dict[str, tuple[str, ...]]:
        nbrs: dict[str, set[str]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return {v: tuple(sorted(ns)) for v, ns in nbrs.items()}

    def has_vertex(self, v: str) -> bool:
        return v in self._incident

    def incident_edges(self, v: str) -> tuple[int, ...]:
        return self._incident[v]

    def degree(self, v: str) -> int:
        return len(self._incident[v])

    def neighbors(self, v: str) -> tuple[str, ...]:
        return self._adjacency[v]

    def endpoints(self, i: int) -> tuple[str, str]:
        return self.edges[i]

    def other_end(self, i: int, v: str) -> str:
        u, w = self.edges[i]
        return w if v == u else u

    def players(self) -> Coalition:
        return frozenset(range(len(self.edges)))


def _require_edges(graph: Graph, s) -> None:
    """Raise ContractViolation naming the smallest or largest index of s if not an edge."""
    if s:
        for i in (min(s), max(s)):
            if not 0 <= i < len(graph.edges):
                raise ContractViolation(f"edge index out of range: {i}")


class SubgraphView:
    """Edge-induced subgraph of a coalition: vertex set plus per-vertex incident edges."""

    def __init__(self, graph: Graph, coalition) -> None:
        s = frozenset(coalition)
        for i in s:
            if not 0 <= i < graph.n_edges:
                raise ContractViolation(f"edge index out of range: {i}")
        self.graph = graph
        self.coalition = s
        incident: dict[str, list[int]] = {}
        for i in sorted(s):
            u, v = graph.edges[i]
            incident.setdefault(u, []).append(i)
            incident.setdefault(v, []).append(i)
        self.incident = {v: tuple(es) for v, es in incident.items()}
        self.vertex_set = tuple(sorted(self.incident))

    def degree(self, v: str) -> int:
        return len(self.incident.get(v, ()))

    def components(self) -> list[Coalition]:
        """Edge sets of the connected components, ordered by smallest edge index."""
        seen: set[int] = set()
        out: list[Coalition] = []
        for start in sorted(self.coalition):
            if start in seen:
                continue
            comp = {start}
            seen.add(start)
            queue = deque([start])
            while queue:
                i = queue.popleft()
                for v in self.graph.edges[i]:
                    for j in self.incident[v]:
                        if j not in seen:
                            seen.add(j)
                            comp.add(j)
                            queue.append(j)
            out.append(frozenset(comp))
        return out


@dataclass(frozen=True)
class ComponentClassification:
    """Shape of one connected component of a star/pisces forest.

    cover holds the single center of a star (or the designated endpoint of a
    lone edge), or both bases of a pisces in label order; pendants maps each
    cover vertex to its non-free-rider incident edges.
    """

    kind: str  # "star" | "pisces" | "single-edge"
    edges: Coalition
    cover: tuple[str, ...]
    free_rider: int | None
    pendants: dict[str, tuple[int, ...]]


def decompose(graph: Graph, coalition) -> list[ComponentClassification] | None:
    """Star/pisces shapes of the coalition subgraph's components, ordered by
    smallest edge index; None when some component is neither (it has a cycle
    or diameter above 3).

    coalition is a set of edge indices or an already built SubgraphView.
    """
    view = coalition if isinstance(coalition, SubgraphView) else SubgraphView(graph, coalition)
    incident = view.incident
    shapes: list[ComponentClassification] = []
    for comp in view.components():
        if len(comp) == 1:
            (i,) = comp
            center = min(graph.edges[i])
            shapes.append(ComponentClassification("single-edge", comp, (center,), None,
                                                  {center: (i,)}))
            continue
        comp_vertices = sorted({w for i in comp for w in graph.edges[i]})
        if len(comp) != len(comp_vertices) - 1:
            return None  # has a cycle
        non_pendant = [v for v in comp_vertices if len(incident[v]) > 1]
        if len(non_pendant) == 1:
            center = non_pendant[0]
            shapes.append(ComponentClassification("star", comp, (center,), None,
                                                  {center: tuple(sorted(comp))}))
        elif len(non_pendant) == 2:
            # in a tree, a vertex inside the path between two non-pendant
            # vertices is non-pendant too, so these two are adjacent
            b1, b2 = non_pendant
            rider = next(i for i in incident[b1] if graph.other_end(i, b1) == b2)
            pendants = {b: tuple(i for i in incident[b] if i != rider)
                        for b in non_pendant}
            shapes.append(ComponentClassification("pisces", comp, (b1, b2), rider, pendants))
        else:
            return None  # diameter exceeds 3
    return shapes


def parse_graph(text: str) -> Graph:
    """Parse an edge-list document: one edge per line, two whitespace-separated labels.

    Lines starting with '#' and blank lines are ignored.  Edge indices follow
    the order of appearance in the document.
    """
    edges: list[tuple[str, str]] = []
    seen_edges: set[frozenset[str]] = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError("expected two vertex labels", line=ln)
        u, v = parts
        if u == v:
            raise GraphFormatError(f"self-loop at {u}", line=ln)
        key = frozenset((u, v))
        if key in seen_edges:
            raise GraphFormatError(f"duplicate edge {u} {v}", line=ln)
        seen_edges.add(key)
        edges.append((u, v))
    if not edges:
        raise GraphFormatError("empty graph has no players")
    return Graph.from_edges(edges)


def components(graph: Graph) -> list[Coalition]:
    """Edge sets of connected components, ordered by smallest edge index."""
    return SubgraphView(graph, graph.players()).components()


def diameter(graph: Graph, comp) -> int:
    """Largest pairwise shortest-path distance inside one connected component."""
    view = SubgraphView(graph, comp)
    if not view.coalition:
        raise ContractViolation("diameter of an empty edge set is undefined")
    best = 0
    for source in view.vertex_set:
        dist = {source: 0}
        queue = deque([source])
        while queue:
            x = queue.popleft()
            for i in view.incident[x]:
                y = graph.other_end(i, x)
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        if len(dist) != len(view.vertex_set):
            raise ContractViolation("coalition is not a single connected component")
        best = max(best, max(dist.values()))
    return best


def is_bipartite(graph: Graph) -> bool:
    """True iff the graph has no odd cycle (two-coloring search)."""
    return _two_color(graph.edges) is not None


def _two_color(pairs) -> dict[str, int] | None:
    adj: dict[str, list[str]] = {}
    for u, v in pairs:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    color: dict[str, int] = {}
    for start in sorted(adj):
        if start in color:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in color:
                    color[y] = 1 - color[x]
                    queue.append(y)
                elif color[y] == color[x]:
                    return None
    return color


# --- exact minimum vertex cover ------------------------------------------------


def _greedy_disjoint_edges(pairs) -> int:
    """Size of a greedily built vertex-disjoint edge set (a cover lower bound)."""
    used: set[str] = set()
    count = 0
    for u, v in pairs:
        if u not in used and v not in used:
            count += 1
            used.add(u)
            used.add(v)
    return count


def _cover_feasible(pairs, banned, budget: int) -> bool:
    """Is there a vertex cover of size <= budget avoiding the banned vertices?"""
    if not pairs:
        return True
    if budget <= 0:
        return False
    if _greedy_disjoint_edges(pairs) > budget:
        return False
    pick = None
    for u, v in pairs:
        bu = u in banned
        bv = v in banned
        if bu and bv:
            return False
        if bu or bv:
            pick = (u, v)
            break
    if pick is None:
        pick = pairs[0]
    u, v = pick
    for z in (u, v):
        if z in banned:
            continue
        rest = [e for e in pairs if z != e[0] and z != e[1]]
        if _cover_feasible(rest, banned, budget - 1):
            return True
    return False


def _min_cover_size(pairs) -> int:
    k = _greedy_disjoint_edges(pairs)
    while not _cover_feasible(pairs, frozenset(), k):
        k += 1
    return k


def _lex_min_cover(pairs, labels_sorted, size: int) -> tuple[str, ...]:
    """Lexicographically smallest minimum cover, as a sorted label tuple.

    Greedy refinement: a vertex joins the witness whenever a full cover of the
    target size can still be completed from strictly larger labels.
    """
    chosen: list[str] = []
    banned: set[str] = set()
    remaining = list(pairs)
    for v in labels_sorted:
        if not remaining:
            break
        without_v = [e for e in remaining if v != e[0] and v != e[1]]
        if len(chosen) < size and _cover_feasible(without_v, banned, size - len(chosen) - 1):
            chosen.append(v)
            remaining = without_v
        else:
            banned.add(v)
    return tuple(chosen)


def _shape_cover(graph: Graph, c: ComponentClassification) -> tuple[str, ...]:
    """Lexicographically smallest minimum cover of one star/pisces component.

    A pisces is covered by its two bases, or by one base and the far leaf when
    the other base has exactly one pendant.
    """
    best = c.cover
    if c.free_rider is not None:
        b1, b2 = best
        for base, other in ((b1, b2), (b2, b1)):
            pendants = c.pendants[base]
            if len(pendants) == 1:
                leaf = graph.other_end(pendants[0], base)
                best = min(best, (leaf, other) if leaf < other else (other, leaf))
    return best


def vertex_cover_number(graph: Graph, coalition, *,
                        max_vertices: int = DEFAULT_VERTEX_CAP) -> tuple[int, tuple[str, ...]]:
    """Exact cover number of the coalition subgraph, with a deterministic witness.

    At every size the witness is the lexicographically smallest minimum cover
    (sorted label tuple).  Below the vertex cap it comes from branch and
    bound; above it, star/pisces forests are solved structurally as the union
    of each component's smallest cover, and anything else raises
    OracleCapError.
    """
    view = SubgraphView(graph, coalition)
    if not view.coalition:
        return 0, ()
    if len(view.vertex_set) <= max_vertices:
        pairs = [graph.edges[i] for i in sorted(view.coalition)]
        size = _min_cover_size(pairs)
        return size, _lex_min_cover(pairs, view.vertex_set, size)
    shapes = decompose(graph, view)
    if shapes is None:
        raise OracleCapError("instance too large for exact oracle")
    cover: list[str] = []
    for c in shapes:
        cover.extend(_shape_cover(graph, c))
    cover.sort()
    return len(cover), tuple(cover)


# --- exact maximum matching -----------------------------------------------------


def _bipartite_matching_size(pairs, color) -> int:
    left_adj: dict[str, list[str]] = {}
    for u, v in pairs:
        a, b = (u, v) if color[u] == 0 else (v, u)
        left_adj.setdefault(a, []).append(b)
    for lst in left_adj.values():
        lst.sort()
    matched: dict[str, str] = {}

    def augment(a: str, visited: set[str]) -> bool:
        for b in left_adj[a]:
            if b in visited:
                continue
            visited.add(b)
            if b not in matched or augment(matched[b], visited):
                matched[b] = a
                return True
        return False

    size = 0
    for a in sorted(left_adj):
        if augment(a, set()):
            size += 1
    return size


def _matching_branch(pairs) -> int:
    best = 0

    def upper(rest) -> int:
        verts: set[str] = set()
        for u, v in rest:
            verts.add(u)
            verts.add(v)
        return min(len(rest), len(verts) // 2)

    def rec(rest, count: int) -> None:
        nonlocal best
        if count > best:
            best = count
        if not rest or count + upper(rest) <= best:
            return
        u, v = rest[0]
        take = [e for e in rest[1:] if u != e[0] and u != e[1] and v != e[0] and v != e[1]]
        rec(take, count + 1)
        rec(rest[1:], count)

    rec(list(pairs), 0)
    return best


def _matching_size(pairs) -> int:
    if not pairs:
        return 0
    color = _two_color(pairs)
    if color is not None:
        return _bipartite_matching_size(pairs, color)
    return _matching_branch(pairs)


def matching_number(graph: Graph, coalition, *,
                    max_vertices: int = DEFAULT_VERTEX_CAP) -> tuple[int, tuple[int, ...]]:
    """Exact matching number with the lexicographically smallest witness
    (sorted edge-index tuple); augmenting paths on bipartite subgraphs,
    branch and bound otherwise, structural shortcut above the vertex cap."""
    view = SubgraphView(graph, coalition)
    if not view.coalition:
        return 0, ()
    order = sorted(view.coalition)
    if len(view.vertex_set) <= max_vertices:
        size = _matching_size([graph.edges[i] for i in order])
        witness: list[int] = []
        used: set[str] = set()
        need = size
        for pos, i in enumerate(order):
            if need == 0:
                break
            u, v = graph.edges[i]
            if u in used or v in used:
                continue
            blocked = used | {u, v}
            rest = [graph.edges[j] for j in order[pos + 1:]
                    if graph.edges[j][0] not in blocked and graph.edges[j][1] not in blocked]
            if _matching_size(rest) >= need - 1:
                witness.append(i)
                used.update((u, v))
                need -= 1
        return size, tuple(witness)
    # on star/pisces forests: the smallest pendant edge at each cover vertex
    shapes = decompose(graph, view)
    if shapes is None:
        raise OracleCapError("instance too large for exact oracle")
    witness = sorted(min(es) for c in shapes for es in c.pendants.values())
    return len(witness), tuple(witness)


# --- forbidden subgraph search ---------------------------------------------------


def find_forbidden_subgraph(graph: Graph, pattern: str) -> tuple[str, ...] | None:
    """First (lexicographically smallest) subgraph occurrence of the pattern.

    Paths and cycles count as subgraphs, not induced subgraphs.  One depth-first
    search from each vertex in label order, along neighbors in label order and
    without repeats, returns the first path of 3 (K3), 4 (C4, P4) or 5 (P5)
    vertices whose ends, for K3 and C4, are adjacent; None when there is none.
    """
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}; expected one of {PATTERNS}")
    length, closed = {"K3": (3, True), "C4": (4, True), "P4": (4, False), "P5": (5, False)}[pattern]

    def extend(seq: list[str]) -> tuple[str, ...] | None:
        if len(seq) == length:
            return None if closed and seq[0] not in graph.neighbors(seq[-1]) else tuple(seq)
        for w in graph.neighbors(seq[-1]):
            if w in seq:
                continue
            seq.append(w)
            hit = extend(seq)
            if hit is not None:
                return hit
            seq.pop()
        return None

    for a in sorted(graph.vertices):
        hit = extend([a])
        if hit is not None:
            return hit
    return None

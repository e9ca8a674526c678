"""Simple undirected graphs with indexed edges plus exact combinatorial oracles.

Players of the cost game live on edges, so every coalition-level question
(cover number, matching number, connectivity, diameter) is asked about the
edge-induced subgraph of a coalition.  Recognition, the cover system, the
game's costs and both exact oracles read one private structure, the only
star/pisces decomposition, that each graph makes once: on a star/pisces
forest (trees of diameter at most 3) every coalition's minimum cover and
maximum matching are read off that structure at every size.  On any other
graph the exact engines are deliberately small: one bitmask search within a
configurable vertex cap, whose cover number is also the matching number of
a bipartite coalition (König), with a branch and bound for the matching
number of any other; above the cap a coalition subgraph, built as a graph,
that is a star/pisces forest is answered from its own structure.  Both
searches run on coalition bitmasks over a per-edge mask table that the
graph builds on first use, which the game's cost table reads too.
"""

from __future__ import annotations

from collections import deque, namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache

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
        """Build a graph from (u, v) pairs, read once; vertices ordered by
        first appearance."""
        edges = tuple((u, v) for u, v in pairs)
        order = dict.fromkeys([w for edge in edges for w in edge] + list(extra_vertices))
        return cls(vertices=tuple(order), edges=edges)

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
    def _edge_masks(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """Per edge (u, v): the edges left after covering u, after covering v and after
        covering both, as bitmasks over all edges, then u's and v's vertex bits, which
        follow the label order; made on first use, for the bitmask cover and matching searches."""
        bit = {v: 1 << k for k, v in enumerate(sorted(self.vertices))}
        at = dict.fromkeys(self.vertices, 0)
        for i, (u, v) in enumerate(self.edges):
            at[u] |= 1 << i
            at[v] |= 1 << i
        full = (1 << len(self.edges)) - 1
        return tuple((full ^ at[u], full ^ at[v], full & ~(at[u] | at[v]), bit[u], bit[v])
                     for u, v in self.edges)

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

    def other_end(self, i: int, v: str) -> str:
        u, w = self.edges[i]
        return w if v == u else u

    def players(self) -> Coalition:
        return _masked(range(len(self.edges)), (1 << len(self.edges)) - 1)

    @cached_property
    def _structure(self) -> _Structure | None:
        """The graph's star/pisces shapes, sorted global cover, per-edge watch masks and
        selected vertices (as CoverSystem describes them) and free riders, or None when it
        is not a star/pisces forest; made on first use, and its tuples are the rule table."""
        shapes = _shapes(self)
        if shapes is None:
            return None
        watch = [0] * len(self.edges)
        select: list[str | None] = [None] * len(self.edges)
        for c in shapes:
            group = {v: sum(1 << i for i in es) for v, es in c.pendants.items()}
            for v, es in c.pendants.items():
                for i in es:
                    watch[i], select[i] = group[v], v
            if c.free_rider is not None:
                b1, b2 = c.cover
                watch[c.free_rider], select[c.free_rider] = group[b1] | group[b2], b1
        riders = frozenset(c.free_rider for c in shapes) - {None}
        cover = tuple(sorted(v for c in shapes for v in c.cover))
        return _Structure(tuple(shapes), cover, tuple(watch), tuple(select), riders)


class _MaskedCoalition(frozenset):
    """A coalition whose int members are the set bits of _mask; it compares
    and hashes as a frozenset, and only _masked builds one."""

    __slots__ = ("_mask",)

    def __reduce__(self):  # frozenset's own drops the slot before Python 3.11
        return mask_coalition, (self._mask,)


def _masked(members, mask: int) -> Coalition:
    # frozenset's own constructor then a slot store: a Python-level __new__ costs twice as much
    c = _MaskedCoalition(members)
    c._mask = mask
    return c


def mask_coalition(mask: int) -> Coalition:
    """The coalition of a nonnegative int bitmask, carrying that mask."""
    if type(mask) is not int or mask < 0:
        raise ContractViolation(f"coalition mask {mask!r} is not a nonnegative int")
    return _masked([i for i in range(mask.bit_length()) if mask >> i & 1], mask)


@lru_cache(maxsize=8)
def all_coalitions(n: int) -> tuple[Coalition, ...]:
    """Every coalition over n players, indexed by bitmask, so exhaustive scans
    share one table; each carries its mask, and the last 8 sizes used are
    kept, as n = 16 alone holds 47 MiB."""
    return tuple(map(mask_coalition, range(1 << n)))


def _coalition(graph: Graph, coalition) -> Coalition:
    """The checked coalition of every per-coalition entry point, carrying its
    bitmask as _mask: a coalition that mask_coalition, all_coalitions or
    players() built is returned as is when its mask is within the graph's
    edges; anything else is checked and rebuilt as one, or raises
    ContractViolation naming the value if it is not iterable, else a member
    that is not an int, else the smallest or largest index if it is not an
    edge, else the smallest index repeated in a sequence or iterator."""
    n = len(graph.edges)
    if type(coalition) is _MaskedCoalition and not coalition._mask >> n:
        return coalition
    if isinstance(coalition, (set, frozenset)):
        items = coalition
    else:
        try:
            members = iter(coalition)
        except TypeError:
            raise ContractViolation(f"coalition {coalition!r} is not iterable") from None
        items = tuple(members)
    s = frozenset(items)
    mask = 0
    for i in s:
        if type(i) is not int:
            raise ContractViolation(f"edge key {i!r} is not an int")
        if 0 <= i < n:
            mask |= 1 << i
    if mask.bit_count() != len(s):
        low = min(s)
        raise ContractViolation(f"edge index out of range: {low if low < 0 else max(s)}")
    if len(s) != len(items):
        raise ContractViolation(f"repeated edge index: {min(i for i in s if items.count(i) > 1)}")
    return _masked(s, mask)


def _incidence(graph: Graph, order) -> dict[str, list[int]]:
    """Each vertex that the edges of order span, mapped to its edges in that order."""
    incident: dict[str, list[int]] = {}
    for i in order:
        u, v = graph.edges[i]
        incident.setdefault(u, []).append(i)
        incident.setdefault(v, []).append(i)
    return incident


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


_Structure = namedtuple("_Structure", "shapes cover watch select free_riders")


def _charged(graph: Graph, s: Coalition) -> set[str]:
    """The vertices the rule charges on a checked coalition of a star/pisces forest, a
    minimum cover: each edge's selected vertex but an accompanied free rider's."""
    structure = graph._structure
    m, watch, select, riders = s._mask, structure.watch, structure.select, structure.free_riders
    return {select[i] for i in s if not (i in riders and m & watch[i])}


def _shapes(graph: Graph) -> list[ComponentClassification] | None:
    """Star/pisces shapes of the graph's components, ordered by smallest edge index;
    None when some component is neither (it has a cycle or diameter above 3)."""
    incident = graph._incident
    shapes: list[ComponentClassification] = []
    for comp in components(graph):
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
    """Edge sets of connected components, ordered by smallest edge index, in linear time."""
    edges, incident = graph.edges, graph._incident
    marked: set[str] = set()
    out: list[Coalition] = []
    for u, v in edges:
        if u in marked:
            continue
        reached = [u, v]
        marked.update(reached)
        for x in reached:  # breadth first: reached grows while it is read
            for i in incident[x]:
                for w in edges[i]:
                    if w not in marked:
                        marked.add(w)
                        reached.append(w)
        out.append(frozenset(i for x in reached for i in incident[x]))
    return out


def diameter(graph: Graph, comp) -> int:
    """Largest pairwise shortest-path distance inside one connected component."""
    s = _coalition(graph, comp)
    incident = _incidence(graph, s)
    if not s:
        raise ContractViolation("diameter of an empty edge set is undefined")
    best = 0
    for source in incident:
        dist = {source: 0}
        queue = deque([source])
        while queue:
            x = queue.popleft()
            for i in incident[x]:
                y = graph.other_end(i, x)
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        if len(dist) != len(incident):
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
# The search runs on edge bitmasks m over the graph's _edge_masks table: covering an
# end of edge i leaves m & masks[i][0] or m & masks[i][1], and the witness tells the
# two ends apart by their vertex bits masks[i][3] and masks[i][4].


def _greedy_disjoint_edges(masks, m: int) -> int:
    """Size of a vertex-disjoint edge set built greedily in ascending edge order (a
    cover lower bound): each pick drops every edge that meets it, so the lowest
    edge left is always free."""
    count = 0
    while m:
        m &= masks[(m & -m).bit_length() - 1][2]
        count += 1
    return count


def _cover_feasible(masks, m: int, budget: int) -> bool:
    """Is there a vertex cover of the edges in m of size <= budget?  It branches on
    the two ends of the lowest edge."""
    if not m:
        return True
    if budget <= 0 or _greedy_disjoint_edges(masks, m) > budget:
        return False
    left_u, left_v, _, _, _ = masks[(m & -m).bit_length() - 1]
    return (_cover_feasible(masks, m & left_u, budget - 1)
            or _cover_feasible(masks, m & left_v, budget - 1))


def _min_cover_size(masks, m: int) -> int:
    k = _greedy_disjoint_edges(masks, m)
    while not _cover_feasible(masks, m, k):
        k += 1
    return k


def _lex_min_cover(graph: Graph, m: int, size: int) -> tuple[str, ...]:
    """Lexicographically smallest minimum cover of the edges in m, as a sorted label tuple.

    Greedy in label order: a vertex v with edges left joins the witness when the edges
    it leaves still have a cover of the size left less one.  Else no cover of the size
    left holds v, so each holds the other ends of v's edges left, and those join at
    once.  No later search need avoid a rejected v: a cover it found holding v, plus
    the vertices chosen since, would be a cover of the size left at v's rejection that
    holds v.
    """
    masks = graph._edge_masks
    by_bit: dict[int, tuple[str, int]] = {}  # vertex bit -> (label, edges left after covering it)
    rest = m
    while rest:
        i = (rest & -rest).bit_length() - 1
        (u, v), (left_u, left_v, _, bu, bv) = graph.edges[i], masks[i]
        by_bit[bu], by_bit[bv] = (u, left_u), (v, left_v)
        rest &= rest - 1
    chosen: list[str] = []
    remaining = m
    for bit in sorted(by_bit):  # vertex bits ascend in label order
        label, left = by_bit[bit]
        without_v = remaining & left
        if without_v == remaining:
            continue  # v covers no edge left, as after it joined at once
        if _cover_feasible(masks, without_v, size - len(chosen) - 1):
            chosen.append(label)
            remaining = without_v
        else:
            rest = remaining & ~left  # v's edges left: their other ends join
            while rest:
                i = (rest & -rest).bit_length() - 1
                label, left = by_bit[masks[i][3] ^ masks[i][4] ^ bit]
                chosen.append(label)
                remaining &= left
                rest &= rest - 1
    return tuple(sorted(chosen))


def _pisces_cover(b1: str, b2: str, leaf1: str | None, leaf2: str | None) -> tuple[str, str]:
    """Lexicographically smallest minimum cover of a pisces with bases b1 < b2, whose
    lone pendant leaves at b1 and b2 are leaf1 and leaf2 (None where a base has several):
    its two bases, or one base and the far leaf when the other base has one pendant."""
    best = (b1, b2)
    for leaf, other in ((leaf1, b2), (leaf2, b1)):
        if leaf is not None:
            best = min(best, (leaf, other) if leaf < other else (other, leaf))
    return best


def _structural_witnesses(graph: Graph, coalition) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """(cover, matching) of the coalition on a star/pisces graph, its lexicographically
    smallest minimum cover and maximum matching as sorted tuples, read from the graph's
    structure in one pass over the coalition's sorted edges, whatever the graph's
    component count.

    Each whole-graph star or pisces restricted to the coalition's edges is a star at its
    center or base, or a lone edge covered by its smaller end: a pisces without its free
    rider is two of those, its rider alone is a lone edge (b1 is the smaller base), and
    its rider with pendants at one base only is a star at that base, whose lowest edge may
    be the rider; with pendants at both bases it stays a pisces, covered as _pisces_cover
    says.  The matching takes the lowest coalition edge at each charged vertex.
    """
    structure = graph._structure
    select, riders = structure.select, structure.free_riders
    lowest: dict[str, int] = {}  # vertex charged by a pendant -> its lowest coalition pendant
    several: set[str] = set()  # such vertices with more than one
    present: list[int] = []  # the coalition's free riders
    for i in sorted(_coalition(graph, coalition)):
        if i in riders:
            present.append(i)
        elif select[i] in lowest:
            several.add(select[i])
        else:
            lowest[select[i]] = i
    cover: list[str] = []
    matching: list[int] = []
    for r in present:
        b1 = select[r]
        b2 = graph.other_end(r, b1)
        e1, e2 = lowest.pop(b1, None), lowest.pop(b2, None)
        if e1 is not None and e2 is not None:  # a pisces
            cover.extend(_pisces_cover(b1, b2, None if b1 in several else graph.other_end(e1, b1),
                                       None if b2 in several else graph.other_end(e2, b2)))
            matching += (e1, e2)
        elif e2 is not None:  # a star at b2
            cover.append(b2)
            matching.append(min(r, e2))
        else:  # a star at b1, or the rider alone
            cover.append(b1)
            matching.append(r if e1 is None else min(r, e1))
    for v, i in lowest.items():
        cover.append(v if v in several else min(graph.edges[i]))
        matching.append(i)
    cover.sort()
    matching.sort()
    return tuple(cover), tuple(matching)


def _vertex_cap(cap, name: str = "vertex cap") -> int:
    """cap when it is a nonnegative int, else ContractViolation naming it: the one check of
    every cap, the vertex cap unless name says which other one."""
    if type(cap) is not int or cap < 0:
        raise ContractViolation(f"{name} {cap!r} is not a nonnegative int")
    return cap


def _oracle_input(graph: Graph, coalition, max_vertices: int):
    """The head of both exact oracles and the size-only search: the gated coalition with
    its (cover, matching) witnesses when a structure answers it, else with None within the
    vertex cap.  A star/pisces graph answers from its own structure; on any other graph a
    coalition subgraph above the cap answers from the subgraph's own structure, whose edge
    j is the coalition's j-th smallest edge, or raises OracleCapError when it is not a
    star/pisces forest."""
    s = _coalition(graph, coalition)
    if graph._structure is not None:
        return s, _structural_witnesses(graph, s)
    if 2 * len(s) <= max_vertices:  # each edge brings at most two vertices
        return s, None
    n = len({w for i in s for w in graph.edges[i]})
    if n <= max_vertices:
        return s, None
    order = sorted(s)
    sub = Graph.from_edges(graph.edges[i] for i in order)
    if sub._structure is None:
        raise OracleCapError(
            f"instance too large for exact oracle: the coalition subgraph has {n} vertices,"
            f" above the {max_vertices}-vertex cap, and is not a star/pisces forest")
    cover, matching = _structural_witnesses(sub, sub.players())
    return s, (cover, tuple(order[j] for j in matching))


def _cover_size(graph: Graph, coalition, max_vertices: int, known: bytearray | None) -> int:
    """vertex_cover_number's size alone; within the vertex cap the search builds no witness,
    and known (one byte per coalition mask, 255 while unknown), unless None, keeps each size:
    a coalition whose residual subsets at its lowest edge are known costs 1 plus the smaller."""
    s, witnesses = _oracle_input(graph, coalition, max_vertices)
    if witnesses is not None:
        return len(witnesses[0])
    masks, m = graph._edge_masks, s._mask
    if known is None:
        return _min_cover_size(masks, m)
    size = known[m]
    if size == 255:
        left_u, left_v, _, _, _ = masks[(m & -m).bit_length() - 1]
        a, b = known[m & left_u], known[m & left_v]
        size = 1 + (a if a < b else b) if a != 255 and b != 255 else _min_cover_size(masks, m)
        known[m] = size
    return size


def vertex_cover_number(graph: Graph, coalition, *,
                        max_vertices: int = DEFAULT_VERTEX_CAP) -> tuple[int, tuple[str, ...]]:
    """Exact cover number of the coalition subgraph, with a deterministic witness.

    At every size the witness is the lexicographically smallest minimum cover
    (sorted label tuple).  A star/pisces graph answers every coalition from its
    structure.  On any other graph the vertex cap (a nonnegative int) applies:
    within it the witness comes from branch and bound on edge bitmasks; above it,
    a coalition subgraph that is a star/pisces forest answers from its own
    structure, and anything else raises OracleCapError.
    """
    s, witnesses = _oracle_input(graph, coalition, _vertex_cap(max_vertices))
    if witnesses is not None:
        return len(witnesses[0]), witnesses[0]
    size = _min_cover_size(graph._edge_masks, s._mask)
    return size, _lex_min_cover(graph, s._mask, size)


# --- exact maximum matching -----------------------------------------------------
# The matching search runs on the cover search's edge bitmasks: taking edge i leaves
# m & masks[i][2], the edges disjoint from it.


def _matching_branch(masks, m: int, count: int = 0, best: int = 0) -> int:
    """The larger of best and count plus a maximum matching of the edges in m: take the
    lowest edge or drop it, pruned by half the spanned vertex count (never above the
    edge count, as each edge spans at most two vertices)."""
    if count > best:
        best = count
    if not m:
        return best
    spanned, rest = 0, m
    while rest:
        k = (rest & -rest).bit_length() - 1
        spanned |= masks[k][3] | masks[k][4]
        rest &= rest - 1
    if count + spanned.bit_count() // 2 <= best:
        return best
    i = (m & -m).bit_length() - 1
    best = _matching_branch(masks, m & masks[i][2], count + 1, best)
    return _matching_branch(masks, m & (m - 1), count, best)


def matching_number(graph: Graph, coalition, *,
                    max_vertices: int = DEFAULT_VERTEX_CAP) -> tuple[int, tuple[int, ...]]:
    """Exact matching number with the lexicographically smallest witness
    (sorted edge-index tuple): read from the structure of a star/pisces graph
    at every size; on any other graph, within the vertex cap (a nonnegative
    int), the cover search's size on a bipartite coalition subgraph (König)
    and branch and bound on edge bitmasks otherwise, and above it the
    structure of a coalition subgraph that is a star/pisces forest.  The
    witness takes each edge, in ascending order, whose disjoint later edges
    still match the rest."""
    s, witnesses = _oracle_input(graph, coalition, _vertex_cap(max_vertices))
    if witnesses is not None:
        return len(witnesses[1]), witnesses[1]
    masks, m = graph._edge_masks, s._mask
    # König: nu = tau on a bipartite coalition and on every one of its sub-coalitions
    bipartite = _two_color(graph.edges[i] for i in s) is not None
    search = _min_cover_size if bipartite else _matching_branch
    size = search(masks, m)
    witness: list[int] = []
    while len(witness) < size:
        i = (m & -m).bit_length() - 1
        if search(masks, m & masks[i][2]) >= size - len(witness) - 1:
            witness.append(i)
            m &= masks[i][2]
        else:
            m &= m - 1
    return size, tuple(witness)


# --- forbidden subgraph search ---------------------------------------------------


def _extend(graph: Graph, seq: list[str], length: int, closed: bool) -> tuple[str, ...] | None:
    """First pattern occurrence that starts with the path seq, depth first."""
    if len(seq) == length:
        return None if closed and seq[0] not in graph.neighbors(seq[-1]) else tuple(seq)
    for w in graph.neighbors(seq[-1]):
        if w in seq:
            continue
        seq.append(w)
        hit = _extend(graph, seq, length, closed)
        if hit is not None:
            return hit
        seq.pop()
    return None


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
    for a in sorted(graph.vertices):
        hit = _extend(graph, [a], length, closed)
        if hit is not None:
            return hit
    return None


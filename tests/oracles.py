"""Brute-force reference oracles and fixture generators for the test suite.

Everything here is deliberately independent of the library's search engines:
covers and matchings by subset enumeration, stability by a hand-rolled
domination scan, component shapes by raw degree counting, scheme verification
by a Fraction scan and the constructive rule by one split per coalition.  The
only library pieces used are the data types, the cover system's split and,
for the integral-scheme search, the final verify_pmas filter that the search
is defined against.  Two earlier library implementations are kept as
references for differential tests: the forbidden-pattern search with its own
K3 and C4 loops, and the stability scan with a per-vertex rank cache.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from vcgame.errors import ContractViolation, MalformedScheme, OracleCapError
from vcgame.game import DEFAULT_EDGE_CAP, VertexCoverGame, all_coalitions, mask_coalition
from vcgame.graph import PATTERNS, Graph, SubgraphView
from vcgame.matching import PreferenceSystem
from vcgame.pmas import AllocationScheme, CoverSystem, Violation, verify_pmas


# --- exact numbers by subset enumeration -----------------------------------------


def brute_cover_number(graph: Graph, coalition) -> int:
    s = frozenset(coalition)
    if not s:
        return 0
    pairs = [graph.edges[i] for i in s]
    vertices = sorted({w for u, v in pairs for w in (u, v)})
    for k in range(len(vertices) + 1):
        for combo in itertools.combinations(vertices, k):
            chosen = set(combo)
            if all(u in chosen or v in chosen for u, v in pairs):
                return k
    raise AssertionError("unreachable")


def brute_matching_number(graph: Graph, coalition) -> int:
    s = sorted(coalition)
    best = 0
    for k in range(1, len(s) + 1):
        found = False
        for combo in itertools.combinations(s, k):
            used: set[str] = set()
            ok = True
            for i in combo:
                u, v = graph.edges[i]
                if u in used or v in used:
                    ok = False
                    break
                used.update((u, v))
            if ok:
                found = True
                break
        if not found:
            break
        best = k
    return best


def all_matchings(graph: Graph, coalition):
    """Every matching inside the coalition, including the empty one."""
    s = sorted(coalition)
    out = []
    for k in range(len(s) + 1):
        for combo in itertools.combinations(s, k):
            used: set[str] = set()
            ok = True
            for i in combo:
                u, v = graph.edges[i]
                if u in used or v in used:
                    ok = False
                    break
                used.update((u, v))
            if ok:
                out.append(frozenset(combo))
    return out


# --- schemes, one coalition at a time on Fractions -------------------------------------


def split_rule_allocation(cover: CoverSystem, coalition) -> dict[int, Fraction]:
    """The constructive rule on one coalition from the cover system's split:
    1/k at an anchor with k coalition edges, 0 or 1 on a free rider."""
    groups, riders = cover._split(frozenset(coalition))
    alloc: dict[int, Fraction] = {}
    for edges_in in groups.values():
        for i in edges_in:
            alloc[i] = Fraction(1, len(edges_in))
    for rider, accompanied in riders.items():
        alloc[rider] = Fraction(0 if accompanied else 1)
    return alloc


def reference_verify_pmas(game: VertexCoverGame, scheme: AllocationScheme, *,
                          max_edges: int = DEFAULT_EDGE_CAP):
    """verify_pmas as a scan over Fraction allocations: efficiency by exact
    sums in ascending bitmask order, then monotonicity in (superset, dropped
    edge) order, each coalition's entries in its allocation's key order."""
    n = game.n
    if n > max_edges:
        raise OracleCapError(f"verifying over {n} edges exceeds the {max_edges}-edge cap")
    table = game.cost_table(max_edges)
    coalitions = all_coalitions(n)
    vec: list = [None] * (1 << n)
    for m in range(1, 1 << n):
        s = coalitions[m]
        a = scheme.allocation(s)
        if a.keys() != s:
            raise MalformedScheme(f"allocation for {sorted(s)} is not indexed by its members")
        a = {i: Fraction(v) for i, v in a.items()}
        den = math.lcm(*[v.denominator for v in a.values()])
        total = sum(v.numerator * (den // v.denominator) for v in a.values())
        if total != table[m] * den:
            return False, Violation("efficiency", s, None, None,
                                    Fraction(total, den), Fraction(table[m]))
        vec[m] = a
    for t in range(1, 1 << n):
        for k in range(n):
            sm = t & ~(1 << k)
            if sm == t or sm == 0:
                continue
            for i, x in vec[sm].items():
                if x < vec[t][i]:
                    return False, Violation("monotonicity", coalitions[sm], coalitions[t],
                                            i, x, vec[t][i])
    return True, None


# --- stability by direct domination scan ------------------------------------------


def _restricted_order(ps: PreferenceSystem, v: str, coalition):
    stored = ps.orders.get(v)
    if stored is None:
        stored = ps.graph.incident_edges(v)
    return [i for i in stored if i in coalition]


def brute_stable_matchings(ps: PreferenceSystem, coalition):
    """All stable matchings of the restricted preference system."""
    s = frozenset(coalition)
    out = []
    for m in all_matchings(ps.graph, s):
        stable = True
        for e in s - m:
            dominated = False
            for v in ps.graph.edges[e]:
                order = _restricted_order(ps, v, s)
                pos = {i: p for p, i in enumerate(order)}
                for f in m:
                    if v in ps.graph.edges[f] and pos[f] < pos[e]:
                        dominated = True
                        break
                if dominated:
                    break
            if not dominated:
                stable = False
                break
        if stable:
            out.append(m)
    return out


# --- earlier library implementations, kept as references ------------------------------


def reference_forbidden_subgraph(graph: Graph, pattern: str):
    """Pattern search with dedicated K3 and C4 loops beside the path search."""
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}; expected one of {PATTERNS}")
    if pattern == "K3":
        nbr = {v: set(graph.neighbors(v)) for v in graph.vertices}
        for a in sorted(graph.vertices):
            for b in graph.neighbors(a):
                if b <= a:
                    continue
                for c in graph.neighbors(a):
                    if c > b and c in nbr[b]:
                        return (a, b, c)
        return None
    if pattern == "C4":
        nbr = {v: set(graph.neighbors(v)) for v in graph.vertices}
        for a in sorted(graph.vertices):
            for b in graph.neighbors(a):
                for c in graph.neighbors(b):
                    if c == a:
                        continue
                    for d in graph.neighbors(c):
                        if d != a and d != b and a in nbr[d]:
                            return (a, b, c, d)
        return None
    length = 4 if pattern == "P4" else 5

    def extend(seq: list[str]):
        if len(seq) == length:
            return tuple(seq)
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


def reference_is_stable(ps: PreferenceSystem, coalition, matching):
    """Stability scan over every matching edge at each endpoint, with ranks
    cached per vertex on first use."""
    s = frozenset(coalition)
    m = frozenset(matching)
    if not m <= s:
        raise ContractViolation("matching must be a subset of the coalition")
    used: set[str] = set()
    for i in m:
        for v in ps.graph.edges[i]:
            if v in used:
                raise ContractViolation("matching edges share a vertex")
            used.add(v)
    ranks: dict[str, dict[int, int]] = {}

    def rank_of(v: str, e: int) -> int:
        table = ranks.get(v)
        if table is None:
            table = {edge: p for p, edge in enumerate(ps.order_in(v, s))}
            ranks[v] = table
        return table[e]

    for e in sorted(s - m):
        dominated = False
        for v in ps.graph.edges[e]:
            for f in m:
                if v in ps.graph.edges[f] and rank_of(v, f) < rank_of(v, e):
                    dominated = True
                    break
            if dominated:
                break
        if not dominated:
            return False, e
    return True, None


# --- exhaustive integral scheme search ---------------------------------------------


def efficiency_feasible_integral_tables(game: VertexCoverGame):
    """Every per-coalition 0/1 table meeting efficiency, with no monotonicity
    filtering at all (tractable only for a handful of edges)."""
    n = game.n
    coalitions = [mask_coalition(m) for m in range(1, 1 << n)]
    options = []
    for s in coalitions:
        cost = game.gamma(s)
        members = sorted(s)
        vecs = []
        for ones in itertools.combinations(members, cost):
            chosen = set(ones)
            vecs.append({i: (Fraction(1) if i in chosen else Fraction(0))
                         for i in members})
        options.append(vecs)
    for combo in itertools.product(*options):
        yield dict(zip(coalitions, combo))


def brute_integral_schemes(game: VertexCoverGame):
    """All integral tables accepted by verify_pmas.

    Candidates are per-coalition 0/1 vectors summing to the coalition cost;
    assignments proceed from supersets down so branches that already break
    covering-pair monotonicity (and would therefore fail the final
    verify_pmas filter) are cut early.  Survivors still go through
    verify_pmas in full.
    """
    n = game.n
    graph = game.graph
    masks = sorted(range(1, 1 << n), key=lambda m: m.bit_count(), reverse=True)
    edges_of = {m: [i for i in range(n) if (m >> i) & 1] for m in masks}
    assignment: dict[int, dict[int, int]] = {}
    results = []

    def emit() -> None:
        table = {frozenset(edges_of[m]): {i: Fraction(v) for i, v in vec.items()}
                 for m, vec in assignment.items()}
        scheme = AllocationScheme(graph, table=table)
        ok, _ = verify_pmas(game, scheme)
        if ok:
            results.append(table)

    def rec(pos: int) -> None:
        if pos == len(masks):
            emit()
            return
        m = masks[pos]
        members = edges_of[m]
        cost = game.gamma(frozenset(members))
        lower = {i: 0 for i in members}
        for j in range(n):
            if (m >> j) & 1:
                continue
            above = assignment.get(m | (1 << j))
            if above is None:
                continue
            for i in members:
                if above[i]:
                    lower[i] = 1
        need = cost - sum(lower.values())
        free = [i for i in members if lower[i] == 0]
        if need < 0 or need > len(free):
            return
        for ones in itertools.combinations(free, need):
            vec = dict(lower)
            for i in ones:
                vec[i] = 1
            assignment[m] = vec
            rec(pos + 1)
        assignment.pop(m, None)

    rec(0)
    return results


def canonical_table(table) -> tuple:
    """Hashable canonical form of a materialized scheme table."""
    return tuple(sorted(
        (tuple(sorted(s)),
         tuple((i, v.numerator, v.denominator) for i, v in sorted(vec.items())))
        for s, vec in table.items()))


# --- preference systems derived from raw degrees -----------------------------------


def admissible_preference_systems(g: Graph):
    """All preference systems with free riders pinned last, derived from
    degree counts alone (independent of the library's classification)."""
    view = SubgraphView(g, g.players())
    slots = []  # (vertex, permutable edges, forced-last edge or None)
    for comp in view.components():
        comp_vertices = sorted({w for i in comp for w in g.edges[i]})
        non_pendant = [v for v in comp_vertices if view.degree(v) >= 2]
        if len(comp) == 1:
            i = next(iter(comp))
            slots.append((min(g.edges[i]), (i,), None))
        elif len(non_pendant) == 1:
            slots.append((non_pendant[0], tuple(sorted(comp)), None))
        elif len(non_pendant) == 2:
            pair = set(non_pendant)
            rider = next(i for i in comp if set(g.edges[i]) == pair)
            for b in non_pendant:
                pend = tuple(i for i in view.incident[b] if i != rider)
                slots.append((b, pend, rider))
        else:
            raise AssertionError("not a star/pisces forest")
    slots.sort(key=lambda slot: slot[0])
    pools = [list(itertools.permutations(base)) for _, base, _ in slots]
    for combo in itertools.product(*pools):
        orders = {}
        for (v, _, rider), perm in zip(slots, combo):
            orders[v] = perm + ((rider,) if rider is not None else ())
        yield PreferenceSystem(g, orders)


# --- random fixture generators -----------------------------------------------------


def random_graph(rng: random.Random, max_edges: int = 10, max_vertices: int = 8) -> Graph:
    nv = rng.randint(2, max_vertices)
    labels = [f"v{k}" for k in range(nv)]
    pairs = list(itertools.combinations(labels, 2))
    m = rng.randint(1, min(max_edges, len(pairs)))
    chosen = rng.sample(pairs, m)
    oriented = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in chosen]
    rng.shuffle(oriented)
    return Graph.from_edges(oriented)


def random_bipartite_graph(rng: random.Random, max_edges: int = 12) -> Graph:
    left = [f"l{k}" for k in range(rng.randint(1, 4))]
    right = [f"r{k}" for k in range(rng.randint(1, 4))]
    pairs = [(a, b) for a in left for b in right]
    m = rng.randint(1, min(max_edges, len(pairs)))
    chosen = rng.sample(pairs, m)
    rng.shuffle(chosen)
    return Graph.from_edges(chosen)


def random_star_pisces_forest(rng: random.Random, max_edges: int = 16) -> Graph:
    """A disjoint union of stars and pisceses with a shuffled edge order."""
    total = rng.randint(1, max_edges)
    edges: list[tuple[str, str]] = []
    counter = 0

    def fresh() -> str:
        nonlocal counter
        counter += 1
        return f"n{counter}"

    remaining = total
    while remaining:
        if remaining >= 3 and rng.random() < 0.5:
            p = rng.randint(1, remaining - 2)
            q = rng.randint(1, remaining - 1 - p)
            b1, b2 = fresh(), fresh()
            edges.append((b1, b2))
            for _ in range(p):
                edges.append((b1, fresh()))
            for _ in range(q):
                edges.append((b2, fresh()))
            remaining -= 1 + p + q
        else:
            k = rng.randint(1, remaining)
            center = fresh()
            for _ in range(k):
                edges.append((center, fresh()))
            remaining -= k
    oriented = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in edges]
    rng.shuffle(oriented)
    return Graph.from_edges(oriented)


def all_pm_graphs_up_to(max_edges: int):
    """One graph per multiset of star/pisces shapes with at most max_edges
    edges in total (every population-monotonic graph up to isomorphism)."""
    shapes: list[tuple] = [("star", k) for k in range(1, max_edges + 1)]
    for p in range(1, max_edges):
        for q in range(p, max_edges):
            if p + q + 1 <= max_edges:
                shapes.append(("pisces", p, q))

    def shape_size(shape) -> int:
        return shape[1] if shape[0] == "star" else shape[1] + shape[2] + 1

    multisets: list[tuple] = []

    def rec(start: int, budget: int, chosen: list) -> None:
        if chosen:
            multisets.append(tuple(chosen))
        for idx in range(start, len(shapes)):
            size = shape_size(shapes[idx])
            if size <= budget:
                chosen.append(shapes[idx])
                rec(idx, budget - size, chosen)
                chosen.pop()

    rec(0, max_edges, [])

    for multiset in multisets:
        edges: list[tuple[str, str]] = []
        counter = 0

        def fresh() -> str:
            nonlocal counter
            counter += 1
            return f"v{counter:02d}"

        for shape in multiset:
            if shape[0] == "star":
                center = fresh()
                for _ in range(shape[1]):
                    edges.append((center, fresh()))
            else:
                _, p, q = shape
                b1, b2 = fresh(), fresh()
                edges.append((b1, b2))
                for _ in range(p):
                    edges.append((b1, fresh()))
                for _ in range(q):
                    edges.append((b2, fresh()))
        yield Graph.from_edges(edges)


# --- atlas of small graphs ----------------------------------------------------------


def atlas_graphs(connected_only: bool = False, max_edges: int | None = None):
    """All graphs on up to seven vertices (one per isomorphism class)."""
    import networkx as nx

    for nxg in nx.graph_atlas_g():
        if len(nxg) == 0:
            continue
        if connected_only and not nx.is_connected(nxg):
            continue
        if max_edges is not None and nxg.number_of_edges() > max_edges:
            continue
        labels = {node: str(node) for node in nxg.nodes()}
        pairs = [(labels[u], labels[v]) for u, v in sorted(nxg.edges())]
        extra = [labels[n] for n in sorted(nxg.nodes())]
        yield Graph.from_edges(pairs, extra_vertices=extra)

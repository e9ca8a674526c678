"""Brute-force reference oracles and fixture generators for the test suite.

Everything here is deliberately independent of the library's search engines:
covers and matchings by subset enumeration, stability by a hand-rolled
domination scan, component shapes by raw degree counting, scheme verification
and core membership by Fraction scans, and the constructive rule, its
selector and the pi* check by one split per coalition.  The only library
pieces used are the data types, the cover system's component shapes, the
coalition gate, incidence and component search for the old per-coalition
decomposition, the two-colouring for the old matching engine and, for the
integral-scheme search, the final verify_pmas filter that the search is
defined against.  Ten earlier library implementations are kept as
references for differential tests: the coalition split that grouped edges
by anchor, the component search that rescanned a vertex's edges once per
edge there, the cover search that rebuilt an edge-pair list at every node,
the matching engine on pair lists (augmenting paths on bipartite pairs,
else branch and bound), the per-coalition decomposition decompose, the
exact oracles' reader above the vertex cap that read each shape it finds,
the forbidden-pattern search with its own K3 and C4 loops, the
stability scan with a per-vertex rank cache, the integral scheme that ran
deferred acceptance per coalition, and core membership on Fraction sums.
The dual checks keep their Fraction semantics here too, as references for
the integer profile the library computes once per allocation.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from vcgame.errors import ContractViolation, MalformedScheme, OracleCapError
from vcgame.game import DEFAULT_EDGE_CAP, VertexCoverGame
from vcgame.graph import (PATTERNS, ComponentClassification, Graph, _coalition, _two_color,
                          all_coalitions, components, find_forbidden_subgraph, mask_coalition)
from vcgame.matching import PreferenceSystem, gale_shapley
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


def reference_split(cover: CoverSystem, coalition):
    """(groups, riders): the coalition's non-free-rider edges grouped by the
    global cover vertex covering them, in coalition order, and its free riders
    mapped to whether an edge of their own pisces is in the coalition too.
    Anchors and bases are read from the component shapes."""
    anchor = {i: v for c in cover.components for v, es in c.pendants.items() for i in es}
    bases = {c.free_rider: c.cover for c in cover.components if c.free_rider is not None}
    groups: dict[str, list[int]] = {}
    riders: list[int] = []
    for i in coalition:
        if i in anchor:
            groups.setdefault(anchor[i], []).append(i)
        elif i in bases:
            riders.append(i)
        else:
            raise ContractViolation(f"edge index out of range: {i}")
    return groups, {r: bases[r][0] in groups or bases[r][1] in groups for r in riders}


def reference_cover_for(cover: CoverSystem, coalition) -> tuple[str, ...]:
    """The selector from the split: every anchor of a group and, for each
    lone free rider, its smaller endpoint."""
    groups, riders = reference_split(cover, coalition)
    lone = {min(cover.graph.edges[r]) for r, accompanied in riders.items() if not accompanied}
    return tuple(sorted(set(groups) | lone))


def split_rule_allocation(cover: CoverSystem, coalition) -> dict[int, Fraction]:
    """The constructive rule on one coalition from the split: 1/k at an
    anchor with k coalition edges, 0 or 1 on a free rider."""
    groups, riders = reference_split(cover, frozenset(coalition))
    alloc: dict[int, Fraction] = {}
    for edges_in in groups.values():
        for i in edges_in:
            alloc[i] = Fraction(1, len(edges_in))
    for rider, accompanied in riders.items():
        alloc[rider] = Fraction(0 if accompanied else 1)
    return alloc


def reference_loads(graph: Graph, coalition, x):
    """(pay, load): the coalition's payments as Fractions and the Fraction
    load at every vertex they touch."""
    pay = {i: Fraction(x[i]) for i in coalition}
    load: dict[str, Fraction] = {}
    for i in coalition:
        for v in graph.edges[i]:
            load[v] = load.get(v, 0) + pay[i]
    return pay, load


def reference_dual_feasible(graph: Graph, coalition, x) -> bool:
    """check_dual_feasible on Fractions: nonnegative payments and every
    vertex load at most one."""
    pay, load = reference_loads(graph, frozenset(coalition), x)
    return all(p >= 0 for p in pay.values()) and all(v <= 1 for v in load.values())


def reference_dual_optimal(game: VertexCoverGame, coalition, x) -> bool:
    """check_dual_optimal on Fractions: dual feasible with the payments
    summing to the coalition's cost."""
    s = frozenset(coalition)
    return (reference_dual_feasible(game.graph, s, x)
            and sum(Fraction(x[i]) for i in s) == game.gamma(s))


def reference_pi_star(graph: Graph, coalition, x, cover: CoverSystem) -> bool:
    """check_pi_star from the split on Fractions: nonnegative payments, every
    vertex load at most one, unit load at every selected vertex and zero on
    every accompanied free rider."""
    s = frozenset(coalition)
    if not reference_dual_feasible(graph, s, x):
        return False
    pay, load = reference_loads(graph, s, x)
    if any(load[v] != 1 for v in reference_cover_for(cover, s)):
        return False
    _, riders = reference_split(cover, s)
    return all(pay[r] == 0 for r, accompanied in riders.items() if accompanied)


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


def reference_core_membership(game: VertexCoverGame, allocation):
    """core_membership as Fraction prefix sums: efficiency on the full player
    set first, then group rationality in ascending bitmask order."""
    players = game.players()
    if set(allocation) != set(players):
        raise ContractViolation("allocation must be indexed by the full player set")
    table = game.cost_table()
    size = 1 << game.n
    values = [allocation[i] for i in range(game.n)]
    sums: list = [Fraction(0)] * size
    for m in range(1, size):
        low = m & -m
        sums[m] = sums[m ^ low] + values[low.bit_length() - 1]
    if sums[size - 1] != table[size - 1]:
        return False, players
    for m in range(1, size):
        if sums[m] > table[m]:
            return False, mask_coalition(m)
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


def _reference_greedy_disjoint_edges(pairs) -> int:
    used: set[str] = set()
    count = 0
    for u, v in pairs:
        if u not in used and v not in used:
            count += 1
            used.add(u)
            used.add(v)
    return count


def _reference_cover_feasible(pairs, banned, budget: int) -> bool:
    if not pairs:
        return True
    if budget <= 0:
        return False
    if _reference_greedy_disjoint_edges(pairs) > budget:
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
        if _reference_cover_feasible(rest, banned, budget - 1):
            return True
    return False


def _reference_pairs(graph: Graph, coalition) -> list[tuple[str, str]]:
    return [graph.edges[i] for i in sorted(coalition)]


def reference_cover_size(graph: Graph, coalition) -> int:
    """The cover number by the branch and bound that rebuilt an edge-pair list
    at every node, over the coalition's pairs in ascending edge order."""
    pairs = _reference_pairs(graph, coalition)
    k = _reference_greedy_disjoint_edges(pairs)
    while not _reference_cover_feasible(pairs, frozenset(), k):
        k += 1
    return k


def reference_lex_min_cover(graph: Graph, coalition, size: int) -> tuple[str, ...]:
    """The lexicographically smallest cover of the given (minimum) size by the same
    pair-list search: a label joins the witness whenever a cover of that size can
    still be completed from strictly larger labels."""
    pairs = _reference_pairs(graph, coalition)
    chosen: list[str] = []
    banned: set[str] = set()
    remaining = pairs
    for v in sorted({w for e in pairs for w in e}):
        if not remaining:
            break
        without_v = [e for e in remaining if v != e[0] and v != e[1]]
        if len(chosen) < size and _reference_cover_feasible(without_v, banned,
                                                            size - len(chosen) - 1):
            chosen.append(v)
            remaining = without_v
        else:
            banned.add(v)
    return tuple(chosen)


def _reference_augment(a: str, left_adj, matched: dict[str, str], visited: set[str]) -> bool:
    for b in left_adj[a]:
        if b in visited:
            continue
        visited.add(b)
        if b not in matched or _reference_augment(matched[b], left_adj, matched, visited):
            matched[b] = a
            return True
    return False


def _reference_bipartite_matching_size(pairs, color) -> int:
    left_adj: dict[str, list[str]] = {}
    for u, v in pairs:
        a, b = (u, v) if color[u] == 0 else (v, u)
        left_adj.setdefault(a, []).append(b)
    for lst in left_adj.values():
        lst.sort()
    matched: dict[str, str] = {}
    return sum(_reference_augment(a, left_adj, matched, set()) for a in sorted(left_adj))


def _reference_matching_branch(pairs, count: int = 0, best: int = 0) -> int:
    """The larger of best and count plus a maximum matching of pairs."""
    if count > best:
        best = count
    if not pairs:
        return best
    verts = {w for e in pairs for w in e}
    if count + min(len(pairs), len(verts) // 2) <= best:
        return best
    u, v = pairs[0]
    take = [e for e in pairs[1:] if u != e[0] and u != e[1] and v != e[0] and v != e[1]]
    best = _reference_matching_branch(take, count + 1, best)
    return _reference_matching_branch(pairs[1:], count, best)


def _reference_matching_size(pairs) -> int:
    if not pairs:
        return 0
    color = _two_color(pairs)
    if color is not None:
        return _reference_bipartite_matching_size(pairs, color)
    return _reference_matching_branch(pairs)


def reference_matching_number(graph: Graph, coalition) -> tuple[int, tuple[int, ...]]:
    """The matching number and its lexicographically smallest witness by the pair-list
    engine: augmenting paths on a bipartite pair list, else branch and bound, and a
    witness loop that re-runs it on the later edges left free by each candidate."""
    order = sorted(coalition)
    pairs = [graph.edges[i] for i in order]
    size = _reference_matching_size(pairs)
    witness: list[int] = []
    used: set[str] = set()
    need = size
    for pos, i in enumerate(order):
        if need == 0:
            break
        u, v = pairs[pos]
        if u in used or v in used:
            continue
        blocked = used | {u, v}
        rest = [e for e in pairs[pos + 1:] if e[0] not in blocked and e[1] not in blocked]
        if _reference_matching_size(rest) >= need - 1:
            witness.append(i)
            used.update((u, v))
            need -= 1
    return size, tuple(witness)


def _reference_shape_cover(graph: Graph, c: ComponentClassification) -> tuple[str, ...]:
    """Lexicographically smallest minimum cover of one star/pisces shape: its cover, or on
    a pisces one base and the far leaf where the other base has a lone pendant."""
    if c.free_rider is None:
        return c.cover
    b1, b2 = c.cover
    best = c.cover
    for base, other in ((b1, b2), (b2, b1)):
        if len(c.pendants[base]) == 1:
            leaf = graph.other_end(c.pendants[base][0], base)
            best = min(best, tuple(sorted((leaf, other))))
    return best


def reference_decompose(graph: Graph, coalition) -> list[ComponentClassification] | None:
    """Star/pisces shapes of the coalition subgraph's components, ordered by
    smallest edge index; None when some component is neither (it has a cycle
    or diameter above 3).
    """
    order = sorted(_coalition(graph, coalition))
    incident = reference_incidence(graph, order)
    shapes: list[ComponentClassification] = []
    for comp in reference_edge_components(graph, order, incident):
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


def reference_above_cap(graph: Graph, coalition, max_vertices: int):
    """Both exact oracles' answers above the vertex cap as the reader of decompose's
    shapes (reference_decompose) gave them: ((cover size, cover), (matching size,
    matching)) from the union of each shape's smallest cover and the smallest pendant at
    each cover vertex, or the OracleCapError text when some component is neither a star
    nor a pisces; None within the cap, where the search answers."""
    n = len({w for i in coalition for w in graph.edges[i]})
    if n <= max_vertices:
        return None
    shapes = reference_decompose(graph, coalition)
    if shapes is None:
        return (f"instance too large for exact oracle: the coalition subgraph has {n} vertices,"
                f" above the {max_vertices}-vertex cap, and is not a star/pisces forest")
    cover = tuple(sorted(v for c in shapes for v in _reference_shape_cover(graph, c)))
    matching = tuple(sorted(min(es) for c in shapes for es in c.pendants.values()))
    return (len(cover), cover), (len(matching), matching)


def reference_incidence(graph: Graph, order) -> dict[str, list[int]]:
    """Each vertex that the edges of order span, mapped to its edges in that order."""
    incident: dict[str, list[int]] = {}
    for i in order:
        for w in graph.edges[i]:
            incident.setdefault(w, []).append(i)
    return incident


def reference_is_submodular_graph(graph: Graph) -> bool:
    """The submodularity verdict as two pattern searches: no triangle and no 3-edge path."""
    return (find_forbidden_subgraph(graph, "K3") is None
            and find_forbidden_subgraph(graph, "P4") is None)


def reference_edge_components(graph: Graph, order, incident) -> list[frozenset[int]]:
    """Edge sets of the components that the edges of order (ascending) span,
    ordered by smallest edge index, found by reading every incident list once
    per edge at its vertex (quadratic in a vertex's degree)."""
    seen: set[int] = set()
    out: list[frozenset[int]] = []
    for start in order:
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        for i in comp:  # breadth first: comp grows while it is read
            for v in graph.edges[i]:
                for j in incident[v]:
                    if j not in seen:
                        seen.add(j)
                        comp.append(j)
        out.append(frozenset(comp))
    return out


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
    slots = []  # (vertex, permutable edges, forced-last edge or None)
    for comp in components(g):
        comp_vertices = sorted({w for i in comp for w in g.edges[i]})
        non_pendant = [v for v in comp_vertices if g.degree(v) >= 2]
        if len(comp) == 1:
            i = next(iter(comp))
            slots.append((min(g.edges[i]), (i,), None))
        elif len(non_pendant) == 1:
            slots.append((non_pendant[0], tuple(sorted(comp)), None))
        elif len(non_pendant) == 2:
            pair = set(non_pendant)
            rider = next(i for i in comp if set(g.edges[i]) == pair)
            for b in non_pendant:
                pend = tuple(i for i in g.incident_edges(b) if i != rider)
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


def gale_shapley_scheme(ps: PreferenceSystem) -> AllocationScheme:
    """The integral scheme of a preference system by deferred acceptance:
    each coalition pays the incidence vector of its stable matching, stored
    as a table over every coalition."""
    table = {}
    for s in all_coalitions(ps.graph.n_edges)[1:]:
        matched = gale_shapley(ps, s)
        table[s] = {i: (Fraction(1) if i in matched else Fraction(0)) for i in s}
    return AllocationScheme(ps.graph, table=table)


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


def random_forest(rng: random.Random, max_edges: int = 30) -> Graph:
    """A random forest: each new vertex hangs off an earlier one or, now and then,
    starts a new tree; shuffled edge order."""
    total = rng.randint(1, max_edges)
    labels = ["n0"]
    edges: list[tuple[str, str]] = []
    while len(edges) < total:
        new = f"n{len(labels)}"
        if rng.random() >= 0.2:
            edges.append((rng.choice(labels), new))
        labels.append(new)
    oriented = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in edges]
    rng.shuffle(oriented)
    return Graph.from_edges(oriented)


def large_star_pisces_forests(rng: random.Random, count: int) -> list[Graph]:
    """count random star/pisces forests above both caps: more than 16 edges
    (the cost table's) and more than 24 vertices (the exact oracles')."""
    out: list[Graph] = []
    while len(out) < count:
        g = random_star_pisces_forest(rng, max_edges=40)
        if g.n_edges > 16 and g.n_vertices > 24:
            out.append(g)
    return out


def flipped(g: Graph) -> Graph:
    """The same edges with vertex labels in reversed order."""
    labels = sorted(g.vertices)
    flip = dict(zip(labels, reversed(labels)))
    return Graph.from_edges([(flip[u], flip[v]) for u, v in g.edges])


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

"""Preference systems and stable matchings for coalition subgraphs.

Integral allocation schemes correspond one-to-one with preference systems in
which every free rider ranks last at both its endpoints: the payment vector
of such a scheme on a coalition is the incidence vector of the unique stable
matching of the restricted preference system.  Enumeration therefore walks
per-vertex permutations (free rider pinned last) and runs deferred acceptance
coalition by coalition; counting multiplies factorials instead.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import permutations

from .errors import (ContractViolation, EnumerationTruncated, MalformedScheme,
                     NotIntegralScheme, UnsupportedInstance)
from .graph import Coalition, Graph, _require_edges, _two_color
from .pmas import ONE, ZERO, AllocationScheme, classify_components

Matching = frozenset[int]

DEFAULT_ENUM_CAP = 10000


class PreferenceSystem:
    """Strict per-vertex orders over incident edges, most preferred first.

    Orders are required wherever a vertex has two or more incident edges and
    may be given for pendant vertices too (the designated center of a lone
    edge carries a trivial one-element order to keep extraction total).
    """

    def __init__(self, graph: Graph, orders) -> None:
        self.graph = graph
        normalized: dict[str, tuple[int, ...]] = {}
        for v, seq in orders.items():
            if not graph.has_vertex(v):
                raise ContractViolation(f"unknown vertex {v!r} in preference orders")
            expected = set(graph.incident_edges(v))
            seq = tuple(seq)
            for i in seq:
                if type(i) is not int:
                    raise ContractViolation(
                        f"order for vertex {v!r} ranks {i!r}, not an edge index")
            if len(seq) != len(expected) or set(seq) != expected:
                raise ContractViolation(
                    f"order for vertex {v!r} must rank exactly its incident edges")
            normalized[v] = seq
        for v in graph.vertices:
            if graph.degree(v) >= 2 and v not in normalized:
                raise ContractViolation(f"missing preference order for vertex {v!r}")
        self.orders = normalized

    def __eq__(self, other) -> bool:
        return (isinstance(other, PreferenceSystem)
                and self.graph == other.graph and self.orders == other.orders)

    def __repr__(self) -> str:
        return f"PreferenceSystem({self.orders!r})"

    def order_in(self, v: str, coalition) -> tuple[int, ...]:
        """The order at v restricted to coalition edges (trivial when pendant)."""
        stored = self.orders.get(v)
        if stored is not None:
            return tuple(i for i in stored if i in coalition)
        mine = [i for i in self.graph.incident_edges(v) if i in coalition]
        if len(mine) > 1:
            raise ContractViolation(f"no preference order for vertex {v!r}")
        return tuple(mine)


def gale_shapley(ps: PreferenceSystem, coalition) -> Matching:
    """Deferred acceptance on the coalition subgraph.

    The color class of each component's smallest vertex proposes; on
    population-monotonic graphs the stable matching is unique, so the
    proposal side does not affect the result.
    """
    graph = ps.graph
    s = frozenset(coalition)
    if not s:
        return frozenset()
    _require_edges(graph, s)
    color = _two_color([graph.edges[i] for i in sorted(s)])
    if color is None:
        raise UnsupportedInstance("coalition subgraph is not bipartite")
    vertices = sorted(color)
    orders = {v: ps.order_in(v, s) for v in vertices}
    rank = {v: {e: p for p, e in enumerate(orders[v])} for v in vertices}
    proposers = [v for v in vertices if color[v] == 0]
    pointer = {v: 0 for v in proposers}
    held: dict[str, int] = {}
    queue = deque(proposers)
    while queue:
        v = queue.popleft()
        order_v = orders[v]
        while pointer[v] < len(order_v):
            e = order_v[pointer[v]]
            u = graph.other_end(e, v)
            cur = held.get(u)
            if cur is None:
                held[u] = e
                break
            if rank[u][e] < rank[u][cur]:
                held[u] = e
                w = graph.other_end(cur, u)
                pointer[w] += 1
                queue.append(w)
                break
            pointer[v] += 1
    return frozenset(held.values())


def is_stable(ps: PreferenceSystem, coalition, matching):
    """Domination scan: every coalition edge outside the matching must be
    beaten at one of its endpoints by that vertex's partner, ranked earlier.

    Returns (True, None) or (False, first blocking edge by index).
    """
    s = frozenset(coalition)
    m = frozenset(matching)
    if not m <= s:
        raise ContractViolation("matching must be a subset of the coalition")
    _require_edges(ps.graph, s)
    edges = ps.graph.edges
    partner: dict[str, int] = {}
    for i in m:
        for v in edges[i]:
            if v in partner:
                raise ContractViolation("matching edges share a vertex")
            partner[v] = i
    for e in sorted(s - m):
        for v in edges[e]:
            f = partner.get(v)
            if f is not None:
                order = ps.order_in(v, s)
                if order.index(f) < order.index(e):
                    break
        else:
            return False, e
    return True, None


def _require_free_riders_lowest(ps: PreferenceSystem, comps) -> None:
    for c in comps:
        if c.free_rider is None:
            continue
        for b in c.cover:
            if ps.orders[b][-1] != c.free_rider:
                raise ContractViolation(
                    f"free rider {c.free_rider} must rank last at vertex {b!r}")


def scheme_from_preferences(ps: PreferenceSystem) -> AllocationScheme:
    """Integral rule-backed scheme: each coalition pays the incidence vector
    of its unique stable matching.  Requires a population-monotonic graph and
    free riders ranked last at both bases."""
    comps, _ = classify_components(ps.graph)
    _require_free_riders_lowest(ps, comps)

    def rule(s: Coalition):
        matched = gale_shapley(ps, s)
        return {i: (ONE if i in matched else ZERO) for i in s}

    return AllocationScheme(ps.graph, rule=rule)


def preferences_from_scheme(game, scheme: AllocationScheme) -> PreferenceSystem:
    """Recover the preference system of an integral scheme by iterated peeling:
    on each cover vertex's incident set, the unit-paying edge is the next most
    preferred; remove it and repeat."""
    graph = game.graph
    _, cover = classify_components(graph)
    orders: dict[str, tuple[int, ...]] = {}
    for v in cover.cover:
        remaining = frozenset(graph.incident_edges(v))
        seq: list[int] = []
        while remaining:
            alloc = scheme.allocation(remaining)
            units: list[int] = []
            for i in sorted(remaining):
                value = alloc[i]
                if value == 1:
                    units.append(i)
                elif value != 0:
                    raise NotIntegralScheme(
                        f"allocation for edge {i} on {sorted(remaining)} is "
                        f"{value}, not 0 or 1")
            if len(units) != 1:
                what = "no edge pays" if not units else "multiple edges pay"
                raise MalformedScheme(
                    f"{what} 1 at vertex {v!r} on coalition {sorted(remaining)}")
            seq.append(units[0])
            remaining = remaining - {units[0]}
        orders[v] = tuple(seq)
    return PreferenceSystem(graph, orders)


def count_integral_pmas(graph: Graph) -> int:
    """Number of integral schemes: the product over cover vertices of the
    factorial of their non-free-rider degree (one scheme per admissible
    preference system)."""
    comps, _ = classify_components(graph)
    total = 1
    for c in comps:
        for v in c.cover:
            total *= math.factorial(len(c.pendants[v]))
    return total


def enumerate_integral_pmas(graph: Graph, *, max_enumerate: int = DEFAULT_ENUM_CAP):
    """Yield one integral scheme per admissible preference system.

    Systems are generated in lexicographic order of per-vertex permutations
    (vertices in label order, edges by index, free riders pinned last).  The
    stream is lazy; after max_enumerate schemes it raises EnumerationTruncated
    if more remain.
    """
    comps, _ = classify_components(graph)
    by_vertex: dict[str, tuple[tuple[int, ...], int | None]] = {}
    for c in comps:
        for v in c.cover:
            by_vertex[v] = (tuple(sorted(c.pendants[v])), c.free_rider)
    vertices = sorted(by_vertex)

    def walk(idx: int, orders: dict[str, tuple[int, ...]]):
        if idx == len(vertices):
            yield dict(orders)
            return
        v = vertices[idx]
        base, rider = by_vertex[v]
        tail = (rider,) if rider is not None else ()
        for perm in permutations(base):
            orders[v] = perm + tail
            yield from walk(idx + 1, orders)
        orders.pop(v, None)

    yielded = 0
    for orders in walk(0, {}):
        if yielded >= max_enumerate:
            raise EnumerationTruncated(f"enumeration stopped at cap {max_enumerate}")
        yielded += 1
        yield scheme_from_preferences(PreferenceSystem(graph, orders))

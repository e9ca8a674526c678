"""Preference systems and stable matchings for coalition subgraphs.

Integral allocation schemes correspond one-to-one with preference systems in
which every free rider ranks last at both its endpoints: the payment vector
of such a scheme on a coalition is the incidence vector of the unique stable
matching of the restricted preference system.  That matching gives each
cover vertex its highest-ranked coalition edge and a free rider only when it
is lone, so an integral scheme is the constructive scheme's rule table with
other entries, built by the cover system from the orders, and only
stable-match queries run deferred acceptance.
Enumeration walks per-vertex permutations (free rider pinned last); counting
multiplies factorials instead.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import permutations

from .errors import (ContractViolation, EnumerationTruncated, MalformedScheme,
                     NotIntegralScheme, UnsupportedInstance)
from .game import _payments
from .graph import Graph, _coalition, _two_color, _vertex_cap
from .pmas import AllocationScheme, CoverSystem, _checked_orders, _require_same_graph

Matching = frozenset[int]

DEFAULT_ENUM_CAP = 10000


class PreferenceSystem:
    """Strict per-vertex orders over incident edges, most preferred first.

    Orders are required wherever a vertex has two or more incident edges and
    may be given for pendant vertices too (the designated center of a lone
    edge carries a trivial one-element order to keep extraction total).
    The orders are checked once and kept private (`orders` is a new dict on
    each read); _rank gives each vertex's edges their positions in its order,
    which hold in every coalition, as restriction keeps the relative order.
    """

    def __init__(self, graph: Graph, orders) -> None:
        self.graph = graph
        self._orders = _checked_orders(graph, orders)
        self._rank = {v: {e: p for p, e in enumerate(self._orders.get(v, graph.incident_edges(v)))}
                      for v in graph.vertices}

    @property
    def orders(self) -> dict[str, tuple[int, ...]]:
        return dict(self._orders)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PreferenceSystem)
                and self.graph == other.graph and self._orders == other._orders)

    def __repr__(self) -> str:
        return f"PreferenceSystem({self._orders!r})"

    def order_in(self, v: str, coalition) -> tuple[int, ...]:
        """The order at v restricted to coalition edges, read from its ranks
        (a pendant vertex without an order ranks its incident edge)."""
        return tuple(i for i in self._rank[v] if i in coalition)


def gale_shapley(ps: PreferenceSystem, coalition) -> Matching:
    """Deferred acceptance on the coalition subgraph.

    The color class of each component's smallest vertex proposes; on
    population-monotonic graphs the stable matching is unique, so the
    proposal side does not affect the result.  Only the proposers' orders are
    restricted to the coalition; a receiver compares through the system's ranks.
    """
    graph = ps.graph
    s = _coalition(graph, coalition)
    color = _two_color([graph.edges[i] for i in sorted(s)])
    if color is None:
        raise UnsupportedInstance("coalition subgraph is not bipartite")
    rank = ps._rank
    proposers = [v for v in sorted(color) if color[v] == 0]
    orders = {v: ps.order_in(v, s) for v in proposers}
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

    Returns (True, None) or (False, first blocking edge by index).  Edges
    compare through the system's ranks, which hold in every coalition.
    """
    s = _coalition(ps.graph, coalition)
    m = _coalition(ps.graph, matching)
    if not m <= s:
        raise ContractViolation("matching must be a subset of the coalition")
    edges = ps.graph.edges
    partner: dict[str, int] = {}
    for i in m:
        for v in edges[i]:
            if v in partner:
                raise ContractViolation("matching edges share a vertex")
            partner[v] = i
    rank = ps._rank
    for e in sorted(s - m):
        for v in edges[e]:
            f = partner.get(v)
            if f is not None and rank[v][f] < rank[v][e]:
                break
        else:
            return False, e
    return True, None


def scheme_from_preferences(ps: PreferenceSystem) -> AllocationScheme:
    """Integral rule-table scheme: each coalition pays the incidence vector
    of its unique stable matching, in which every cover vertex takes its
    highest-ranked coalition edge and a free rider is matched only when lone.
    Requires a population-monotonic graph and free riders ranked last at both
    bases."""
    return CoverSystem(ps.graph)._integral(ps._orders)


def preferences_from_scheme(game, scheme: AllocationScheme) -> PreferenceSystem:
    """Recover the preference system of an integral scheme by iterated peeling:
    on each cover vertex's incident set, the unit-paying edge is the next most
    preferred; remove it and repeat.  A scheme of another graph is refused; an
    allocation that _payments refuses raises MalformedScheme naming the
    coalition, and a payment other than 0 or 1 NotIntegralScheme."""
    graph = game.graph
    _require_same_graph(graph, scheme.graph, "scheme")
    cover = CoverSystem(graph)
    orders: dict[str, tuple[int, ...]] = {}
    for v in cover.cover:
        remaining = frozenset(graph.incident_edges(v))
        seq: list[int] = []
        while remaining:
            alloc = _payments(scheme.allocation(remaining), MalformedScheme, remaining)
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
    return math.prod(math.factorial(len(es)) for c in CoverSystem(graph).components
                     for es in c.pendants.values())


def _orders(by_vertex, vertices: list[str], orders: dict[str, tuple[int, ...]]):
    """Every extension of orders to the given vertices, in lexicographic
    order of their permutations with free riders pinned last."""
    if not vertices:
        yield dict(orders)
        return
    v = vertices[0]
    base, rider = by_vertex[v]
    tail = (rider,) if rider is not None else ()
    for perm in permutations(base):
        orders[v] = perm + tail
        yield from _orders(by_vertex, vertices[1:], orders)
    orders.pop(v, None)


def enumerate_integral_pmas(graph: Graph, *, max_enumerate: int = DEFAULT_ENUM_CAP):
    """Yield one integral scheme per admissible preference system.

    Systems are generated in lexicographic order of per-vertex permutations
    (vertices in label order, edges by index, free riders pinned last), each
    read into the graph's cover system as a rule table.  The stream is lazy;
    after max_enumerate schemes it raises EnumerationTruncated if more remain.
    """
    _vertex_cap(max_enumerate, "enumeration cap")
    cover = CoverSystem(graph)
    by_vertex = {v: (tuple(sorted(es)), c.free_rider)
                 for c in cover.components for v, es in c.pendants.items()}
    for yielded, orders in enumerate(_orders(by_vertex, sorted(by_vertex), {})):
        if yielded >= max_enumerate:
            raise EnumerationTruncated(f"enumeration stopped at cap {max_enumerate}")
        yield cover._integral(orders)

"""The cost game on edge players: a coalition pays the minimum vertex cover
number of its induced subgraph.

Cost allocations are plain dicts mapping edge index to an exact Fraction.
Exhaustive verdicts (monotonicity, submodularity, core membership) run off a
full cost table computed by a bitmask recursion over edge subsets; the table
is only built below the configured edge cap.  Per-coalition costs on larger
instances fall back to the cover-number oracle, which handles star/pisces
forests of any size structurally.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import ContractViolation, NotBalanced, OracleCapError
from .graph import (DEFAULT_VERTEX_CAP, Coalition, Graph, find_forbidden_subgraph,
                    is_bipartite, matching_number, vertex_cover_number)

DEFAULT_EDGE_CAP = 16


def coalition_mask(coalition) -> int:
    mask = 0
    for i in coalition:
        mask |= 1 << i
    return mask


def mask_coalition(mask: int) -> Coalition:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return frozenset(out)


@lru_cache(maxsize=8)
def all_coalitions(n: int) -> tuple[Coalition, ...]:
    """Every coalition over n players, indexed by bitmask (interned per n so
    exhaustive scans share one table)."""
    return tuple(mask_coalition(m) for m in range(1 << n))


def _full_cost_table(graph: Graph) -> list[int]:
    """Cover number of every edge subset, indexed by bitmask.

    Recursion: any cover of a subset containing edge e=(u,v) uses u or v, so
    the cost is 1 plus the cheaper of the two residual subsets.
    """
    n = graph.n_edges
    incident_mask = {v: 0 for v in graph.vertices}
    for i, (u, v) in enumerate(graph.edges):
        incident_mask[u] |= 1 << i
        incident_mask[v] |= 1 << i
    clear = [(~incident_mask[u], ~incident_mask[v]) for u, v in graph.edges]
    table = [0] * (1 << n)
    for m in range(1, 1 << n):
        e = (m & -m).bit_length() - 1
        cu, cv = clear[e]
        a = table[m & cu]
        b = table[m & cv]
        table[m] = 1 + (a if a < b else b)
    return table


class VertexCoverGame:
    """Characteristic function wrapper: coalition costs are read from the
    cost table once it is built, else from the memoized cover oracle."""

    def __init__(self, graph: Graph, *, max_vertices: int = DEFAULT_VERTEX_CAP) -> None:
        self.graph = graph
        self.n = graph.n_edges
        self.max_vertices = max_vertices
        self._players = graph.players()
        self._memo: dict[Coalition, int] = {frozenset(): 0}
        self._table: list[int] | None = None

    def players(self) -> Coalition:
        return self._players

    def gamma(self, coalition) -> int:
        s = frozenset(coalition)
        if self._table is not None and s <= self._players:
            return self._table[coalition_mask(s)]
        hit = self._memo.get(s)
        if hit is not None:
            return hit
        if not s <= self._players:
            raise ContractViolation("coalition contains unknown players")
        value, _ = vertex_cover_number(self.graph, s, max_vertices=self.max_vertices)
        self._memo[s] = value
        return value

    def cost_table(self, max_edges: int = DEFAULT_EDGE_CAP) -> list[int]:
        """Costs of all coalitions indexed by bitmask; built on first use."""
        if self._table is None:
            if self.n > max_edges:
                raise OracleCapError(
                    f"cost table over {self.n} edges exceeds the {max_edges}-edge cap")
            self._table = _full_cost_table(self.graph)
        return self._table


def is_monotone_game(game: VertexCoverGame, *, max_edges: int = DEFAULT_EDGE_CAP):
    """Exhaustive cost monotonicity over covering pairs (S, S + {j}).

    Covering pairs suffice by transitivity.  Returns (True, None) or
    (False, (subset, superset)) for the first violation in (superset, dropped
    edge) scan order.
    """
    table = game.cost_table(max_edges)
    for t in range(1, 1 << game.n):
        cost_t = table[t]
        rem = t
        while rem:
            bit = rem & -rem
            rem ^= bit
            if table[t ^ bit] > cost_t:
                return False, (mask_coalition(t ^ bit), mask_coalition(t))
    return True, None


def is_submodular_game(game: VertexCoverGame, *, max_edges: int = DEFAULT_EDGE_CAP):
    """Exhaustive submodularity check by the local test
    cost(S + i) + cost(S + j) >= cost(S + i + j) + cost(S) for every coalition
    S and players i < j outside it, which is equivalent to
    cost(S) + cost(T) >= cost(S | T) + cost(S & T) for all pairs (S, T).

    S is scanned in ascending bitmask order, then i, then j, both ascending.
    Returns (True, None) or (False, (S + i, S + j)) for the first violation.
    """
    table = game.cost_table(max_edges)
    n = game.n
    bits = [1 << k for k in range(n)]
    for s in range(1 << n):
        base = table[s]
        outside = [b for b in bits if not s & b]
        for pos, bi in enumerate(outside):
            si = s | bi
            gain_i = table[si] - base
            for bj in outside[pos + 1:]:
                if table[si | bj] - table[s | bj] > gain_i:
                    return False, (mask_coalition(si), mask_coalition(s | bj))
    return True, None


def is_submodular_graph(graph: Graph) -> bool:
    """Structural route to the same verdict: no triangle and no 3-edge path."""
    return (find_forbidden_subgraph(graph, "K3") is None
            and find_forbidden_subgraph(graph, "P4") is None)


def is_balanced(game: VertexCoverGame) -> bool:
    """Nonempty core iff the matching number equals the cover number."""
    players = game.players()
    nu, _ = matching_number(game.graph, players, max_vertices=game.max_vertices)
    tau, _ = vertex_cover_number(game.graph, players, max_vertices=game.max_vertices)
    return nu == tau


def is_totally_balanced(game: VertexCoverGame) -> bool:
    """Every subgame has a nonempty core iff the graph is bipartite."""
    return is_bipartite(game.graph)


def core_membership(game: VertexCoverGame, allocation, *, max_edges: int = DEFAULT_EDGE_CAP):
    """Efficiency plus group rationality of a grand-coalition allocation.

    Returns (True, None), or (False, offending coalition) where the failure is
    either total != cost(N) (reported on the full player set) or the first
    coalition, in ascending bitmask order, paying more than its own cost.
    """
    players = game.players()
    if set(allocation) != set(players):
        raise ContractViolation("allocation must be indexed by the full player set")
    table = game.cost_table(max_edges)
    n = game.n
    size = 1 << n
    values = [allocation[i] for i in range(n)]
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


def core_element_from_matching(game: VertexCoverGame) -> dict[int, Fraction]:
    """Incidence vector of a maximum matching: a core element whenever the
    matching number equals the cover number (raises NotBalanced otherwise)."""
    players = game.players()
    nu, witness = matching_number(game.graph, players, max_vertices=game.max_vertices)
    tau, _ = vertex_cover_number(game.graph, players, max_vertices=game.max_vertices)
    if nu != tau:
        raise NotBalanced("game is not balanced")
    matched = set(witness)
    one = Fraction(1)
    zero = Fraction(0)
    return {i: (one if i in matched else zero) for i in sorted(players)}

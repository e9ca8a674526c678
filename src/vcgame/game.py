"""The cost game on edge players: a coalition pays the minimum vertex cover
number of its induced subgraph.

Cost allocations are plain dicts mapping edge index to an exact Fraction.
Up to DEFAULT_EDGE_CAP edges a game keeps one byte per coalition (64 KiB at
most), filled on first use by a memoized recursion over edge subsets: gamma
asks it for one coalition, after the vertex cap, and cost_table() completes
it as the full cost table, which exhaustive verdicts (monotonicity,
submodularity, core membership) read.  A star/pisces forest's coalition costs
the vertices its cover rule charges until that table is built, and above
DEFAULT_EDGE_CAP edges a coalition's cost comes from a size-only cover search.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction

from .errors import ContractViolation, NotBalanced, OracleCapError
from .graph import (DEFAULT_VERTEX_CAP, Coalition, Graph, _charged, _coalition, _min_cover_size,
                    _oracle_input, _vertex_cap, is_bipartite, mask_coalition, matching_number)

DEFAULT_EDGE_CAP = 16


def _on(coalition) -> str:
    return "" if coalition is None else f" on coalition {sorted(coalition)}"


def _exact_payment(value, error: type[Exception], edge, coalition) -> Fraction:
    """A payment that is not of type Fraction, as one: a Fraction subclass
    or an int is exact; anything else (a bool, a str, a binary floating-point
    number) raises error naming the edge and the coalition, unless None."""
    if isinstance(value, Fraction) or type(value) is int:
        return Fraction(value)
    raise error(f"payment of edge {edge}{_on(coalition)} is {value!r}, not an int or Fraction")


def _payments(row, error: type[Exception], coalition) -> dict[int, Fraction]:
    """row as a new dict of Fraction payments: the one check of a scheme row or core
    allocation.  Raises error, naming the coalition unless None, on the first of: a
    non-mapping, an edge key not of type int (True and 0.0 would look up edges 1 and 0),
    keys other than the coalition's members (if given), a payment _exact_payment refuses."""
    if not isinstance(row, Mapping):
        raise error(f"allocation{_on(coalition)} is {row!r}, not a mapping")
    for i in row:
        if type(i) is not int:
            raise error(f"edge key {i!r}{_on(coalition)} is not an int")
    if coalition is not None and row.keys() != coalition:
        raise error(f"allocation for {sorted(coalition)} is not indexed by its members")
    return {i: v if type(v) is Fraction else _exact_payment(v, error, i, coalition)
            for i, v in row.items()}


def _numerators(payments: dict[int, Fraction]) -> tuple[dict, int]:
    """(nums, den) for a row that _payments returned: nums maps each key to its
    payment's integer numerator over den, the least common denominator."""
    den = math.lcm(*[v.denominator for v in payments.values()])
    return {i: v.numerator * (den // v.denominator) for i, v in payments.items()}, den


def _cover_number(known: bytearray, masks, m: int) -> int:
    """The cover number of the edges in m, memoized in known, one byte per coalition mask
    (255 while unknown).  Any cover of edges holding their lowest edge (u, v) uses u or
    v, so it costs 1 plus the cheaper of the edges left after covering u and after
    covering v, which the graph's per-edge masks give; only an unknown one recurses, at
    most popcount(m) deep."""
    size = known[m]
    if size == 255:
        left_u, left_v, _, _, _ = masks[(m & -m).bit_length() - 1]
        a, b = known[m & left_u], known[m & left_v]
        if a == 255:
            a = _cover_number(known, masks, m & left_u)
        if b == 255:
            b = _cover_number(known, masks, m & left_v)
        size = known[m] = 1 + (a if a < b else b)
    return size


class VertexCoverGame:
    """Characteristic function wrapper: coalition costs are read from the cost
    table once it is built, else counted from the graph's star/pisces structure,
    else, under the game's vertex cap (a nonnegative int checked once, when the
    game is built), found by _cover_number up to DEFAULT_EDGE_CAP edges and by
    the size-only cover search above."""

    def __init__(self, graph: Graph, *, max_vertices: int = DEFAULT_VERTEX_CAP) -> None:
        self.graph = graph
        self.n = graph.n_edges
        self.max_vertices = _vertex_cap(max_vertices)
        self._players = graph.players()
        self._table: bytearray | None = None  # the cost table, once built
        self._known: bytearray | None = None  # the bytes _cover_number fills until then

    def players(self) -> Coalition:
        return self._players

    def _bytes(self) -> bytearray:
        if self._known is None:
            self._known = bytearray(b"\0" + b"\xff" * ((1 << self.n) - 1))
        return self._known

    def gamma(self, coalition) -> int:
        """The coalition's cover number, by the routes the class names.  The vertex cap is
        checked, and the above-cap structural answer given, before any byte is read."""
        if self._table is not None:
            return self._table[_coalition(self.graph, coalition)._mask]
        if self.graph._structure is not None:
            return len(_charged(self.graph, _coalition(self.graph, coalition)))
        s, witnesses = _oracle_input(self.graph, coalition, self.max_vertices)
        if witnesses is not None:
            return len(witnesses[0])
        if self.n > DEFAULT_EDGE_CAP:
            return _min_cover_size(self.graph._edge_masks, s._mask)
        return _cover_number(self._bytes(), self.graph._edge_masks, s._mask)

    def cost_table(self, max_edges: int = DEFAULT_EDGE_CAP) -> list[int]:
        """Costs of all coalitions indexed by bitmask, as a new list on each call: the
        game completes the bytes gamma filled, in ascending mask order, and keeps them as
        its own table, one byte per coalition, which no caller can change.  max_edges
        limits only the build: a table already built is returned at any cap, which is how
        is_monotone_game, is_submodular_game and core_membership, reading it at the
        default cap, get past that cap."""
        _vertex_cap(max_edges, "edge cap")
        if self._table is None:
            if self.n > max_edges:
                raise OracleCapError(
                    f"cost table over {self.n} edges exceeds the {max_edges}-edge cap")
            known, masks = self._bytes(), self.graph._edge_masks
            for m in range(1 << self.n):
                _cover_number(known, masks, m)
            self._table, self._known = known, None  # gamma reads the table from now on
        return list(self._table)


def is_monotone_game(game: VertexCoverGame):
    """Exhaustive cost monotonicity over covering pairs (S, S + {j}).

    Covering pairs suffice by transitivity.  Returns (True, None) or
    (False, (subset, superset)) for the first violation in (superset, dropped
    edge) scan order.
    """
    table = game.cost_table()
    for t in range(1, 1 << game.n):
        cost_t = table[t]
        rem = t
        while rem:
            bit = rem & -rem
            rem ^= bit
            if table[t ^ bit] > cost_t:
                return False, (mask_coalition(t ^ bit), mask_coalition(t))
    return True, None


def is_submodular_game(game: VertexCoverGame):
    """Exhaustive submodularity check by the local test
    cost(S + i) + cost(S + j) >= cost(S + i + j) + cost(S) for every coalition
    S and players i < j outside it, which is equivalent to
    cost(S) + cost(T) >= cost(S | T) + cost(S & T) for all pairs (S, T).

    S is scanned in ascending bitmask order, then i, then j, both ascending.
    Returns (True, None) or (False, (S + i, S + j)) for the first violation.
    """
    table = game.cost_table()
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
    """Structural route to the same verdict: no triangle and no 3-edge path, read off
    the graph's star/pisces structure in linear time.

    A component with no K3 and no P4 subgraph is acyclic (a cycle of length 4 or more
    holds a P4) of diameter at most 2: a star or a lone edge, both shapes without a free
    rider.  Conversely a pisces holds the P4 leaf-b1-b2-leaf, as both bases have a
    pendant, and a graph that is not a star/pisces forest holds K3, C4 or P5, so K3 or P4.
    """
    structure = graph._structure
    return structure is not None and all(c.free_rider is None for c in structure.shapes)


def is_balanced(game: VertexCoverGame) -> bool:
    """Nonempty core iff the matching number equals the cover number."""
    nu, _ = matching_number(game.graph, game.players(), max_vertices=game.max_vertices)
    return nu == game.gamma(game.players())


def is_totally_balanced(game: VertexCoverGame) -> bool:
    """Every subgame has a nonempty core iff the graph is bipartite."""
    return is_bipartite(game.graph)


def core_membership(game: VertexCoverGame, allocation):
    """Efficiency plus group rationality of a grand-coalition allocation.

    Returns (True, None), or (False, offending coalition) where the failure is
    either total != cost(N) (reported on the full player set) or the first
    coalition, in ascending bitmask order, paying more than its own cost.
    Coalition sums are integer numerators over one common denominator.
    """
    players = game.players()
    nums, den = _numerators(_payments(allocation, ContractViolation, None))
    if nums.keys() != players:
        raise ContractViolation("allocation must be indexed by the full player set")
    table = game.cost_table()
    size = 1 << game.n
    sums = [0] * size
    for m in range(1, size):
        low = m & -m
        sums[m] = sums[m ^ low] + nums[low.bit_length() - 1]
    if sums[size - 1] != table[size - 1] * den:
        return False, players
    for m in range(1, size):
        if sums[m] > table[m] * den:
            return False, mask_coalition(m)
    return True, None


def core_element_from_matching(game: VertexCoverGame) -> dict[int, Fraction]:
    """Incidence vector of a maximum matching: a core element whenever the
    matching number equals the cover number (raises NotBalanced otherwise)."""
    players = game.players()
    nu, witness = matching_number(game.graph, players, max_vertices=game.max_vertices)
    if nu != game.gamma(players):
        raise NotBalanced("game is not balanced")
    matched = set(witness)
    one = Fraction(1)
    zero = Fraction(0)
    return {i: (one if i in matched else zero) for i in sorted(players)}

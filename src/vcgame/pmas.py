"""Recognition and construction of population monotonic allocation schemes.

A vertex cover game admits such a scheme exactly when every component of the
graph is a tree of diameter at most 3, i.e. a star or a pisces (two stars
joined by an edge between their centers).  The non-pendant edge of a pisces
is its free rider: any cover of the accompanying edges covers it for free.

The constructive scheme splits each chosen cover vertex's unit cost equally
among the non-free-rider coalition edges it covers; an accompanied free rider
pays nothing and a lone free rider pays the full unit.  The dual-side checks
certify allocations against the fractional cover relaxation of the coalition
subgraph: feasibility (nonnegative, per-vertex load at most one), optimality
(total equal to the coalition cost), and membership in the tight face with
unit load exactly at every chosen cover vertex and zeros on accompanied free
riders.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (ContractViolation, MalformedScheme, NotPopulationMonotonic,
                     OracleCapError)
from .game import DEFAULT_EDGE_CAP, VertexCoverGame, all_coalitions, coalition_mask
from .graph import (ComponentClassification, Coalition, Graph, decompose,
                    find_forbidden_subgraph)

ZERO = Fraction(0)
ONE = Fraction(1)

FORBIDDEN = ("K3", "C4", "P5")


def fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _classify(graph: Graph):
    """All component shapes, or a forbidden-subgraph witness."""
    shapes = decompose(graph, graph.players())
    if shapes is not None:
        return shapes, None
    for pattern in FORBIDDEN:
        witness = find_forbidden_subgraph(graph, pattern)
        if witness is not None:
            return None, (pattern, witness)
    raise AssertionError("graph is not star/pisces but has no forbidden subgraph")


def recognize_population_monotonic(graph: Graph):
    """(True, None) when every component is a star or pisces, else
    (False, (pattern, vertex sequence)) with a concrete forbidden subgraph."""
    shapes, witness = _classify(graph)
    return witness is None, witness


def classify_components(graph: Graph):
    """Component classifications plus the cover system.

    Raises NotPopulationMonotonic (with the witness) on unrecognizable graphs.
    """
    shapes, witness = _classify(graph)
    if witness is not None:
        raise NotPopulationMonotonic(*witness)
    return shapes, CoverSystem(graph, shapes)


class CoverSystem:
    """Global minimum cover made of centers and bases, with a deterministic
    per-coalition selector and the constructive rule.

    Every coalition is split once: its non-free-rider edges are grouped by
    their anchor, the global cover vertex covering them, and each of its free
    riders is accompanied when an edge of its own pisces is in the coalition
    too, else lone.  The selector takes every anchor of a group and, for a
    lone free rider, its smaller base.

    The rule gives each edge a watch mask and a payment indexed by the number
    k of coalition edges in it: a non-free-rider edge watches its anchor's
    group and pays 1/k, a free rider watches both its bases' groups and pays
    1 when k = 0 (lone), else 0 (accompanied).
    """

    def __init__(self, graph: Graph, comps: list[ComponentClassification]) -> None:
        self.graph = graph
        self.components = list(comps)
        self.cover = tuple(sorted(v for c in self.components for v in c.cover))
        self._anchor = {i: v for c in self.components
                        for v, es in c.pendants.items() for i in es}
        self._bases = {c.free_rider: c.cover for c in self.components
                       if c.free_rider is not None}
        self.free_riders = frozenset(self._bases)

    def _split(self, coalition):
        """(groups, riders): the coalition's non-free-rider edges grouped by
        anchor, and its free riders mapped to whether they are accompanied."""
        groups: dict[str, list[int]] = {}
        riders: list[int] = []
        anchor = self._anchor
        bases = self._bases
        for i in coalition:
            v = anchor.get(i)
            if v is None:
                if i not in bases:
                    raise ContractViolation(f"edge index out of range: {i}")
                riders.append(i)
            elif v in groups:
                groups[v].append(i)
            else:
                groups[v] = [i]
        return groups, {r: bases[r][0] in groups or bases[r][1] in groups for r in riders}

    def anchor(self, i: int) -> str:
        """The unique global-cover vertex covering a non-free-rider edge."""
        try:
            return self._anchor[i]
        except KeyError:
            raise ContractViolation(f"edge {i} is a free rider") from None

    def is_free_rider(self, i: int) -> bool:
        return i in self.free_riders

    def accompanied(self, coalition, i: int) -> bool:
        """Does free rider i share a vertex with another coalition edge?"""
        if i not in self._bases:
            raise ContractViolation(f"edge {i} is not a free rider")
        return self._split(frozenset(coalition) | {i})[1][i]

    def cover_for(self, coalition) -> tuple[str, ...]:
        """Deterministic minimum cover of the coalition subgraph within the
        global cover, as a sorted label tuple."""
        groups, riders = self._split(coalition)
        chosen = set(groups)
        chosen.update(self._bases[r][0] for r, accompanied in riders.items() if not accompanied)
        return tuple(sorted(chosen))

    def split_count(self, coalition, i: int) -> int:
        """Number of non-free-rider coalition edges sharing i's covering vertex
        (at least 1 since i itself counts)."""
        s = coalition if isinstance(coalition, frozenset) else frozenset(coalition)
        if i not in s:
            raise ContractViolation(f"edge {i} is not in the coalition")
        return len(self._split(s)[0][self.anchor(i)])

    @cached_property
    def _payments(self):
        """(watch, pays): edge i pays pays[i][k] in a coalition with k edges
        in the bitmask watch[i]; built once, on first use."""
        group = {v: sum(1 << i for i in es) for c in self.components
                 for v, es in c.pendants.items()}
        widest = max((m.bit_count() for m in group.values()), default=1)
        shares = [ZERO] + [Fraction(1, k) for k in range(1, widest + 1)]
        rider_pays = [ONE] + [ZERO] * (2 * widest)
        watch = [group.get(self._anchor.get(i), 0) for i in range(self.graph.n_edges)]
        pays = [shares] * len(watch)
        for r, (b1, b2) in self._bases.items():
            watch[r] = group[b1] | group[b2]
            pays[r] = rider_pays
        return watch, pays

    def _rule(self, s: Coalition) -> dict[int, Fraction]:
        """The constructive rule on one coalition."""
        watch, pays = self._payments
        m = coalition_mask(s)
        return {i: pays[i][(m & watch[i]).bit_count()] for i in s}

    def _rule_rows(self):
        """The constructive rule on every coalition at once: (rows, den) with
        rows[mask] mapping each member edge to its payment's numerator over
        den = lcm(1..largest pendant group)."""
        n = self.graph.n_edges
        watch, pays = self._payments
        den = math.lcm(*{p.denominator for row in pays for p in row})
        # one int object per distinct payment keeps later scans over the rows fast
        num = {p: p.numerator * (den // p.denominator) for row in pays for p in row}
        nums = [[num[p] for p in row] for row in pays]
        coalitions = all_coalitions(n)
        return [{i: nums[i][(m & watch[i]).bit_count()] for i in coalitions[m]}
                for m in range(1 << n)], den


class AllocationScheme:
    """Per-coalition payment vectors, backed by a rule (lazy) or a full table.

    A rule-backed scheme evaluates its rule on every allocation() query and
    caches nothing, so single queries stay cheap on forests of any size.  A
    table-backed scheme returns its stored vectors by reference.  Callers
    must treat every returned vector as read-only.
    """

    def __init__(self, graph: Graph, *, rule=None, table=None) -> None:
        if (rule is None) == (table is None):
            raise ValueError("exactly one of rule= or table= is required")
        self.graph = graph
        self._players = graph.players()
        self._rule = rule
        self._table: dict[Coalition, dict[int, Fraction]] | None = None
        if table is not None:
            self._table = {
                frozenset(s): {int(i): v if type(v) is Fraction else Fraction(v)
                               for i, v in vec.items()}
                for s, vec in table.items()}

    @property
    def lazy(self) -> bool:
        return self._rule is not None

    def allocation(self, coalition) -> dict[int, Fraction]:
        s = coalition if isinstance(coalition, frozenset) else frozenset(coalition)
        if self._table is not None:
            hit = self._table.get(s)
            if hit is not None:
                return hit
        if not s:
            raise ContractViolation("the empty coalition has no allocation")
        if not s <= self._players:
            raise ContractViolation("coalition contains unknown players")
        if self._table is not None:
            members = ",".join(str(i) for i in sorted(s))
            raise MalformedScheme(f"scheme is missing coalition {{{members}}}")
        return self._rule(s)

    def _integer_table(self) -> tuple[list[dict[int, int]], int] | None:
        """(rows, den) with rows[mask] mapping each member edge to its payment's
        numerator over den, when the scheme knows its allocations in that
        form (callers check the edge cap); None otherwise."""
        return None

    def materialize(self, *, max_edges: int = DEFAULT_EDGE_CAP):
        """Full table over every nonempty coalition (capped by edge count)."""
        n = self.graph.n_edges
        if n > max_edges:
            raise OracleCapError(
                f"materializing a scheme over {n} edges exceeds the {max_edges}-edge cap")
        coalitions = all_coalitions(n)
        integer = self._integer_table()
        if integer is not None:
            rows, den = integer
            # one shared Fraction per distinct numerator
            shared = {x: Fraction(x, den) for x in set().union(*map(dict.values, rows))}
            fraction = shared.__getitem__
            return {coalitions[m]: dict(zip(rows[m], map(fraction, rows[m].values())))
                    for m in range(1, 1 << n)}
        allocation = self.allocation
        return {coalitions[m]: dict(allocation(coalitions[m])) for m in range(1, 1 << n)}


class _ConstructedScheme(AllocationScheme):
    """The constructive scheme.  Its rule is also known as one integer table
    (CoverSystem._rule_rows), which materialize and verify_pmas build on
    first use."""

    def __init__(self, graph: Graph, cover: CoverSystem) -> None:
        super().__init__(graph, rule=cover._rule)
        self._cover = cover
        self._rows: list[dict[int, int]] | None = None
        self._den = 1

    def _integer_table(self):
        # the table describes the rule; an allocation() replaced on the
        # instance is what the scheme answers, so it is read through that
        if "allocation" in vars(self):
            return None
        if self._rows is None:
            self._rows, self._den = self._cover._rule_rows()
        return self._rows, self._den


def construct_pmas(graph: Graph) -> AllocationScheme:
    """Rule-backed scheme for a population-monotonic graph.

    Per coalition: an accompanied free rider pays 0, a lone free rider pays 1,
    and every other edge pays 1/k where k counts the non-free-rider coalition
    edges at its covering vertex.
    """
    _, cover = classify_components(graph)
    return _ConstructedScheme(graph, cover)


@dataclass(frozen=True)
class Violation:
    """First failed scheme constraint, with both sides of the comparison."""

    kind: str  # "efficiency" | "monotonicity"
    coalition: Coalition
    superset: Coalition | None
    edge: int | None
    lhs: Fraction
    rhs: Fraction

    def __str__(self) -> str:
        members = sorted(self.coalition)
        if self.kind == "efficiency":
            return (f"efficiency violated on {members}: allocations sum to "
                    f"{self.lhs}, cost is {self.rhs}")
        return (f"monotonicity violated: edge {self.edge} pays {self.lhs} in "
                f"{members} but {self.rhs} in {sorted(self.superset)}")

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind, "coalition": sorted(self.coalition)}
        if self.superset is not None:
            out["superset"] = sorted(self.superset)
        if self.edge is not None:
            out["edge"] = self.edge
        out["lhs"] = fraction_str(Fraction(self.lhs))
        out["rhs"] = fraction_str(Fraction(self.rhs))
        return out


def verify_pmas(game: VertexCoverGame, scheme: AllocationScheme, *,
                max_edges: int = DEFAULT_EDGE_CAP):
    """Exhaustively check a candidate scheme: efficiency on every nonempty
    coalition, then monotonicity on every covering pair (covering pairs
    suffice by transitivity).

    Returns (True, None) or (False, first Violation); efficiency is scanned
    in ascending coalition bitmask order, monotonicity in ascending (superset,
    dropped edge) order.  A missing or misindexed coalition raises
    MalformedScheme.  Both scans compare integer numerators over one common
    denominator.
    """
    n = game.n
    if n > max_edges:
        raise OracleCapError(f"verifying over {n} edges exceeds the {max_edges}-edge cap")
    table = game.cost_table(max_edges)
    size = 1 << n
    coalitions = all_coalitions(n)
    integer = scheme._integer_table() if scheme.graph.n_edges == n else None
    if integer is not None:
        rows, den = integer
        for m in range(1, size):
            total = sum(rows[m].values())
            if total != table[m] * den:
                return False, Violation("efficiency", coalitions[m], None, None,
                                        Fraction(total, den), Fraction(table[m]))
    else:
        rows = [{}] * size
        dens = [1] * size
        den = 1
        for m in range(1, size):
            s = coalitions[m]
            a = scheme.allocation(s)
            if a.keys() != s:
                raise MalformedScheme(
                    f"allocation for {sorted(s)} is not indexed by its members")
            values = [v if type(v) is Fraction else Fraction(v) for v in a.values()]
            d = math.lcm(*[v.denominator for v in values])
            row = {i: v.numerator * (d // v.denominator) for i, v in zip(a, values)}
            total = sum(row.values())
            if total != table[m] * d:
                return False, Violation("efficiency", s, None, None,
                                        Fraction(total, d), Fraction(table[m]))
            rows[m] = row
            dens[m] = d
            den = math.lcm(den, d)
        for m in range(1, size):
            if dens[m] != den:
                scale = den // dens[m]
                rows[m] = {i: x * scale for i, x in rows[m].items()}
    for t in range(1, size):
        if not t & (t - 1):
            continue  # a single edge covers only the empty coalition
        rt = rows[t]
        rem = t
        while rem:
            bit = rem & -rem
            rem ^= bit
            sm = t ^ bit
            for i, x in rows[sm].items():
                if x < rt[i]:
                    return False, Violation("monotonicity", coalitions[sm], coalitions[t],
                                            i, Fraction(x, den), Fraction(rt[i], den))
    return True, None


def _scaled_profile(graph: Graph, coalition, x):
    """Exact per-vertex loads of an allocation as integers over a common
    denominator; comparisons against 0/1 then reduce to integer arithmetic.

    Returns (loads, den, total, feasible) with loads[v]/den the true rational
    load at v, total/den the payment sum, and feasible whether every payment
    is nonnegative and every load at most one.  Raises when x is not indexed
    by the coalition or an index is not an edge.
    """
    s = coalition if isinstance(coalition, frozenset) else frozenset(coalition)
    if x.keys() != s:
        raise ContractViolation("allocation must be indexed by the coalition")
    for value in x.values():
        if type(value) is not Fraction:
            x = {i: Fraction(v) for i, v in x.items()}
            break
    # Fraction's _numerator/_denominator slots skip the property descriptors
    den = 1
    for value in x.values():
        d = value._denominator
        if den % d:
            den = den * d // math.gcd(den, d)
    loads: dict[str, int] = {}
    total = 0
    negative = False
    ends = graph._ends
    get = loads.get
    for i, value in x.items():
        num = value._numerator * (den // value._denominator)
        if num < 0:
            negative = True
        total += num
        try:
            u, w = ends[i]
        except KeyError:
            raise ContractViolation(f"edge index out of range: {i}") from None
        loads[u] = get(u, 0) + num
        loads[w] = get(w, 0) + num
    feasible = not negative
    for load in loads.values():
        if load > den:
            feasible = False
            break
    return loads, den, total, feasible


def check_dual_feasible(graph: Graph, coalition, x) -> bool:
    """Feasibility for the fractional-cover dual on the coalition subgraph:
    nonnegative payments with per-vertex load at most one."""
    return _scaled_profile(graph, coalition, x)[3]


def check_dual_optimal(game: VertexCoverGame, coalition, x) -> bool:
    """Dual feasibility plus total payment equal to the coalition cost
    (the dual optimum on the bipartite subgraphs in scope)."""
    s = coalition if isinstance(coalition, frozenset) else frozenset(coalition)
    _, den, total, feasible = _scaled_profile(game.graph, s, x)
    return feasible and total == game.gamma(s) * den


def check_pi_star(graph: Graph, coalition, x, cover: CoverSystem) -> bool:
    """Membership in the tight optimal face: dual feasible, unit load exactly
    at every selected cover vertex, zero on accompanied free riders."""
    s = coalition if isinstance(coalition, frozenset) else frozenset(coalition)
    loads, den, _, feasible = _scaled_profile(graph, s, x)
    if not feasible:
        return False
    groups, riders = cover._split(s)
    for vertex in groups:
        if loads[vertex] != den:
            return False
    for rider, accompanied in riders.items():
        if accompanied:
            if x[rider] != 0:
                return False
        elif loads[cover._bases[rider][0]] != den:
            return False
    return True


# --- scheme serialization --------------------------------------------------------


def coalition_key(coalition) -> str:
    return ",".join(str(i) for i in sorted(coalition))


def scheme_table_to_jsonable(table) -> dict:
    """Deterministic JSON object for a materialized table: coalition keys
    ordered by index tuple, rationals rendered as "p/q"."""
    out: dict = {}
    for s in sorted(table, key=lambda c: tuple(sorted(c))):
        vec = table[s]
        out[coalition_key(s)] = {str(i): fraction_str(vec[i]) for i in sorted(vec)}
    return out


def scheme_to_json(scheme: AllocationScheme, *, max_edges: int = DEFAULT_EDGE_CAP) -> str:
    return json.dumps(scheme_table_to_jsonable(scheme.materialize(max_edges=max_edges)),
                      indent=2)


def _unique_keys(pairs) -> dict:
    """json object_pairs_hook: the object as a dict, refusing a repeated key."""
    out = dict(pairs)
    if len(out) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise MalformedScheme(f"repeated key {key!r} in scheme JSON")
            seen.add(key)
    return out


def scheme_from_json(graph: Graph, text: str) -> AllocationScheme:
    """Parse the JSON scheme format back into a table-backed scheme.

    Keys must be canonical: each coalition key its in-range edge indices in
    ascending order, comma-joined, and no key repeated.  Payments must be
    rational strings such as "1/2".  Anything else raises MalformedScheme
    naming the key.
    """
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise MalformedScheme(f"scheme file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise MalformedScheme("scheme JSON must be an object keyed by coalitions")
    players = graph.players()
    table: dict[Coalition, dict[int, Fraction]] = {}
    for key, vec in raw.items():
        try:
            s = frozenset(map(int, key.split(",")))
            if ",".join(map(str, sorted(s))) != key or not s <= players:
                raise MalformedScheme(
                    f"coalition key {key!r} is not its distinct edge indices below "
                    f"{graph.n_edges} in ascending order")
            entries: dict[int, Fraction] = {}
            for i, v in vec.items():
                edge = int(i)
                if str(edge) != i:
                    raise MalformedScheme(f"edge key {i!r} in coalition {key!r} is not canonical")
                if type(v) is not str:
                    raise MalformedScheme(
                        f"payment of edge {i} in coalition {key!r} is {v!r}, not a \"p/q\" string")
                entries[edge] = Fraction(v)
        except (ValueError, TypeError, ZeroDivisionError, AttributeError) as exc:
            raise MalformedScheme(f"bad scheme entry for coalition {key!r}: {exc}") from exc
        table[s] = entries
    return AllocationScheme(graph, table=table)

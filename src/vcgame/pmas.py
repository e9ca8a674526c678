"""Recognition and construction of population monotonic allocation schemes.

A vertex cover game admits such a scheme exactly when every component of the
graph is a tree of diameter at most 3, i.e. a star or a pisces (two stars
joined by an edge between their centers).  The non-pendant edge of a pisces
is its free rider: any cover of the accompanying edges covers it for free.

The constructive scheme splits each chosen cover vertex's unit cost equally
among the non-free-rider coalition edges it covers; an accompanied free rider
pays nothing and a lone free rider pays the full unit.  The graph's own
star/pisces structure holds this rule once, as per-edge watch masks and
selected vertices; CoverSystem reads it, adds the payments, and builds every
scheme the library makes as such a rule table.
The dual-side checks certify allocations against the fractional cover
relaxation of the coalition subgraph: feasibility (nonnegative, per-vertex
load at most one), optimality (total equal to the coalition cost), and
membership in the tight face pi*, which is tight where the rule pays (unit
load at every charged vertex) and zero where it does not (accompanied free
riders).
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Mapping, Set
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import (ContractViolation, MalformedScheme, NotPopulationMonotonic,
                     OracleCapError)
from .game import DEFAULT_EDGE_CAP, VertexCoverGame, _exact_payment, _numerators, _payments
from .graph import (Coalition, Graph, _charged, _coalition, _vertex_cap, all_coalitions,
                    find_forbidden_subgraph)

ZERO = Fraction(0)
ONE = Fraction(1)

FORBIDDEN = ("K3", "C4", "P5")


def fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def recognize_population_monotonic(graph: Graph):
    """(True, None) when the graph's own structure has every component a star
    or pisces, else (False, (pattern, vertex sequence)) with a concrete forbidden subgraph."""
    if graph._structure is not None:
        return True, None
    for pattern in FORBIDDEN:
        witness = find_forbidden_subgraph(graph, pattern)
        if witness is not None:
            return False, (pattern, witness)
    raise AssertionError("graph is not star/pisces but has no forbidden subgraph")


def classify_components(graph: Graph):
    """The graph's component classifications plus its cover system; raises
    NotPopulationMonotonic (with the witness) as CoverSystem(graph) does."""
    cover = CoverSystem(graph)
    return cover.components, cover


def _checked_orders(graph: Graph, orders) -> dict[str, tuple[int, ...]]:
    """Per-vertex orders as tuples; each must rank exactly its vertex's
    incident edges, and every vertex with two or more needs one."""
    if not isinstance(orders, Mapping):
        raise ContractViolation(
            f"preference orders must map vertex labels to edge lists, not {type(orders).__name__}")
    checked: dict[str, tuple[int, ...]] = {}
    for v, seq in orders.items():
        if not graph.has_vertex(v):
            raise ContractViolation(f"unknown vertex {v!r} in preference orders")
        expected = set(graph.incident_edges(v))
        try:
            if isinstance(seq, (Set, Mapping, str, bytes, bytearray)):
                raise TypeError  # a set or mapping has no order, a string holds no indices
            seq = tuple(seq)
        except TypeError:
            raise ContractViolation(
                f"order for vertex {v!r} is {seq!r}, not a list of edge indices") from None
        for i in seq:
            if type(i) is not int:
                raise ContractViolation(
                    f"order for vertex {v!r} ranks {i!r}, not an edge index")
        if len(seq) != len(expected) or set(seq) != expected:
            raise ContractViolation(
                f"order for vertex {v!r} must rank exactly its incident edges")
        checked[v] = seq
    for v in graph.vertices:
        if graph.degree(v) >= 2 and v not in checked:
            raise ContractViolation(f"missing preference order for vertex {v!r}")
    return checked


class CoverSystem:
    """The graph's global minimum cover made of centers and bases, and the
    rule-table schemes over it.  watch and select are the graph's own star/pisces
    structure's tuples, pays a tuple of shared row tuples, and components a copy of
    its shapes.  CoverSystem(graph) raises NotPopulationMonotonic (with the witness)
    when the graph is not a star/pisces forest.

    The constructive rule is one per-edge table: edge i watches the bitmask
    watch[i], pays pays[i][k] in a coalition with k edges in it, and is
    charged at vertex select[i] unless it is an accompanied free rider.  A
    non-free-rider edge watches its anchor's group (the edges whose global
    cover vertex is that anchor), pays 1/k and selects its anchor; a free
    rider watches both its bases' groups, pays 1 when k = 0 (lone) and 0 when
    k > 0 (accompanied), and selects its smaller base.  The selector of a
    coalition is the vertices the rule charges, and pi* is tight where the
    rule pays and zero where it does not.  scheme()
    builds the constructive scheme, or an integral scheme from per-vertex
    orders, as such a table.
    """

    def __init__(self, graph: Graph) -> None:
        structure = graph._structure
        if structure is None:
            raise NotPopulationMonotonic(*recognize_population_monotonic(graph)[1])
        self.graph = graph
        self.components = [replace(c, pendants=dict(c.pendants)) for c in structure.shapes]
        self.cover, self.watch, self.select = structure.cover, structure.watch, structure.select
        self.free_riders = structure.free_riders
        widest = max((len(es) for c in structure.shapes for es in c.pendants.values()), default=1)
        # one shared row for every splitting edge: numerators over
        # lcm(1..widest) would have hundreds of digits on a large pisces
        shares = (ZERO, *(Fraction(1, k) for k in range(1, widest + 1)))
        rider = (ONE,) + (ZERO,) * (2 * widest)
        self.pays = tuple(rider if i in self.free_riders else shares for i in range(graph.n_edges))

    def cover_for(self, coalition) -> tuple[str, ...]:
        """Deterministic minimum cover of the coalition subgraph within the global
        cover, as a sorted label tuple: the vertices the graph's structure charges."""
        return tuple(sorted(_charged(self.graph, _coalition(self.graph, coalition))))

    def scheme(self, orders=None) -> AllocationScheme:
        """The constructive scheme, or with per-vertex orders (most preferred
        first) the integral scheme in which each non-free-rider edge watches
        the edges ranked above it at its anchor and pays 1 when none is in
        the coalition.  Orders are checked as PreferenceSystem checks them;
        free riders must rank last at both bases and keep their entries."""
        if orders is None:
            return _RuleTableScheme(self.graph, self.watch, self.pays)
        return self._integral(_checked_orders(self.graph, orders))

    def _integral(self, orders: dict[str, tuple[int, ...]]) -> AllocationScheme:
        """scheme(orders) for orders that already passed _checked_orders."""
        watch, pays = list(self.watch), list(self.pays)
        first = (ONE,) + (ZERO,) * self.graph.n_edges
        for c in self.graph._structure.shapes:
            for v, es in c.pendants.items():
                order = orders.get(v, es)
                if c.free_rider is not None and order[-1] != c.free_rider:
                    raise ContractViolation(
                        f"free rider {c.free_rider} must rank last at vertex {v!r}")
                above = 0
                for i in order:
                    if i != c.free_rider:
                        watch[i], pays[i] = above, first
                        above |= 1 << i
        return _RuleTableScheme(self.graph, tuple(watch), tuple(pays))


class AllocationScheme:
    """Per-coalition payment vectors from a stored table, checked whole when
    built: each coalition key must pass the coalition gate and be nonempty, and
    each row must pass _payments, else MalformedScheme.  Rows are kept by
    bitmask; allocation() returns them by reference, so callers must treat
    them as read-only."""

    def __init__(self, graph: Graph, *, table) -> None:
        self.graph = graph
        if not isinstance(table, Mapping):
            raise MalformedScheme(f"scheme table is {type(table).__name__}, not a mapping")
        self._table = {}
        for s, vec in table.items():
            s = _coalition(graph, s)
            if not s:
                raise MalformedScheme("the empty coalition has no allocation")
            self._table[s._mask] = _payments(vec, MalformedScheme, s)

    def allocation(self, coalition) -> dict[int, Fraction]:
        s = _coalition(self.graph, coalition)
        if not s:
            raise ContractViolation("the empty coalition has no allocation")
        hit = self._table.get(s._mask)
        if hit is None:
            raise MalformedScheme(f"scheme is missing coalition {{{coalition_key(s)}}}")
        return hit

    def _answers_as(self, cls) -> bool:
        """Whether allocation() is cls's own: neither overridden in a subclass
        nor set on the instance (another scheme's bound method included)."""
        return type(self).allocation is cls.allocation and "allocation" not in vars(self)

    def _rows(self):
        """(coalition, allocation) with Fraction payments for every nonempty
        coalition in ascending bitmask order (the caller checks the edge cap):
        a stored table's own rows, checked when it was built, else allocation()'s
        through _payments; a missing coalition or a refused row raises
        MalformedScheme when the scan reaches it."""
        allocation = self.allocation
        rows = self._table if self._answers_as(AllocationScheme) else {}
        for s in all_coalitions(self.graph.n_edges)[1:]:
            row = rows.get(s._mask)
            yield s, _payments(allocation(s), MalformedScheme, s) if row is None else row

    def materialize(self, *, max_edges: int = DEFAULT_EDGE_CAP):
        """Full table over every nonempty coalition (capped by edge count),
        with one shared Fraction per distinct payment."""
        n = self.graph.n_edges
        if n > _vertex_cap(max_edges, "edge cap"):
            raise OracleCapError(
                f"materializing a scheme over {n} edges exceeds the {max_edges}-edge cap")
        shared: dict[Fraction, Fraction] = {}
        out = {}
        for s, a in self._rows():
            out[s] = {i: shared.setdefault(v, v) for i, v in a.items()}
        return out


class _RuleTableScheme(AllocationScheme):
    """A scheme given by a per-edge rule table over a graph: edge i pays
    pays[i][k] in a coalition with k edges in the bitmask watch[i].
    allocation() evaluates the table on every query and caches nothing, so
    single queries stay cheap on forests of any size; materialize and
    verify_pmas answer from the table while _reads_table() holds.  Only
    CoverSystem.scheme builds one, from tuples that no caller can change."""

    def __init__(self, graph: Graph, watch: tuple[int, ...], pays: tuple[tuple, ...]) -> None:
        self.graph, self.watch, self.pays = graph, watch, pays

    def allocation(self, coalition) -> dict[int, Fraction]:
        s = _coalition(self.graph, coalition)
        if not s:
            raise ContractViolation("the empty coalition has no allocation")
        m, watch, pays = s._mask, self.watch, self.pays
        return {i: pays[i][(m & watch[i]).bit_count()] for i in s}

    def _reads_table(self) -> bool:
        """Whether allocation() is the table's own (not overridden, not
        replaced) and each edge has an int watch mask over the graph's edges
        and Fraction or int payments for every count up to its popcount."""
        n = self.graph.n_edges
        if not self._answers_as(_RuleTableScheme) or len(self.watch) != n or len(self.pays) != n:
            return False
        return all(type(w) is int and not w >> n and len(row) > w.bit_count()
                   and all(type(p) is Fraction or type(p) is int for p in row[:w.bit_count() + 1])
                   for w, row in zip(self.watch, self.pays))

    def materialize(self, *, max_edges: int = DEFAULT_EDGE_CAP):
        """AllocationScheme.materialize's table, read from the watch masks
        while _reads_table() holds, else through allocation() (which names a
        bad payment's edge and coalition)."""
        n = self.graph.n_edges
        if n > _vertex_cap(max_edges, "edge cap") or not self._reads_table():
            return super().materialize(max_edges=max_edges)
        shared: dict[Fraction, Fraction] = {}
        # only the counts a mask can reach were checked exact
        pays = [[shared.setdefault(q, q) for q in map(Fraction, row[:w.bit_count() + 1])]
                for w, row in zip(self.watch, self.pays)]
        watch, coalitions = self.watch, all_coalitions(n)
        return {coalitions[m]: {i: pays[i][(m & watch[i]).bit_count()] for i in coalitions[m]}
                for m in range(1, len(coalitions))}

    def _is_pmas_by_shape(self) -> bool:
        """Whether _reads_table() holds and, compared as tuples ([1] != (1,)), the table is
        what CoverSystem(self.graph) builds: the constructive table when the watch masks are
        the graph's structure's, else the integral one for the orders they rank (free riders
        last), on every count a mask reaches.  Both are PMASes by the paper's construction;
        False decides nothing, and a graph that is not a star/pisces forest gives it without
        a witness search."""
        structure = self.graph._structure
        if not self._reads_table() or structure is None:
            return False
        watch = tuple(self.watch)
        cover = CoverSystem(self.graph)
        built = cover.scheme() if watch == structure.watch else cover._integral({
            v: (*sorted(es, key=watch.__getitem__), *{c.free_rider} - {None})
            for c in structure.shapes for v, es in c.pendants.items()})
        return watch == built.watch and all(
            tuple(row[:w.bit_count() + 1]) == ref[:w.bit_count() + 1]
            for w, row, ref in zip(watch, self.pays, built.pays))


def construct_pmas(graph: Graph) -> AllocationScheme:
    """Rule-table scheme for a population-monotonic graph.  Per coalition: an
    accompanied free rider pays 0, a lone free rider pays 1, and every other edge
    pays 1/k where k counts the non-free-rider coalition edges at its covering vertex."""
    return CoverSystem(graph).scheme()


def _require_same_graph(graph: Graph, other: Graph, what: str) -> None:
    if other is not graph and other != graph:
        raise ContractViolation(f"the {what} belongs to another graph")


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
    """Check a candidate scheme: efficiency on every nonempty coalition, then
    monotonicity on every covering pair (covering pairs suffice by
    transitivity).  Returns (True, None) or (False, first Violation).

    A scheme of another graph is refused and OracleCapError raised above
    max_edges; below it the game's cost table is built (check_dual_optimal
    then reads it), whichever path answers.  A rule-table scheme that reads
    its own well-formed table, and whose table is the constructive or an
    integral one that the graph's own cover system builds (rebuilt from the
    graph, not taken from the scheme), is accepted without a scan.
    Any other scheme is scanned through allocation(): efficiency in
    ascending coalition bitmask order, then monotonicity in ascending
    (superset, dropped edge) order, on integer numerators over one common
    denominator; a missing coalition or a row _payments refuses raises MalformedScheme.
    """
    _require_same_graph(game.graph, scheme.graph, "scheme")
    n = game.n
    if n > _vertex_cap(max_edges, "edge cap"):
        raise OracleCapError(f"verifying over {n} edges exceeds the {max_edges}-edge cap")
    table = game.cost_table(max_edges)
    if isinstance(scheme, _RuleTableScheme) and scheme._is_pmas_by_shape():
        return True, None
    size = 1 << n
    coalitions = all_coalitions(n)
    rows, dens = [{}], [1]
    for m, (s, a) in enumerate(scheme._rows(), 1):
        row, d = _numerators(a)
        total = sum(row.values())
        if total != table[m] * d:
            return False, Violation("efficiency", s, None, None,
                                    Fraction(total, d), Fraction(table[m]))
        rows.append(row)
        dens.append(d)
    den = math.lcm(*dens)
    rows = [row if d == den else {i: x * (den // d) for i, x in row.items()}
            for row, d in zip(rows, dens)]
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


_last_profile = None  # (graph, coalition, entries, profile) of the last _scaled_profile


def _scaled_profile(graph: Graph, coalition, x):
    """Exact per-vertex loads of an allocation as integers over a common
    denominator; comparisons against 0/1 then reduce to integer arithmetic.

    Returns (loads, den, total, feasible, s) with loads[v]/den the true
    rational load at v, total/den the payment sum, feasible whether every
    payment is nonnegative and every load at most one, and s the coalition
    as _coalition returns it, carrying its bitmask.  Raises when x is not a
    mapping, a member or key is not an int, an index is not an edge or x is
    not indexed by the coalition.  The last profile is returned again for the
    same graph object, the same key and payment objects in order and a
    coalition of the same bitmask; the caller's own object is remembered when
    it is a frozenset, which cannot change, so the three dual checks of one
    allocation gate and convert it once (False == 0 and 0.5 == Fraction(1, 2)
    must miss).
    """
    global _last_profile
    try:
        entries = [*x, *x.values()]  # a list: freed tuples would stay on the tuple free lists
    except (TypeError, AttributeError):
        raise ContractViolation(f"allocation is {x!r}, not a mapping") from None
    last = _last_profile
    if last is not None and last[0] is graph and last[1] is coalition:
        s = last[3][4]  # it passed _coalition when it was stored
    else:
        s = _coalition(graph, coalition)
    if (last is not None and last[0] is graph and last[3][4]._mask == s._mask
            and len(last[2]) == len(entries) and all(map(operator.is_, last[2], entries))):
        return last[3]
    if x.keys() != s:
        raise ContractViolation("allocation must be indexed by the coalition")
    for value in x.values():
        if type(value) is not Fraction:
            x = {i: v if type(v) is Fraction else _exact_payment(v, ContractViolation, i, None)
                 for i, v in x.items()}
            break
    # inline, not _numerators: through it the three dual checks ran ~40% slower (13 edges)
    # Fraction's _numerator/_denominator slots skip the property descriptors
    den = 1
    for value in x.values():
        d = value._denominator
        if den % d:
            den = den * d // math.gcd(den, d)
    loads: dict[str, int] = {}
    total = 0
    negative = False
    edges = graph.edges
    get = loads.get
    for i, value in x.items():
        num = value._numerator * (den // value._denominator)
        if num < 0:
            negative = True
        total += num
        if type(i) is not int:  # True, 0.0 and Fraction(0) equal members of s
            raise ContractViolation(f"edge key {i!r} is not an int")
        u, w = edges[i]
        loads[u] = get(u, 0) + num
        loads[w] = get(w, 0) + num
    feasible = not negative
    for load in loads.values():
        if load > den:
            feasible = False
            break
    remembered = coalition if type(coalition) is frozenset else s
    _last_profile = graph, remembered, entries, (loads, den, total, feasible, s)
    return _last_profile[3]


def check_dual_feasible(graph: Graph, coalition, x) -> bool:
    """Feasibility for the fractional-cover dual on the coalition subgraph:
    nonnegative payments with per-vertex load at most one."""
    return _scaled_profile(graph, coalition, x)[3]


def check_dual_optimal(game: VertexCoverGame, coalition, x) -> bool:
    """Dual feasibility plus total payment equal to the coalition cost
    (the dual optimum on the bipartite subgraphs in scope)."""
    _, den, total, feasible, s = _scaled_profile(game.graph, coalition, x)
    table = game._table  # read by mask when built, as gamma would read it
    return feasible and total == (game.gamma(s) if table is None else table[s._mask]) * den


def check_pi_star(graph: Graph, coalition, x, cover: CoverSystem) -> bool:
    """Membership in the tight optimal face: dual feasible, tight where the
    rule pays and zero where it does not.  An edge the rule charges needs unit
    load at its selected vertex; an edge it does not charge (an accompanied
    free rider) must pay 0.  The rule is read from the graph's own structure;
    the cover system only names its graph, and one of another graph is refused."""
    _require_same_graph(graph, cover.graph, "cover system")
    structure = graph._structure
    if structure is None:  # only a rebound cover.graph gets here
        raise NotPopulationMonotonic(*recognize_population_monotonic(graph)[1])
    loads, den, _, feasible, s = _scaled_profile(graph, coalition, x)
    if not feasible:
        return False
    m, watch, select, riders = s._mask, structure.watch, structure.select, structure.free_riders
    for i in s:
        if i in riders and m & watch[i]:
            if x[i] != 0:
                return False
        elif loads[select[i]] != den:
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


def scheme_to_json(scheme: AllocationScheme) -> str:
    return json.dumps(scheme_table_to_jsonable(scheme.materialize()), indent=2)


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
    canonical "p/q" strings, exactly as fraction_str writes them ("1/2",
    "-1/3", "0/1").  Anything else raises MalformedScheme naming the key.
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
            if coalition_key(s) != key or not s <= players:
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
                num, _, den = v.partition("/")
                try:
                    value = Fraction(int(num), int(den))
                except (ValueError, ZeroDivisionError):
                    value = None
                if value is None or fraction_str(value) != v:
                    raise MalformedScheme(f"payment of edge {i} in coalition {key!r} is {v!r}, "
                                          "not a canonical \"p/q\" string")
                entries[edge] = value
        except (ValueError, TypeError, ZeroDivisionError, AttributeError) as exc:
            raise MalformedScheme(f"bad scheme entry for coalition {key!r}: {exc}") from exc
        table[s] = entries
    return AllocationScheme(graph, table=table)

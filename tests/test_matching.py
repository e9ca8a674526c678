"""Preference systems, deferred acceptance, the scheme bijection, and
enumeration of integral schemes."""

import random
from fractions import Fraction

import pytest

import vcgame.matching
from vcgame.errors import (ContractViolation, EnumerationTruncated, MalformedScheme,
                           NotIntegralScheme, NotPopulationMonotonic,
                           UnsupportedInstance)
from vcgame.game import VertexCoverGame
from vcgame.graph import Graph, all_coalitions, matching_number, vertex_cover_number
from vcgame.matching import (PreferenceSystem, count_integral_pmas,
                             enumerate_integral_pmas, gale_shapley, is_stable,
                             preferences_from_scheme, scheme_from_preferences)
from vcgame.pmas import AllocationScheme, classify_components, construct_pmas, verify_pmas

from oracles import (admissible_preference_systems, all_matchings, all_pm_graphs_up_to,
                     brute_integral_schemes, brute_stable_matchings, canonical_table,
                     flipped, gale_shapley_scheme, random_graph, reference_is_stable)


def star(n: int) -> Graph:
    return Graph.from_edges([("hub", f"x{k}") for k in range(n)])


def p4() -> Graph:
    return Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d")])


def p4_prefs() -> PreferenceSystem:
    return PreferenceSystem(p4(), {"b": (0, 1), "c": (2, 1)})


SMALL_PM_FIXTURES = [
    Graph.from_edges([("a", "b")]),                                    # K2
    star(2),
    star(3),
    p4(),
    Graph.from_edges([("b1", "b2"), ("b1", "x"), ("b1", "y"),
                      ("b2", "p"), ("b2", "q")]),                      # pisces(2,2)
    Graph.from_edges([("hub", "x"), ("hub", "y"), ("m", "n"),
                      ("b1", "b2"), ("b1", "p"), ("b2", "q")]),        # star+K2+pisces
]


# --- preference systems -------------------------------------------------------------


def test_orders_must_cover_high_degree_vertices():
    with pytest.raises(ContractViolation, match="missing preference order"):
        PreferenceSystem(star(2), {})


def test_orders_must_match_incident_edges():
    with pytest.raises(ContractViolation, match="exactly its incident edges"):
        PreferenceSystem(star(2), {"hub": (0,)})
    with pytest.raises(ContractViolation, match="exactly its incident edges"):
        PreferenceSystem(star(2), {"hub": (0, 0)})
    with pytest.raises(ContractViolation, match="unknown vertex"):
        PreferenceSystem(star(2), {"hub": (0, 1), "ghost": (0,)})


def test_orders_reject_ranks_that_are_not_ints():
    for ranks in ((1.9, 0.2), (True, 0), ("1", "0")):
        with pytest.raises(ContractViolation, match="not an edge index"):
            PreferenceSystem(star(2), {"hub": ranks})


def test_orders_that_are_not_lists_are_refused():
    # a set or mapping has no order, and a string's items are not edge indices, so none
    # is read as a list ({1, 0} would rank (0, 1), b"\x00\x01" edges 0 and 1)
    for order in (5, None, {1, 0}, frozenset({0, 1}), {0: 1, 1: 0}, "01", b"\x00\x01",
                  bytearray(b"\x00\x01")):
        with pytest.raises(ContractViolation) as info:
            PreferenceSystem(star(2), {"hub": order})
        assert str(info.value) == f"order for vertex 'hub' is {order!r}, not a list of edge indices"
    # a list, tuple, range or iterator is an order
    for order in ([1, 0], (1, 0), range(2), iter([0, 1])):
        assert set(PreferenceSystem(star(2), {"hub": order}).orders["hub"]) == {0, 1}


def test_orders_that_are_not_a_mapping_are_refused():
    g = p4()
    _, cover = classify_components(g)
    for orders in (None, [("b", (0, 1)), ("c", (2, 1))], "bc"):
        message = ("preference orders must map vertex labels to edge lists, "
                   f"not {type(orders).__name__}")
        with pytest.raises(ContractViolation) as info:
            PreferenceSystem(g, orders)
        assert str(info.value) == message
        if orders is not None:  # cover.scheme(None) is the constructive scheme
            with pytest.raises(ContractViolation) as info:
                cover.scheme(orders)
            assert str(info.value) == message


def test_pendant_orders_are_optional_and_restrictable():
    ps = PreferenceSystem(star(2), {"hub": (1, 0)})
    assert ps.order_in("hub", {0}) == (0,)
    assert ps.order_in("x0", {0, 1}) == (0,)
    assert ps.order_in("hub", {0, 1}) == (1, 0)


def test_a_write_into_orders_changes_no_answer():
    # orders is a new dict on each read, so a write that its checks would refuse
    # reaches neither deferred acceptance, nor the stability scan, nor the scheme
    pisces = SMALL_PM_FIXTURES[4]
    for g, orders, v, bad in ((p4(), {"b": (0, 1), "c": (2, 1)}, "b", (1,)),
                              (pisces, {"b1": (2, 1, 0), "b2": (3, 4, 0)}, "b1", (0, 1, 2))):
        ps, fresh = PreferenceSystem(g, orders), PreferenceSystem(g, orders)
        view = ps.orders
        view[v] = bad
        ps.orders[v] = bad
        assert ps.orders == fresh.orders == orders and ps == fresh
        assert repr(ps) == repr(fresh) == f"PreferenceSystem({orders!r})"
        for s in all_coalitions(g.n_edges):
            assert gale_shapley(ps, s) == gale_shapley(fresh, s)
            for m in all_matchings(g, s):
                assert is_stable(ps, s, m) == is_stable(fresh, s, m)
        assert (canonical_table(scheme_from_preferences(ps).materialize())
                == canonical_table(scheme_from_preferences(fresh).materialize()))
    # orders whose free rider is not ranked last make no scheme, but matching reads them
    ps = PreferenceSystem(p4(), {"b": (0, 1), "c": (1, 2)})
    ps.orders["b"] = (1,)
    assert gale_shapley(ps, p4().players()) == frozenset({0, 2})
    assert is_stable(ps, p4().players(), {0, 2}) == (True, None)


# --- deferred acceptance ----------------------------------------------------------------


def test_gale_shapley_single_edge():
    g = Graph.from_edges([("a", "b")])
    ps = PreferenceSystem(g, {"a": (0,)})
    assert gale_shapley(ps, {0}) == frozenset({0})


def test_gale_shapley_star_picks_top():
    ps = PreferenceSystem(star(3), {"hub": (0, 1, 2)})
    assert gale_shapley(ps, {0, 1, 2}) == frozenset({0})
    assert gale_shapley(ps, {1, 2}) == frozenset({1})


def test_gale_shapley_p4_free_rider_lowest():
    assert gale_shapley(p4_prefs(), {0, 1, 2}) == frozenset({0, 2})


def test_gale_shapley_rejects_odd_cycles():
    k3 = Graph.from_edges([("a", "b"), ("b", "c"), ("a", "c")])
    ps = PreferenceSystem(k3, {"a": (0, 2), "b": (0, 1), "c": (1, 2)})
    with pytest.raises(UnsupportedInstance, match="not bipartite"):
        gale_shapley(ps, {0, 1, 2})


def test_gale_shapley_general_bipartite():
    c4 = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    ps = PreferenceSystem(c4, {"a": (0, 3), "b": (0, 1), "c": (1, 2), "d": (2, 3)})
    matched = gale_shapley(ps, c4.players())
    assert is_stable(ps, c4.players(), matched) == (True, None)
    assert len(matched) == 2


def test_gale_shapley_empty_coalition():
    assert gale_shapley(p4_prefs(), frozenset()) == frozenset()


def test_gale_shapley_rejects_unknown_edges():
    for bad in ({0, 3}, {-1, 0}):
        with pytest.raises(ContractViolation, match="out of range"):
            gale_shapley(p4_prefs(), bad)


# --- stability -----------------------------------------------------------------------------


def test_is_stable_examples():
    ps = p4_prefs()
    full = frozenset({0, 1, 2})
    assert is_stable(ps, full, gale_shapley(ps, full)) == (True, None)
    ok, blocking = is_stable(ps, full, frozenset({1}))
    assert not ok and blocking == 0  # pendant edges undominated
    ok, blocking = is_stable(ps, full, frozenset())
    assert not ok and blocking == 0


def test_is_stable_validates_matching():
    ps = p4_prefs()
    with pytest.raises(ContractViolation, match="subset"):
        is_stable(ps, {0}, {1})
    with pytest.raises(ContractViolation, match="share a vertex"):
        is_stable(ps, {0, 1, 2}, {0, 1})


def test_is_stable_rejects_out_of_range_edges():
    ps = p4_prefs()
    # index -1 must not be read as the last edge
    with pytest.raises(ContractViolation, match="edge index out of range: -1"):
        is_stable(ps, {0, -1}, {-1})
    with pytest.raises(ContractViolation, match="edge index out of range: 3"):
        is_stable(ps, {0, 3}, {0})


def test_is_stable_on_a_large_pisces():
    # quadratic in a base's degree, the old scan restricted the order once per edge;
    # base b1 ranks its pendants by descending index, so its own pendant 1 is its last
    k = 5_000
    g = Graph.from_edges([("b1", "b2")] + [(b, f"{b}-{j}") for b in ("b1", "b2") for j in range(k)])
    assert g.n_edges > 10_000
    b1 = tuple(range(k, 0, -1)) + (0,)
    ps = PreferenceSystem(g, {"b1": b1, "b2": tuple(range(k + 1, 2 * k + 1)) + (0,)})
    full = g.players()
    matched = gale_shapley(ps, full)
    assert matched == {k, k + 1}
    assert is_stable(ps, full, matched) == (True, None)
    # b1 held by its last pendant: every other pendant of b1 blocks, the smallest first
    assert is_stable(ps, full, {1, k + 1}) == (False, 2)
    # b1 unmatched: the free rider is dominated at b2, so pendant 1 blocks
    assert is_stable(ps, full, {k + 1}) == (False, 1)


def stability_outcome(check, ps, s, m):
    """The verdict, or the type and message of the exception raised."""
    try:
        return check(ps, s, m)
    except ContractViolation as exc:
        return type(exc), str(exc)


def test_is_stable_matches_reference_scan_on_pm_graphs():
    # every edge set inside every nonempty coalition (matchings and sets that
    # share a vertex) under every admissible preference system of every
    # population-monotonic graph with up to 5 edges
    cases = matchings = 0
    for g in all_pm_graphs_up_to(5):
        coalitions = all_coalitions(g.n_edges)
        for ps in admissible_preference_systems(g):
            for s in coalitions[1:]:
                for m in coalitions:
                    if m <= s:
                        got = stability_outcome(is_stable, ps, s, m)
                        assert got == stability_outcome(reference_is_stable, ps, s, m)
                        cases += 1
                        matchings += got[0] is not ContractViolation
    assert (cases, matchings) == (48014, 25795)


def test_is_stable_matches_reference_scan_on_general_graphs():
    # random orders on random graphs, pendant orders given or left out at
    # random; every matching of every nonempty coalition
    rng = random.Random(4101)
    cases = 0
    for _ in range(400):
        g = random_graph(rng, max_edges=8, max_vertices=7)
        orders = {v: rng.sample(g.incident_edges(v), g.degree(v)) for v in g.vertices
                  if g.degree(v) > 1 or rng.random() < 0.5}
        ps = PreferenceSystem(g, orders)
        for s in all_coalitions(g.n_edges)[1:]:
            for m in all_matchings(g, s):
                assert is_stable(ps, s, m) == reference_is_stable(ps, s, m)
                cases += 1
    assert cases == 95393


def test_stability_uniqueness_maximality_over_all_systems():
    # every preference system (any rider rank) on every coalition: the
    # deferred-acceptance output is stable and is the only stable matching
    rng = random.Random(41)
    for g in SMALL_PM_FIXTURES:
        players = sorted(g.players())
        masks = range(1, 1 << len(players))
        if len(players) > 5:
            masks = [rng.randrange(1, 1 << len(players)) for _ in range(12)]
        for ps in all_preference_systems(g):
            for mask in masks:
                s = frozenset(players[i] for i in range(len(players)) if (mask >> i) & 1)
                matched = gale_shapley(ps, s)
                assert is_stable(ps, s, matched) == (True, None)
                assert brute_stable_matchings(ps, s) == [matched]


def all_preference_systems(g: Graph):
    """Every preference system (no rider-rank constraint) over cover vertices."""
    import itertools

    from vcgame.pmas import classify_components
    comps, cover = classify_components(g)
    vertices = sorted(cover.cover)
    full = {v: tuple(g.incident_edges(v)) for v in vertices}
    pools = [list(itertools.permutations(full[v])) for v in vertices]
    for combo in itertools.product(*pools):
        yield PreferenceSystem(g, dict(zip(vertices, combo)))


def test_free_rider_lowest_matchings_are_maximum():
    for g in SMALL_PM_FIXTURES:
        game = VertexCoverGame(g)
        players = sorted(g.players())
        for ps in admissible_preference_systems(g):
            for mask in range(1, 1 << len(players)):
                s = frozenset(players[i] for i in range(len(players)) if (mask >> i) & 1)
                matched = gale_shapley(ps, s)
                nu = matching_number(g, s)[0]
                tau = vertex_cover_number(g, s)[0]
                assert len(matched) == nu == tau == game.gamma(s)
            break  # sizes agree for every system; one per graph keeps this fast


# --- scheme from preferences -----------------------------------------------------------------


def test_scheme_from_preferences_cherry():
    ps = PreferenceSystem(star(2), {"hub": (0, 1)})
    scheme = scheme_from_preferences(ps)
    assert scheme.allocation({0, 1}) == {0: 1, 1: 0}
    assert scheme.allocation({0}) == {0: 1}
    assert scheme.allocation({1}) == {1: 1}


def test_scheme_from_preferences_p4():
    scheme = scheme_from_preferences(p4_prefs())
    assert scheme.allocation({0, 1, 2}) == {0: 1, 1: 0, 2: 1}
    assert scheme.allocation({1}) == {1: 1}


def test_scheme_from_preferences_requires_rider_lowest():
    ps = PreferenceSystem(p4(), {"b": (1, 0), "c": (2, 1)})
    with pytest.raises(ContractViolation, match="free rider 1 must rank last"):
        scheme_from_preferences(ps)


def test_cover_system_scheme_checks_its_orders():
    g = star(3)
    _, cover = classify_components(g)
    for orders in ({"hub": (0,)}, {"hub": (0, 0, 1)}, {}, {"hub": (0, 1, 2, 7)}):
        with pytest.raises(ContractViolation) as raised:
            cover.scheme(orders)
        with pytest.raises(ContractViolation) as expected:
            PreferenceSystem(g, orders)
        assert str(raised.value) == str(expected.value)
    expected = scheme_from_preferences(PreferenceSystem(g, {"hub": (2, 1, 0)})).materialize()
    assert cover.scheme({"hub": (2, 1, 0)}).materialize() == expected
    # an edge of one star placed in the other's order
    _, two = classify_components(Graph.from_edges([("b", "x"), ("b", "y"), ("c", "u"), ("c", "w")]))
    with pytest.raises(ContractViolation, match="order for vertex 'b' must rank exactly"):
        two.scheme({"b": (0, 1, 2), "c": (3, 2)})


def test_scheme_from_preferences_requires_population_monotonic():
    k3 = Graph.from_edges([("a", "b"), ("b", "c"), ("a", "c")])
    ps = PreferenceSystem(k3, {"a": (0, 2), "b": (0, 1), "c": (1, 2)})
    with pytest.raises(NotPopulationMonotonic):
        scheme_from_preferences(ps)


def test_preference_schemes_pass_verifier():
    for g in SMALL_PM_FIXTURES:
        game = VertexCoverGame(g)
        for ps in admissible_preference_systems(g):
            scheme = scheme_from_preferences(ps)
            ok, violation = verify_pmas(game, scheme)
            assert ok, violation


def test_integral_rule_table_matches_gale_shapley():
    systems = rows = 0
    for g in all_pm_graphs_up_to(6):
        for h in (g, flipped(g)):
            coalitions = all_coalitions(h.n_edges)[1:]
            for ps in admissible_preference_systems(h):
                scheme = scheme_from_preferences(ps)
                reference = gale_shapley_scheme(ps)
                table = scheme.materialize()
                assert list(table) == list(coalitions)
                for s in coalitions:
                    expected = list(reference.allocation(s).items())
                    assert list(table[s].items()) == expected  # key order too
                    assert list(scheme.allocation(s).items()) == expected
                systems += 1
                rows += len(coalitions)
    assert (systems, rows) == (2562, 144186)


def test_constructive_scheme_is_mean_of_integral_schemes():
    for g in all_pm_graphs_up_to(6):
        for h in (g, flipped(g)):
            tables = [s.materialize() for s in enumerate_integral_pmas(h, max_enumerate=10**6)]
            mean = {s: {i: sum(t[s][i] for t in tables) / len(tables) for i in s}
                    for s in tables[0]}
            assert mean == construct_pmas(h).materialize()


def test_integral_schemes_run_no_gale_shapley(monkeypatch):
    calls = []
    real = vcgame.matching.gale_shapley

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(vcgame.matching, "gale_shapley", counted)
    g = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("c", "e"), ("x", "y")])
    game = VertexCoverGame(g)
    ps = PreferenceSystem(g, {"b": (0, 1), "c": (3, 2, 1)})
    for scheme in (scheme_from_preferences(ps), *enumerate_integral_pmas(g)):
        scheme.allocation(g.players())
        scheme.materialize()
        assert verify_pmas(game, scheme) == (True, None)
    assert calls == []


# --- preferences from schemes ------------------------------------------------------------------


def test_preferences_from_scheme_cherry():
    g = star(2)
    game = VertexCoverGame(g)
    table = {frozenset({0, 1}): {0: 1, 1: 0},
             frozenset({0}): {0: 1}, frozenset({1}): {1: 1}}
    ps = preferences_from_scheme(game, AllocationScheme(g, table=table))
    assert ps.orders == {"hub": (0, 1)}


def test_preferences_from_scheme_rejects_fractional():
    g = star(2)
    game = VertexCoverGame(g)
    table = {frozenset({0, 1}): {0: Fraction(1, 2), 1: Fraction(1, 2)},
             frozenset({0}): {0: 1}, frozenset({1}): {1: 1}}
    with pytest.raises(NotIntegralScheme):
        preferences_from_scheme(game, AllocationScheme(g, table=table))


def test_preferences_from_scheme_rejects_double_unit():
    g = star(2)
    game = VertexCoverGame(g)
    table = {frozenset({0, 1}): {0: 1, 1: 1},
             frozenset({0}): {0: 1}, frozenset({1}): {1: 1}}
    with pytest.raises(MalformedScheme, match="multiple edges pay"):
        preferences_from_scheme(game, AllocationScheme(g, table=table))


def test_preferences_from_scheme_rejects_no_unit():
    g = star(2)
    game = VertexCoverGame(g)
    table = {frozenset({0, 1}): {0: 1, 1: 0},
             frozenset({0}): {0: 1}, frozenset({1}): {1: 0}}
    with pytest.raises(MalformedScheme, match="no edge pays"):
        preferences_from_scheme(game, AllocationScheme(g, table=table))


def test_preferences_from_scheme_refuses_a_misindexed_allocation():
    g = p4()
    table = construct_pmas(g).materialize()
    table[frozenset({0, 1})] = {0: 1, 2: 0}
    with pytest.raises(MalformedScheme) as info:
        preferences_from_scheme(VertexCoverGame(g), AllocationScheme(g, table=table))
    assert str(info.value) == "allocation for [0, 1] is not indexed by its members"


def test_preferences_from_scheme_refuses_keys_and_payments_it_would_coerce():
    # 1.0 == 1 and True == 1 would read as a unit payment and as edge 1
    g = star(3)
    game = VertexCoverGame(g)
    ps = PreferenceSystem(g, {"hub": (0, 1, 2)})
    bad = {"payment of edge 0 on coalition [0, 1, 2] is 1.0, not an int or Fraction":
           lambda vec: {i: float(v) for i, v in vec.items()},
           "edge key True on coalition [0, 1, 2] is not an int":
           lambda vec: {True if i == 1 else i: v for i, v in vec.items()}}
    for message, change in bad.items():
        scheme = scheme_from_preferences(ps)
        rule = scheme.allocation
        scheme.allocation = lambda s, rule=rule, change=change: change(rule(s))
        with pytest.raises(MalformedScheme) as info:
            preferences_from_scheme(game, scheme)
        assert str(info.value) == message
    scheme = scheme_from_preferences(ps)
    rule = scheme.allocation
    scheme.allocation = lambda s: {**rule(s), 0: Fraction(1, 2)}
    with pytest.raises(NotIntegralScheme):
        preferences_from_scheme(game, scheme)


def test_preferences_from_scheme_refuses_a_scheme_of_another_graph():
    scheme = scheme_from_preferences(p4_prefs())
    star3 = Graph.from_edges([("b", "a"), ("b", "c"), ("b", "d")])
    for other in (star3, star(4)):
        with pytest.raises(ContractViolation, match="scheme belongs to another graph"):
            preferences_from_scheme(VertexCoverGame(other), scheme)
    # an equal graph built separately is the same graph
    assert preferences_from_scheme(VertexCoverGame(p4()), scheme) == p4_prefs()


def test_round_trips_are_identities():
    for g in SMALL_PM_FIXTURES:
        game = VertexCoverGame(g)
        for ps in admissible_preference_systems(g):
            scheme = scheme_from_preferences(ps)
            assert preferences_from_scheme(game, scheme) == ps
        for scheme in enumerate_integral_pmas(g, max_enumerate=10**6):
            ps = preferences_from_scheme(game, scheme)
            again = scheme_from_preferences(ps)
            assert canonical_table(again.materialize()) == canonical_table(scheme.materialize())


def test_extracted_free_riders_rank_last():
    for g in SMALL_PM_FIXTURES:
        game = VertexCoverGame(g)
        from vcgame.pmas import classify_components
        comps, _ = classify_components(g)
        riders = {c.free_rider: c.cover for c in comps if c.free_rider is not None}
        for scheme in enumerate_integral_pmas(g, max_enumerate=10**6):
            ps = preferences_from_scheme(game, scheme)
            for rider, bases in riders.items():
                for b in bases:
                    assert ps.orders[b][-1] == rider


# --- enumeration and counting ----------------------------------------------------------------------


def test_enumeration_counts_match_expectations():
    assert count_integral_pmas(star(2)) == 2
    assert count_integral_pmas(star(3)) == 6
    assert count_integral_pmas(p4()) == 1
    two_cherries = Graph.from_edges([("a", "b"), ("a", "c"), ("x", "y"), ("x", "z")])
    assert count_integral_pmas(two_cherries) == 4
    for g, expected in ((star(2), 2), (star(3), 6), (p4(), 1), (two_cherries, 4)):
        assert len(list(enumerate_integral_pmas(g))) == expected


def test_count_without_enumerating():
    assert count_integral_pmas(star(8)) == 40320


def test_enumeration_matches_brute_force():
    for g in SMALL_PM_FIXTURES:
        game = VertexCoverGame(g)
        enumerated = [s.materialize() for s in enumerate_integral_pmas(g, max_enumerate=10**6)]
        got = {canonical_table(t) for t in enumerated}
        expected = {canonical_table(t) for t in brute_integral_schemes(game)}
        assert got == expected
        assert len(enumerated) == len(got) == count_integral_pmas(g)


def test_enumeration_is_deterministic():
    first = [canonical_table(s.materialize()) for s in enumerate_integral_pmas(star(3))]
    second = [canonical_table(s.materialize()) for s in enumerate_integral_pmas(star(3))]
    assert first == second
    assert len(first) == 6


def test_enumeration_truncation():
    out = []
    with pytest.raises(EnumerationTruncated, match="cap 2"):
        for scheme in enumerate_integral_pmas(star(3), max_enumerate=2):
            out.append(scheme)
    assert len(out) == 2


def test_enumeration_of_a_large_star_stays_lazy():
    # 13! systems: a stream that built every permutation first would never yield
    g = star(13)
    assert count_integral_pmas(g) == 6_227_020_800
    out = []
    with pytest.raises(EnumerationTruncated, match="cap 3"):
        for scheme in enumerate_integral_pmas(g, max_enumerate=3):
            out.append(scheme)
    assert len(out) == 3


def test_enumeration_exact_cap_is_not_truncation():
    assert len(list(enumerate_integral_pmas(star(3), max_enumerate=6))) == 6


def test_enumeration_rejects_forbidden_graphs():
    k3 = Graph.from_edges([("a", "b"), ("b", "c"), ("a", "c")])
    with pytest.raises(NotPopulationMonotonic):
        list(enumerate_integral_pmas(k3))
    with pytest.raises(NotPopulationMonotonic):
        count_integral_pmas(k3)


def test_constructed_scheme_is_integral_only_for_unit_splits():
    # equal-split scheme on a star of 2+ edges is fractional, so extraction
    # must reject it
    g = star(3)
    game = VertexCoverGame(g)
    with pytest.raises(NotIntegralScheme):
        preferences_from_scheme(game, construct_pmas(g))

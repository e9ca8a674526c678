"""Recognition, classification, the constructive scheme, the exhaustive
verifier, and the dual-side certificates."""

import copy
import gc
import json
import pickle
import random
import re
import tracemalloc
import weakref
from fractions import Fraction

import pytest

from vcgame.errors import (ContractViolation, MalformedScheme,
                           NotPopulationMonotonic, OracleCapError)
from vcgame.game import VertexCoverGame, mask_coalition
import vcgame.graph
import vcgame.pmas
from vcgame.graph import (Graph, _coalition, all_coalitions, diameter, find_forbidden_subgraph,
                          matching_number, vertex_cover_number)
from vcgame.matching import (PreferenceSystem, count_integral_pmas, enumerate_integral_pmas,
                             gale_shapley, is_stable, preferences_from_scheme,
                             scheme_from_preferences)
from vcgame.pmas import (AllocationScheme, CoverSystem, _RuleTableScheme, _scaled_profile,
                         check_dual_feasible, check_dual_optimal, check_pi_star,
                         classify_components, construct_pmas, fraction_str,
                         recognize_population_monotonic, scheme_from_json,
                         scheme_table_to_jsonable, scheme_to_json, verify_pmas)

from oracles import (all_pm_graphs_up_to, atlas_graphs, flipped, random_star_pisces_forest,
                     reference_cover_for, reference_decompose, reference_dual_feasible,
                     reference_dual_optimal, reference_pi_star, reference_split,
                     reference_verify_pmas, split_rule_allocation)


def k3() -> Graph:
    return Graph.from_edges([("a", "b"), ("b", "c"), ("a", "c")])


def p4() -> Graph:
    return Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d")])


def p5() -> Graph:
    return Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])


def star(n: int) -> Graph:
    return Graph.from_edges([("hub", f"x{k}") for k in range(n)])


def table_scheme(graph: Graph, table) -> AllocationScheme:
    frozen = {frozenset(s): {i: Fraction(v) for i, v in vec.items()}
              for s, vec in table.items()}
    return AllocationScheme(graph, table=frozen)


# --- recognition ----------------------------------------------------------------


def test_recognize_accepts_star_pisces_forest():
    g = Graph.from_edges([("hub", "x"), ("hub", "y"),
                          ("b1", "b2"), ("b1", "p"), ("b2", "q")])
    ok, witness = recognize_population_monotonic(g)
    assert ok and witness is None


def test_recognize_rejects_with_witnesses():
    for g, pattern in ((k3(), "K3"), (p5(), "P5")):
        ok, witness = recognize_population_monotonic(g)
        assert not ok
        assert witness[0] == pattern
    c4 = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    ok, witness = recognize_population_monotonic(c4)
    assert not ok and witness[0] == "C4"


def test_recognition_agrees_with_pattern_search_on_atlas():
    for g in atlas_graphs():
        ok, _ = recognize_population_monotonic(g)
        pattern_free = all(find_forbidden_subgraph(g, p) is None
                           for p in ("K3", "C4", "P5"))
        assert ok == pattern_free


# --- classification ---------------------------------------------------------------


def test_classify_star():
    comps, cover = classify_components(star(3))
    assert len(comps) == 1
    c = comps[0]
    assert c.kind == "star" and c.cover == ("hub",) and c.free_rider is None
    assert c.pendants == {"hub": (0, 1, 2)}
    assert cover.cover == ("hub",)


def test_classify_pisces():
    comps, cover = classify_components(p4())
    c = comps[0]
    assert c.kind == "pisces"
    assert c.cover == ("b", "c")
    assert c.free_rider == 1
    assert c.pendants == {"b": (0,), "c": (2,)}
    assert cover.free_riders == frozenset({1})


def test_classify_single_edge_tie_break():
    comps, _ = classify_components(Graph.from_edges([("z", "m")]))
    assert comps[0].kind == "single-edge"
    assert comps[0].cover == ("m",)  # smaller label wins


def test_classify_free_rider_first_edge_order():
    # same pisces, rider stored at index 0
    g = Graph.from_edges([("b", "c"), ("a", "b"), ("c", "d")])
    comps, cover = classify_components(g)
    assert comps[0].free_rider == 0
    assert cover.cover_for(frozenset({0})) == ("b",)


def test_classify_raises_on_forbidden():
    with pytest.raises(NotPopulationMonotonic, match="K3"):
        classify_components(k3())


def test_cover_system_is_the_graphs_own_decomposition():
    for g in atlas_graphs():
        ok, witness = recognize_population_monotonic(g)
        if ok:
            assert CoverSystem(g).components == reference_decompose(g, g.players())
        else:
            with pytest.raises(NotPopulationMonotonic) as info:
                CoverSystem(g)
            assert (info.value.pattern, info.value.vertices) == witness


# --- cover selection and split counts -----------------------------------------------


def test_cover_for_pisces_cases():
    _, cover = classify_components(p4())
    assert cover.cover_for(frozenset({0, 1, 2})) == ("b", "c")
    assert cover.cover_for(frozenset({0, 1})) == ("b",)
    assert cover.cover_for(frozenset({1, 2})) == ("c",)
    assert cover.cover_for(frozenset({1})) == ("b",)  # lone rider, smaller base
    assert cover.cover_for(frozenset({0, 2})) == ("b", "c")


def test_cover_for_is_a_minimum_cover():
    rng = random.Random(31)
    for _ in range(25):
        g = random_star_pisces_forest(rng, max_edges=8)
        game = VertexCoverGame(g)
        _, cover = classify_components(g)
        for mask in range(1, 1 << g.n_edges):
            s = mask_coalition(mask)
            chosen = cover.cover_for(s)
            assert len(chosen) == game.gamma(s)
            assert set(chosen) <= set(cover.cover)
            for i in s:
                u, v = g.edges[i]
                assert u in chosen or v in chosen


def test_cover_for_rejects_out_of_range_edges():
    _, cover = classify_components(p4())
    for bad in (7, -1):
        with pytest.raises(ContractViolation, match=f"edge index out of range: {bad}"):
            cover.cover_for(frozenset({0, bad}))


def test_dual_checks_take_ints_and_refuse_other_payments():
    g = p4()
    game = VertexCoverGame(g)
    _, cover = classify_components(g)
    s = frozenset({0, 1, 2})
    x = {0: 1, 1: 0, 2: 1}
    assert check_dual_feasible(g, s, x) and check_dual_optimal(game, s, x)
    assert check_pi_star(g, s, x, cover)
    for bad in ("1/2", 0.5, False):
        y = {**x, 1: bad}
        for call in (lambda: check_dual_feasible(g, s, y), lambda: check_dual_optimal(game, s, y),
                     lambda: check_pi_star(g, s, y, cover)):
            with pytest.raises(ContractViolation, match=f"payment of edge 1 is {bad!r}"):
                call()


def test_pi_star_rejects_a_foreign_cover_system():
    g = p4()
    s = frozenset({0, 1, 2})
    x = construct_pmas(g).allocation(s)
    relabeled = Graph.from_edges([("x", "y"), ("y", "z"), ("z", "w")])
    star3 = Graph.from_edges([("b", "a"), ("b", "c"), ("b", "d")])
    for other in (relabeled, star3):
        _, foreign = classify_components(other)
        with pytest.raises(ContractViolation, match="cover system belongs to another graph"):
            check_pi_star(g, s, x, foreign)
    # an equal graph built separately has the same cover system
    _, cover = classify_components(p4())
    assert check_pi_star(g, s, x, cover)


def test_every_entry_point_names_the_same_out_of_range_index():
    g = p4()
    _, cover = classify_components(g)
    ps = PreferenceSystem(g, {"b": (0, 1), "c": (2, 1)})
    scheme = construct_pmas(g)
    stored = scheme_from_json(g, scheme_to_json(scheme))
    fresh, tabled = VertexCoverGame(g), VertexCoverGame(g)
    tabled.cost_table()
    # a member that is not an int is refused by name, not coerced or let through
    for s, message in ((frozenset({0, -1, 99}), "edge index out of range: -1"),
                       (frozenset({0, 5}), "edge index out of range: 5"),
                       (frozenset({0, True}), "edge key True is not an int"),
                       (frozenset({2, 1.0}), "edge key 1.0 is not an int"),
                       (frozenset({0, "a"}), "edge key 'a' is not an int"),
                       ([True], "edge key True is not an int"),
                       ([0, 0], "repeated edge index: 0"),
                       (mask_coalition(1 << 20), "edge index out of range: 20")):
        x = {i: Fraction(0) for i in s}
        calls = [lambda: vertex_cover_number(g, s),
                 lambda: matching_number(g, s),
                 lambda: diameter(g, s),
                 lambda: fresh.gamma(s),
                 lambda: tabled.gamma(s),
                 lambda: scheme.allocation(s),
                 lambda: stored.allocation(s),
                 lambda: check_dual_feasible(g, s, x),
                 lambda: check_dual_optimal(tabled, s, x),
                 lambda: check_pi_star(g, s, x, cover),
                 lambda: cover.cover_for(s),
                 lambda: AllocationScheme(g, table={tuple(s): x}),
                 lambda: is_stable(ps, s, frozenset()),
                 lambda: is_stable(ps, g.players(), s),
                 lambda: gale_shapley(ps, s)]
        for call in calls:
            with pytest.raises(ContractViolation) as info:
                call()
            assert str(info.value) == message
    # the profile of {1} is not handed to [True], although {True} == {1}
    x = {1: Fraction(1)}
    assert check_dual_feasible(g, {1}, x)
    for call in (lambda: check_dual_feasible(g, [True], x),
                 lambda: check_dual_optimal(tabled, [True], x),
                 lambda: check_pi_star(g, [True], x, cover)):
        with pytest.raises(ContractViolation, match="^edge key True is not an int$"):
            call()


def test_every_entry_point_refuses_a_coalition_that_is_not_iterable():
    # by one message from the coalition gate, on each route of gamma, both oracles, both
    # kinds of scheme and a stored table's key
    g = p4()
    scheme = construct_pmas(g)
    stored = scheme_from_json(g, scheme_to_json(scheme))
    tabled = VertexCoverGame(g)
    tabled.cost_table()
    games = [VertexCoverGame(g), tabled, VertexCoverGame(k3())]
    for bad in (5, None, 1.5):
        calls = [lambda: vertex_cover_number(g, bad), lambda: matching_number(g, bad),
                 lambda: scheme.allocation(bad), lambda: stored.allocation(bad),
                 lambda: AllocationScheme(g, table={bad: {0: 1}})]
        calls += [lambda game=game: game.gamma(bad) for game in games]
        for call in calls:
            with pytest.raises(ContractViolation) as info:
                call()
            assert str(info.value) == f"coalition {bad!r} is not iterable"


def test_one_graph_is_decomposed_once_by_every_entry_point(monkeypatch):
    # recognition, the cover system, the shape check, counting, enumeration and
    # preference recovery all read the structure the graph decomposed once
    whole = []
    shapes = vcgame.graph._shapes

    def counting(graph):
        whole.append(graph)
        return shapes(graph)

    monkeypatch.setattr(vcgame.graph, "_shapes", counting)
    g = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("c", "e"), ("b", "f"), ("x", "y")])
    game = VertexCoverGame(g)
    assert recognize_population_monotonic(g) == (True, None)
    comps, cover = classify_components(g)
    assert verify_pmas(game, construct_pmas(g)) == (True, None)
    schemes = list(enumerate_integral_pmas(g))
    assert count_integral_pmas(g) == len(schemes) == 4
    for scheme in schemes:
        assert verify_pmas(game, scheme) == (True, None)
        assert scheme_from_preferences(preferences_from_scheme(game, scheme)).watch == scheme.watch
    assert game.gamma(g.players()) == len(cover.cover_for(g.players())) == 3
    assert whole == [g]
    # another graph object, even an equal one, decomposes itself
    assert recognize_population_monotonic(Graph.from_edges(g.edges)) == (True, None)
    assert len(whole) == 2


def test_graph_copies_and_pickles_with_its_structure_built():
    for g in (p4(), k3(), star(3)):
        recognize_population_monotonic(g)
        assert "_structure" in vars(g)
        for copied in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert copied == g
            assert (recognize_population_monotonic(copied)
                    == recognize_population_monotonic(g))
            assert (VertexCoverGame(copied).gamma(copied.players())
                    == vertex_cover_number(g, g.players())[0])
    cover = CoverSystem(pickle.loads(pickle.dumps(p4())))
    assert cover.components == reference_decompose(p4(), p4().players())
    assert cover.cover == ("b", "c")


def test_a_changed_cover_system_does_not_reach_the_graphs_structure():
    # pisces b-c with pendants {0, 4} at b and {2, 3} at c, free rider 1
    g = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("c", "e"), ("b", "f")])
    reference = reference_decompose(g, g.players())
    changed = CoverSystem(g)
    # the rule table is the graph's own, in tuples that refuse item assignment
    assert changed.watch is g._structure.watch and changed.select is g._structure.select
    for table in (changed.watch, changed.select, changed.pays, changed.pays[0]):
        with pytest.raises(TypeError):
            table[0] = 0
    # components is a per-instance copy, whose pendants can still be changed
    changed.components[0].pendants["b"] = (0,)
    changed.components[0].pendants.pop("c")
    changed.components.append(changed.components[0])
    fresh = CoverSystem(g)
    assert fresh.components == reference and fresh.components[0].pendants["b"] == (0, 4)
    assert fresh.watch[:2] == (0b10001, 0b11101) and fresh.select[0] == "b"
    # cover_for, gamma and the integral tables read the graph, not the changed copies
    assert changed.cover_for({0, 1}) == fresh.cover_for({0, 1}) == ("b",)
    assert VertexCoverGame(g).gamma({0, 1, 2}) == 2
    orders = {"b": (4, 0, 1), "c": (3, 2, 1)}
    assert changed.scheme(orders).watch == fresh.scheme(orders).watch == (16, 29, 8, 0, 0)


def test_pi_star_reads_the_graphs_rule_whatever_the_cover_holds():
    # on the 3-star, select[0] changed in place to "a" made check_pi_star answer
    # False, and to "x" raise KeyError, while cover_for still answered ("hub",)
    g = star(3)
    s = g.players()
    x = construct_pmas(g).allocation(s)
    cover = CoverSystem(g)
    with pytest.raises(TypeError):
        cover.select[0] = "a"
    for label in ("a", "x"):
        cover.select = [label, *cover.select[1:]]
        assert check_pi_star(g, s, x, cover) and cover.cover_for(s) == ("hub",)
    # every attribute but graph rebound: the answers of a fresh cover system
    rng = random.Random(47)
    for h in all_pm_graphs_up_to(4):
        fresh = CoverSystem(h)
        n = h.n_edges
        misleading = {"components": [], "cover": (), "watch": [0] * n, "select": ["x"] * n,
                      "pays": [[]] * n, "free_riders": frozenset(range(n))}
        for values in (misleading, dict.fromkeys(misleading)):
            rebound = CoverSystem(h)
            vars(rebound).update(values)
            scheme = construct_pmas(h)
            for s in all_coalitions(n)[1:]:
                for _, x in perturbed_allocations(rng, scheme.allocation(s)):
                    assert check_pi_star(h, s, x, rebound) == reference_pi_star(h, s, x, fresh)
    # a cover system whose graph is rebound to one without a structure raises as
    # CoverSystem(graph) does, not with an AttributeError
    cover.graph = k3()
    with pytest.raises(NotPopulationMonotonic):
        check_pi_star(k3(), {0}, {0: Fraction(1)}, cover)


def test_library_schemes_hold_their_tables_in_tuples():
    g = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("c", "e"), ("b", "f")])
    ps = PreferenceSystem(g, {"b": (4, 0, 1), "c": (3, 2, 1)})
    for built in (construct_pmas(g), scheme_from_preferences(ps), *enumerate_integral_pmas(g)):
        assert type(built.watch) is tuple and type(built.pays) is tuple
        assert all(type(row) is tuple for row in built.pays)
        for table in (built.watch, built.pays, built.pays[0]):
            with pytest.raises(TypeError):
                table[0] = 0


def pisces16() -> Graph:
    return Graph.from_edges([("b1", "b2")] + [("b1", f"p{k}") for k in range(7)]
                            + [("b2", f"q{k}") for k in range(8)])


def test_coalition_gate_matches_the_plain_conversion():
    # every form of every coalition: built from its mask, an equal plain frozenset, set, list
    for g in [star(n) for n in range(1, 7)] + [pisces16()]:
        coalitions = all_coalitions(g.n_edges)
        for c in coalitions:
            mask = sum(1 << i for i in c)
            assert c._mask == mask and _coalition(g, c) is c
            for form in (frozenset(sorted(c)), set(c), sorted(c), iter(sorted(c))):
                checked = _coalition(g, form)
                assert checked == c and checked._mask == mask


def test_coalition_gate_builds_no_coalition_table():
    g = pisces16()
    _, cover = classify_components(g)
    game = VertexCoverGame(g)
    before = all_coalitions.cache_info()
    assert game.gamma(frozenset({0, 3, 15})) == 2
    assert cover.cover_for([0, 3, 15]) == ("b1", "b2")
    assert all_coalitions.cache_info() == before


def test_coalitions_the_library_built_pass_the_gate_as_they_are():
    g, small = pisces16(), star(3)
    built = [mask_coalition(0b1001), all_coalitions(g.n_edges)[0b1011], g.players(),
             small.players(), *all_coalitions(small.n_edges)]
    for c in built:
        assert _coalition(g, c) is c
    for c in built[3:]:  # built for 3 edges, read as they are on 16
        assert _coalition(small, c) is c
    assert repr(mask_coalition(5)) == "_MaskedCoalition({0, 2})"
    assert mask_coalition(5) == frozenset({0, 2})
    assert hash(mask_coalition(5)) == hash(frozenset({0, 2}))


def test_copied_and_pickled_tables_keep_each_coalitions_mask():
    g = p4()
    game = VertexCoverGame(g)
    integral = scheme_from_preferences(PreferenceSystem(g, {"b": (0, 1), "c": (2, 1)}))
    for scheme in (construct_pmas(g), integral):
        table = scheme.materialize()
        table[frozenset({0, 1})] = {0: Fraction(1), 1: Fraction(1)}  # not a PMAS: efficiency fails
        for copied in (copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
            for s in copied:
                assert s._mask == sum(1 << i for i in s) and _coalition(g, s) is s
            assert (verify_pmas(game, AllocationScheme(g, table=copied))
                    == verify_pmas(game, AllocationScheme(g, table=table)))


# --- construction ---------------------------------------------------------------------


def test_construct_p4_examples():
    scheme = construct_pmas(p4())
    assert scheme.allocation(frozenset({0, 1, 2})) == {0: 1, 1: 0, 2: 1}
    assert scheme.allocation(frozenset({1})) == {1: 1}
    assert scheme.allocation(frozenset({0, 1})) == {0: 1, 1: 0}


def test_construct_star_equal_split():
    scheme = construct_pmas(star(3))
    third = Fraction(1, 3)
    assert scheme.allocation(frozenset({0, 1, 2})) == {0: third, 1: third, 2: third}
    assert scheme.allocation(frozenset({0, 2})) == {0: Fraction(1, 2), 2: Fraction(1, 2)}


def test_construct_requires_population_monotonic():
    with pytest.raises(NotPopulationMonotonic):
        construct_pmas(k3())


def test_construct_passes_verifier_on_random_forests():
    rng = random.Random(32)
    for _ in range(25):
        g = random_star_pisces_forest(rng, max_edges=9)
        game = VertexCoverGame(g)
        scheme = construct_pmas(g)
        assert verify_pmas(game, scheme) == (True, None)


def test_constructed_entries_nonnegative_and_unit_split():
    rng = random.Random(33)
    for _ in range(15):
        g = random_star_pisces_forest(rng, max_edges=8)
        scheme = construct_pmas(g)
        _, cover = classify_components(g)
        for mask in range(1, 1 << g.n_edges):
            s = mask_coalition(mask)
            alloc = scheme.allocation(s)
            assert all(v >= 0 for v in alloc.values())
            for vertex in cover.cover_for(s):
                load = sum(alloc[i] for i in g.incident_edges(vertex) if i in s)
                assert load == 1


# --- verification -----------------------------------------------------------------------


def cherry_table(top) -> dict:
    return {frozenset({0, 1}): {0: top[0], 1: top[1]},
            frozenset({0}): {0: 1},
            frozenset({1}): {1: 1}}


def test_verify_accepts_valid_cherry_scheme():
    g = star(2)
    scheme = table_scheme(g, cherry_table((1, 0)))
    assert verify_pmas(VertexCoverGame(g), scheme) == (True, None)


def test_verify_rejects_bad_efficiency():
    g = star(2)
    table = cherry_table((0, 1))
    table[frozenset({0})] = {0: 0}
    ok, violation = verify_pmas(VertexCoverGame(g), table_scheme(g, table))
    assert not ok
    assert violation.kind == "efficiency"
    assert violation.coalition == frozenset({0})
    assert (violation.lhs, violation.rhs) == (0, 1)


def test_verify_accepts_both_integral_cherry_schemes():
    g = star(2)
    for top in ((1, 0), (0, 1)):
        assert verify_pmas(VertexCoverGame(g), table_scheme(g, cherry_table(top)))[0]


def test_verify_rejects_bad_monotonicity():
    # efficient on every coalition (2 - 1 = 1) but edge 0 pays more as the
    # coalition grows
    g = star(2)
    ok, violation = verify_pmas(VertexCoverGame(g), table_scheme(g, cherry_table((2, -1))))
    assert not ok
    assert violation.kind == "monotonicity"
    assert violation.edge == 0
    assert violation.coalition == frozenset({0})
    assert violation.superset == frozenset({0, 1})
    assert (violation.lhs, violation.rhs) == (1, 2)
    assert "monotonicity violated" in str(violation)


def test_verify_missing_coalition_is_malformed():
    g = star(2)
    table = cherry_table((1, 0))
    del table[frozenset({1})]
    with pytest.raises(MalformedScheme, match="missing coalition"):
        verify_pmas(VertexCoverGame(g), table_scheme(g, table))


def test_verify_misindexed_coalition_is_malformed():
    g = star(2)
    table = cherry_table((1, 0))
    table[frozenset({1})] = {0: 1}
    with pytest.raises(MalformedScheme, match="not indexed"):
        verify_pmas(VertexCoverGame(g), table_scheme(g, table))


def test_verify_cap():
    g = Graph.from_edges([("hub", f"x{k}") for k in range(17)])
    with pytest.raises(OracleCapError):
        verify_pmas(VertexCoverGame(g), construct_pmas(g))


def test_accepted_schemes_are_nonnegative():
    # monotone games only admit nonnegative schemes; spot-check via acceptance
    rng = random.Random(34)
    for _ in range(10):
        g = random_star_pisces_forest(rng, max_edges=7)
        scheme = construct_pmas(g)
        ok, _ = verify_pmas(VertexCoverGame(g), scheme)
        assert ok
        for mask in range(1, 1 << g.n_edges):
            assert all(v >= 0 for v in scheme.allocation(mask_coalition(mask)).values())


def test_no_scheme_exists_for_forbidden_graphs_up_to_8_edges():
    for g in atlas_graphs(max_edges=8):
        if recognize_population_monotonic(g)[0]:
            continue
        with pytest.raises(NotPopulationMonotonic):
            construct_pmas(g)


# --- dual-side checks ----------------------------------------------------------------------


def test_dual_feasible_examples():
    g = star(2)
    s = frozenset({0, 1})
    assert not check_dual_feasible(g, s, {0: Fraction(1), 1: Fraction(1)})
    assert check_dual_feasible(g, s, {0: Fraction(1, 2), 1: Fraction(1, 2)})
    assert not check_dual_feasible(g, s, {0: Fraction(-1, 2), 1: Fraction(1, 2)})
    with pytest.raises(ContractViolation):
        check_dual_feasible(g, s, {0: Fraction(1)})


def test_dual_optimal_examples():
    g = star(3)
    game = VertexCoverGame(g)
    s = frozenset({0, 1, 2})
    third = Fraction(1, 3)
    assert check_dual_optimal(game, s, {0: third, 1: third, 2: third})
    assert not check_dual_optimal(game, s, {0: third, 1: third, 2: Fraction(0)})


def test_pi_star_examples():
    g = p4()
    game = VertexCoverGame(g)
    _, cover = classify_components(g)
    full = frozenset({0, 1, 2})
    good = construct_pmas(g).allocation(full)
    assert check_pi_star(g, full, good, cover)

    half = Fraction(1, 2)
    bad = {0: half, 1: half, 2: half}  # feasible, rider pays 1/2
    assert check_dual_feasible(g, full, bad)
    assert not check_dual_optimal(game, full, bad)
    assert not check_pi_star(g, full, bad, cover)

    lone = frozenset({1})
    assert check_pi_star(g, lone, {1: Fraction(1)}, cover)


def test_dual_feasible_rejects_out_of_range_edges():
    g = p4()
    # index -1 must not be read as the last edge
    for bad in (-1, 3):
        with pytest.raises(ContractViolation, match=f"edge index out of range: {bad}"):
            check_dual_feasible(g, {bad}, {bad: Fraction(1)})
        with pytest.raises(ContractViolation, match=f"edge index out of range: {bad}"):
            check_dual_optimal(VertexCoverGame(g), {0, bad}, {0: Fraction(1), bad: Fraction(0)})


def test_pi_star_rejects_out_of_range_edges():
    g = p4()
    _, cover = classify_components(g)
    for bad in (7, -1):
        with pytest.raises(ContractViolation, match=f"edge index out of range: {bad}"):
            check_pi_star(g, {0, bad}, {0: Fraction(1), bad: Fraction(0)}, cover)


def test_construct_restrictions_pass_all_dual_checks():
    rng = random.Random(35)
    for _ in range(12):
        g = random_star_pisces_forest(rng, max_edges=8)
        game = VertexCoverGame(g)
        scheme = construct_pmas(g)
        _, cover = classify_components(g)
        for mask in range(1, 1 << g.n_edges):
            s = mask_coalition(mask)
            alloc = scheme.allocation(s)
            assert check_dual_feasible(g, s, alloc)
            assert check_dual_optimal(game, s, alloc)
            assert check_pi_star(g, s, alloc, cover)


def perturbed_allocations(rng: random.Random, good: dict):
    """The valid allocation, the same with int payments where integral, and
    shifted, moved, negative, over-loaded and all-zero copies of it."""
    half = Fraction(1, 2)
    s = sorted(good)
    i = rng.choice(s)
    yield "valid", good
    yield "ints", {j: int(v) if v.denominator == 1 else v for j, v in good.items()}
    yield "shifted", {**good, i: good[i] - half if good[i] >= half else good[i] + half}
    if len(s) > 1:
        # half a unit moved between two edges keeps the total, so only the
        # tight and zero clauses of pi* can reject it
        i, j = rng.sample(s, 2)
        if good[i] < half:
            i, j = j, i
        yield "moved", {**good, i: good[i] - half, j: good[j] + half}
    yield "negative", {**good, i: good[i] - 1}
    yield "over-loaded", {**good, i: good[i] + 1}
    yield "zero", {j: Fraction(0) for j in s}


def test_dual_checks_match_fraction_references():
    rng = random.Random(39)
    # each check in turn meets a new allocation first (a miss); the others,
    # and the repeats, reuse its profile
    firsts = ("fop", "pof", "ofp")
    calls = 0
    verdicts = set()
    for g in all_pm_graphs_up_to(6):
        for h in (g, flipped(g)):
            game = VertexCoverGame(h)
            _, cover = classify_components(h)
            scheme = construct_pmas(h)
            for mask in range(1, 1 << h.n_edges):
                s = mask_coalition(mask)
                for kind, x in perturbed_allocations(rng, scheme.allocation(s)):
                    expected = {"f": reference_dual_feasible(h, s, x),
                                "o": reference_dual_optimal(game, s, x),
                                "p": reference_pi_star(h, s, x, cover)}
                    checks = {"f": lambda: check_dual_feasible(h, s, x),
                              "o": lambda: check_dual_optimal(game, s, x),
                              "p": lambda: check_pi_star(h, s, x, cover)}
                    order = firsts[calls % 3]
                    calls += 1
                    for names in (order, order, order[::-1], order[::-1]):
                        for name in names:
                            assert checks[name]() == expected[name], (h.edges, s, kind, name)
                    verdicts.add((kind, *expected.values()))
    assert {kind for kind, *_ in verdicts} == {"valid", "ints", "shifted", "moved",
                                               "negative", "over-loaded", "zero"}
    assert all({v[k] for v in verdicts} == {True, False} for k in (1, 2, 3))
    assert ("moved", True, True, False) in verdicts


def test_dual_optimal_by_mask_matches_the_reference():
    # with the cost table built, check_dual_optimal reads it by the profile's
    # mask and never calls gamma; the reference asks a game without a table
    rng = random.Random(40)
    verdicts = set()
    for g in all_pm_graphs_up_to(6):
        for h in (g, flipped(g)):
            tabled, plain = VertexCoverGame(h), VertexCoverGame(h)
            tabled.cost_table()
            tabled.gamma = None  # calling it would raise TypeError
            scheme = construct_pmas(h)
            for mask in range(1, 1 << h.n_edges):
                s = mask_coalition(mask)
                for kind, x in perturbed_allocations(rng, scheme.allocation(s)):
                    expected = reference_dual_optimal(plain, s, x)
                    assert check_dual_optimal(tabled, s, x) == expected, (h.edges, s, kind)
                    assert check_dual_feasible(h, s, x) == reference_dual_feasible(h, s, x)
                    assert check_dual_optimal(tabled, s, x) == expected, (h.edges, s, kind)
                    verdicts.add(expected)
    assert verdicts == {True, False}


# --- the last profile, kept between the dual checks ---------------------------------


def path3() -> Graph:
    return Graph.from_edges([("a", "b"), ("b", "c")])


def test_dual_checks_take_only_int_keys():
    g = path3()
    game = VertexCoverGame(g)
    _, cover = classify_components(g)
    x = {False: 1, 1: 0}  # False == 0 would index edge 0
    for call in (lambda: check_dual_optimal(game, {0, 1}, x),
                 lambda: check_dual_feasible(g, {0, 1}, x),
                 lambda: check_pi_star(g, {0, 1}, x, cover),
                 lambda: check_dual_feasible(g, {0, 1}, {0: 1, True: 0}),
                 lambda: check_dual_feasible(g, {0}, {0.0: 1})):
        with pytest.raises(ContractViolation, match=r"edge key (False|True|0\.0) is not an int"):
            call()


def test_profile_follows_a_dict_mutated_in_place():
    g = path3()
    game = VertexCoverGame(g)
    _, cover = classify_components(g)
    s = frozenset({0, 1})
    x = {0: Fraction(1), 1: Fraction(0)}
    checks = (lambda: check_dual_feasible(g, s, x), lambda: check_dual_optimal(game, s, x),
              lambda: check_pi_star(g, s, x, cover))
    assert [c() for c in checks] == [True, True, True]
    x[1] = Fraction(1, 2)  # load 3/2 at b
    assert [c() for c in checks] == [False, False, False]
    x[1] = 0.5  # equal to the cached Fraction(1, 2), but not a payment
    for c in checks:
        with pytest.raises(ContractViolation, match="payment of edge 1 is 0.5"):
            c()
    x[1] = 0
    assert [c() for c in checks] == [True, True, True]
    x[1] = False  # equal to the cached 0
    for c in checks:
        with pytest.raises(ContractViolation, match="payment of edge 1 is False"):
            c()


def test_profile_sees_added_and_removed_keys():
    # int payments that are the keys' own objects line the entries up, so
    # only their number tells the allocations apart
    g = path3()
    x = {0: 1, 1: 0}
    assert check_dual_feasible(g, {0, 1}, x)
    del x[1]
    with pytest.raises(ContractViolation, match="indexed by the coalition"):
        check_dual_feasible(g, {0, 1}, x)
    y = {0: 1}
    assert check_dual_feasible(g, {0}, y)
    y[1] = 0
    with pytest.raises(ContractViolation, match="indexed by the coalition"):
        check_dual_feasible(g, {0}, y)


def test_profile_is_per_graph_and_coalition():
    g = path3()
    x = {0: 1, 1: 1}
    assert not check_dual_feasible(g, {0, 1}, x)  # load 2 at b
    assert not check_dual_feasible(path3(), {0, 1}, x)  # an equal graph
    matching = Graph.from_edges([("a", "b"), ("c", "d")])
    assert check_dual_feasible(matching, {0, 1}, x)
    assert not check_dual_feasible(g, {0, 1}, x)
    with pytest.raises(ContractViolation, match="indexed by the coalition"):
        check_dual_feasible(g, {0}, x)


def test_profile_hits_for_any_form_of_the_same_coalition():
    g = Graph.from_edges([("a", "b"), ("b", "c"), ("b", "d"), ("c", "e")])
    game = VertexCoverGame(g)
    game.cost_table()
    _, cover = classify_components(g)
    s = frozenset({0, 1, 3})
    x = construct_pmas(g).allocation(s)
    expected = (reference_dual_feasible(g, s, x), reference_dual_optimal(VertexCoverGame(g), s, x),
                reference_pi_star(g, s, x, cover))
    profile = _scaled_profile(g, s, x)
    assert profile[4]._mask == 0b1011
    for form in (s, frozenset(sorted(s)), set(s), sorted(s)):
        assert _scaled_profile(g, form, x) is profile  # a hit, with the same mask
        assert (check_dual_feasible(g, form, x), check_dual_optimal(game, form, x),
                check_pi_star(g, form, x, cover)) == expected
    # the same payment objects under another coalition of the same size miss
    with pytest.raises(ContractViolation, match="indexed by the coalition"):
        check_dual_feasible(g, {0, 1, 2}, x)


def test_dual_checks_gate_a_callers_frozenset_once(monkeypatch):
    g = Graph.from_edges([("a", "b"), ("b", "c"), ("b", "d"), ("c", "e")])
    game = VertexCoverGame(g)
    game.cost_table()
    _, cover = classify_components(g)
    s = frozenset({0, 1, 3})
    x = construct_pmas(g).allocation(s)
    gate, seen = vcgame.pmas._coalition, []
    monkeypatch.setattr(vcgame.pmas, "_coalition", lambda graph, c: seen.append(c) or gate(graph, c))
    assert (check_dual_feasible(g, s, x), check_dual_optimal(game, s, x),
            check_pi_star(g, s, x, cover)) == (True, True, True)
    assert len(seen) == 1 and seen[0] is s


def test_a_raising_check_keeps_no_profile():
    g = path3()
    game = VertexCoverGame(g)
    good = {0: Fraction(1), 1: Fraction(0)}
    assert check_dual_optimal(game, {0, 1}, good)
    bad = {0: Fraction(1), 7: Fraction(0)}
    for _ in range(2):
        with pytest.raises(ContractViolation, match="indexed by the coalition"):
            check_dual_optimal(game, {0, 1}, bad)
    for _ in range(2):
        with pytest.raises(ContractViolation, match="edge index out of range: 7"):
            check_dual_optimal(game, {0, 7}, bad)
    half = {0: Fraction(1, 2), 1: Fraction(0)}  # feasible, but pays 1/2 of 1
    assert check_dual_feasible(g, {0, 1}, half) and not check_dual_optimal(game, {0, 1}, half)
    assert check_dual_optimal(game, {0, 1}, good)


def test_dual_checks_retain_one_profile():
    g = Graph.from_edges([("b1", "b2")] + [("b1", f"p{k}") for k in range(5)]
                         + [("b2", f"q{k}") for k in range(7)])
    game = VertexCoverGame(g)
    game.cost_table()
    _, cover = classify_components(g)
    scheme = construct_pmas(g)
    scheme.materialize()  # all_coalitions(n) is built here once and stays cached
    check_dual_feasible(g, {0}, {0: 1})
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = scheme.materialize()
        for s, x in table.items():
            assert check_dual_feasible(g, s, x) and check_dual_optimal(game, s, x)
            assert check_pi_star(g, s, x, cover)
        del table, s, x
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 64 * 2**10


# --- the rule table against the per-coalition paths ----------------------------------


def large_pisces() -> Graph:
    return Graph.from_edges([("b1", "b2")] + [("b1", f"p{k}") for k in range(1000)]
                            + [("b2", f"q{k}") for k in range(1000)])


def test_pays_rows_are_shared():
    # one shared list for every splitting edge and one for every free rider
    _, cover = classify_components(large_pisces())
    assert len({id(p) for p in cover.pays}) == 2


def test_rule_table_matches_split_rule():
    for g in all_pm_graphs_up_to(6):
        for h in (g, flipped(g)):
            _, cover = classify_components(h)
            expected = {mask_coalition(m): split_rule_allocation(cover, mask_coalition(m))
                        for m in range(1, 1 << h.n_edges)}
            scheme = construct_pmas(h)
            state = dict(vars(scheme))
            for s, alloc in expected.items():
                assert scheme.allocation(s) == alloc
            assert vars(scheme) == state  # single queries build and cache nothing
            assert scheme.materialize() == expected
            for s, alloc in expected.items():
                assert scheme.allocation(s) == alloc


def test_cover_system_matches_reference_split():
    for g in all_pm_graphs_up_to(6):
        for h in (g, flipped(g)):
            _, cover = classify_components(h)
            watch, pays, select = cover.watch, cover.pays, cover.select
            for mask in range(1, 1 << h.n_edges):
                s = mask_coalition(mask)
                groups, _ = reference_split(cover, s)
                assert cover.cover_for(s) == reference_cover_for(cover, s)
                for r in cover.free_riders:
                    lone = not reference_split(cover, s | {r})[1][r]
                    assert bool(pays[r][(mask & watch[r]).bit_count()]) == (not mask & watch[r]) == lone
                for v, edges_in in groups.items():
                    for i in edges_in:
                        assert select[i] == v
                        assert (mask & watch[i]).bit_count() == len(edges_in)


def outcome(call, *args):
    try:
        return call(*args)
    except (MalformedScheme, IndexError) as exc:
        return type(exc), str(exc)


def corrupted_tables(rng: random.Random, table):
    """Seeded broken copies of a materialized table: one raised entry (breaks
    efficiency), a +d/-d pair inside one coalition (keeps efficiency, breaks
    monotonicity) and a missing or misindexed coalition on either side of a
    raised entry."""
    order = sorted(table, key=lambda s: sum(1 << i for i in s))

    def raised(s, delta):
        i = rng.choice(sorted(s))
        copy = dict(table)
        copy[s] = {**table[s], i: table[s][i] + delta}
        return copy

    yield raised(rng.choice(order), rng.choice((Fraction(1), Fraction(1, 2), Fraction(-1, 3))))
    pairs = [s for s in order if len(s) > 1]
    if pairs:
        s = rng.choice(pairs)
        i, j = rng.sample(sorted(s), 2)
        delta = Fraction(rng.choice((2, 5)), rng.choice((1, 2)))
        copy = dict(table)
        copy[s] = {**table[s], i: table[s][i] + delta, j: table[s][j] - delta}
        yield copy
    if len(order) > 1:
        a, b = sorted(rng.sample(range(len(order)), 2))
        for bad, broken in ((a, b), (b, a)):
            s = order[broken]
            missing = raised(order[bad], Fraction(1))
            del missing[s]
            yield missing
            misindexed = raised(order[bad], Fraction(1))
            misindexed[s] = {i + 1: v for i, v in table[s].items()}
            yield misindexed


def test_verify_matches_reference_scan():
    rng = random.Random(37)
    kinds = set()
    for g in all_pm_graphs_up_to(5):
        game = VertexCoverGame(g)
        for scheme in (construct_pmas(g), *enumerate_integral_pmas(g, max_enumerate=10**6)):
            expected = reference_verify_pmas(game, scheme)
            assert expected == (True, None)
            assert verify_pmas(game, scheme) == expected
            for table in corrupted_tables(rng, scheme.materialize()):
                # a misindexed row is refused when the stored scheme is built
                def on_stored(check):
                    return check(game, AllocationScheme(g, table=table))
                expected = outcome(on_stored, reference_verify_pmas)
                assert outcome(on_stored, verify_pmas) == expected
                kinds.add(expected[1].kind if expected[0] is False else expected[0])
    assert kinds == {"efficiency", "monotonicity", MalformedScheme}


def through_allocation(scheme: _RuleTableScheme) -> _RuleTableScheme:
    """The same rule table with allocation() replaced on the instance by its
    own rule, so materialize and verify_pmas read it by the exhaustive path."""
    twin = _RuleTableScheme(scheme.graph, scheme.watch, scheme.pays)
    twin.allocation = twin.allocation
    return twin


def corrupted_rule_tables(rng: random.Random, scheme: _RuleTableScheme):
    """Seeded broken copies of a rule table at one edge i: a payment it can
    reach raised or lowered, or turned into a float or a bool, one watch bit
    flipped (bit n included), its payment row cut one entry short, a NaN
    past the counts it can reach (which nothing may read or convert), and,
    when i splits a whole group, a +1/-1 pair with another edge of that
    group."""
    n = scheme.graph.n_edges
    i = rng.randrange(n)
    w, row = scheme.watch[i], scheme.pays[i]
    k = rng.randint((w >> i) & 1, w.bit_count())

    def changed(watch_i=w, pays_i=row):
        watch, pays = list(scheme.watch), list(scheme.pays)
        watch[i], pays[i] = watch_i, pays_i
        return _RuleTableScheme(scheme.graph, watch, pays)

    for new in (row[k] + Fraction(1, 2), row[k] - 1, float(row[k]), bool(row[k])):
        yield changed(pays_i=[*row[:k], new, *row[k + 1:]])
    yield changed(watch_i=w ^ 1 << rng.randrange(n + 1))
    yield changed(pays_i=row[:w.bit_count()])
    yield changed(pays_i=[*row[:w.bit_count() + 1], float("nan")])
    # +1 and -1 to two edges i, j of one whole group, at their full count:
    # only coalitions holding the whole group see both, so the table stays
    # efficient and i pays more there than without one of the others
    others = [j for j in range(n) if j != i and scheme.watch[j] == w] if w >> i & 1 else []
    if others:
        top = w.bit_count()
        pays = list(scheme.pays)
        for e, delta in ((i, 1), (rng.choice(others), -1)):
            pays[e] = [*pays[e][:top], pays[e][top] + delta, *pays[e][top + 1:]]
        yield _RuleTableScheme(scheme.graph, scheme.watch, pays)


def assert_fast_paths_match(game, scheme, exact: bool):
    """verify_pmas and materialize on a rule table give what they give read
    through allocation(): the same verdict and first Violation, the same
    table, or the same exception type and message."""
    twin = through_allocation(scheme)
    verdict = outcome(verify_pmas, game, scheme)
    assert verdict == outcome(verify_pmas, game, twin)
    if exact:  # the reference coerces floats and bools
        assert verdict == outcome(reference_verify_pmas, game, scheme)
    table = outcome(scheme.materialize)
    assert table == outcome(twin.materialize)
    if type(table) is dict:  # one Fraction object per distinct payment
        objects = list({id(v): v for vec in table.values() for v in vec.values()}.values())
        assert all(type(v) is Fraction for v in objects) and len(set(objects)) == len(objects)
    return verdict


def test_rule_table_fast_paths_match_the_exhaustive_scan():
    rng = random.Random(41)
    verdicts = set()
    for g in all_pm_graphs_up_to(6):
        for h, constructive in ((g, True), (flipped(g), False)):
            game = VertexCoverGame(h)
            schemes = [construct_pmas(h), *enumerate_integral_pmas(h, max_enumerate=10**6)]
            for scheme in schemes:
                assert scheme._is_pmas_by_shape()
                assert verify_pmas(game, scheme) == (True, None)
            # the constructive scheme of each graph and an integral one of its
            # flipped copy, whole and corrupted, against the scan
            scheme = schemes[0] if constructive else rng.choice(schemes[1:])
            assert assert_fast_paths_match(game, scheme, True) == (True, None)
            for bad in corrupted_rule_tables(rng, scheme):
                exact = all(type(p) is not float and type(p) is not bool
                            for row in bad.pays for p in row)
                verdict = assert_fast_paths_match(game, bad, exact)
                verdicts.add(verdict[0] if type(verdict[0]) is type else
                             verdict[1].kind if verdict[1] else True)
    assert verdicts == {True, "efficiency", "monotonicity", MalformedScheme, IndexError}
    forests = []
    while len(forests) < 2:
        g = random_star_pisces_forest(rng, max_edges=16)
        if g.n_edges == 16:
            forests.append(g)
    for g in forests:
        scheme = construct_pmas(g)
        assert assert_fast_paths_match(VertexCoverGame(g), scheme, False) == (True, None)
        raised = next(corrupted_rule_tables(rng, scheme))
        assert (outcome(verify_pmas, VertexCoverGame(g), raised)
                == outcome(verify_pmas, VertexCoverGame(g), through_allocation(raised)))


def test_structural_verdict_builds_the_cost_table_and_scans_nothing(monkeypatch):
    def no_scan(self):
        raise AssertionError("scanned through allocation()")

    monkeypatch.setattr(AllocationScheme, "_rows", no_scan)
    g = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("c", "e")])
    integral = PreferenceSystem(g, {"b": (0, 1), "c": (3, 2, 1)})
    for scheme in (construct_pmas(g), scheme_from_preferences(integral)):
        game = VertexCoverGame(g)
        assert verify_pmas(game, scheme) == (True, None)
        # check_dual_optimal reads this table by mask instead of asking gamma
        assert game._table is not None


def test_a_library_table_held_in_lists_is_still_accepted_by_shape(monkeypatch):
    # [1, 2] != (1, 2): the shape check compares a table held in lists as tuples,
    # so the same table in lists is not sent to the exhaustive scan
    def no_scan(self):
        raise AssertionError("scanned through allocation()")

    monkeypatch.setattr(AllocationScheme, "_rows", no_scan)
    g = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("c", "e"), ("b", "f")])
    for scheme in (construct_pmas(g), *enumerate_integral_pmas(g)):
        lists = _RuleTableScheme(g, list(scheme.watch), [list(row) for row in scheme.pays])
        assert lists._is_pmas_by_shape()
        assert verify_pmas(VertexCoverGame(g), lists) == (True, None)


def test_tables_the_cover_system_does_not_build_are_scanned(monkeypatch):
    # pisces b-c with pendants {0, 4} at b and {2, 3} at c, free rider 1
    g = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("c", "e"), ("b", "f")])
    game = VertexCoverGame(g)
    scheme = construct_pmas(g)
    first = [Fraction(1)] + [Fraction(0)] * g.n_edges
    # b's group ranked (0 before 4) while c's group splits whole
    watch, pays = list(scheme.watch), list(scheme.pays)
    watch[0], pays[0] = 0, first
    watch[4], pays[4] = 1 << 0, first
    mixed = _RuleTableScheme(scheme.graph, watch, pays)
    # a whole-group edge paying 5 at count 0, which its own bit never lets it reach
    pays = list(scheme.pays)
    pays[2] = [Fraction(5), *pays[2][1:]]
    unreachable = _RuleTableScheme(scheme.graph, scheme.watch, pays)
    rows = AllocationScheme._rows
    scans = []

    def counted(self):
        scans.append(self)
        return rows(self)

    monkeypatch.setattr(AllocationScheme, "_rows", counted)
    for bad in (mixed, unreachable):
        assert not bad._is_pmas_by_shape()
        assert verify_pmas(game, bad) == reference_verify_pmas(game, bad) == (True, None)
        assert scans == [bad]
        scans.clear()
        table = bad.materialize()
        assert scans == []  # still read from the watch masks
        assert table == {s: bad.allocation(s) for s in all_coalitions(g.n_edges)[1:]}
    assert verify_pmas(game, scheme) == (True, None) and scans == []


def test_cover_data_changed_after_building_is_not_trusted():
    # the 3-star: cover.watch[0] = 0 once turned the allocation of {0, 1} into
    # {0: 0, 1: 1/2}, as the scheme shared its cover system's lists; its tables now
    # refuse changes, and rebinding them does not reach the scheme
    cover = classify_components(star(3))[1]
    scheme = cover.scheme()
    assert scheme.watch is cover.watch and scheme.pays is cover.pays
    for table in (cover.watch, cover.pays[0]):
        with pytest.raises(TypeError):
            table[0] = 0
    cover.watch = [0, 0, 0]
    assert scheme.allocation({0}) == {0: 1}
    assert scheme.allocation({0, 1}) == {0: Fraction(1, 2), 1: Fraction(1, 2)}
    # pisces b-c with pendants {0, 4} at b and {2, 3} at c, free rider 1
    g = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("c", "e"), ("b", "f")])
    game = VertexCoverGame(g)

    # changed watch masks and payments reach a scheme only when it is built from
    # changed lists, as corrupted_rule_tables builds them
    def watch(cover, scheme):
        changed = list(scheme.watch)
        changed[0] = 0
        return _RuleTableScheme(g, changed, scheme.pays)

    def pays(cover, scheme):
        changed = [list(row) for row in scheme.pays]
        changed[0][1] = Fraction(1, 3)  # edge 0 where it counts one edge
        changed[1][0] = Fraction(0)  # the free rider when lone
        return _RuleTableScheme(g, scheme.watch, changed)

    def pendants(cover, scheme):
        cover.components[0].pendants["b"] = (0,)
        return scheme

    verdicts = []
    for change in (watch, pays, pendants):
        for orders in (None, {"b": (4, 0, 1), "c": (3, 2, 1)}):
            cover = CoverSystem(g)
            scheme = change(cover, cover.scheme(orders))
            verdict = verify_pmas(game, scheme)
            assert verdict == reference_verify_pmas(game, scheme)
            verdicts.append(verdict[1].kind if verdict[1] else True)
            # a scheme built after the pendants changed reads the graph's shapes
            assert verify_pmas(game, cover.scheme(orders)) == (True, None)
    assert verdicts == ["efficiency", "efficiency", "efficiency", "efficiency", True, True]
    # a P4 scheme handed the triangle, which has no cover system, is scanned
    scheme = construct_pmas(p4())
    scheme.graph = k3()
    verdict = verify_pmas(VertexCoverGame(k3()), scheme)
    assert verdict == reference_verify_pmas(VertexCoverGame(k3()), scheme)
    assert verdict[1].kind == "efficiency"


def test_overridden_allocation_is_what_gets_verified():
    class Raised(_RuleTableScheme):
        def allocation(self, coalition):
            vec = super().allocation(coalition)
            return {**vec, 0: vec[0] + 1} if 0 in vec else vec

    scheme = construct_pmas(p4())
    raised = Raised(scheme.graph, scheme.watch, scheme.pays)
    ok, violation = verify_pmas(VertexCoverGame(p4()), raised)
    assert not ok and violation.kind == "efficiency" and violation.coalition == {0}
    assert raised.materialize()[frozenset({0})] == {0: 2}


def test_inexact_rule_table_payments_name_their_edge():
    g = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d")])
    scheme = construct_pmas(g)
    watch, pays = scheme.watch, list(scheme.pays)
    pays[0] = [0.5 if p == 1 else p for p in pays[0]]
    bad = _RuleTableScheme(scheme.graph, watch, pays)
    message = re.escape("payment of edge 0 on coalition [0] is 0.5, not an int or Fraction")
    for call in (bad.materialize, lambda: verify_pmas(VertexCoverGame(g), bad)):
        with pytest.raises(MalformedScheme, match=message):
            call()


def test_replaced_allocation_is_what_gets_verified():
    g = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("c", "e")])
    game = VertexCoverGame(g)
    integral = PreferenceSystem(g, {"b": (0, 1), "c": (3, 2, 1)})
    for scheme in (construct_pmas(g), scheme_from_preferences(integral)):
        assert verify_pmas(game, scheme) == (True, None)
        rule = scheme.allocation
        raised = frozenset({0, 2})
        seen = []

        def tampered(s):
            seen.append(s)
            vec = rule(s)
            return {**vec, 0: vec[0] + 1} if s == raised else vec

        scheme.allocation = tampered
        ok, violation = verify_pmas(game, scheme)
        assert not ok and violation.kind == "efficiency" and violation.coalition == raised
        assert len(seen) == 5  # ascending masks 1..5, stopping at {0, 2}
        assert scheme.materialize()[raised][0] == rule(raised)[0] + 1


def test_another_schemes_bound_allocation_is_what_gets_read():
    # a stored table whose allocation is another scheme's bound method is read
    # through that method, as any replaced allocation is: its own rows are not read
    g = star(2)
    game = VertexCoverGame(g)
    table = construct_pmas(g).materialize()
    own = AllocationScheme(g, table=table)
    own.allocation = AllocationScheme(g, table={**table, frozenset({0}): {0: 2}}).allocation
    assert own.allocation({0}) == {0: 2}
    ok, violation = verify_pmas(game, own)
    assert not ok and str(violation) == "efficiency violated on [0]: allocations sum to 2, cost is 1"
    coalitions = all_coalitions(g.n_edges)[1:]
    assert own.materialize() == {s: own.allocation(s) for s in coalitions}
    # a rule table given another rule table's bound method likewise
    rule = scheme_from_preferences(PreferenceSystem(g, {"hub": (0, 1)}))
    other = scheme_from_preferences(PreferenceSystem(g, {"hub": (1, 0)}))
    own_table = rule.materialize()
    rule.allocation = other.allocation
    assert rule.materialize() == other.materialize() != own_table
    assert verify_pmas(game, rule) == (True, None)


def test_schemes_read_through_allocation_take_only_int_keys():
    # a stored table's keys are checked when it is built; an allocation
    # overridden or replaced on the instance is checked as it is read
    g = path3()
    game = VertexCoverGame(g)
    table = construct_pmas(g).materialize()

    def relabel(vec):
        return {True if i == 1 else i: v for i, v in vec.items()}

    class Relabeled(AllocationScheme):
        def allocation(self, coalition):
            return relabel(super().allocation(coalition))

    replaced = construct_pmas(g)
    rule = replaced.allocation
    replaced.allocation = lambda s: relabel(rule(s))
    assert verify_pmas(game, AllocationScheme(g, table=table)) == (True, None)
    for scheme in (Relabeled(g, table=table), replaced):
        for call in (lambda: verify_pmas(game, scheme), scheme.materialize):
            with pytest.raises(MalformedScheme,
                               match=re.escape("edge key True on coalition [1] is not an int")):
                call()


def schemes_of_every_kind(g: Graph):
    """The constructive scheme, every integral one, a stored table and a
    rule table whose allocation was replaced on the instance (its rows then
    have different denominators)."""
    constructive = construct_pmas(g)
    stored = AllocationScheme(g, table={s: constructive.allocation(s)
                                        for s in map(mask_coalition, range(1, 1 << g.n_edges))})
    replaced = construct_pmas(g)
    replaced.allocation = lambda s: {i: x + Fraction(1, len(s) + 1)
                                     for i, x in constructive.allocation(s).items()}
    return constructive, *enumerate_integral_pmas(g, max_enumerate=10**6), stored, replaced


def test_materialize_reads_every_scheme_as_its_allocations():
    for g in all_pm_graphs_up_to(5):
        for h in (g, flipped(g)):
            coalitions = [mask_coalition(m) for m in range(1, 1 << h.n_edges)]
            for scheme in schemes_of_every_kind(h):
                table = scheme.materialize()
                assert list(table) == coalitions
                assert table == {s: scheme.allocation(s) for s in coalitions}
                # equal payments are one shared object
                shared = {}
                for vec in table.values():
                    for value in vec.values():
                        assert type(value) is Fraction and shared.setdefault(value, value) is value


def test_materialize_refuses_a_misindexed_stored_row():
    rng = random.Random(38)
    for g in all_pm_graphs_up_to(5):
        for h in (g, flipped(g)):
            table = construct_pmas(h).materialize()
            for s in (rng.choice(list(table)), h.players()):
                bad = {**table, s: {i + 1: v for i, v in table[s].items()}}
                with pytest.raises(MalformedScheme,
                                   match=re.escape(f"allocation for {sorted(s)} is not indexed")):
                    AllocationScheme(h, table=bad).materialize()


def test_schemes_die_without_the_cyclic_collector():
    # a scheme that referenced itself (a rule bound to it) would keep its
    # integer table alive until the cyclic collector ran
    g = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("c", "e")])
    game = VertexCoverGame(g)
    integral = PreferenceSystem(g, {"b": (0, 1), "c": (3, 2, 1)})
    gc.disable()
    try:
        for build in (lambda: construct_pmas(g), lambda: scheme_from_preferences(integral),
                      lambda: next(enumerate_integral_pmas(g))):
            scheme = build()
            scheme.materialize()
            assert verify_pmas(game, scheme) == (True, None)
            ref = weakref.ref(scheme)
            del scheme
            assert ref() is None
    finally:
        gc.enable()


def test_allocation_queries_retain_no_memory():
    g = large_pisces()
    scheme = construct_pmas(g)
    queries = [frozenset({k, k + 1, k + 2}) for k in range(1995)]
    scheme.allocation(queries[0])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for s in queries:
            scheme.allocation(s)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 0.1 * 2**20


def test_construct_on_a_large_pisces_retains_little_memory():
    # the payments stay shared Fractions; an integer numerator per edge over
    # lcm(1..1000) would have hundreds of digits and retain many MiB
    g = large_pisces()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        scheme = construct_pmas(g)
        alloc = scheme.allocation(frozenset({0, 1, 2, 1001}))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert alloc == {0: 0, 1: Fraction(1, 2), 2: Fraction(1, 2), 1001: 1}
    assert retained < 2**20


def test_dual_optimal_queries_on_a_large_pisces_retain_bounded_memory():
    # above the table cap gamma asks the size-only cover search, which keeps
    # nothing per coalition
    g = large_pisces()
    game = VertexCoverGame(g)
    scheme = construct_pmas(g)
    queries = [(s, scheme.allocation(s)) for s in
               (frozenset({k, k + 1, k + 2}) for k in range(1995))]
    check_dual_optimal(game, *queries[0])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for s, x in queries:
            assert check_dual_optimal(game, s, x)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 48 * 2**10


# --- allocation scheme plumbing -----------------------------------------------------------


def test_table_payments_are_ints_or_fractions():
    scheme = AllocationScheme(star(2), table={frozenset({0}): {0: 1}})
    (value,) = scheme.allocation({0}).values()
    assert type(value) is Fraction and value == 1
    for bad in (0.5, "1/2", True):
        with pytest.raises(MalformedScheme,
                           match=re.escape(f"payment of edge 1 on coalition [0, 1] is {bad!r}")):
            AllocationScheme(star(2), table={frozenset({0, 1}): {0: Fraction(1, 2), 1: bad}})


def test_table_edge_keys_are_ints():
    # an edge key is never coerced: "0" and True would name edges 0 and 1
    for key in ("0", True, 0.0, Fraction(0)):
        with pytest.raises(MalformedScheme,
                           match=re.escape(f"edge key {key!r} on coalition [0] is not an int")):
            AllocationScheme(star(2), table={frozenset({0}): {key: 1}})


def test_verify_refuses_payments_that_are_not_ints_or_fractions():
    g = star(2)
    game = VertexCoverGame(g)
    for value in (1, 1.0, "1", True):
        scheme = construct_pmas(g)
        rule = scheme.allocation
        scheme.allocation = lambda s: {**rule(s), 1: value} if s == {1} else rule(s)
        if type(value) is int:
            assert verify_pmas(game, scheme) == (True, None)
            continue
        with pytest.raises(MalformedScheme,
                           match=re.escape(f"payment of edge 1 on coalition [1] is {value!r}")):
            verify_pmas(game, scheme)


def test_verify_refuses_a_scheme_of_another_graph():
    scheme = construct_pmas(p4())
    star3 = Graph.from_edges([("b", "a"), ("b", "c"), ("b", "d")])
    for other in (star3, star(4)):
        with pytest.raises(ContractViolation, match="scheme belongs to another graph"):
            verify_pmas(VertexCoverGame(other), scheme)
    # an equal graph built separately is the same graph
    assert verify_pmas(VertexCoverGame(p4()), scheme) == (True, None)


def test_scheme_rejects_bad_coalitions():
    # a stored table refuses a row for the empty coalition, as scheme_from_json refuses ""
    g = star(2)
    table = construct_pmas(g).materialize()
    for empty in (frozenset(), ()):
        with pytest.raises(MalformedScheme,
                           match=re.escape("the empty coalition has no allocation")):
            AllocationScheme(g, table={**table, empty: {}})
    for scheme in (construct_pmas(g), AllocationScheme(g, table=table)):
        for empty in (frozenset(), [], ()):
            with pytest.raises(ContractViolation,
                               match=re.escape("the empty coalition has no allocation")):
                scheme.allocation(empty)
        with pytest.raises(ContractViolation):
            scheme.allocation(frozenset({9}))


def test_stored_rows_are_checked_whole_when_built():
    g = star(2)
    # a row is checked for a mapping, int keys, its members, then exact payments
    for row, message in (([0], "allocation on coalition [0, 1] is [0], not a mapping"),
                         (None, "allocation on coalition [0, 1] is None, not a mapping"),
                         ({0: 1, "1": 0}, "edge key '1' on coalition [0, 1] is not an int"),
                         ({0: 1}, "allocation for [0, 1] is not indexed by its members"),
                         ({0: 1, 2: 0.5}, "allocation for [0, 1] is not indexed by its members"),
                         ({0: 1, 1: 0.5}, "payment of edge 1 on coalition [0, 1] is 0.5")):
        with pytest.raises(MalformedScheme, match=re.escape(message)):
            AllocationScheme(g, table={frozenset({0, 1}): row})
    # whole: a later misindexed row is refused before an earlier efficiency violation
    table = {frozenset({0}): {0: 2}, frozenset({0, 1}): {0: 1, 1: 0}, frozenset({1}): {0: 1}}
    with pytest.raises(MalformedScheme,
                       match=re.escape("allocation for [1] is not indexed by its members")):
        AllocationScheme(g, table=table)
    for table in ([(frozenset({0}), {0: 1})], None):
        with pytest.raises(MalformedScheme, match="not a mapping"):
            AllocationScheme(g, table=table)


def test_scheme_readers_refuse_an_allocation_that_is_not_a_mapping():
    g = star(2)
    game = VertexCoverGame(g)
    # the scans read coalition [0] first, the peeling the hub's edges [0, 1]
    for read, first in ((lambda scheme: scheme.materialize(), [0]),
                        (lambda scheme: verify_pmas(game, scheme), [0]),
                        (lambda scheme: preferences_from_scheme(game, scheme), [0, 1])):
        scheme = construct_pmas(g)
        scheme.allocation = sorted
        with pytest.raises(MalformedScheme, match=re.escape(
                f"allocation on coalition {first} is {first}, not a mapping")):
            read(scheme)


def test_dual_checks_refuse_an_allocation_that_is_not_a_mapping():
    g = star(2)
    game = VertexCoverGame(g)
    _, cover = classify_components(g)
    for x in ([0, 1], None):
        for call in (lambda: check_dual_feasible(g, {0, 1}, x),
                     lambda: check_dual_optimal(game, {0, 1}, x),
                     lambda: check_pi_star(g, {0, 1}, x, cover)):
            with pytest.raises(ContractViolation,
                               match=re.escape(f"allocation is {x!r}, not a mapping")):
                call()


def test_materialize_cap():
    g = Graph.from_edges([("hub", f"x{k}") for k in range(17)])
    with pytest.raises(OracleCapError):
        construct_pmas(g).materialize()


def test_every_cap_must_be_a_nonnegative_int():
    # the edge and enumeration caps are checked as the vertex cap is: a bool, a float, a
    # negative int, None or a numeric string is refused, never taken or reported as a cap hit
    g = star(2)
    game = VertexCoverGame(g)
    rule, table = construct_pmas(g), table_scheme(g, cherry_table((1, 0)))
    calls = {"edge cap": [lambda bad: rule.materialize(max_edges=bad),
                          lambda bad: table.materialize(max_edges=bad),
                          lambda bad: verify_pmas(game, rule, max_edges=bad),
                          lambda bad: verify_pmas(game, table, max_edges=bad),
                          lambda bad: game.cost_table(bad)],
             "enumeration cap": [lambda bad: list(enumerate_integral_pmas(g, max_enumerate=bad))]}
    for name, entry_points in calls.items():
        for call in entry_points:
            for bad in (2.5, 1.5, True, -1, None, "16"):
                with pytest.raises(ContractViolation) as info:
                    call(bad)
                assert str(info.value) == f"{name} {bad!r} is not a nonnegative int"
    # the check holds once the game's table is built too, and 0 is a cap like any other
    assert game.cost_table() == [0, 1, 1, 1]
    with pytest.raises(ContractViolation):
        game.cost_table(None)
    with pytest.raises(OracleCapError):
        rule.materialize(max_edges=0)


def test_scheme_json_round_trip():
    g = p4()
    scheme = construct_pmas(g)
    text = scheme_to_json(scheme)
    parsed = scheme_from_json(g, text)
    assert parsed.materialize() == scheme.materialize()


def test_scheme_json_is_deterministically_ordered():
    g = star(2)
    text = scheme_to_json(construct_pmas(g))
    assert text.index('"0"') < text.index('"0,1"') < text.index('"1"')
    jsonable = scheme_table_to_jsonable(construct_pmas(g).materialize())
    assert list(jsonable) == ["0", "0,1", "1"]
    assert jsonable["0,1"] == {"0": "1/2", "1": "1/2"}


def test_scheme_json_rejects_numbers():
    with pytest.raises(MalformedScheme, match="'0'.*not a \"p/q\" string"):
        scheme_from_json(star(2), '{"0": {"0": 0.1}}')
    with pytest.raises(MalformedScheme, match="'0'"):
        scheme_from_json(star(2), '{"0": {"0": 1}}')


def test_scheme_json_rejects_noncanonical_keys():
    for key in ("1,0", "0,0", "00", " 0", "+0"):
        with pytest.raises(MalformedScheme, match=re.escape(f"coalition key '{key}'")):
            scheme_from_json(star(2), json.dumps({key: {"0": "1/1"}}))
    with pytest.raises(MalformedScheme, match="edge key '00' in coalition '0'"):
        scheme_from_json(star(2), '{"0": {"00": "1/1"}}')


def test_scheme_json_rejects_noncanonical_payments():
    one_edge = Graph.from_edges([("a", "b")])
    for payment in ("1e0", "1.0", "\u0661/\u0661", "1_0/1_0", " 1/1 ", "+1/1", "2/2", "1",
                    "01/1", "1/01", "-0/1", "1/-1", "1/0", "/1", "1/", "one", ""):
        text = json.dumps({"0": {"0": payment}})
        with pytest.raises(MalformedScheme,
                           match=re.escape(f"payment of edge 0 in coalition '0' is {payment!r}")):
            scheme_from_json(one_edge, text)
    for payment in ("1/1", "0/1", "-1/2", "3/7"):
        loaded = scheme_from_json(one_edge, json.dumps({"0": {"0": payment}}))
        assert fraction_str(loaded.allocation({0})[0]) == payment


def test_scheme_json_rejects_repeated_keys():
    with pytest.raises(MalformedScheme, match="repeated key '0'"):
        scheme_from_json(star(2), '{"0": {"0": "1/1"}, "0": {"0": "0/1"}}')
    with pytest.raises(MalformedScheme, match="repeated key '1'"):
        scheme_from_json(star(2), '{"0,1": {"1": "1/2", "1": "1/2"}}')


def test_scheme_json_rejects_out_of_range_coalitions():
    for key in ("2", "0,7", "-1"):
        with pytest.raises(MalformedScheme, match=re.escape(f"coalition key '{key}'")):
            scheme_from_json(star(2), json.dumps({key: {"0": "1/1"}}))


def test_scheme_json_rejects_garbage():
    with pytest.raises(MalformedScheme):
        scheme_from_json(star(2), "[1, 2]")
    with pytest.raises(MalformedScheme):
        scheme_from_json(star(2), '{"0": {"0": "one"}}')
    with pytest.raises(MalformedScheme):
        scheme_from_json(star(2), "not json")

"""Recognition, classification, the constructive scheme, the exhaustive
verifier, and the dual-side certificates."""

import json
import random
import re
from fractions import Fraction

import pytest

from vcgame.errors import (ContractViolation, MalformedScheme,
                           NotPopulationMonotonic, OracleCapError)
from vcgame.game import VertexCoverGame, mask_coalition
from vcgame.graph import Graph, find_forbidden_subgraph
from vcgame.pmas import (AllocationScheme, check_dual_feasible, check_dual_optimal,
                         check_pi_star, classify_components, construct_pmas,
                         recognize_population_monotonic, scheme_from_json,
                         scheme_table_to_jsonable, scheme_to_json, verify_pmas)

from oracles import atlas_graphs, random_star_pisces_forest


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


def test_split_count_examples():
    g = star(3)
    _, cover = classify_components(g)
    full = frozenset({0, 1, 2})
    assert all(cover.split_count(full, i) == 3 for i in full)
    assert cover.split_count(frozenset({1}), 1) == 1

    _, pcover = classify_components(p4())
    assert pcover.split_count(frozenset({0, 1, 2}), 0) == 1  # rider not counted


def test_split_count_rejects_free_rider():
    _, cover = classify_components(p4())
    with pytest.raises(ContractViolation, match="free rider"):
        cover.split_count(frozenset({0, 1, 2}), 1)


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


# --- allocation scheme plumbing -----------------------------------------------------------


def test_scheme_requires_exactly_one_backing():
    with pytest.raises(ValueError):
        AllocationScheme(star(2))
    with pytest.raises(ValueError):
        AllocationScheme(star(2), rule=lambda s: {}, table={})


def test_scheme_rejects_bad_coalitions():
    scheme = construct_pmas(star(2))
    with pytest.raises(ContractViolation):
        scheme.allocation(frozenset())
    with pytest.raises(ContractViolation):
        scheme.allocation(frozenset({9}))


def test_materialize_cap():
    g = Graph.from_edges([("hub", f"x{k}") for k in range(17)])
    with pytest.raises(OracleCapError):
        construct_pmas(g).materialize()


def test_scheme_json_round_trip():
    g = p4()
    scheme = construct_pmas(g)
    text = scheme_to_json(scheme)
    parsed = scheme_from_json(g, text)
    assert parsed.materialize() == scheme.materialize()
    assert not parsed.lazy and scheme.lazy


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

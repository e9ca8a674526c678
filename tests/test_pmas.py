"""Recognition, classification, the constructive scheme, the exhaustive
verifier, and the dual-side certificates."""

import json
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from vcgame.errors import (ContractViolation, MalformedScheme,
                           NotPopulationMonotonic, OracleCapError)
from vcgame.game import VertexCoverGame, mask_coalition
from vcgame.graph import Graph, find_forbidden_subgraph
from vcgame.matching import enumerate_integral_pmas
from vcgame.pmas import (AllocationScheme, check_dual_feasible, check_dual_optimal,
                         check_pi_star, classify_components, construct_pmas,
                         recognize_population_monotonic, scheme_from_json,
                         scheme_table_to_jsonable, scheme_to_json, verify_pmas)

from oracles import (all_pm_graphs_up_to, atlas_graphs, random_star_pisces_forest,
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


def test_cover_for_rejects_out_of_range_edges():
    _, cover = classify_components(p4())
    for bad in (7, -1):
        with pytest.raises(ContractViolation, match=f"edge index out of range: {bad}"):
            cover.cover_for(frozenset({0, bad}))


def test_accompanied_rejects_out_of_range_edges():
    _, cover = classify_components(p4())
    for bad in (7, -1):
        with pytest.raises(ContractViolation, match=f"edge index out of range: {bad}"):
            cover.accompanied(frozenset({bad}), 1)


def test_split_count_rejects_out_of_range_edges():
    _, cover = classify_components(p4())
    for bad in (7, -1):
        with pytest.raises(ContractViolation, match=f"edge index out of range: {bad}"):
            cover.split_count(frozenset({0, bad}), 0)


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


def reference_pi_star(graph, s, x, cover) -> bool:
    """check_pi_star through the public selector and accompanied()."""
    if not check_dual_feasible(graph, s, x):
        return False
    for vertex in cover.cover_for(s):
        if sum(x[i] for i in graph.incident_edges(vertex) if i in s) != 1:
            return False
    return all(x[i] == 0 or not cover.accompanied(s, i) for i in s & cover.free_riders)


def test_pi_star_matches_selector_scan():
    rng = random.Random(36)
    half = Fraction(1, 2)
    for g in all_pm_graphs_up_to(5):
        scheme = construct_pmas(g)
        _, cover = classify_components(g)
        for mask in range(1, 1 << g.n_edges):
            s = mask_coalition(mask)
            good = scheme.allocation(s)
            shifted = dict(good)
            i = rng.choice(sorted(s))
            shifted[i] = good[i] - half if good[i] >= half else good[i] + half
            for x in (good, shifted, {i: Fraction(0) for i in s}):
                assert check_pi_star(g, s, x, cover) == reference_pi_star(g, s, x, cover)


# --- the integer scheme table against the per-coalition paths ------------------------


def flipped(g: Graph) -> Graph:
    """The same edges with vertex labels in reversed order."""
    labels = sorted(g.vertices)
    flip = dict(zip(labels, reversed(labels)))
    return Graph.from_edges([(flip[u], flip[v]) for u, v in g.edges])


def test_rule_table_matches_split_rule():
    for g in all_pm_graphs_up_to(6):
        for h in (g, flipped(g)):
            _, cover = classify_components(h)
            expected = {mask_coalition(m): split_rule_allocation(cover, mask_coalition(m))
                        for m in range(1, 1 << h.n_edges)}
            scheme = construct_pmas(h)
            for s, alloc in expected.items():
                assert scheme.allocation(s) == alloc
            assert scheme._rows is None  # single queries build no table
            assert scheme.materialize() == expected
            for s, alloc in expected.items():
                assert scheme.allocation(s) == alloc


def verify_outcome(verify, game, scheme):
    try:
        return verify(game, scheme)
    except MalformedScheme as exc:
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
                bad = AllocationScheme(g, table=table)
                expected = verify_outcome(reference_verify_pmas, game, bad)
                assert verify_outcome(verify_pmas, game, bad) == expected
                kinds.add(expected[1].kind if expected[0] is False else expected[0])
    assert kinds == {"efficiency", "monotonicity", MalformedScheme}


def test_replaced_allocation_is_what_gets_verified():
    g = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("c", "e")])
    game = VertexCoverGame(g)
    scheme = construct_pmas(g)
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


def test_allocation_queries_retain_no_memory():
    g = Graph.from_edges([("b1", "b2")] + [("b1", f"p{k}") for k in range(1000)]
                         + [("b2", f"q{k}") for k in range(1000)])
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

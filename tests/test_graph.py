"""Graph parsing, components, and the exact cover/matching/pattern oracles."""

import gc
import random

import pytest

import vcgame.game
import vcgame.graph
from vcgame.errors import ContractViolation, GraphFormatError, OracleCapError
from vcgame.game import VertexCoverGame, core_element_from_matching, is_balanced
from vcgame.graph import (PATTERNS, Graph, _incidence, _two_color, components, diameter, find_forbidden_subgraph, is_bipartite, mask_coalition,
                          matching_number, parse_graph, vertex_cover_number)
from vcgame.pmas import CoverSystem, recognize_population_monotonic

from oracles import (all_pm_graphs_up_to, atlas_graphs, brute_cover_number,
                     brute_matching_number, flipped, large_star_pisces_forests,
                     random_bipartite_graph, random_graph, random_star_pisces_forest,
                     reference_above_cap, reference_cover_size, reference_decompose,
                     reference_edge_components, reference_forbidden_subgraph,
                     reference_incidence, reference_lex_min_cover, reference_matching_number)


def k3() -> Graph:
    return Graph.from_edges([("a", "b"), ("b", "c"), ("a", "c")])


def c4() -> Graph:
    return Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])


def p5() -> Graph:
    return Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])


def star(n: int) -> Graph:
    return Graph.from_edges([("hub", f"x{k}") for k in range(n)])


# --- parsing ---------------------------------------------------------------------


def test_parse_basic():
    g = parse_graph("a b\nb c")
    assert g.vertices == ("a", "b", "c")
    assert g.edges == (("a", "b"), ("b", "c"))
    assert g.players() == frozenset({0, 1})


def test_parse_comments_and_blanks():
    g = parse_graph("# a comment\n\na b\n   \n# another\nb c\n")
    assert g.n_edges == 2


def test_parse_duplicate_edge():
    with pytest.raises(GraphFormatError, match="line 2.*duplicate edge"):
        parse_graph("a b\na b")
    with pytest.raises(GraphFormatError, match="duplicate edge"):
        parse_graph("a b\nb a")


def test_parse_self_loop():
    with pytest.raises(GraphFormatError, match="line 1.*self-loop"):
        parse_graph("a a")


def test_parse_empty():
    with pytest.raises(GraphFormatError, match="empty graph has no players"):
        parse_graph("# nothing here\n")


def test_parse_bad_tokens():
    with pytest.raises(GraphFormatError, match="line 1.*two vertex labels"):
        parse_graph("a b c")


def test_from_edges_reads_its_pairs_once():
    pairs = [("a", "b"), ("b", "c")]
    g = Graph.from_edges(pairs, extra_vertices=("z", "a"))
    assert g == Graph.from_edges(iter(pairs), extra_vertices=iter(("z", "a")))
    assert g == Graph(vertices=("a", "b", "c", "z"), edges=(("a", "b"), ("b", "c")))


# --- components and diameter -------------------------------------------------------


def test_components_two_disjoint_edges():
    g = Graph.from_edges([("a", "b"), ("c", "d")])
    assert components(g) == [frozenset({0}), frozenset({1})]


def test_components_path():
    assert components(p5()) == [frozenset({0, 1, 2, 3})]


def test_components_k3_plus_k2():
    g = Graph.from_edges([("a", "b"), ("b", "c"), ("a", "c"), ("x", "y")])
    assert [len(c) for c in components(g)] == [3, 1]


def test_diameter_examples():
    assert diameter(Graph.from_edges([("a", "b")]), frozenset({0})) == 1
    assert diameter(star(3), frozenset({0, 1, 2})) == 2
    assert diameter(p5(), frozenset({0, 1, 2, 3})) == 4


def test_diameter_disconnected_rejected():
    g = Graph.from_edges([("a", "b"), ("c", "d")])
    with pytest.raises(ContractViolation):
        diameter(g, frozenset({0, 1}))


def test_diameter_matches_networkx_on_atlas():
    import networkx as nx

    checked = 0
    for g in atlas_graphs(connected_only=True):
        if g.n_edges:
            assert diameter(g, g.players()) == nx.diameter(nx.Graph(g.edges))
            checked += 1
    assert checked == 995


def test_incidence_maps_coalition_vertices_to_their_edges():
    assert _incidence(p5(), [0, 3]) == {"a": [0], "b": [0], "d": [3], "e": [3]}
    assert _incidence(p5(), [1, 2]) == {"b": [1], "c": [1, 2], "d": [2]}


def test_component_search_matches_the_quadratic_reference():
    # random general graphs and star/pisces forests, each whole
    rng = random.Random(2101)
    graphs = [random_graph(rng, max_edges=12) for _ in range(150)]
    graphs += [random_star_pisces_forest(rng, max_edges=30) for _ in range(150)]
    for g in graphs:
        order = range(g.n_edges)
        assert components(g) == reference_edge_components(g, order, reference_incidence(g, order))


def test_large_star_and_pisces_decompose_once_in_linear_time():
    # quadratic in a center's degree, the old component search took seconds per call here;
    # the cover number is the cover-vertex count (1 for a star, 2 for a pisces)
    k = 10_000
    star_edges = [("hub", f"x{j}") for j in range(k)]
    pisces_edges = [("b1", "b2")] + [(b, f"{b}-{j}") for b in ("b1", "b2") for j in range(k // 2)]
    for edges, cover in ((star_edges, ("hub",)), (pisces_edges, ("b1", "b2"))):
        g = Graph.from_edges(edges)
        assert g.n_edges >= k
        assert recognize_population_monotonic(g) == (True, None)
        system = CoverSystem(g)
        assert system.cover == cover and [c.kind for c in system.components] == [
            "star" if len(cover) == 1 else "pisces"]
        game = VertexCoverGame(g)
        assert game.gamma(g.players()) == game.gamma({1, g.n_edges - 1}) == len(cover)


def test_oracles_on_a_large_star_and_pisces_build_no_edge_masks():
    # the per-edge mask table is quadratic in the edge count (about 30 MiB at 8000 edges);
    # on a star/pisces graph both oracles and the balance verdicts read the structure alone
    k = 10_000
    star_edges = [("hub", f"x{j}") for j in range(k)]
    pisces_edges = [("b1", "b2")] + [(b, f"{b}-{j}") for b in ("b1", "b2") for j in range(k // 2)]
    g = Graph.from_edges(star_edges)
    cases = [(g, g.players(), ("hub",), (0,)), (g, {k - 1}, ("hub",), (k - 1,)),
             (g, {7, 3, 9000}, ("hub",), (3,))]
    h = Graph.from_edges(pisces_edges)
    half = k // 2
    cases += [(h, h.players(), ("b1", "b2"), (1, half + 1)),
              (h, {0}, ("b1",), (0,)),  # the free rider alone
              (h, {0, 9, 7}, ("b1",), (0,)),  # the rider with pendants at b1 only
              (h, {half + 5, 0}, ("b2",), (0,)),
              (h, {3, k - 1}, ("b1", "b2"), (3, k - 1)),  # two lone pendants, no rider
              (h, {0, 3, k - 1}, ("b1", "b2"), (3, k - 1))]
    for graph, s, cover, matching in cases:
        assert vertex_cover_number(graph, s) == (len(cover), cover)
        assert matching_number(graph, s) == (len(matching), matching)
    for graph, cover, matched in ((g, 1, {0}), (h, 2, {1, half + 1})):
        game = VertexCoverGame(graph)
        assert is_balanced(game)
        x = core_element_from_matching(game)
        assert len(x) == graph.n_edges and {i for i, v in x.items() if v} == matched
        assert sum(x.values()) == cover
        assert "_edge_masks" not in vars(graph)


def test_oracles_decompose_a_subgraph_only_above_the_cap(monkeypatch):
    built = []
    shapes = vcgame.graph._shapes
    monkeypatch.setattr(vcgame.graph, "_shapes", lambda g: built.append(g.edges) or shapes(g))
    # a star/pisces graph is decomposed once, then answers from its structure at every cap
    g = star(3)
    assert g._structure is not None and built == [g.edges]
    built.clear()
    for cap in (24, 3, 0):
        assert vertex_cover_number(g, g.players(), max_vertices=cap) == (1, ("hub",))
        assert matching_number(g, g.players(), max_vertices=cap) == (1, (0,))
    assert built == []
    # on any other graph (here a distant triangle follows the star), a star coalition
    # is decomposed only above the cap: once per call, as the coalition subgraph
    h = with_triangle(g)
    built.clear()
    s = frozenset(range(3))
    assert vertex_cover_number(h, s) == (1, ("hub",))
    assert matching_number(h, s) == (1, (0,))
    assert built == []
    assert vertex_cover_number(h, s, max_vertices=3) == (1, ("hub",))
    assert matching_number(h, s, max_vertices=3) == (1, (0,))
    assert built == [g.edges] * 2  # its edges in ascending index order


# --- cover number -------------------------------------------------------------------


def test_cover_number_k3():
    size, witness = vertex_cover_number(k3(), frozenset({0, 1, 2}))
    assert size == 2
    assert witness == ("a", "b")


def test_cover_number_p5_prefix():
    size, _ = vertex_cover_number(p5(), frozenset({0, 1, 2}))
    assert size == 2
    size2, _ = vertex_cover_number(p5(), frozenset({1, 2, 3}))
    assert size2 == 2


def test_cover_number_single_edge_and_empty():
    g = Graph.from_edges([("a", "b")])
    assert vertex_cover_number(g, frozenset({0})) == (1, ("a",))
    assert vertex_cover_number(g, frozenset()) == (0, ())


def test_cover_witness_is_lexicographically_smallest():
    # covers of size 2 for this path: {b,c}, {a,c}, {b,d}; smallest is (a, c)
    g = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d")])
    assert vertex_cover_number(g, g.players()) == (2, ("a", "c"))


def test_cover_witness_covers_everything():
    rng = random.Random(5)
    for _ in range(40):
        g = random_graph(rng, max_edges=9)
        size, witness = vertex_cover_number(g, g.players())
        chosen = set(witness)
        assert len(witness) == size
        assert all(u in chosen or v in chosen for u, v in g.edges)


def cap_outcome(call):
    """call's result, or the text of the OracleCapError it raises."""
    try:
        return call()
    except OracleCapError as error:
        return str(error)


def cap_error(n: int, cap: int) -> str:
    return (f"instance too large for exact oracle: the coalition subgraph has {n} vertices,"
            f" above the {cap}-vertex cap, and is not a star/pisces forest")


def complete_bipartite(a: int, b: int, extra=()) -> Graph:
    """K(a, b) on sides a0.. and b0.., after the extra edges."""
    return Graph.from_edges(list(extra) + [(f"a{i}", f"b{j}")
                                           for i in range(a) for j in range(b)])


def test_bitmask_cover_search_matches_the_pair_list_reference():
    # cover number and witness against the search that rebuilt an edge-pair list at every
    # node: every coalition of the atlas graphs with at most 8 edges (all 1252 graphs hold
    # 12.6 million coalitions), the grand coalition and 20 seeded coalitions of each larger
    # one, 20 seeded coalitions of 300 random graphs, and the grand coalition and 4 seeded
    # coalitions of dense graphs on 16-24 vertices (K5,19, K12,12, K2,22, K4,12 with one
    # edge inside its 12 side, and G(n, 0.2) for n = 16..24 in both label orders); gamma
    # agrees under the vertex caps 0 and 24, or raises the cap error on a subgraph that is
    # not a star/pisces forest
    rng = random.Random(2401)
    cases = []
    for g in atlas_graphs():
        full = (1 << g.n_edges) - 1
        cases.append((g, range(full + 1) if g.n_edges <= 8
                      else [full] + [rng.getrandbits(g.n_edges) for _ in range(20)]))
    for _ in range(300):
        g = random_graph(rng, max_edges=14, max_vertices=9)
        cases.append((g, [rng.getrandbits(g.n_edges) for _ in range(20)]))
    dense = [complete_bipartite(5, 19), complete_bipartite(12, 12), complete_bipartite(2, 22),
             complete_bipartite(4, 12, [("b0", "b1")])]
    for n in range(16, 25):
        g = Graph.from_edges([(f"v{i}", f"v{j}") for i in range(n) for j in range(i + 1, n)
                              if rng.random() < 0.2])
        dense += [g, flipped(g)]
    for g in dense:
        cases.append((g, [(1 << g.n_edges) - 1] + [rng.getrandbits(g.n_edges) for _ in range(4)]))
    checked = 0
    for g, masks in cases:
        games = [VertexCoverGame(g, max_vertices=cap) for cap in (0, 24)]
        for mask in masks:
            s = mask_coalition(mask)
            size = reference_cover_size(g, s)
            assert vertex_cover_number(g, s) == (size, reference_lex_min_cover(g, s, size))
            n = len({w for i in s for w in g.edges[i]})
            expected = [size if n <= cap or reference_decompose(g, s) is not None
                        else cap_error(n, cap) for cap in (0, 24)]
            assert [cap_outcome(lambda: game.gamma(s)) for game in games] == expected
            checked += 1
    assert checked == 49815 + 21 * 857 + 20 * 300 + 5 * 22


def test_vertex_cap_counts_the_coalition_subgraphs_vertices(monkeypatch):
    # a 5-cycle coalition (not a star/pisces forest) in a graph with more edges and
    # isolated vertices, none of which count: at exactly the cap it is answered, one
    # vertex more gives the cap error
    g = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a"),
                          ("f", "g"), ("g", "h")], extra_vertices=("x", "y", "z"))
    s = frozenset(range(5))
    assert cap_outcome(lambda: vertex_cover_number(g, s, max_vertices=5)) == (3, ("a", "b", "d"))
    assert cap_outcome(lambda: matching_number(g, s, max_vertices=5)) == (2, (0, 2))
    assert cap_outcome(lambda: VertexCoverGame(g, max_vertices=5).gamma(s)) == 3
    for call in (lambda: vertex_cover_number(g, s, max_vertices=4),
                 lambda: matching_number(g, s, max_vertices=4),
                 lambda: VertexCoverGame(g, max_vertices=4).gamma(s)):
        assert cap_outcome(call) == cap_error(5, 4)
    # three disjoint edges span 2 * 3 = 6 vertices: at the cap 6 the search answers them,
    # at 5 they are above it and their subgraph's own structure answers, with one
    # decomposition of that subgraph per call and the same witnesses
    built = []
    shapes = vcgame.graph._shapes
    monkeypatch.setattr(vcgame.graph, "_shapes", lambda h: built.append(h.edges) or shapes(h))
    s = frozenset({0, 2, 5})
    for cap, decomposed in ((6, []), (5, [(("a", "b"), ("c", "d"), ("f", "g"))] * 3)):
        built.clear()
        assert cap_outcome(lambda: vertex_cover_number(g, s, max_vertices=cap)) == (3, ("a", "c", "f"))
        assert cap_outcome(lambda: matching_number(g, s, max_vertices=cap)) == (3, (0, 2, 5))
        assert cap_outcome(lambda: VertexCoverGame(g, max_vertices=cap).gamma(s)) == 3
        assert built == decomposed


def test_vertex_cap_must_be_a_nonnegative_int(monkeypatch):
    # on a graph the search answers and on a pisces its structure answers
    pisces = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d")])
    for g in (c4(), pisces):
        for bad in (True, False, 2.5, -1, None, "24"):
            for call in (lambda: VertexCoverGame(g, max_vertices=bad),
                         lambda: vertex_cover_number(g, g.players(), max_vertices=bad),
                         lambda: matching_number(g, g.players(), max_vertices=bad)):
                with pytest.raises(ContractViolation) as info:
                    call()
                assert str(info.value) == f"vertex cap {bad!r} is not a nonnegative int"
    # the game checks its cap once, when it is built, and never per coalition
    g = c4()
    game = VertexCoverGame(g, max_vertices=0)
    monkeypatch.setattr(vcgame.graph, "_vertex_cap", None)
    monkeypatch.setattr(vcgame.game, "_vertex_cap", None)
    assert game.gamma({0, 1}) == 1 and game.max_vertices == 0


# --- matching number -----------------------------------------------------------------


def test_matching_number_examples():
    assert matching_number(k3(), frozenset({0, 1, 2}))[0] == brute_matching_number(k3(), {0, 1, 2}) == 1
    assert matching_number(c4(), c4().players())[0] == brute_matching_number(c4(), c4().players()) == 2
    p4 = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d")])
    assert matching_number(p4, p4.players())[0] == brute_matching_number(p4, p4.players()) == 2


def test_matching_witness_lexicographic():
    size, witness = matching_number(c4(), c4().players())
    assert size == 2
    assert witness == (0, 2)


def test_matching_witness_disjoint():
    rng = random.Random(6)
    for _ in range(40):
        g = random_graph(rng, max_edges=9)
        size, witness = matching_number(g, g.players())
        assert len(witness) == size
        used = set()
        for i in witness:
            u, v = g.edges[i]
            assert u not in used and v not in used
            used.update((u, v))


def test_cover_and_matching_match_brute_force():
    rng = random.Random(7)
    for _ in range(60):
        g = random_graph(rng, max_edges=8)
        s = g.players()
        assert vertex_cover_number(g, s)[0] == brute_cover_number(g, s)
        assert matching_number(g, s)[0] == brute_matching_number(g, s)


def test_nu_at_most_tau_on_subcoalitions():
    rng = random.Random(8)
    for _ in range(25):
        g = random_graph(rng, max_edges=7)
        players = sorted(g.players())
        for mask in range(1, 1 << len(players)):
            s = frozenset(players[i] for i in range(len(players)) if (mask >> i) & 1)
            assert matching_number(g, s)[0] <= vertex_cover_number(g, s)[0]


def test_koenig_on_bipartite_graphs():
    rng = random.Random(9)
    for _ in range(50):
        g = random_bipartite_graph(rng, max_edges=12)
        assert is_bipartite(g)
        nu = matching_number(g, g.players())[0]
        tau = vertex_cover_number(g, g.players())[0]
        assert nu == tau == brute_matching_number(g, g.players()) == brute_cover_number(g, g.players())


def test_bitmask_matching_search_matches_the_pair_list_reference():
    # matching number and witness against the pair-list engine it replaced (augmenting
    # paths on bipartite pairs, else branch and bound): every coalition of the atlas graphs
    # with at most 8 edges, and the grand coalition and 20 seeded coalitions of each larger
    # one, at the default cap; the same coalitions of 100 random graphs on at most 16
    # vertices, in both label orders, under the caps 0, 6 and 24, where above the cap the
    # answer or the cap error text is the shape reader's
    rng = random.Random(2701)
    cases = []
    for g in atlas_graphs():
        full = (1 << g.n_edges) - 1
        cases.append((g, range(full + 1) if g.n_edges <= 8
                      else [full] + [rng.getrandbits(g.n_edges) for _ in range(20)], (24,)))
    for _ in range(100):
        g = random_graph(rng, max_edges=20, max_vertices=16)
        masks = [(1 << g.n_edges) - 1] + [rng.getrandbits(g.n_edges) for _ in range(20)]
        cases += [(g, masks, (0, 6, 24)), (flipped(g), masks, (0, 6, 24))]
    routes = {"bipartite": 0, "not bipartite": 0, "structure": 0, "cap error": 0}
    for g, masks, caps in cases:
        for mask in masks:
            s = mask_coalition(mask)
            exact = reference_matching_number(g, s)
            for cap in caps:
                above = reference_above_cap(g, s, cap)
                if above is None:
                    routes["not bipartite" if _two_color(g.edges[i] for i in s) is None
                           else "bipartite"] += 1
                    expected = exact
                elif isinstance(above, str):
                    routes["cap error"] += 1
                    expected = above
                else:
                    routes["structure"] += 1
                    expected = above[1]
                assert cap_outcome(lambda: matching_number(g, s, max_vertices=cap)) == expected
    assert sum(routes.values()) == 49815 + 21 * 857 + 2 * 21 * 100 * 3
    assert min(routes.values()) >= 2000


def test_matching_on_dense_graphs_within_the_cap():
    # complete bipartite graphs of 24 vertices (König's route), and K4,12 with one edge
    # inside its 12 side, which is not bipartite (the branch and bound)
    for g, size, bipartite in ((complete_bipartite(5, 19), 5, True),
                               (complete_bipartite(12, 12), 12, True),
                               (complete_bipartite(2, 22), 2, True),
                               (complete_bipartite(4, 12, [("b0", "b1")]), 5, False)):
        assert g.n_vertices <= 24 and g._structure is None and is_bipartite(g) == bipartite
        expected = reference_matching_number(g, g.players())
        assert expected[0] == size
        assert matching_number(g, g.players()) == expected


def test_oracles_leave_no_reference_cycles():
    # a recursive nested function refers to itself through its closure cell,
    # so every call would leave garbage that only the cyclic collector frees
    graphs = [k3(), c4(), p5(), star(4),
              Graph.from_edges([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e")])]
    assert [is_bipartite(g) for g in graphs] == [False, True, True, True, False]
    gc.collect()
    gc.disable()
    try:
        for g in graphs:
            matching_number(g, g.players())
            vertex_cover_number(g, g.players())
            for pattern in PATTERNS:
                find_forbidden_subgraph(g, pattern)
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- structural fast path and caps ----------------------------------------------------


def test_structural_path_beyond_cap():
    big_star = star(30)
    assert vertex_cover_number(big_star, big_star.players()) == (1, ("hub",))
    assert matching_number(big_star, big_star.players()) == (1, (0,))
    pisces = Graph.from_edges([("b1", "b2")]
                              + [("b1", f"l{k}") for k in range(14)]
                              + [("b2", f"r{k}") for k in range(14)])
    assert vertex_cover_number(pisces, pisces.players()) == (2, ("b1", "b2"))
    nu, witness = matching_number(pisces, pisces.players())
    assert nu == 2 and witness == (1, 15)


def with_triangle(g: Graph) -> Graph:
    """g with a disjoint triangle after its edges: g's coalitions keep their edge indices
    on a graph that is not star/pisces, whose oracles answer them by search within the
    vertex cap and from the coalition subgraph's own shapes above it."""
    h = Graph.from_edges(list(g.edges) + [("t1", "t2"), ("t2", "t3"), ("t1", "t3")])
    assert h.n_vertices == g.n_vertices + 3 and h._structure is None
    return h


def test_structural_witnesses_equal_exact_witnesses():
    path = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d")])
    assert vertex_cover_number(path, path.players(), max_vertices=2) == (2, ("a", "c"))
    # every coalition of every population-monotonic graph with up to 6 edges, in both
    # label orders: the generator labels every base below its leaves, and reversed labels
    # put the leaves first, where a lone pendant's leaf beats its base
    for g in all_pm_graphs_up_to(6):
        for h in (g, flipped(g)):
            ref = with_triangle(h)
            for mask in range(1, 1 << h.n_edges):
                s = mask_coalition(mask)
                cover, matching = vertex_cover_number(ref, s), matching_number(ref, s)
                assert vertex_cover_number(ref, s, max_vertices=0) == cover
                assert matching_number(ref, s, max_vertices=0) == matching
                for cap in (0, 24):
                    assert vertex_cover_number(h, s, max_vertices=cap) == cover
                    assert matching_number(h, s, max_vertices=cap) == matching
                assert VertexCoverGame(h, max_vertices=0).gamma(s) == cover[0]
    # a pisces whose leaves a and z, b and y sit on both sides of its bases m and n:
    # the free rider alone, with pendants at one base (a star there, matched by the rider
    # or by that base's lowest pendant), without the rider, and with both sides
    g = Graph.from_edges([("m", "a"), ("m", "z"), ("m", "n"), ("n", "b"), ("n", "y")])
    ref = with_triangle(g)
    for members, cover, matching in (((2,), ("m",), (2,)),
                                     ((2, 3), ("n",), (2,)),
                                     ((2, 3, 4), ("n",), (2,)),
                                     ((0, 2), ("m",), (0,)),
                                     ((1, 2), ("m",), (1,)),
                                     ((0, 1, 2), ("m",), (0,)),
                                     ((0, 3), ("a", "b"), (0, 3)),
                                     ((1, 4), ("m", "n"), (1, 4)),
                                     ((0, 2, 3), ("a", "n"), (0, 3)),
                                     ((1, 2, 4), ("m", "n"), (1, 4)),
                                     ((0, 1, 2, 3), ("b", "m"), (0, 3)),
                                     ((0, 1, 2, 3, 4), ("m", "n"), (0, 3))):
        s = frozenset(members)
        for cap in (0, 24):
            assert vertex_cover_number(g, s, max_vertices=cap) == (len(cover), cover)
            assert matching_number(g, s, max_vertices=cap) == (len(matching), matching)
            assert vertex_cover_number(ref, s, max_vertices=cap) == (len(cover), cover)
            assert matching_number(ref, s, max_vertices=cap) == (len(matching), matching)
    # forests above both caps, on sampled coalitions under the vertex caps 0, 24 and one
    # that lifts it
    rng = random.Random(1702)
    for g in large_star_pisces_forests(rng, 12):
        for h in (g, flipped(g)):
            ref = with_triangle(h)
            for s in [h.players()] + [frozenset(i for i in range(h.n_edges) if rng.random() < p)
                                      for p in (0.2, 0.5, 0.8) for _ in range(10)]:
                for cap in (0, 24, h.n_vertices):
                    assert (vertex_cover_number(h, s, max_vertices=cap)
                            == vertex_cover_number(ref, s, max_vertices=cap))
                    assert (matching_number(h, s, max_vertices=cap)
                            == matching_number(ref, s, max_vertices=cap))
                assert VertexCoverGame(h, max_vertices=0).gamma(s) == vertex_cover_number(h, s)[0]
        assert "_edge_masks" not in vars(g)


GADGETS = {"K3": [("t1", "t2"), ("t2", "t3"), ("t1", "t3")],
           "C4": [("t1", "t2"), ("t2", "t3"), ("t3", "t4"), ("t4", "t1")],
           "P5": [("t1", "t2"), ("t2", "t3"), ("t3", "t4"), ("t4", "t5")]}


def oracle_outcomes(g: Graph, s, cap: int):
    """Both oracles' answers and gamma under the vertex cap, or their cap error texts."""
    return (cap_outcome(lambda: vertex_cover_number(g, s, max_vertices=cap)),
            cap_outcome(lambda: matching_number(g, s, max_vertices=cap)),
            cap_outcome(lambda: VertexCoverGame(g, max_vertices=cap).gamma(s)))


def test_oracles_above_the_cap_match_the_shape_reader():
    # sampled coalitions of star/pisces forests of 10-80 edges plus a distant K3, C4 or P5
    # (the edges shuffled), in both label orders, under the caps 0, 5 and 24: answers and
    # cap error texts equal those of the reader of reference_decompose's shapes above the
    # cap, and within it the search's, which that reader left to it
    rng = random.Random(2601)
    routes = {"search": 0, "shapes": 0, "error": 0}
    for pattern in list(GADGETS) * 4:
        forest = random_star_pisces_forest(rng, max_edges=80)
        while forest.n_edges < 10:
            forest = random_star_pisces_forest(rng, max_edges=80)
        edges = list(forest.edges) + GADGETS[pattern]
        rng.shuffle(edges)
        g = Graph.from_edges(edges)
        in_forest = frozenset(i for i, (u, _) in enumerate(edges) if not u.startswith("t"))
        for h in (g, flipped(g)):
            coalitions = [h.players(), in_forest] + [
                frozenset(i for i in range(h.n_edges) if rng.random() < p)
                for p in (0.05, 0.2, 0.5, 0.8) for _ in range(3)]
            for s in coalitions:
                for cap in (0, 5, 24):
                    expected = reference_above_cap(h, s, cap)
                    if expected is None:
                        routes["search"] += 1
                        expected = oracle_outcomes(h, s, h.n_vertices)
                    elif isinstance(expected, str):
                        routes["error"] += 1
                        expected = (expected,) * 3
                    else:
                        routes["shapes"] += 1
                        expected = (*expected, expected[0][0])
                    assert oracle_outcomes(h, s, cap) == expected
    assert min(routes.values()) >= 50


def test_oracles_above_the_cap_on_a_large_graph_build_no_edge_masks():
    # a 2,004-edge star and pisces with a distant triangle: coalitions above the cap are
    # answered from their own subgraph's structure, and the quadratic mask table is never
    # built (it holds about 2 MiB at 2,000 edges)
    k = 1000
    g = Graph.from_edges([("hub", f"x{j}") for j in range(k)] + [("b1", "b2")]
                         + [(b, f"{b}-{j}") for b in ("b1", "b2") for j in range(k // 2)]
                         + GADGETS["K3"])
    assert g.n_edges >= 2000 and g._structure is None
    forest = frozenset(range(2 * k + 1))
    assert oracle_outcomes(g, forest, 24) == ((3, ("b1", "b2", "hub")),
                                              (3, (0, k + 1, k + 1 + k // 2)), 3)
    assert oracle_outcomes(g, g.players(), 24) == (cap_error(g.n_vertices, 24),) * 3
    rng = random.Random(2602)
    for p in (0.01, 0.1, 0.5, 0.9):
        s = frozenset(i for i in forest if rng.random() < p)
        cover, matching = reference_above_cap(g, s, 24)
        assert oracle_outcomes(g, s, 24) == (cover, matching, cover[0])
    assert "_edge_masks" not in vars(g)


def test_cap_error_on_long_path():
    path = Graph.from_edges([(f"v{k:02d}", f"v{k + 1:02d}") for k in range(29)])
    with pytest.raises(OracleCapError, match="too large"):
        vertex_cover_number(path, path.players())
    with pytest.raises(OracleCapError):
        matching_number(path, path.players())
    # the one error of both oracles and gamma says why it fired
    for call in (lambda: vertex_cover_number(path, path.players()),
                 lambda: matching_number(path, path.players()),
                 lambda: VertexCoverGame(path).gamma(path.players())):
        with pytest.raises(OracleCapError) as info:
            call()
        assert str(info.value) == (
            "instance too large for exact oracle: the coalition subgraph has 30 vertices,"
            " above the 24-vertex cap, and is not a star/pisces forest")


# --- bipartiteness ---------------------------------------------------------------------


def test_bipartite_examples():
    assert not is_bipartite(k3())
    assert is_bipartite(c4())
    assert is_bipartite(p5())
    assert is_bipartite(star(4))


# --- forbidden subgraph search ------------------------------------------------------------


def test_pattern_c4_in_c4():
    witness = find_forbidden_subgraph(c4(), "C4")
    assert witness is not None and len(witness) == 4
    a, b, c, d = witness
    nbr = {v: set(c4().neighbors(v)) for v in c4().vertices}
    assert b in nbr[a] and c in nbr[b] and d in nbr[c] and a in nbr[d]


def test_pattern_star_has_no_p4():
    assert find_forbidden_subgraph(star(5), "P4") is None


def test_pattern_p5_in_p5():
    witness = find_forbidden_subgraph(p5(), "P5")
    assert witness == ("a", "b", "c", "d", "e")


def test_pattern_k3():
    assert find_forbidden_subgraph(k3(), "K3") == ("a", "b", "c")
    assert find_forbidden_subgraph(c4(), "K3") is None


def test_pattern_path_as_subgraph_not_induced():
    # C4 has no induced P4 but contains one as a subgraph
    assert find_forbidden_subgraph(c4(), "P4") is not None


def test_pattern_witnesses_are_valid_paths():
    rng = random.Random(11)
    for _ in range(30):
        g = random_graph(rng, max_edges=9)
        for pattern, length in (("P4", 4), ("P5", 5)):
            witness = find_forbidden_subgraph(g, pattern)
            if witness is None:
                continue
            assert len(witness) == length == len(set(witness))
            for x, y in zip(witness, witness[1:]):
                assert y in g.neighbors(x)


def test_pattern_search_matches_reference():
    # every atlas graph, then seeded random graphs whose labels v0..v11 sort
    # differently as strings and as numbers
    graphs = list(atlas_graphs())
    rng = random.Random(4101)
    graphs += [random_graph(rng, max_edges=16, max_vertices=12) for _ in range(3000)]
    hits = 0
    for g in graphs:
        for pattern in PATTERNS:
            witness = find_forbidden_subgraph(g, pattern)
            assert witness == reference_forbidden_subgraph(g, pattern)
            hits += witness is not None
    assert (len(graphs), hits) == (1252 + 3000, 10377)


def test_pattern_rejects_unknown():
    with pytest.raises(ValueError):
        find_forbidden_subgraph(k3(), "K4")

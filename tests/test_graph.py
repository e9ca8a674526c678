"""Graph parsing, components, and the exact cover/matching/pattern oracles."""

import random

import pytest

from vcgame.errors import ContractViolation, GraphFormatError, OracleCapError
from vcgame.graph import (PATTERNS, Graph, SubgraphView, components, diameter,
                          find_forbidden_subgraph, is_bipartite, matching_number,
                          parse_graph, vertex_cover_number)

from oracles import (all_pm_graphs_up_to, atlas_graphs, brute_cover_number,
                     brute_matching_number, random_bipartite_graph, random_graph,
                     reference_forbidden_subgraph)


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


def test_subgraph_view_vertices():
    view = SubgraphView(p5(), frozenset({0, 3}))
    assert view.vertex_set == ("a", "b", "d", "e")
    assert view.incident["b"] == (0,)


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


def test_structural_witnesses_equal_exact_witnesses():
    path = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d")])
    assert vertex_cover_number(path, path.players(), max_vertices=2) == (2, ("a", "c"))
    for g in all_pm_graphs_up_to(6):
        # the generator labels every base below its leaves; reversed labels
        # put the leaves first, where a lone pendant's leaf beats its base
        labels = sorted(g.vertices)
        flip = dict(zip(labels, reversed(labels)))
        flipped = Graph.from_edges([(flip[u], flip[v]) for u, v in g.edges])
        for h in (g, flipped):
            for mask in range(1, 1 << h.n_edges):
                s = frozenset(i for i in range(h.n_edges) if mask >> i & 1)
                assert (vertex_cover_number(h, s, max_vertices=0)
                        == vertex_cover_number(h, s))
                assert matching_number(h, s, max_vertices=0) == matching_number(h, s)


def test_cap_error_on_long_path():
    path = Graph.from_edges([(f"v{k:02d}", f"v{k + 1:02d}") for k in range(29)])
    with pytest.raises(OracleCapError, match="too large"):
        vertex_cover_number(path, path.players())
    with pytest.raises(OracleCapError):
        matching_number(path, path.players())


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

"""Characteristic function and the exhaustive game verdicts."""

import itertools
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import vcgame
import vcgame.game
import vcgame.graph
from vcgame.errors import ContractViolation, NotBalanced, OracleCapError
from vcgame.game import (VertexCoverGame, core_element_from_matching, core_membership,
                         is_balanced, is_monotone_game, is_submodular_game, is_submodular_graph,
                         is_totally_balanced, mask_coalition)
from vcgame.graph import Graph, all_coalitions, vertex_cover_number
from vcgame.pmas import (AllocationScheme, CoverSystem, construct_pmas,
                         recognize_population_monotonic, verify_pmas)

from oracles import (atlas_graphs, flipped, large_star_pisces_forests, random_forest,
                     random_graph, random_star_pisces_forest, reference_core_membership,
                     reference_is_submodular_graph)


def k3() -> Graph:
    return Graph.from_edges([("a", "b"), ("b", "c"), ("a", "c")])


def c4() -> Graph:
    return Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])


def p4() -> Graph:
    return Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d")])


def p5() -> Graph:
    return Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])


def star(n: int) -> Graph:
    return Graph.from_edges([("hub", f"x{k}") for k in range(n)])


# --- gamma ----------------------------------------------------------------------


def test_gamma_examples():
    assert VertexCoverGame(k3()).gamma({0, 1, 2}) == 2
    assert VertexCoverGame(Graph.from_edges([("a", "b")])).gamma({0}) == 1
    game = VertexCoverGame(p5())
    assert game.gamma({1, 2}) == 1
    assert game.gamma({0, 1}) == game.gamma({2, 3}) == 1
    assert game.gamma(frozenset()) == 0


def test_gamma_rejects_unknown_players():
    with pytest.raises(ContractViolation):
        VertexCoverGame(k3()).gamma({5})


def test_gamma_and_table_agree_with_oracle():
    # every coalition of the atlas graphs with at most 8 edges and of random
    # general graphs, read from the size-only search and from the cost table
    rng = random.Random(21)
    graphs = list(atlas_graphs(max_edges=8)) + [random_graph(rng, max_edges=7) for _ in range(20)]
    for g in graphs:
        game = VertexCoverGame(g)
        tabled = VertexCoverGame(g)
        tabled.cost_table()
        for mask in range(1 << g.n_edges):
            s = mask_coalition(mask)
            expected = vertex_cover_number(g, s)[0]
            assert game.gamma(s) == tabled.gamma(s) == expected
    # sampled coalitions of forests above both caps: the structural route
    # (max_vertices=0, or above the default vertex cap) and the search agree
    for g in large_star_pisces_forests(random.Random(1701), 12):
        games = [VertexCoverGame(g, max_vertices=cap) for cap in (0, 24, g.n_vertices)]
        coalitions = [g.players()] + [frozenset(i for i in range(g.n_edges) if rng.random() < p)
                                      for p in (0.2, 0.5, 0.8) for _ in range(10)]
        for s in coalitions:
            expected = vertex_cover_number(g, s)[0]
            assert [game.gamma(s) for game in games] == [expected] * 3


def test_gamma_builds_no_witness(monkeypatch):
    def refuse(*args):
        raise AssertionError("gamma built a cover witness")

    for name in ("_lex_min_cover", "_pisces_cover"):
        monkeypatch.setattr(vcgame.graph, name, refuse)
    pisces = Graph.from_edges([("b1", "b2")] + [("b1", f"l{k}") for k in range(14)]
                              + [("b2", f"r{k}") for k in range(14)])
    small = frozenset({0, 1, 15})
    # the witness routes do reach the patched functions: the search on p5, and the pisces
    # cover of the structure's witnesses on the pisces, within and above the vertex cap
    for g, s in ((p5(), p5().players()), (pisces, small), (pisces, pisces.players())):
        with pytest.raises(AssertionError, match="witness"):
            vertex_cover_number(g, s)
    monkeypatch.setattr(vcgame.graph, "_structural_witnesses", refuse)
    # below the vertex cap, then above it (30 vertices) and below it with max_vertices=0
    assert VertexCoverGame(p5()).gamma(p5().players()) == 2
    assert VertexCoverGame(pisces).gamma(small) == 2
    assert VertexCoverGame(pisces).gamma(pisces.players()) == 2
    assert VertexCoverGame(pisces, max_vertices=0).gamma(small) == 2
    assert VertexCoverGame(star(5)).gamma({0, 3}) == 1
    # and when the answers come from the game's byte table: an ascending scan of p5 is
    # answered from residual subsets, and a repeated query from the stored byte
    game = VertexCoverGame(p5())
    costs = [game.gamma(s) for s in all_coalitions(4)]
    assert costs == VertexCoverGame(p5()).cost_table()
    assert [game.gamma(s) for s in all_coalitions(4)] == costs


def test_gamma_answers_every_scan_order():
    # every coalition of the atlas graphs with at most 8 edges and of random general
    # graphs up to 10 edges, asked of fresh games in ascending order (each answer from its
    # residual subsets), descending order (each from the search) and shuffled order
    rng = random.Random(3201)
    graphs = list(atlas_graphs(max_edges=8)) + [random_graph(rng) for _ in range(30)]
    for g in graphs:
        coalitions = all_coalitions(g.n_edges)
        table = VertexCoverGame(g).cost_table()
        assert table == [vertex_cover_number(g, s)[0] for s in coalitions]
        shuffled = list(coalitions)
        rng.shuffle(shuffled)
        for order in (coalitions, coalitions[::-1], shuffled):
            game = VertexCoverGame(g)
            assert [game.gamma(s) for s in order] == [table[s._mask] for s in order]


def test_an_ascending_scan_runs_no_search(monkeypatch):
    calls = []
    search = vcgame.graph._min_cover_size
    monkeypatch.setattr(vcgame.graph, "_min_cover_size",
                        lambda masks, m: calls.append(m) or search(masks, m))
    k5 = Graph.from_edges(itertools.combinations("abcde", 2))  # 10 edges, not star/pisces
    game = VertexCoverGame(k5)
    assert [game.gamma(s) for s in all_coalitions(10)] == VertexCoverGame(k5).cost_table()
    assert calls == []  # the empty coalition is known from the start, and each later one
    # from its two residual subsets; a fresh game's grand coalition has neither, so it searches
    assert VertexCoverGame(k5).gamma(k5.players()) == 4
    assert calls == [(1 << 10) - 1]


def test_the_byte_table_is_bounded_and_dropped_with_the_cost_table():
    def path(n: int) -> Graph:  # n edges, not star/pisces from n = 4 on
        return Graph.from_edges((f"v{k}", f"v{k + 1}") for k in range(n))

    game = VertexCoverGame(path(16))
    assert game._known is None
    assert game.gamma({0, 1, 2, 3}) == 2
    assert type(game._known) is bytearray and len(game._known) == 1 << 16
    # above DEFAULT_EDGE_CAP edges, and on a star/pisces graph, the game keeps none
    for g in (path(17), star(5)):
        other = VertexCoverGame(g)
        assert other.gamma({0, 1, 2, 3}) == 2 - (g.n_edges == 5)
        assert other._known is None
    table = game.cost_table()
    assert game._known is None
    assert game.gamma({0, 1, 2, 3}) == table[0b1111] == 2


def test_the_vertex_cap_holds_when_every_smaller_coalition_is_known():
    g = c4()
    game = VertexCoverGame(g, max_vertices=3)
    # each proper sub-coalition is a path within the cap, or a forest above it
    assert [game.gamma(s) for s in all_coalitions(4)[:-1]] == VertexCoverGame(g).cost_table()[:-1]
    full = (1 << 4) - 1
    left_u, left_v, _, _, _ = g._edge_masks[0]
    assert game._known[full & left_u] == game._known[full & left_v] == 1
    message = re.escape("instance too large for exact oracle: the coalition subgraph has 4"
                        " vertices, above the 3-vertex cap, and is not a star/pisces forest")
    for call in (lambda: game.gamma(g.players()), lambda: is_balanced(game),
                 lambda: core_element_from_matching(game)):
        with pytest.raises(OracleCapError, match=f"^{message}$"):
            call()
    assert game._known[full] == 255


def test_gamma_counts_the_rule_cover_on_star_pisces_graphs():
    # every coalition of every population-monotonic atlas graph, under the default
    # vertex cap and none: the vertices the rule charges, as cover_for lists them
    # (test_gamma_and_table_agree_with_oracle covers the forests above both caps)
    checked = 0
    for g in atlas_graphs():
        if not recognize_population_monotonic(g)[0]:
            continue
        checked += 1
        cover = CoverSystem(g)
        games = [VertexCoverGame(g), VertexCoverGame(g, max_vertices=0)]
        for mask in range(1 << g.n_edges):
            s = mask_coalition(mask)
            expected = vertex_cover_number(g, s)[0]
            assert [game.gamma(s) for game in games] == [expected, expected]
            assert len(cover.cover_for(s)) == expected
    assert checked == 61


def test_gamma_on_star_pisces_graphs_reaches_neither_search_nor_shapes(monkeypatch):
    calls = []
    cover_size, shapes = vcgame.game._cover_size, vcgame.graph._shapes
    monkeypatch.setattr(vcgame.game, "_cover_size",
                        lambda *args: calls.append("search") or cover_size(*args))
    monkeypatch.setattr(vcgame.graph, "_shapes",
                        lambda *args: calls.append("shapes") or shapes(*args))
    rng = random.Random(2104)
    for g in [p4(), star(5)] + large_star_pisces_forests(rng, 3):
        games = [VertexCoverGame(g, max_vertices=cap) for cap in (0, 24, g.n_vertices)]
        assert games[0].gamma(g.players()) == vertex_cover_number(g, g.players())[0]
        calls.clear()  # the first call decomposed the whole graph, once
        for _ in range(20):
            s = frozenset(i for i in range(g.n_edges) if rng.random() < 0.5)
            assert len({game.gamma(s) for game in games}) == 1
        assert calls == []
    # any other graph still asks the size-only search, under its vertex cap
    assert VertexCoverGame(c4()).gamma({0, 1, 2}) == 2
    assert calls == ["shapes", "search"]


def test_mask_coalition_takes_only_nonnegative_ints():
    assert mask_coalition(0) == frozenset() and mask_coalition(0b1011) == frozenset({0, 1, 3})
    # -1 would shift right forever, and True would read as the mask 1
    for bad in (-1, -8, True, 1.0, "3"):
        with pytest.raises(ContractViolation) as info:
            mask_coalition(bad)
        assert str(info.value) == f"coalition mask {bad!r} is not a nonnegative int"


def test_cost_table_cap():
    big = star(17)
    with pytest.raises(OracleCapError):
        VertexCoverGame(big).cost_table(16)
    # the cap limits only the build: a table already built is returned at any cap, and
    # the verdicts that read the table get past 16 edges once cost_table(max_edges) built it
    game = VertexCoverGame(big)
    with pytest.raises(OracleCapError):
        is_monotone_game(game)
    assert game.cost_table(17)[-1] == 1
    assert is_monotone_game(game) == (True, None)
    small = VertexCoverGame(star(2))
    with pytest.raises(OracleCapError):
        small.cost_table(0)
    assert small.cost_table() == small.cost_table(0) == [0, 1, 1, 1]


def test_a_write_into_the_cost_table_changes_no_answer():
    # cost_table() is a new list on each call; the game keeps its own
    g = p4()
    game, fresh = VertexCoverGame(g), VertexCoverGame(g)
    stored = AllocationScheme(g, table=construct_pmas(g).materialize())
    element = {0: Fraction(1), 1: Fraction(0), 2: Fraction(1)}
    table = game.cost_table()
    table[7] = 5
    game.cost_table()[7] = 5
    assert type(table) is list and table is not game.cost_table()
    assert game.cost_table() == fresh.cost_table() == [0, 1, 1, 1, 1, 2, 1, 2]
    assert game.gamma(g.players()) == fresh.gamma(g.players()) == 2
    assert verify_pmas(game, stored) == verify_pmas(fresh, stored) == (True, None)
    assert core_membership(game, element) == core_membership(fresh, element) == (True, None)


# --- monotonicity ------------------------------------------------------------------


def test_monotone_small_games():
    for g in (k3(), c4(), p4(), p5(), star(4)):
        ok, pair = is_monotone_game(VertexCoverGame(g))
        assert ok and pair is None


def test_monotone_random_games():
    rng = random.Random(22)
    for _ in range(30):
        ok, _ = is_monotone_game(VertexCoverGame(random_graph(rng, max_edges=10)))
        assert ok


# --- submodularity -------------------------------------------------------------------


def naive_submodular(game: VertexCoverGame) -> bool:
    players = sorted(game.players())
    subsets = []
    for r in range(len(players) + 1):
        subsets.extend(frozenset(c) for c in itertools.combinations(players, r))
    for s, t in itertools.product(subsets, repeat=2):
        if game.gamma(s) + game.gamma(t) < game.gamma(s | t) + game.gamma(s & t):
            return False
    return True


def test_submodular_examples():
    ok, pair = is_submodular_game(VertexCoverGame(star(4)))
    assert ok and pair is None
    ok, pair = is_submodular_game(VertexCoverGame(p4()))
    assert not ok
    s, t = pair
    game = VertexCoverGame(p4())
    assert game.gamma(s) + game.gamma(t) < game.gamma(s | t) + game.gamma(s & t)
    assert is_submodular_game(VertexCoverGame(Graph.from_edges([("a", "b")])))[0]


def naive_local_scan(game: VertexCoverGame):
    """The documented witness: first (S + i, S + j) with S in ascending
    bitmask order, then i < j outside S, breaking the local inequality."""
    n = game.n
    for mask in range(1 << n):
        s = mask_coalition(mask)
        outside = [k for k in range(n) if k not in s]
        for i, j in itertools.combinations(outside, 2):
            si, sj = s | {i}, s | {j}
            if game.gamma(si) + game.gamma(sj) < game.gamma(si | sj) + game.gamma(s):
                return False, (si, sj)
    return True, None


def test_submodular_matches_naive_pair_scan():
    rng = random.Random(23)
    for _ in range(25):
        g = random_graph(rng, max_edges=7)
        game = VertexCoverGame(g)
        verdict = is_submodular_game(game)
        assert verdict[0] == naive_submodular(game)
        assert verdict == naive_local_scan(game)
        if not verdict[0]:
            s, t = verdict[1]
            assert game.gamma(s) + game.gamma(t) < game.gamma(s | t) + game.gamma(s & t)


def test_submodular_game_shares_the_edge_cap():
    assert is_submodular_game(VertexCoverGame(star(14))) == (True, None)
    with pytest.raises(OracleCapError):
        is_submodular_game(VertexCoverGame(star(17)))


def test_import_leaves_numpy_unloaded():
    code = "import sys, vcgame; print('numpy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(vcgame.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "False"


def test_submodular_graph_examples():
    assert is_submodular_graph(star(6))
    assert not is_submodular_graph(p4())
    assert not is_submodular_graph(k3())


def test_submodular_graph_verdict_matches_the_pattern_searches():
    # every atlas graph, random graphs, random forests and star/pisces forests, each
    # in both label orders
    rng = random.Random(2901)
    graphs = [g for g in atlas_graphs() if g.n_edges]
    graphs += [random_graph(rng, max_edges=14) for _ in range(300)]
    graphs += [random_forest(rng, max_edges=30) for _ in range(300)]
    graphs += [random_star_pisces_forest(rng, max_edges=30) for _ in range(100)]
    verdicts = set()
    for g in graphs:
        for h in (g, flipped(g)):
            verdicts.add(is_submodular_graph(h))
            assert is_submodular_graph(h) == reference_is_submodular_graph(h), h.edges
    assert verdicts == {True, False}


def test_submodular_graph_verdict_on_a_large_star_and_pisces_runs_no_pattern_search(monkeypatch):
    # each pattern search is quadratic on a star (2.4 s for both at 2,000 leaves)
    def search(*_):
        raise AssertionError("pattern search")
    for module in (vcgame.graph, vcgame.game):  # wherever a module holds the search
        monkeypatch.setattr(module, "find_forbidden_subgraph", search, raising=False)
    k = 10_000
    star_edges = [("hub", f"x{j}") for j in range(k)]
    pisces_edges = [("b1", "b2")] + [(b, f"{b}-{j}") for b in ("b1", "b2") for j in range(k // 2)]
    assert is_submodular_graph(Graph.from_edges(star_edges))
    assert not is_submodular_graph(Graph.from_edges(pisces_edges))


def test_submodular_game_equals_graph_criterion():
    rng = random.Random(24)
    for _ in range(40):
        g = random_graph(rng, max_edges=8)
        assert is_submodular_game(VertexCoverGame(g))[0] == is_submodular_graph(g)


# --- balancedness ----------------------------------------------------------------------


def test_balanced_examples():
    assert is_balanced(VertexCoverGame(c4()))
    assert not is_balanced(VertexCoverGame(k3()))
    assert is_balanced(VertexCoverGame(Graph.from_edges([("a", "b")])))


def test_balanced_uses_the_game_vertex_cap():
    g = c4()
    game = VertexCoverGame(g, max_vertices=3)
    with pytest.raises(OracleCapError):
        game.gamma(g.players())
    with pytest.raises(OracleCapError):
        is_balanced(game)
    with pytest.raises(OracleCapError):
        core_element_from_matching(game)
    # a star/pisces forest is answered structurally above the cap
    assert is_balanced(VertexCoverGame(p4(), max_vertices=3))
    assert core_element_from_matching(VertexCoverGame(p4(), max_vertices=0)) == {
        0: Fraction(1), 1: Fraction(0), 2: Fraction(1)}


def test_totally_balanced_examples():
    assert is_totally_balanced(VertexCoverGame(c4()))
    assert not is_totally_balanced(VertexCoverGame(k3()))
    assert is_totally_balanced(VertexCoverGame(p5()))


# --- core ---------------------------------------------------------------------------------


def test_core_membership_examples():
    single = VertexCoverGame(Graph.from_edges([("a", "b")]))
    assert core_membership(single, {0: Fraction(1)}) == (True, None)

    cherry = VertexCoverGame(star(2))
    assert core_membership(cherry, {0: Fraction(1, 2), 1: Fraction(1, 2)})[0]
    assert core_membership(cherry, {0: Fraction(1), 1: Fraction(0)})[0]


def test_core_membership_violations():
    cherry = VertexCoverGame(star(2))
    ok, bad = core_membership(cherry, {0: Fraction(1), 1: Fraction(1)})
    assert not ok and bad == cherry.players()  # efficiency broken
    ok, bad = core_membership(cherry, {0: Fraction(-1), 1: Fraction(2)})
    assert not ok and bad == frozenset({1})  # 2 > gamma({1}) = 1


def test_core_membership_requires_full_indexing():
    with pytest.raises(ContractViolation):
        core_membership(VertexCoverGame(star(2)), {0: Fraction(1)})


def test_core_membership_takes_ints_and_refuses_other_payments():
    path = VertexCoverGame(p4())
    assert core_membership(path, {0: 1, 1: 0, 2: 1}) == (True, None)
    assert core_membership(path, {0: 1, 1: Fraction(1, 2), 2: Fraction(1, 2)}) == (
        False, frozenset({0, 1}))
    for bad in (1.0, "1", True):
        with pytest.raises(ContractViolation, match=f"payment of edge 0 is {bad!r}"):
            core_membership(path, {0: bad, 1: 0, 2: 1})
    # the allocation is checked before the cost table is built, so above the edge cap too
    with pytest.raises(ContractViolation, match="payment of edge 3 is 0.5"):
        core_membership(VertexCoverGame(star(17)), {i: 0.5 if i == 3 else 0 for i in range(17)})


def test_core_membership_refuses_an_allocation_that_is_not_a_mapping():
    # a list of the players has their keys as its members
    for allocation in ([0, 1], None):
        with pytest.raises(ContractViolation,
                           match=re.escape(f"allocation is {allocation!r}, not a mapping")):
            core_membership(VertexCoverGame(star(2)), allocation)


def test_core_membership_takes_only_int_keys():
    path = VertexCoverGame(Graph.from_edges([("a", "b"), ("b", "c")]))
    # True == 1, so the key set equals the player set
    with pytest.raises(ContractViolation, match="edge key True is not an int"):
        core_membership(path, {0: 0, True: 1})


def test_core_membership_matches_fraction_sums():
    rng = random.Random(8121)
    kinds = set()
    for _ in range(150):
        g = random_graph(rng, max_edges=10)
        game = VertexCoverGame(g)
        n = g.n_edges
        if is_balanced(game):
            base = core_element_from_matching(game)
        else:
            tau, _ = vertex_cover_number(g, g.players())
            base = {i: Fraction(tau, n) for i in range(n)}
        perturbed = dict(base)
        if n > 1:
            i, j = rng.sample(range(n), 2)
            delta = Fraction(rng.randint(1, 3), rng.randint(1, 4))
            perturbed[i] += delta
            perturbed[j] -= delta
        inefficient = {**base, 0: base[0] + Fraction(1, rng.randint(1, 5))}
        for alloc in (base, perturbed, inefficient):
            expected = reference_core_membership(game, alloc)
            assert core_membership(game, alloc) == expected
            kinds.add("core" if expected[0] else
                      "efficiency" if expected[1] == game.players() else "rationality")
    assert kinds == {"core", "efficiency", "rationality"}


def test_core_element_examples():
    game = VertexCoverGame(c4())
    alloc = core_element_from_matching(game)
    assert alloc == {0: 1, 1: 0, 2: 1, 3: 0}
    assert core_membership(game, alloc) == (True, None)

    single = VertexCoverGame(Graph.from_edges([("a", "b")]))
    assert core_element_from_matching(single) == {0: Fraction(1)}

    path = VertexCoverGame(p4())
    alloc = core_element_from_matching(path)
    assert alloc == {0: 1, 1: 0, 2: 1}  # pendant edges pay, the middle rides
    assert core_membership(path, alloc) == (True, None)


def test_core_element_requires_balanced():
    with pytest.raises(NotBalanced, match="not balanced"):
        core_element_from_matching(VertexCoverGame(k3()))


def test_k3_has_no_integral_core_allocation():
    game = VertexCoverGame(k3())
    for bits in itertools.product((0, 1), repeat=3):
        alloc = {i: Fraction(b) for i, b in enumerate(bits)}
        assert not core_membership(game, alloc)[0]


def test_core_witness_passes_whenever_balanced():
    rng = random.Random(25)
    for _ in range(30):
        g = random_graph(rng, max_edges=9)
        game = VertexCoverGame(g)
        if is_balanced(game):
            assert core_membership(game, core_element_from_matching(game)) == (True, None)

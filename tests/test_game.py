"""Characteristic function, memoization, and the exhaustive game verdicts."""

import itertools
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from vcgame.errors import ContractViolation, NotBalanced, OracleCapError
from vcgame.game import (VertexCoverGame, core_element_from_matching, core_membership,
                         is_balanced, is_monotone_game, is_submodular_game,
                         is_submodular_graph, is_totally_balanced, mask_coalition)
from vcgame.graph import Graph, vertex_cover_number

from oracles import random_graph


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


def test_gamma_memo_and_table_agree_with_oracle():
    rng = random.Random(21)
    for _ in range(20):
        g = random_graph(rng, max_edges=7)
        tabled = VertexCoverGame(g)
        tabled.cost_table()
        for mask in range(1, 1 << g.n_edges):
            s = mask_coalition(mask)
            fresh = VertexCoverGame(g)
            expected = vertex_cover_number(g, s)[0]
            assert fresh.gamma(s) == expected
            assert fresh.gamma(s) == expected  # memo hit
            assert tabled.gamma(s) == expected


def test_cost_table_cap():
    big = Graph.from_edges([("hub", f"x{k}") for k in range(17)])
    with pytest.raises(OracleCapError):
        VertexCoverGame(big).cost_table(16)


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
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.strip() == "False"


def test_submodular_graph_examples():
    assert is_submodular_graph(star(6))
    assert not is_submodular_graph(p4())
    assert not is_submodular_graph(k3())


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

"""Property tests for the graph and preference parsers and for the witness
contract of the exact cover and matching oracles."""

import itertools
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from vcgame.cli import _load_prefs
from vcgame.graph import matching_number, parse_graph, vertex_cover_number
from vcgame.matching import PreferenceSystem

from oracles import all_matchings, random_graph, random_star_pisces_forest

# labels never hold whitespace; only the second label of a line may start
# with '#', since a line that starts with it is a comment
LABELS = st.text(alphabet="abz019_-#é", min_size=1, max_size=3)
FIRST_LABELS = LABELS.filter(lambda label: not label.startswith("#"))
EDGE_LISTS = st.lists(st.tuples(FIRST_LABELS, LABELS).filter(lambda e: e[0] != e[1]),
                      min_size=1, max_size=12, unique_by=frozenset)


@settings(max_examples=200, deadline=None)
@given(EDGE_LISTS, st.data())
def test_parse_keeps_edge_order_and_first_appearance_vertex_order(pairs, data):
    lines = []
    for u, v in pairs:
        if data.draw(st.booleans()):
            lines.append(data.draw(st.sampled_from(["", "   ", "# comment", "#a b"])))
        gap = data.draw(st.sampled_from([" ", "\t", "  "]))
        lines.append(f"{u}{gap}{v}")
    g = parse_graph("\n".join(lines))
    assert g.edges == tuple(pairs)
    assert g.vertices == tuple(dict.fromkeys(w for e in pairs for w in e))


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_preference_json_round_trip_through_cli_loader(rng):
    g = random_graph(rng, max_edges=10, max_vertices=7)
    orders = {v: rng.sample(g.incident_edges(v), g.degree(v)) for v in g.vertices
              if g.degree(v) > 1 or rng.random() < 0.5}
    ps = PreferenceSystem(g, orders)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "prefs.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(orders, handle)
        loaded = _load_prefs(g, path)
    assert loaded == ps
    assert loaded.orders == {v: tuple(seq) for v, seq in orders.items()}


def lex_min_cover(graph, s):
    """First cover in (size, lexicographic) order of the coalition's vertices."""
    pairs = [graph.edges[i] for i in s]
    vertices = sorted({w for e in pairs for w in e})
    for k in range(len(vertices) + 1):
        for combo in itertools.combinations(vertices, k):
            if all(u in combo or v in combo for u, v in pairs):
                return k, combo
    raise AssertionError("unreachable")


def lex_min_matching(graph, s):
    """Smallest sorted edge-index tuple among the maximum matchings."""
    matchings = all_matchings(graph, s)
    size = max(map(len, matchings))
    return size, min(tuple(sorted(m)) for m in matchings if len(m) == size)


def random_coalition(rng, graph):
    return frozenset(i for i in range(graph.n_edges) if rng.random() < 0.7)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_oracle_witnesses_are_lexicographically_smallest(rng):
    g = random_graph(rng, max_edges=10, max_vertices=7)
    s = random_coalition(rng, g)
    assert vertex_cover_number(g, s) == lex_min_cover(g, s)
    assert matching_number(g, s) == lex_min_matching(g, s)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_structural_witnesses_are_lexicographically_smallest(rng):
    g = random_star_pisces_forest(rng, max_edges=10)
    s = random_coalition(rng, g)
    assert vertex_cover_number(g, s, max_vertices=0) == lex_min_cover(g, s)
    assert matching_number(g, s, max_vertices=0) == lex_min_matching(g, s)

"""Acceptance gate: one test per criterion, each printing a verdict line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Every comparison is exact (integers and reduced rationals); there are no
numeric tolerances anywhere.
"""

import json
import math
import operator
import os
import random
import subprocess
import sys

import pytest

import vcgame as vc
from vcgame.graph import all_coalitions, mask_coalition

from oracles import (admissible_preference_systems, all_pm_graphs_up_to,
                     atlas_graphs, brute_integral_schemes, canonical_table,
                     efficiency_feasible_integral_tables, random_graph,
                     random_star_pisces_forest)


def _verdict(num: int, title: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num} [{title}]: {status}")
    assert not failures, f"criterion {num} failed: {failures[:5]}"


# --- criterion 1: forbidden-subgraph necessity --------------------------------------


MINIMAL_FORBIDDEN = {
    "K3": [("a", "b"), ("b", "c"), ("a", "c")],
    "C4": [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")],
    "P5": [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")],
}

# covering-pair steps (pair, edge, triple) of the 4 <= 3 contradiction chain:
# twice the triple costs, bounded through monotonicity by three pair costs
CHAIN_STEPS = {
    "K3": (
        [frozenset({0, 1, 2}), frozenset({0, 1, 2})],
        [({0, 1}, 0, {0, 1, 2}), ({0, 1}, 1, {0, 1, 2}), ({1, 2}, 2, {0, 1, 2}),
         ({0, 2}, 0, {0, 1, 2}), ({1, 2}, 1, {0, 1, 2}), ({0, 2}, 2, {0, 1, 2})],
    ),
    "path": (
        [frozenset({0, 1, 2}), frozenset({1, 2, 3})],
        [({0, 1}, 0, {0, 1, 2}), ({0, 1}, 1, {0, 1, 2}), ({1, 2}, 2, {0, 1, 2}),
         ({1, 2}, 1, {1, 2, 3}), ({2, 3}, 2, {1, 2, 3}), ({2, 3}, 3, {1, 2, 3})],
    ),
}


def test_criterion_1_forbidden_subgraph_necessity():
    failures = []
    for name, edges in MINIMAL_FORBIDDEN.items():
        g = vc.Graph.from_edges(edges)
        ok, witness = vc.recognize_population_monotonic(g)
        if ok or witness is None or witness[0] != name:
            failures.append(f"{name}: not rejected with its own witness ({witness})")
            continue
        game = vc.VertexCoverGame(g)
        tops, steps = CHAIN_STEPS["K3" if name == "K3" else "path"]
        lhs = sum(game.gamma(t) for t in tops)
        rhs = sum(game.gamma(frozenset(p)) for p in {frozenset(p) for p, _, _ in steps})
        if not (lhs == 4 and rhs == 3):
            failures.append(f"{name}: chain sums are {lhs} and {rhs}, expected 4 and 3")
        accepted = 0
        candidates = 0
        for table in efficiency_feasible_integral_tables(game):
            candidates += 1
            scheme = vc.AllocationScheme(g, table=table)
            valid, violation = vc.verify_pmas(game, scheme)
            if valid:
                accepted += 1
                continue
            if violation.kind != "monotonicity":
                failures.append(f"{name}: efficiency-feasible candidate reported "
                                f"{violation.kind}")
                break
            broken = any(table[frozenset(pair)][i] < table[frozenset(triple)][i]
                         for pair, i, triple in steps)
            if not broken:
                failures.append(f"{name}: rejected candidate breaks no chain step")
                break
        if accepted:
            failures.append(f"{name}: {accepted} integral candidates accepted")
        if candidates == 0:
            failures.append(f"{name}: no candidates generated")
    _verdict(1, "forbidden subgraph necessity", failures)


# --- criterion 2: structure equivalence ---------------------------------------------


def test_criterion_2_structure_equivalence():
    failures = []
    checked = 0
    for g in atlas_graphs(connected_only=True):
        pattern_free = all(vc.find_forbidden_subgraph(g, p) is None
                           for p in ("K3", "C4", "P5"))
        structural = True
        for comp in vc.components(g):
            vertices = {w for i in comp for w in g.edges[i]}
            if len(comp) != len(vertices) - 1 or vc.diameter(g, comp) > 3:
                structural = False
                break
        if pattern_free != structural:
            failures.append(f"mismatch on {g.edges}")
        checked += 1
    if checked < 800:  # all connected graphs on <= 7 vertices
        failures.append(f"only {checked} graphs enumerated")
    _verdict(2, f"structure equivalence on {checked} connected graphs", failures)


# --- criteria 3 and 4 share one pass over 200 random forests -------------------------


@pytest.fixture(scope="module")
def forest_batch():
    rng = random.Random(175)
    verify_failures = []
    unit_failures = []
    dual_failures = []
    edge_counts = []
    for idx in range(200):
        g = random_star_pisces_forest(rng, max_edges=16)
        edge_counts.append(g.n_edges)
        game = vc.VertexCoverGame(g)
        scheme = vc.construct_pmas(g)
        _, cover = vc.classify_components(g)
        ok, violation = vc.verify_pmas(game, scheme)
        if not ok:
            verify_failures.append((idx, str(violation)))
            continue
        coalitions = all_coalitions(g.n_edges)
        for mask in range(1, 1 << g.n_edges):
            s = coalitions[mask]
            alloc = scheme.allocation(s)
            # per-vertex loads, exact over a common denominator
            den = 1
            for value in alloc.values():
                d = value.denominator
                if den % d:
                    den = den * d // math.gcd(den, d)
            loads = {}
            for i, value in alloc.items():
                num = value.numerator * (den // value.denominator)
                u, w = g.edges[i]
                loads[u] = loads.get(u, 0) + num
                loads[w] = loads.get(w, 0) + num
            for vertex in cover.cover_for(s):
                if loads[vertex] != den:
                    unit_failures.append((idx, sorted(s), vertex))
                    break
            if not (vc.check_dual_feasible(g, s, alloc)
                    and vc.check_dual_optimal(game, s, alloc)
                    and vc.check_pi_star(g, s, alloc, cover)):
                dual_failures.append((idx, sorted(s)))
    return {
        "verify": verify_failures,
        "unit": unit_failures,
        "dual": dual_failures,
        "max_edges": max(edge_counts),
    }


def test_criterion_3_constructive_sufficiency(forest_batch):
    failures = forest_batch["verify"] + forest_batch["unit"]
    if forest_batch["max_edges"] < 16:
        failures.append("no forest reached 16 edges")
    _verdict(3, "constructive sufficiency on 200 random forests", failures)


def test_criterion_4_dual_description(forest_batch):
    failures = list(forest_batch["dual"])
    # integral schemes from the criterion-6 family must pass the same checks
    for g in all_pm_graphs_up_to(5):
        game = vc.VertexCoverGame(g)
        _, cover = vc.classify_components(g)
        for scheme in vc.enumerate_integral_pmas(g, max_enumerate=10**6):
            for mask in range(1, 1 << g.n_edges):
                s = mask_coalition(mask)
                alloc = scheme.allocation(s)
                if not (vc.check_dual_feasible(g, s, alloc)
                        and vc.check_dual_optimal(game, s, alloc)
                        and vc.check_pi_star(g, s, alloc, cover)):
                    failures.append(("integral", g.edges, sorted(s)))
    _verdict(4, "dual description of every coalition restriction", failures)


# --- criterion 5: König equality and exhaustive game verdicts ------------------------------------------


def test_criterion_5_koenig_and_game_verdicts():
    rng = random.Random(8121)
    failures = []
    for idx in range(500):
        g = random_graph(rng, max_edges=10)
        game = vc.VertexCoverGame(g)
        nu, _ = vc.matching_number(g, g.players())
        tau, _ = vc.vertex_cover_number(g, g.players())
        if nu > tau:
            failures.append((idx, "matching number exceeds cover number"))
        if vc.is_bipartite(g) and nu != tau:
            failures.append((idx, "bipartite gap"))
        monotone, pair = vc.is_monotone_game(game)
        if not monotone:
            failures.append((idx, f"monotonicity broken on {pair}"))
        submodular, _ = vc.is_submodular_game(game)
        if submodular != vc.is_submodular_graph(g):
            failures.append((idx, "submodularity criteria disagree"))
        if nu == tau:
            alloc = vc.core_element_from_matching(game)
            ok, bad = vc.core_membership(game, alloc)
            if not ok:
                failures.append((idx, f"matching core element rejected on {sorted(bad)}"))
    _verdict(5, "König equality and game verdicts on 500 random graphs", failures)


# --- criterion 6: integral bijection and enumeration ----------------------------------


def test_criterion_6_integral_bijection_and_enumeration():
    failures = []
    named = [
        (vc.Graph.from_edges([("hub", "x"), ("hub", "y")]), 2),
        (vc.Graph.from_edges([("hub", "x"), ("hub", "y"), ("hub", "z")]), 6),
        (vc.Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d")]), 1),
        (vc.Graph.from_edges([("a", "b"), ("a", "c"), ("x", "y"), ("x", "z")]), 4),
    ]
    for g, expected in named:
        if len(list(vc.enumerate_integral_pmas(g))) != expected:
            failures.append(f"named count mismatch ({expected})")
        if vc.count_integral_pmas(g) != expected:
            failures.append(f"named closed-form mismatch ({expected})")
    graphs = list(all_pm_graphs_up_to(5))
    for g in graphs:
        game = vc.VertexCoverGame(g)
        enumerated = list(vc.enumerate_integral_pmas(g, max_enumerate=10**6))
        tables = [s.materialize() for s in enumerated]
        canon = {canonical_table(t) for t in tables}
        if len(canon) != len(tables):
            failures.append(f"duplicates on {g.edges}")
        brute = {canonical_table(t) for t in brute_integral_schemes(game)}
        if canon != brute:
            failures.append(f"enumeration differs from brute force on {g.edges}")
        if len(tables) != vc.count_integral_pmas(g):
            failures.append(f"count mismatch on {g.edges}")
        for scheme in enumerated:
            ps = vc.preferences_from_scheme(game, scheme)
            back = vc.scheme_from_preferences(ps)
            if canonical_table(back.materialize()) != canonical_table(scheme.materialize()):
                failures.append(f"scheme round trip broken on {g.edges}")
                break
        for ps in admissible_preference_systems(g):
            scheme = vc.scheme_from_preferences(ps)
            if vc.preferences_from_scheme(game, scheme) != ps:
                failures.append(f"preference round trip broken on {g.edges}")
                break
    if len(graphs) < 20:
        failures.append(f"only {len(graphs)} population-monotonic graphs enumerated")
    _verdict(6, f"integral bijection on {len(graphs)} graphs", failures)


# --- criterion 7: midpoint extremality --------------------------------------------------


def test_criterion_7_midpoint_extremality():
    failures = []
    for g in all_pm_graphs_up_to(5):
        tables = [scheme.materialize()
                  for scheme in vc.enumerate_integral_pmas(g, max_enumerate=10**6)]
        # each table flattened once, in one fixed (coalition, edge) order, to
        # integer numerators over one common denominator: exact comparisons
        keys = [(s, i) for s, vec in tables[0].items() for i in sorted(vec)]
        den = math.lcm(*{table[s][i].denominator for table in tables for s, i in keys})
        flats = [tuple(table[s][i].numerator * (den // table[s][i].denominator)
                       for s, i in keys) for table in tables]
        pool = set(flats)
        for ia, a in enumerate(flats):
            doubled = [2 * x for x in a]
            for ib, b in enumerate(flats):
                if ia != ib and tuple(map(operator.sub, doubled, b)) in pool:
                    failures.append(f"midpoint hit on {g.edges}")
    _verdict(7, "no enumerated scheme is a midpoint of two others", failures)


# --- criterion 8: CLI byte determinism ----------------------------------------------------


def _run_cli(args):
    # the src/ directory on PYTHONPATH, so a checkout runs without an install
    src = os.path.dirname(os.path.dirname(vc.__file__))
    return subprocess.run([sys.executable, "-m", "vcgame", *args],
                          capture_output=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})


def test_criterion_8_cli_determinism(tmp_path):
    fixtures = {
        "p4.txt": "a b\nb c\nc d\n",
        "k3.txt": "a b\nb c\na c\n",
        "star3.txt": "hub x\nhub y\nhub z\n",
        "c4.txt": "a b\nb c\nc d\nd a\n",
        "forest.txt": "b1 b2\nb1 p\nb2 q\nhub x\nhub y\nm n\n",
        "bad.txt": "a b\na b\n",
    }
    paths = {}
    for name, body in fixtures.items():
        path = tmp_path / name
        path.write_text(body, encoding="utf-8")
        paths[name] = str(path)
    prefs = tmp_path / "prefs.json"
    prefs.write_text(json.dumps({"b": [0, 1], "c": [2, 1]}))
    scheme = tmp_path / "scheme.json"
    first = _run_cli(["construct", "--input", paths["p4.txt"], "--materialize"])
    scheme.write_bytes(first.stdout)

    commands = [
        ["classify", "--input", paths["p4.txt"]],
        ["classify", "--input", paths["k3.txt"]],
        ["classify", "--format", "text", "--input", paths["forest.txt"]],
        ["classify", "--input", paths["bad.txt"]],
        ["game-info", "--input", paths["c4.txt"]],
        ["game-info", "--format", "text", "--input", paths["k3.txt"]],
        ["construct", "--input", paths["p4.txt"], "--coalition", "0,1,2"],
        ["construct", "--input", paths["forest.txt"], "--materialize"],
        ["construct", "--input", paths["k3.txt"]],
        ["verify", "--input", paths["p4.txt"], str(scheme)],
        ["enumerate", "--input", paths["star3.txt"]],
        ["enumerate", "--input", paths["star3.txt"], "--max-enumerate", "2"],
        ["count", "--input", paths["forest.txt"]],
        ["count", "--format", "text", "--input", paths["star3.txt"]],
        ["stable-match", "--input", paths["p4.txt"], "--prefs", str(prefs)],
    ]
    expected_codes = [0, 1, 0, 2, 0, 0, 0, 0, 2, 0, 0, 2, 0, 0, 0]
    failures = []
    for args, want in zip(commands, expected_codes):
        r1 = _run_cli(args)
        r2 = _run_cli(args)
        if (r1.stdout, r1.stderr, r1.returncode) != (r2.stdout, r2.stderr, r2.returncode):
            failures.append(f"nondeterministic output: {args}")
        if r1.returncode != want:
            failures.append(f"exit {r1.returncode} != {want}: {args}")
    _verdict(8, f"byte-identical reruns of {len(commands)} CLI invocations", failures)

"""The four benchmark workloads.

A workload hands out rounds of items.  A round is the workload's whole input
mix, drawn from the seed and, where the workload draws a fresh mix each
round, the round index, so that runs with different seeds see the same kind
of work.  A workload whose ``repeats`` is true hands out the same items in
the same order every round.  An item is a ``work`` callable,
which the runner times and which makes every library call through the
tracer, and a ``check`` callable, which verifies the output untimed and
returns an error message or None.  The library is reached only through its
public names and only receives the generated inputs.
"""

from __future__ import annotations

import json
import random
import resource
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable

import vcgame as vc
import vcgame.matching

import inputs

# the exact oracles' default vertex cap, above which they answer structurally
VERTEX_CAP = 24


@dataclass
class Item:
    work: Callable
    check: Callable


@lru_cache(maxsize=None)
def coalitions(n: int) -> tuple[frozenset, ...]:
    """Every coalition over n players, indexed by bitmask."""
    return tuple(vc.mask_coalition(m) for m in range(1 << n))


def _rng(workload: str, seed: int, index) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def _counting(t, name: str, fn):
    """fn, counting each call under ``name`` in the tracer."""
    def counted(*args, **kwargs):
        t.count(name)
        return fn(*args, **kwargs)
    return counted


def _count_lookups(t, name: str, scheme) -> None:
    """In a traced run, count the scheme's ``allocation`` lookups from now on
    (an instance attribute shadows the method)."""
    if t.enabled:
        scheme.allocation = _counting(t, name, scheme.allocation)


@contextmanager
def _count_gale_shapley(t):
    """Count calls to ``gale_shapley``, which integral schemes make once per
    coalition they evaluate, by rebinding the name they call it by."""
    real = vcgame.matching.gale_shapley
    vcgame.matching.gale_shapley = _counting(t, "matching.gale_shapley_runs", real)
    try:
        yield
    finally:
        vcgame.matching.gale_shapley = real


class ForestCertify:
    """Build, verify and certify the constructive scheme of star/pisces forests."""

    name = "forest-certify"
    rss_of = resource.RUSAGE_SELF
    repeats = False

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        # One size only: with sizes mixed, the median item falls between two
        # size classes and moves with every seed.
        self.edges = 6 if tiny else 13

    def round(self, index):
        rng = _rng(self.name, self.seed, index)
        text = inputs.edge_list_text(inputs.star_pisces_forest(rng, self.edges))
        yield Item(partial(self._work, text), self._check)

    @staticmethod
    def _work(text: str, t):
        g = t.call("graph.parse_graph", vc.parse_graph, text)
        _, cover = t.call("pmas.classify_components", vc.classify_components, g)
        scheme = t.call("pmas.construct_pmas", vc.construct_pmas, g)
        table = t.call("pmas.materialize", scheme.materialize)
        game = vc.VertexCoverGame(g)
        t.call("game.cost_table", game.cost_table)
        _count_lookups(t, "pmas.coalitions_scanned", scheme)
        verdict = t.call("pmas.verify_pmas", vc.verify_pmas, game, scheme)
        fold = t.fold
        feasible, optimal, pi_star = vc.check_dual_feasible, vc.check_dual_optimal, vc.check_pi_star
        rejected = []
        for s, x in table.items():
            a = fold("pmas.check_dual_feasible", feasible, g, s, x)
            b = fold("pmas.check_dual_optimal", optimal, game, s, x)
            c = fold("pmas.check_pi_star", pi_star, g, s, x, cover)
            if not (a and b and c):
                rejected.append(s)
        return g, cover, table, verdict, rejected

    @staticmethod
    def _check(out, t):
        g, cover, table, verdict, rejected = out
        if len(table) != (1 << g.n_edges) - 1:
            return f"materialized {len(table)} coalitions on {g.n_edges} edges"
        if verdict != (True, None):
            return f"verify_pmas rejected the constructed scheme: {verdict[1]}"
        if rejected:
            return f"dual checks failed on {len(rejected)} coalitions, first {sorted(rejected[0])}"
        for s, x in table.items():
            for v in cover.cover_for(s):
                load = sum(x[i] for i in g.incident_edges(v) if i in s)
                if load != 1:
                    return f"load {load} at cover vertex {v} on {sorted(s)}"
        return None


class IntegralTables:
    """Enumerate integral schemes and push each through JSON, verification
    and preference recovery; one item per scheme."""

    name = "integral-tables"
    rss_of = resource.RUSAGE_SELF
    # Every round runs the same items: an item's median over the rounds then
    # sets the tail, which one-off host stalls of a few milliseconds would
    # otherwise decide at this item size.
    repeats = True

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        # Only the largest graphs: with smaller ones mixed in, the median
        # item falls between two size classes.
        self.shapes = inputs.pm_shape_multisets(3 if tiny else 6)

    def round(self, index):
        rng = _rng(self.name, self.seed, "every round")
        for multiset in self.shapes:
            pairs = inputs.shapes_graph(rng, multiset)
            state: dict = {"texts": set()}
            # the graph's set-up (parse, count, start the enumeration) runs in
            # its first item, which sets how many items the graph gets
            corrupt = self._corruption(rng, len(pairs))
            yield Item(partial(self._first_work, inputs.edge_list_text(pairs), state, corrupt),
                       partial(self._check, state, 0, corrupt))
            for pos in range(1, state.get("count", 0)):
                corrupt = self._corruption(rng, len(pairs))
                yield Item(partial(self._work, state, pos, corrupt),
                           partial(self._check, state, pos, corrupt))

    @staticmethod
    def _corruption(rng: random.Random, n: int) -> tuple[int, int]:
        """The coalition bitmask and member edge whose payment gets raised by 1."""
        mask = rng.randrange(1, 1 << n)
        return mask, rng.choice(sorted(coalitions(n)[mask]))

    def _first_work(self, text: str, state: dict, corrupt, t):
        g = t.call("graph.parse_graph", vc.parse_graph, text)
        state["g"] = g
        state["game"] = vc.VertexCoverGame(g)
        state["count"] = t.call("matching.count_integral_pmas", vc.count_integral_pmas, g)
        state["stream"] = vc.enumerate_integral_pmas(g, max_enumerate=10**6)
        return self._work(state, 0, corrupt, t)

    @staticmethod
    def _work(state: dict, pos: int, corrupt, t):
        g, game, stream = state["g"], state["game"], state["stream"]
        # each item draws its own scheme from the lazy enumeration, so that
        # the enumeration's cost is spread over the graph's items; the last
        # item also checks that the stream ends there
        scheme = t.call("matching.enumerate_integral_pmas", next, stream, None)
        if scheme is None:
            return None
        more = (pos == state["count"] - 1
                and t.call("matching.enumerate_integral_pmas", next, stream, None) is not None)
        with _count_gale_shapley(t) if t.enabled else nullcontext():
            table = t.call("matching.materialize", scheme.materialize)
        text = t.call("pmas.scheme_to_json", _table_json, table)
        loaded = t.call("pmas.scheme_from_json", vc.scheme_from_json, g, text)
        accepted = t.call("pmas.verify_pmas", vc.verify_pmas, game, loaded)
        mask, edge = corrupt
        s = coalitions(g.n_edges)[mask]
        bad_table = dict(table)
        bad_table[s] = {**table[s], edge: table[s][edge] + 1}
        bad = vc.AllocationScheme(g, table=bad_table)
        _count_lookups(t, "reject_scanned", bad)
        rejected = t.call("pmas.verify_pmas.reject", vc.verify_pmas, game, bad)
        prefs = t.call("matching.preferences_from_scheme", vc.preferences_from_scheme,
                       game, loaded)
        return table, text, loaded, accepted, rejected, prefs, more

    @staticmethod
    def _check(state: dict, pos: int, corrupt, out, t):
        count = state["count"]
        if out is None:
            return f"enumeration ended after {pos} schemes, count_integral_pmas says {count}"
        table, text, loaded, accepted, rejected, prefs, more = out
        corrupted = coalitions(state["g"].n_edges)[corrupt[0]]
        t.count("graphs_enumerated", pos == 0)
        t.count("schemes_enumerated")
        t.count("pmas.json_bytes", len(text.encode()))
        t.count("reject_coalitions", len(table))
        if more:
            return f"enumeration yields more than the {count} schemes count_integral_pmas says"
        if accepted != (True, None):
            return f"verify_pmas rejected an enumerated scheme: {accepted[1]}"
        if any(loaded.allocation(s) != vec for s, vec in table.items()):
            return "JSON round trip changed the table"
        ok, violation = rejected
        if ok or violation.kind != "efficiency" or violation.coalition != corrupted:
            return f"corrupted coalition {sorted(corrupted)} reported as {violation}"
        if vc.scheme_from_preferences(prefs).materialize() != table:
            return "preferences_from_scheme -> scheme_from_preferences changed the table"
        state["texts"].add(text)
        if pos == count - 1 and len(state["texts"]) != count:
            return f"{len(state['texts'])} distinct tables among {count} schemes"
        return None


def _table_json(table) -> str:
    return json.dumps(vc.scheme_table_to_jsonable(table), indent=2)


class GameVerdicts:
    """Cover/matching oracles and exhaustive game verdicts on general graphs,
    plus coalition queries on large forests above the exact vertex cap."""

    name = "game-verdicts"
    rss_of = resource.RUSAGE_SELF
    # Every round runs the same 4 x ``groups`` items, so that an item's
    # median over the rounds, not a host stall during one of its runs, sets
    # the tail.
    repeats = True

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        # The general graphs all have the same edge count: with 8-10 edges
        # mixed, the median item falls between two size classes.
        if tiny:
            self.small = dict(edges=6, min_vertices=4, max_vertices=5)
            self.large_edges, self.distinct, self.queries = (30, 30), 8, 16
            self.groups = 2
        else:
            self.small = dict(edges=10, min_vertices=5, max_vertices=8)
            self.large_edges, self.distinct, self.queries = (30, 60), 48, 96
            self.groups = 30
        coalitions(self.small["edges"])

    def round(self, index):
        rng = _rng(self.name, self.seed, "every round")
        # each group: three small general graphs, then one large forest
        for _ in range(self.groups):
            for _ in range(3):
                pairs = inputs.random_graph(rng, **self.small)
                yield Item(partial(self._small_work, inputs.edge_list_text(pairs)),
                           self._small_check)
            pairs = inputs.star_pisces_forest(rng, rng.randint(*self.large_edges))
            pool, stream = inputs.large_coalitions(rng, pairs, self.distinct, self.queries,
                                                   VERTEX_CAP)
            yield Item(partial(self._large_work, inputs.edge_list_text(pairs), pool, stream),
                       partial(self._large_check, pairs, pool, stream))

    @staticmethod
    def _oracles(text: str, t):
        g = t.call("graph.parse_graph", vc.parse_graph, text)
        recognized = t.call("pmas.recognize_population_monotonic",
                            vc.recognize_population_monotonic, g)
        nu, _ = t.call("graph.matching_number", vc.matching_number, g, g.players())
        tau, _ = t.call("graph.vertex_cover_number", vc.vertex_cover_number, g, g.players())
        return g, recognized, nu, tau

    def _small_work(self, text: str, t):
        g, recognized, nu, tau = self._oracles(text, t)
        game = vc.VertexCoverGame(g)
        fold, gamma = t.fold, game.gamma
        costs = [fold("game.gamma", gamma, s) for s in coalitions(g.n_edges)[1:]]
        table = t.call("game.cost_table", game.cost_table)
        monotone = t.call("game.is_monotone_game", vc.is_monotone_game, game)
        submodular = t.call("game.is_submodular_game", vc.is_submodular_game, game)
        balanced = t.call("game.is_balanced", vc.is_balanced, game)
        core = None
        if balanced:
            x = t.call("game.core_element_from_matching", vc.core_element_from_matching, game)
            core = t.call("game.core_membership", vc.core_membership, game, x)
        return g, recognized, nu, tau, costs, table, monotone, submodular, balanced, core

    @staticmethod
    def _small_check(out, t):
        g, recognized, nu, tau, costs, table, monotone, submodular, balanced, core = out
        t.count("vertex_cover_calls")  # on at most 8 vertices: never structural
        t.count("gamma_queries", len(costs))
        if recognized[0] != (recognized[1] is None):
            return f"recognition verdict {recognized} is inconsistent"
        if nu > tau or (vc.is_bipartite(g) and nu != tau):
            return f"matching number {nu} against cover number {tau}"
        if balanced != (nu == tau):
            return "is_balanced disagrees with matching number = cover number"
        if monotone != (True, None):
            return f"cover game not monotone: {monotone[1]}"
        if submodular[0] != vc.is_submodular_graph(g):
            return "is_submodular_game disagrees with is_submodular_graph"
        if balanced and core[0] is not True:
            return f"matching core element rejected on {sorted(core[1])}"
        if costs != table[1:]:
            return "oracle gamma differs from the cost table"
        return None

    def _large_work(self, text: str, pool, stream, t):
        g, recognized, nu, tau = self._oracles(text, t)
        covers = [t.call("graph.vertex_cover_number", vc.vertex_cover_number, g, s)[0]
                  for s in pool]
        game = vc.VertexCoverGame(g)
        fold, gamma = t.fold, game.gamma
        costs = [fold("game.gamma", gamma, s) for s in stream]
        balanced = t.call("game.is_balanced", vc.is_balanced, game)
        x = t.call("game.core_element_from_matching", vc.core_element_from_matching, game)
        return g, recognized, nu, tau, covers, costs, balanced, x

    @staticmethod
    def _large_check(pairs, pool, stream, out, t):
        g, recognized, nu, tau, covers, costs, balanced, x = out
        t.count("vertex_cover_calls", 1 + len(pool))
        inputs_seen = [range(len(pairs)), *pool]
        t.count("vertex_cover_structural",
                sum(inputs.vertex_count(pairs, s) > VERTEX_CAP for s in inputs_seen))
        t.count("gamma_queries", len(stream))
        t.count("gamma_repeats", len(stream) - len(set(stream)))
        if recognized != (True, None):
            return f"star/pisces forest not recognized: {recognized[1]}"
        if nu != tau or not balanced:
            return f"forest has matching number {nu} but cover number {tau}"
        if sum(x.values()) != nu:
            return "matching core element does not pay the matching number"
        _, cover = vc.classify_components(g)
        expected = {s: len(cover.cover_for(s)) for s in pool}
        if covers != [expected[s] for s in pool]:
            return "cover number differs from the star/pisces cover size"
        if costs != [expected[s] for s in stream]:
            return "gamma differs from the star/pisces cover size"
        return None


class CliCommands:
    """The acceptance suite's CLI command set, one subprocess at a time."""

    name = "cli-commands"
    # peak RSS is the largest CLI child's, not this worker process's
    rss_of = resource.RUSAGE_CHILDREN
    repeats = False

    def __init__(self, seed: int, root: Path, workdir: Path) -> None:
        self.seed = seed
        self.root = root
        paths = {}
        for name, body in inputs.CLI_FIXTURES.items():
            paths[name] = workdir / name
            paths[name].write_text(body, encoding="utf-8")
        paths["scheme.json"] = workdir / "scheme.json"
        self.paths = {name: str(p) for name, p in paths.items()}
        made = self.run(self._fill(inputs.CLI_SCHEME_COMMAND))
        if made.returncode != 0:
            raise RuntimeError(f"construct --materialize failed: {made.stderr.decode()}")
        paths["scheme.json"].write_bytes(made.stdout)
        self.commands = [(self._fill(args), code) for args, code in inputs.CLI_COMMANDS]
        self.reference: dict[int, bytes] = {}

    def _fill(self, args):
        return [self.paths[a[1:-1]] if a.startswith("{") else a for a in args]

    def run(self, args):
        return subprocess.run([sys.executable, "-m", "vcgame", *args], cwd=self.root,
                              capture_output=True, timeout=60, check=False)

    def round(self, index):
        order = list(range(len(self.commands)))
        _rng(self.name, self.seed, index).shuffle(order)
        for k in order:
            args, _ = self.commands[k]
            yield Item(partial(self._work, args), partial(self._check, k))

    def _work(self, args, t):
        return t.call(f"cli.{args[0]}", self.run, args)

    def _check(self, k: int, proc, t):
        args, code = self.commands[k]
        if proc.returncode != code:
            return f"exit {proc.returncode} != {code}: {' '.join(args)}"
        if proc.stdout != self.reference.setdefault(k, proc.stdout):
            return f"stdout differs from the warm-up run: {' '.join(args)}"
        return None

    def probes(self, t, repeats: int) -> None:
        """Fresh-interpreter start-up with and without ``import vcgame``."""
        for _ in range(repeats):
            for name, code in (("cli.interpreter", "pass"), ("cli.import", "import vcgame")):
                t.call(name, subprocess.run, [sys.executable, "-c", code], cwd=self.root,
                       check=True, timeout=60)


def make(name: str, seed: int, tiny: bool, root: Path, workdir: Path):
    if name == CliCommands.name:
        return CliCommands(seed, root, workdir)
    for cls in (ForestCertify, IntegralTables, GameVerdicts):
        if cls.name == name:
            return cls(seed, tiny)
    raise ValueError(f"unknown workload {name!r}")

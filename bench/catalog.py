"""Names, units and directions of the benchmark's metrics, and for each
per-layer metric the end-to-end metrics and workload it should move.

``BENCHMARK.json`` lists the same metrics; the smoke test keeps the two in
step.  Per-layer figures come from the traced run and are normalized per
item completed in it (``s/item``, ``1/item``), so that runs of different
lengths, and versions of different speed, compare directly; shares are
ratios of two counts; ``cli.*`` figures are medians of single calls.  Times
are in reference seconds (see ``probe.py``).
"""

from __future__ import annotations

import statistics

from spans import BUSY, NAME

WORKLOADS = ("forest-certify", "integral-tables", "game-verdicts", "cli-commands")

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("item_p50_s", "s", "lower"),
    ("item_tail_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)

ALL = "every workload"
_FOREST = (("forest-certify", ("items_per_s", "item_p50_s", "peak_rss_mib")),)
_TABLES = (("integral-tables", ("items_per_s",)),)
_VERDICTS = (("game-verdicts", ("items_per_s", "item_tail_s")),)
_GAME = (("game-verdicts", ("items_per_s", "peak_rss_mib")),)
_CLI = (("cli-commands", ("item_p50_s",)), (ALL, ("setup_s",)))

# library functions timed from outside, as <module>.<function>
FUNCTIONS = {
    "graph.parse_graph": _VERDICTS,
    "graph.vertex_cover_number": _VERDICTS,
    "graph.matching_number": _VERDICTS,
    "game.gamma": _GAME,
    "game.cost_table": _GAME + _FOREST,
    "game.is_monotone_game": _GAME,
    "game.is_submodular_game": _GAME,
    "game.is_balanced": _GAME,
    "game.core_element_from_matching": _GAME,
    "game.core_membership": _GAME,
    "pmas.recognize_population_monotonic": _VERDICTS,
    "pmas.classify_components": _FOREST,
    "pmas.construct_pmas": _FOREST,
    "pmas.materialize": _FOREST,
    "pmas.verify_pmas": _FOREST + _TABLES,
    "pmas.check_dual_feasible": _FOREST,
    "pmas.check_dual_optimal": _FOREST,
    "pmas.check_pi_star": _FOREST,
    "pmas.scheme_to_json": _TABLES,
    "pmas.scheme_from_json": _TABLES,
    "matching.count_integral_pmas": _TABLES,
    "matching.enumerate_integral_pmas": _TABLES,
    "matching.materialize": _TABLES,
    "matching.preferences_from_scheme": _TABLES,
}
# spans whose calls also count towards a function's figures
EXTRA_SPANS = {"pmas.verify_pmas": ("pmas.verify_pmas.reject",)}
STATS = (("calls", "1/item"), ("busy_s", "s/item"), ("self_s", "s/item"))

# work counts and their shares, measured where the benchmark calls the
# library: (name, unit, moves)
COUNTS = (
    ("pmas.coalitions_scanned", "1/item", _FOREST),
    ("pmas.json_bytes", "B/item", _TABLES),
    ("pmas.verify_pmas.reject_busy_s", "s/item", _TABLES),
    ("pmas.verify_pmas.reject_scan_share", "ratio", _TABLES),
    ("matching.gale_shapley_runs", "1/item", _TABLES),
)
CLI_SUBCOMMANDS = ("classify", "game-info", "construct", "verify", "enumerate", "count",
                   "stable-match")
CLI_MEDIANS = tuple((f"cli.{sub}.wall_s", f"cli.{sub}") for sub in CLI_SUBCOMMANDS) + (
    ("cli.import_s", "cli.import"), ("cli.interpreter_s", "cli.interpreter"))


def per_layer() -> list[tuple[str, str, str, tuple]]:
    """(name, unit, better, moves) of every per-layer metric."""
    out = []
    for fn, moves in FUNCTIONS.items():
        out += [(f"{fn}.{stat}", unit, "lower", moves) for stat, unit in STATS]
    out += [(name, unit, "lower", moves) for name, unit, moves in COUNTS]
    out += [(name, "s", "lower", _CLI) for name, _ in CLI_MEDIANS]
    return out


def _share(counts, part: str, whole: str) -> float:
    return counts[part] / counts[whole] if counts[whole] else 0.0


def per_layer_values(tracer, items: int, scale: float) -> dict:
    """Per-layer metric values from the spans and counts of one traced phase
    that completed ``items`` items; times are multiplied by ``scale``, which
    turns wall seconds into reference seconds."""
    totals, counts = tracer.totals(), tracer.counts
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    values = {}
    for fn in FUNCTIONS:
        spans = [totals.get(name, zero) for name in (fn, *EXTRA_SPANS.get(fn, ()))]
        values[f"{fn}.calls"] = sum(s["calls"] for s in spans) / items
        for stat in ("busy_s", "self_s"):
            values[f"{fn}.{stat}"] = sum(s[stat] for s in spans) * scale / items
    values["pmas.coalitions_scanned"] = counts["pmas.coalitions_scanned"] / items
    values["pmas.json_bytes"] = counts["pmas.json_bytes"] / items
    values["pmas.verify_pmas.reject_busy_s"] = (
        totals.get("pmas.verify_pmas.reject", zero)["busy_s"] * scale / items)
    values["pmas.verify_pmas.reject_scan_share"] = _share(counts, "reject_scanned",
                                                          "reject_coalitions")
    values["matching.gale_shapley_runs"] = counts["matching.gale_shapley_runs"] / items
    durations: dict[str, list[float]] = {}
    for rec in tracer.spans:
        durations.setdefault(rec[NAME], []).append(rec[BUSY])
    for name, span in CLI_MEDIANS:
        values[name] = statistics.median(durations[span]) * scale if span in durations else 0.0
    return values


def input_properties(tracer, items: int) -> dict:
    """Figures fixed by the generated inputs, which no library change moves;
    reported next to the per-layer metrics to help read them."""
    counts = tracer.counts
    return {
        "matching.schemes_per_graph": _share(counts, "schemes_enumerated", "graphs_enumerated"),
        "graph.vertex_cover_number.structural_share": _share(
            counts, "vertex_cover_structural", "vertex_cover_calls"),
        "game.gamma.repeat_share": _share(counts, "gamma_repeats", "gamma_queries"),
    }


def describe_moves(moves) -> str:
    return "; ".join(f"{', '.join(metrics)} on {workload}" for workload, metrics in moves)

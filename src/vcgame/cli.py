"""Command line front end: classify graphs, report game facts, construct,
verify and enumerate allocation schemes, run stable matchings.

Exit codes: 0 for success or a true verdict, 1 for a false verdict, 2 for
errors (including truncated enumerations).  Output is byte-deterministic for
a fixed input and configuration.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (ContractViolation, EnumerationTruncated, NotPopulationMonotonic,
                     OracleCapError, VertexCoverGameError)
from .game import DEFAULT_EDGE_CAP, VertexCoverGame, is_submodular_graph
from .graph import Graph, _coalition, is_bipartite, matching_number, parse_graph
from .matching import (DEFAULT_ENUM_CAP, PreferenceSystem, count_integral_pmas,
                       enumerate_integral_pmas, gale_shapley, scheme_from_preferences)
from .pmas import (classify_components, construct_pmas, fraction_str, scheme_from_json,
                   scheme_table_to_jsonable, verify_pmas)


def _int(text: str) -> int:
    """int(text), refusing what int() reads beyond ASCII digits, a minus sign
    and surrounding spaces: "+1", "1_0" and non-ASCII digits."""
    value = int(text)  # int()'s own error for what it refuses
    if not (text.isascii() and text.strip().removeprefix("-").isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = _int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


# Each option a subcommand may declare, keyed by its flag: add_argument's keywords.
OPTIONS = {
    "--input": dict(required=True, metavar="FILE", help="edge-list graph file"),
    "--output": dict(metavar="FILE", help="write the result here instead of stdout"),
    "--format": dict(choices=("json", "text"), default="json"),
    "--coalition": dict(metavar="LIST",
                        help="comma-separated edge indices (default: all players)"),
    "--prefs": dict(metavar="FILE",
                    help="JSON preference orders: vertex label -> edge index list"),
    "--materialize": dict(action="store_true", help="emit the full per-coalition table"),
    "--max-edges": dict(type=_positive_int, default=DEFAULT_EDGE_CAP, metavar="N",
                        help="exhaustive edge cap (default 16)"),
    "--max-enumerate": dict(type=_positive_int, default=DEFAULT_ENUM_CAP, metavar="N",
                            help="enumeration cap (default 10000)"),
    "scheme": dict(metavar="SCHEME", help="JSON scheme file to verify"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcgame",
        description="Analyze vertex cover games on edge players and their "
                    "population monotonic allocation schemes.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in ("--input", "--output", "--format", *flags):
            p.add_argument(flag, **OPTIONS[flag])
    return parser


def _load_graph(args) -> Graph:
    with open(args.input, "r", encoding="utf-8") as handle:
        return parse_graph(handle.read())


def _coalition_arg(args, graph: Graph):
    """The checked --coalition list, or every player when the flag is absent."""
    text = args.coalition
    if text is None:
        return graph.players()
    try:
        indices = [_int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ContractViolation(f"bad coalition list {text!r}: {exc}") from exc
    return _coalition(graph, indices)


def _load_prefs(graph: Graph, path: str) -> PreferenceSystem:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ContractViolation(f"preference file is not valid JSON: {exc}") from exc
    return PreferenceSystem(graph, raw)


def _render(args, doc: dict, text_lines: list[str]) -> str:
    if args.format == "json":
        return json.dumps(doc, indent=2) + "\n"
    return "\n".join(text_lines) + "\n"


def _table_text_lines(jsonable: dict) -> list[str]:
    lines = []
    for key, vec in jsonable.items():
        entries = " ".join(f"{i}={val}" for i, val in vec.items())
        lines.append(f"coalition {{{key}}}: {entries}")
    return lines


def cmd_classify(args, graph: Graph) -> tuple[int, str]:
    try:
        comps, cover = classify_components(graph)
    except NotPopulationMonotonic as exc:
        pattern, verts = exc.pattern, exc.vertices
        doc = {"population_monotonic": False,
               "witness": {"pattern": pattern, "vertices": list(verts)}}
        text = ["population monotonic: no",
                f"witness: {pattern} on [{', '.join(verts)}]"]
        return 1, _render(args, doc, text)
    doc = {"population_monotonic": True,
           "components": [
               {"kind": c.kind,
                "edges": sorted(c.edges),
                "cover": list(c.cover),
                "free_rider": c.free_rider,
                "pendants": {v: list(es) for v, es in sorted(c.pendants.items())}}
               for c in comps],
           "cover": list(cover.cover)}
    text = ["population monotonic: yes", f"components: {len(comps)}"]
    for pos, c in enumerate(comps):
        line = (f"component {pos}: {c.kind}; edges={sorted(c.edges)}; "
                f"cover={list(c.cover)}")
        if c.free_rider is not None:
            line += f"; free rider=edge {c.free_rider}"
        text.append(line)
    text.append(f"cover: {list(cover.cover)}")
    return 0, _render(args, doc, text)


def cmd_game_info(args, graph: Graph) -> tuple[int, str]:
    bipartite = is_bipartite(graph)
    try:
        nu, _ = matching_number(graph, graph.players())
        tau = VertexCoverGame(graph).gamma(graph.players())
    except OracleCapError:
        nu = tau = None
    balanced = None if nu is None else (nu == tau)
    submodular = is_submodular_graph(graph)
    doc = {
        "vertices": graph.n_vertices,
        "edges": graph.n_edges,
        "bipartite": bipartite,
        "matching_number": nu,
        "cover_number": tau,
        "balanced": {"value": balanced,
                     "criterion": "matching number equals cover number"},
        "totally_balanced": {"value": bipartite, "criterion": "graph is bipartite"},
        "submodular": {"value": submodular, "criterion": "no K3 or P4 subgraph"},
    }
    if nu is None:
        doc["note"] = "exact oracle cap exceeded; matching and cover numbers omitted"

    def yesno(value) -> str:
        return "unknown (cap exceeded)" if value is None else ("yes" if value else "no")

    text = [
        f"vertices: {graph.n_vertices}",
        f"edges: {graph.n_edges}",
        f"bipartite: {yesno(bipartite)}",
        f"matching number: {'?' if nu is None else nu}",
        f"cover number: {'?' if tau is None else tau}",
        f"balanced: {yesno(balanced)} (matching number equals cover number)",
        f"totally balanced: {yesno(bipartite)} (graph is bipartite)",
        f"submodular: {yesno(submodular)} (no K3 or P4 subgraph)",
    ]
    return 0, _render(args, doc, text)


def cmd_construct(args, graph: Graph) -> tuple[int, str]:
    if args.prefs:
        scheme = scheme_from_preferences(_load_prefs(graph, args.prefs))
    else:
        scheme = construct_pmas(graph)
    coalition = _coalition_arg(args, graph)
    if args.materialize:
        if args.coalition is not None:
            raise ContractViolation("--materialize prints every coalition and takes no --coalition")
        jsonable = scheme_table_to_jsonable(scheme.materialize(max_edges=args.max_edges))
        return 0, _render(args, jsonable, _table_text_lines(jsonable))
    alloc = scheme.allocation(coalition)
    doc = {str(i): fraction_str(alloc[i]) for i in sorted(alloc)}
    text = [f"edge {i}: {fraction_str(alloc[i])}" for i in sorted(alloc)]
    return 0, _render(args, doc, text)


def cmd_verify(args, graph: Graph) -> tuple[int, str]:
    with open(args.scheme, "r", encoding="utf-8") as handle:
        scheme = scheme_from_json(graph, handle.read())
    game = VertexCoverGame(graph)
    ok, violation = verify_pmas(game, scheme, max_edges=args.max_edges)
    if ok:
        return 0, _render(args, {"valid": True}, ["valid: yes"])
    doc = {"valid": False, "violation": violation.to_json_dict()}
    return 1, _render(args, doc, ["valid: no", str(violation)])


def cmd_enumerate(args, graph: Graph) -> tuple[int, str]:
    tables = []
    truncated = False
    try:
        for scheme in enumerate_integral_pmas(graph, max_enumerate=args.max_enumerate):
            tables.append(scheme_table_to_jsonable(
                scheme.materialize(max_edges=args.max_edges)))
    except EnumerationTruncated:
        truncated = True
    doc = {"count": len(tables), "truncated": truncated, "schemes": tables}
    text = [f"count: {len(tables)}", f"truncated: {'yes' if truncated else 'no'}"]
    for pos, jsonable in enumerate(tables):
        text.append(f"scheme {pos}:")
        text.extend("  " + line for line in _table_text_lines(jsonable))
    return (2 if truncated else 0), _render(args, doc, text)


def cmd_count(args, graph: Graph) -> tuple[int, str]:
    total = count_integral_pmas(graph)
    return 0, _render(args, {"count": total}, [str(total)])


def cmd_stable_match(args, graph: Graph) -> tuple[int, str]:
    if not args.prefs:
        raise ContractViolation("stable-match requires --prefs FILE")
    ps = _load_prefs(graph, args.prefs)
    coalition = _coalition_arg(args, graph)
    matched = gale_shapley(ps, coalition)
    doc = {"coalition": sorted(coalition), "matching": sorted(matched)}
    text = [f"matching: {sorted(matched)}"]
    return 0, _render(args, doc, text)


# Each subcommand, in help order: its handler, its help line and the options it
# takes after --input, --output and --format.
COMMANDS = {
    "classify": (cmd_classify, "population-monotonicity verdict and component taxonomy", ()),
    "game-info": (cmd_game_info, "matching/cover numbers and game-theoretic properties", ()),
    "construct": (cmd_construct, "build an allocation scheme (equal-split rule, or from --prefs)",
                  ("--coalition", "--prefs", "--materialize", "--max-edges")),
    "verify": (cmd_verify, "check a scheme file for efficiency and monotonicity",
               ("--max-edges", "scheme")),
    "enumerate": (cmd_enumerate, "list all integral schemes", ("--max-edges", "--max-enumerate")),
    "count": (cmd_count, "count integral schemes without enumerating", ()),
    "stable-match": (cmd_stable_match, "run deferred acceptance on a coalition",
                     ("--coalition", "--prefs")),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload = COMMANDS[args.command][0](args, _load_graph(args))
    except (VertexCoverGameError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)
    return code

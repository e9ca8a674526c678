"""Command-line behavior: outputs, exit codes, and file handling."""

import argparse
import json

import pytest

import vcgame.graph
from vcgame.cli import build_parser, main

P4 = "a b\nb c\nc d\n"
K3 = "a b\nb c\na c\n"
STAR2 = "hub x\nhub y\n"
STAR4 = "hub a\nhub b\nhub c\nhub d\n"
C4 = "a b\nb c\nc d\nd a\n"


@pytest.fixture
def graph_file(tmp_path):
    def write(name: str, body: str) -> str:
        path = tmp_path / name
        path.write_text(body, encoding="utf-8")
        return str(path)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


COMMON = [
    (("--input",), "input", None, "FILE", True, None, "edge-list graph file"),
    (("--output",), "output", None, "FILE", False, None, "write the result here instead of stdout"),
    (("--format",), "format", "json", None, False, ("json", "text"), None),
]
COALITION = (("--coalition",), "coalition", None, "LIST", False, None,
             "comma-separated edge indices (default: all players)")
PREFS = (("--prefs",), "prefs", None, "FILE", False, None,
         "JSON preference orders: vertex label -> edge index list")
MAX_EDGES = (("--max-edges",), "max_edges", 16, "N", False, None, "exhaustive edge cap (default 16)")


def test_each_subcommand_declares_its_arguments_in_order():
    # option strings, dest, default, metavar, required, choices and help of each argument
    # after -h, so a command table that drops or reorders an option shows here
    action = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    declared = [(a.dest, a.help, [(tuple(b.option_strings), b.dest, b.default, b.metavar,
                                   b.required, b.choices, b.help)
                                  for b in action.choices[a.dest]._actions[1:]])
                for a in action._choices_actions]
    assert declared == [
        ("classify", "population-monotonicity verdict and component taxonomy", COMMON),
        ("game-info", "matching/cover numbers and game-theoretic properties", COMMON),
        ("construct", "build an allocation scheme (equal-split rule, or from --prefs)", COMMON + [
            COALITION, PREFS,
            (("--materialize",), "materialize", False, None, False, None,
             "emit the full per-coalition table"),
            MAX_EDGES]),
        ("verify", "check a scheme file for efficiency and monotonicity", COMMON + [
            MAX_EDGES, ((), "scheme", None, "SCHEME", True, None, "JSON scheme file to verify")]),
        ("enumerate", "list all integral schemes", COMMON + [
            MAX_EDGES,
            (("--max-enumerate",), "max_enumerate", 10000, "N", False, None,
             "enumeration cap (default 10000)")]),
        ("count", "count integral schemes without enumerating", COMMON),
        ("stable-match", "run deferred acceptance on a coalition", COMMON + [COALITION, PREFS]),
    ]


def test_classify_p4_json(graph_file, capsys):
    code, out, err = run(capsys, "classify", "--input", graph_file("g.txt", P4))
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["population_monotonic"] is True
    assert doc["components"][0]["kind"] == "pisces"
    assert doc["components"][0]["free_rider"] == 1
    assert doc["cover"] == ["b", "c"]


def test_classify_k3_is_false_verdict(graph_file, capsys):
    code, out, _ = run(capsys, "classify", "--input", graph_file("g.txt", K3))
    assert code == 1
    doc = json.loads(out)
    assert doc["population_monotonic"] is False
    assert doc["witness"]["pattern"] == "K3"
    assert doc["witness"]["vertices"] == ["a", "b", "c"]


def test_classify_text_format(graph_file, capsys):
    code, out, _ = run(capsys, "classify", "--format", "text",
                       "--input", graph_file("g.txt", P4))
    assert code == 0
    assert "population monotonic: yes" in out
    assert "pisces" in out and "free rider=edge 1" in out


def test_classify_decomposes_once(graph_file, capsys, monkeypatch):
    calls = []
    real = vcgame.graph._shapes

    def counting(graph):
        calls.append(graph)
        return real(graph)

    monkeypatch.setattr(vcgame.graph, "_shapes", counting)
    code, _, _ = run(capsys, "classify", "--input", graph_file("g.txt", P4))
    assert code == 0 and len(calls) == 1


def test_game_info_c4(graph_file, capsys):
    code, out, _ = run(capsys, "game-info", "--input", graph_file("g.txt", C4))
    assert code == 0
    doc = json.loads(out)
    assert doc["matching_number"] == 2 and doc["cover_number"] == 2
    assert doc["bipartite"] is True
    assert doc["balanced"]["value"] is True
    assert doc["totally_balanced"]["value"] is True
    assert doc["submodular"]["value"] is False  # contains a 3-edge path


def test_game_info_k3(graph_file, capsys):
    code, out, _ = run(capsys, "game-info", "--input", graph_file("g.txt", K3))
    assert code == 0
    doc = json.loads(out)
    assert doc["balanced"]["value"] is False
    assert doc["matching_number"] == 1 and doc["cover_number"] == 2


def test_game_info_star_all_yes(graph_file, capsys):
    code, out, _ = run(capsys, "game-info",
                       "--input", graph_file("g.txt", "hub a\nhub b\nhub c\n"))
    assert code == 0
    doc = json.loads(out)
    assert doc["balanced"]["value"] is True
    assert doc["totally_balanced"]["value"] is True
    assert doc["submodular"]["value"] is True


def test_rejects_nonpositive_caps(graph_file, capsys):
    with pytest.raises(SystemExit):
        run(capsys, "enumerate", "--input", graph_file("g.txt", STAR2),
            "--max-enumerate", "0")


def test_construct_coalition_exact_payload(graph_file, capsys):
    code, out, _ = run(capsys, "construct", "--input", graph_file("g.txt", P4),
                       "--coalition", "0,1,2")
    assert code == 0
    assert json.loads(out) == {"0": "1/1", "1": "0/1", "2": "1/1"}


def test_construct_defaults_to_grand_coalition(graph_file, capsys):
    code, out, _ = run(capsys, "construct", "--input", graph_file("g.txt", STAR2))
    assert code == 0
    assert json.loads(out) == {"0": "1/2", "1": "1/2"}


def test_construct_on_forbidden_graph_errors(graph_file, capsys):
    code, out, err = run(capsys, "construct", "--input", graph_file("g.txt", K3))
    assert code == 2 and out == ""
    assert "not population monotonic" in err and "K3" in err


def test_construct_materialize_then_verify_round_trip(graph_file, capsys, tmp_path):
    gpath = graph_file("g.txt", P4)
    scheme_path = tmp_path / "scheme.json"
    code, _, _ = run(capsys, "construct", "--input", gpath, "--materialize",
                     "--output", str(scheme_path))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--input", gpath, str(scheme_path))
    assert code == 0
    assert json.loads(out) == {"valid": True}


def test_verify_tampered_scheme(graph_file, capsys, tmp_path):
    gpath = graph_file("g.txt", P4)
    scheme_path = tmp_path / "scheme.json"
    run(capsys, "construct", "--input", gpath, "--materialize",
        "--output", str(scheme_path))
    table = json.loads(scheme_path.read_text())
    table["0"] = {"0": "0/1"}  # break efficiency of the first singleton
    scheme_path.write_text(json.dumps(table))
    code, out, _ = run(capsys, "verify", "--input", gpath, str(scheme_path))
    assert code == 1
    doc = json.loads(out)
    assert doc["valid"] is False
    assert doc["violation"]["kind"] == "efficiency"
    assert doc["violation"]["coalition"] == [0]


def test_verify_incomplete_scheme_errors(graph_file, capsys, tmp_path):
    gpath = graph_file("g.txt", P4)
    scheme_path = tmp_path / "scheme.json"
    run(capsys, "construct", "--input", gpath, "--materialize",
        "--output", str(scheme_path))
    table = json.loads(scheme_path.read_text())
    del table["0,1"]
    scheme_path.write_text(json.dumps(table))
    code, _, err = run(capsys, "verify", "--input", gpath, str(scheme_path))
    assert code == 2
    assert "missing coalition" in err


def test_verify_refuses_a_misindexed_row_before_scanning(graph_file, capsys, tmp_path):
    # the row for [1] is checked when the scheme is read, before [0]'s efficiency violation
    gpath = graph_file("g.txt", STAR2)
    scheme_path = tmp_path / "scheme.json"
    scheme_path.write_text(json.dumps({"0": {"0": "2/1"}, "0,1": {"0": "1/1", "1": "0/1"},
                                       "1": {"0": "1/1"}}))
    code, out, err = run(capsys, "verify", "--input", gpath, str(scheme_path))
    assert (code, out) == (2, "")
    assert err == "error: allocation for [1] is not indexed by its members\n"


def test_enumerate_star2(graph_file, capsys):
    code, out, _ = run(capsys, "enumerate", "--input", graph_file("g.txt", STAR2))
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 2 and doc["truncated"] is False
    tops = {tuple(sorted(s["0,1"].items())) for s in doc["schemes"]}
    assert tops == {(("0", "1/1"), ("1", "0/1")), (("0", "0/1"), ("1", "1/1"))}


def test_enumerate_truncated(graph_file, capsys):
    code, out, _ = run(capsys, "enumerate", "--input", graph_file("g.txt", STAR4),
                       "--max-enumerate", "3")
    assert code == 2
    doc = json.loads(out)
    assert doc["truncated"] is True and doc["count"] == 3


def test_count_star4(graph_file, capsys):
    code, out, _ = run(capsys, "count", "--input", graph_file("g.txt", STAR4))
    assert code == 0
    assert json.loads(out) == {"count": 24}


def test_count_text(graph_file, capsys):
    code, out, _ = run(capsys, "count", "--format", "text",
                       "--input", graph_file("g.txt", STAR4))
    assert code == 0 and out == "24\n"


def test_stable_match(graph_file, capsys, tmp_path):
    gpath = graph_file("g.txt", P4)
    prefs = tmp_path / "prefs.json"
    prefs.write_text(json.dumps({"b": [0, 1], "c": [2, 1]}))
    code, out, _ = run(capsys, "stable-match", "--input", gpath,
                       "--prefs", str(prefs))
    assert code == 0
    assert json.loads(out) == {"coalition": [0, 1, 2], "matching": [0, 2]}
    code, out, _ = run(capsys, "stable-match", "--input", gpath,
                       "--prefs", str(prefs), "--coalition", "1")
    assert code == 0
    assert json.loads(out)["matching"] == [1]


def test_stable_match_requires_prefs(graph_file, capsys):
    code, _, err = run(capsys, "stable-match", "--input", graph_file("g.txt", P4))
    assert code == 2 and "--prefs" in err


def test_construct_from_prefs(graph_file, capsys, tmp_path):
    gpath = graph_file("g.txt", STAR2)
    prefs = tmp_path / "prefs.json"
    prefs.write_text(json.dumps({"hub": [1, 0]}))
    code, out, _ = run(capsys, "construct", "--input", gpath,
                       "--prefs", str(prefs))
    assert code == 0
    assert json.loads(out) == {"0": "0/1", "1": "1/1"}


def test_parse_error_reports_line(graph_file, capsys):
    code, _, err = run(capsys, "classify",
                       "--input", graph_file("g.txt", "a b\na b\n"))
    assert code == 2
    assert "line 2" in err and "duplicate edge" in err


def test_missing_file_errors(capsys):
    code, _, err = run(capsys, "classify", "--input", "/nonexistent/graph.txt")
    assert code == 2 and "error:" in err


def test_bad_coalition_errors(graph_file, capsys, tmp_path):
    gpath = graph_file("g.txt", P4)
    prefs = tmp_path / "prefs.json"
    prefs.write_text(json.dumps({"b": [0, 1], "c": [2, 1]}))
    # --materialize takes no coalition list, but a malformed one is reported as such
    for command in (["construct"], ["construct", "--materialize"],
                    ["stable-match", "--prefs", str(prefs)]):
        code, out, err = run(capsys, *command, "--input", gpath, "--coalition", "0,9")
        assert code == 2 and out == "" and "out of range" in err
        assert err == "error: edge index out of range: 9\n"  # the library's own wording
        # an empty item is malformed, never dropped; an empty list is not "all players"
        for text in ("", ",", "0,,1", "1,"):
            code, out, err = run(capsys, *command, "--input", gpath, "--coalition", text)
            assert code == 2 and out == ""
            assert err.startswith(f"error: bad coalition list {text!r}: invalid literal")
        code, out, err = run(capsys, *command, "--input", gpath, "--coalition", " 0 , 2")
        if "--materialize" in command:  # a valid list is refused, not ignored
            assert (code, out) == (2, "")
            assert err == "error: --materialize prints every coalition and takes no --coalition\n"
        else:
            assert code == 0 and out


def test_integer_arguments_take_only_ascii_digits(graph_file, capsys):
    gpath = graph_file("g.txt", P4)
    # int() alone reads these as 1, 10, 3 and 16
    for text in ("+1", "1_0", "0,\u0663", "\uff11"):
        code, out, err = run(capsys, "construct", "--input", gpath, "--coalition", text)
        assert code == 2 and out == "" and "invalid literal" in err
    for value in ("1_6", "+16", "\u0661\u0666"):
        with pytest.raises(SystemExit) as exited:
            run(capsys, "construct", "--input", gpath, "--max-edges", value)
        assert exited.value.code == 2
        assert f"invalid _positive_int value: {value!r}" in capsys.readouterr().err
    code, out, _ = run(capsys, "construct", "--input", gpath, "--max-edges", " 16 ")
    assert code == 0 and out


def test_preference_orders_that_are_not_lists_error(graph_file, capsys, tmp_path):
    gpath = graph_file("g.txt", P4)
    prefs = tmp_path / "prefs.json"
    cases = [({"b": order, "c": [2, 1]},
              f"order for vertex 'b' is {order}, not a list of edge indices")
             for order in (5, None, {"0": 1})]
    cases.append(([["b", [0, 1]], ["c", [2, 1]]],
                  "preference orders must map vertex labels to edge lists, not list"))
    for doc, message in cases:
        prefs.write_text(json.dumps(doc))
        for command in ("construct", "stable-match"):
            code, out, err = run(capsys, command, "--input", gpath, "--prefs", str(prefs))
            assert code == 2 and out == ""
            assert err == f"error: {message}\n"


def test_repeated_coalition_index_errors(graph_file, capsys):
    code, out, err = run(capsys, "construct", "--input", graph_file("g.txt", P4),
                         "--coalition", "0,0")
    assert code == 2 and out == "" and err == "error: repeated edge index: 0\n"


@pytest.mark.parametrize("kind", ["graph", "prefs", "scheme"])
def test_input_file_that_is_not_utf8_errors(graph_file, capsys, tmp_path, kind):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"a b\n\xff\n")
    gpath = graph_file("g.txt", P4)
    argv = {"graph": ("classify", "--input", str(bad)),
            "prefs": ("construct", "--input", gpath, "--prefs", str(bad)),
            "scheme": ("verify", "--input", gpath, str(bad))}[kind]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: 'utf-8' codec can't decode byte 0xff in position 4: invalid start byte\n"


def test_output_file_writing(graph_file, capsys, tmp_path):
    out_path = tmp_path / "result.json"
    code, out, _ = run(capsys, "count", "--input", graph_file("g.txt", STAR2),
                       "--output", str(out_path))
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text()) == {"count": 2}

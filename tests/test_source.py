"""Checks on the library source itself."""

import ast
from collections import Counter
from pathlib import Path
from types import ModuleType

import vcgame
import vcgame.cli

SOURCES = sorted(Path(vcgame.__file__).parent.glob("*.py"))


def float_uses(tree: ast.AST):
    """(line, what) for every float literal, true division and float name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "the name float"


def test_library_source_has_no_floats():
    # all arithmetic is exact: integers and Fractions, never floats
    assert len(SOURCES) >= 8
    found = [f"{path.name}:{line}: {what}" for path in SOURCES
             for line, what in float_uses(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def test_float_scan_sees_each_form():
    text = "a = 0.5\nb = c / d\ne /= 2\nf = float(g)\nh = 1j\nk = m // n\n"
    assert sorted(line for line, _ in float_uses(ast.parse(text))) == [1, 2, 3, 4, 5]


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def self_referencing_closures(tree: ast.AST):
    """(line, name) for every function nested in another that refers to its
    own name: its closure cell holds the function, a reference cycle that
    every call of the outer function leaves to the cyclic collector."""
    nested = {node for outer in ast.walk(tree) if isinstance(outer, FUNCTIONS)
              for node in ast.walk(outer) if node is not outer and isinstance(node, FUNCTIONS)}
    for node in sorted(nested, key=lambda f: f.lineno):
        if any(isinstance(n, ast.Name) and n.id == node.name for n in ast.walk(node)):
            yield node.lineno, node.name


def test_library_source_has_no_self_referencing_closures():
    found = [f"{path.name}:{line}: {name}" for path in SOURCES
             for line, name in self_referencing_closures(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def test_closure_scan_sees_each_form():
    text = ("def top(n):\n    return top(n - 1)\n"
            "def outer():\n"
            "    def rec(k):\n        return rec(k)\n"
            "    def plain(k):\n        return k\n"
            "    def middle():\n"
            "        def deep():\n            deep()\n"
            "        return middle\n"
            "    return rec, plain, middle\n")
    assert list(self_referencing_closures(ast.parse(text))) == [(4, "rec"), (8, "middle"),
                                                                (9, "deep")]


def test_library_source_parses_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_public_surface_is_exactly_all():
    names = vcgame.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(vcgame, name) for name in names)
    public = {name for name, value in vars(vcgame).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert public == set(names)
    assert "SubgraphView" not in public and not hasattr(vcgame, "SubgraphView")



def private_definitions(tree: ast.Module):
    """(node, name) for every private module-level function, class or
    assigned name and every private method; dunder names are not private."""
    def private(name: str) -> bool:
        return name.startswith("_") and not name.endswith("__")

    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            if private(node.name):
                yield node, node.name
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, FUNCTIONS) and private(item.name):
                    yield item, item.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and private(name.id):
                        yield node, name.id


def reads(node: ast.AST):
    """Every name and attribute that node loads."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            yield n.attr


def unreferenced(modules: dict[str, ast.Module]):
    """(module, line, name) for every private definition that no name or
    attribute read in any of the modules refers to outside its own body."""
    everywhere = Counter(name for tree in modules.values() for name in reads(tree))
    for module, tree in modules.items():
        for node, name in private_definitions(tree):
            if everywhere[name] == sum(1 for read in reads(node) if read == name):
                yield module, node.lineno, name


def test_library_source_has_no_unreferenced_private_names():
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert [f"{module}:{line}: {name}" for module, line, name in unreferenced(modules)] == []


def test_unreferenced_scan_sees_each_form():
    a = ("def _called():\n    return 1\n"
         "def _recursive(n):\n    return _recursive(n - 1)\n"
         "class _Kept:\n"
         "    def _method(self):\n        return self._method\n"
         "    def _read(self):\n        return 2\n"
         "    def __init__(self):\n        pass\n"
         "_LIMIT, _unused = 1, 2\n"
         "_ANNOTATED: int = 3\n")
    b = "from a import _called, _unused\nx = _called(), _Kept()._read, _LIMIT\n"
    found = unreferenced({"a": ast.parse(a), "b": ast.parse(b)})
    assert list(found) == [("a", 3, "_recursive"), ("a", 6, "_method"), ("a", 12, "_unused"),
                           ("a", 13, "_ANNOTATED")]


def referrers(tree: ast.Module, name: str):
    """The top-level definition (None at module level) around each import
    or read of name in tree."""
    for top in tree.body:
        owner = top.name if isinstance(top, (*FUNCTIONS, ast.ClassDef)) else None
        imports = [alias.name for node in ast.walk(top) if isinstance(node, ast.ImportFrom)
                   for alias in node.names]
        for found in [*imports, *reads(top)]:
            if found == name:
                yield owner


def test_only_the_coalition_gate_checks_and_masks_coalitions():
    # every per-coalition entry point reads its checked coalition, carrying its bitmask,
    # from graph._coalition; only coalitions the gate checked or built from a mask carry one
    found = sorted(((path.name, owner) for path in SOURCES
                    for owner in referrers(ast.parse(path.read_text(encoding="utf-8")), "_masked")),
                   key=str)
    assert found == [("graph.py", "Graph"), ("graph.py", "_coalition"), ("graph.py", "mask_coalition")]


def test_referrer_scan_sees_each_form():
    text = ("from .graph import mask as m, mask\n"
            "def f(g):\n    return g.mask + mask(g)\n"
            "class C:\n    def h(self):\n        return mask\n"
            "def mask(x):\n    return x\n"
            "y = m(2)\n")
    assert list(referrers(ast.parse(text), "mask")) == [None, None, "f", "f", "C"]


def callers(tree: ast.Module, name: str):
    """The top-level definition (None at module level) around each call of name."""
    for top in tree.body:
        owner = top.name if isinstance(top, (*FUNCTIONS, ast.ClassDef)) else None
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == name):
                yield owner


def test_only_the_cover_system_builds_rule_tables():
    # the rule-table shapes are decided in one place: CoverSystem.scheme
    # builds every rule table, and verify_pmas skips its scan only for a
    # table equal to one that scheme() builds
    found = [(path.name, owner) for path in SOURCES
             for owner in callers(ast.parse(path.read_text(encoding="utf-8")), "_RuleTableScheme")]
    assert found == [("pmas.py", "CoverSystem"), ("pmas.py", "CoverSystem")]
    # one star/pisces decomposition per graph, Graph._structure, which recognition, the
    # cover system, the shape check, gamma and the oracles read (above the vertex cap, a
    # coalition subgraph's own); nothing else decomposes a coalition
    found = [(path.name, owner) for path in SOURCES
             for owner in callers(ast.parse(path.read_text(encoding="utf-8")), "_shapes")]
    assert found == [("graph.py", "Graph")]


def test_only_the_graph_builds_the_per_edge_masks():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    # Graph._edge_masks, built once per graph, is the one per-edge mask table
    found = [(name, top.name, item.name) for name, tree in trees.items() for top in tree.body
             for item in (top.body if isinstance(top, ast.ClassDef) else [top])
             if isinstance(item, FUNCTIONS) and item.name == "_edge_masks"]
    assert found == [("graph.py", "Graph", "_edge_masks")]
    # only the cost table, the cover search and the matching search read it; the oracles'
    # head never does
    found = sorted({(name, owner) for name, tree in trees.items()
                    for owner in referrers(tree, "_edge_masks")}, key=str)
    assert found == [("game.py", "_full_cost_table"), ("graph.py", "_cover_size"),
                     ("graph.py", "_lex_min_cover"), ("graph.py", "matching_number"),
                     ("graph.py", "vertex_cover_number")]
    # and none of them rebuilds masks from the edge list: only the witness reads labels
    readers = {"_full_cost_table", "_greedy_disjoint_edges", "_cover_feasible",
               "_min_cover_size", "_cover_size", "_matching_branch"}
    found = [(name, top.name) for name, tree in trees.items() for top in tree.body
             if isinstance(top, FUNCTIONS) and top.name in readers
             and {"edges", "vertices", "_incident"} & set(reads(top))]
    assert found == []


def test_caller_scan_sees_each_form():
    text = ("x = make(1)\n"
            "def f():\n    return make, g.make(2), [make(3) for _ in ()]\n"
            "class C:\n    def h(self):\n        return make(make(4))\n")
    assert list(callers(ast.parse(text), "make")) == [None, "f", "C", "C"]


def attribute_reads(tree: ast.Module, attrs):
    """(owner, object, attribute) for every load of one of attrs as an attribute:
    the top-level definition around it (None at module level) and its object's source."""
    for top in tree.body:
        owner = top.name if isinstance(top, (*FUNCTIONS, ast.ClassDef)) else None
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and node.attr in attrs):
                yield owner, ast.unparse(node.value), node.attr


def test_the_rule_table_has_one_source():
    # Graph._structure is the only place the rule table lives; these definitions read it
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    found = sorted({(name, owner) for name, tree in trees.items()
                    for owner in referrers(tree, "_structure")}, key=str)
    assert found == [("game.py", "VertexCoverGame"), ("game.py", "is_submodular_graph"),
                     ("graph.py", "_charged"),
                     ("graph.py", "_oracle_input"), ("graph.py", "_structural_witnesses"),
                     ("pmas.py", "CoverSystem"),
                     ("pmas.py", "_RuleTableScheme"), ("pmas.py", "check_pi_star"),
                     ("pmas.py", "recognize_population_monotonic")]
    # outside the cover system and its schemes, watch masks, selected vertices and
    # payments are read from the graph's structure, never from a cover system
    found = sorted({(name, owner, obj) for name, tree in trees.items()
                    for owner, obj, _ in attribute_reads(tree, {"watch", "select", "pays"})
                    if owner not in ("CoverSystem", "_RuleTableScheme")})
    assert found == [("graph.py", "_charged", "structure"),
                     ("graph.py", "_structural_witnesses", "structure"),
                     ("pmas.py", "check_pi_star", "structure")]


def test_attribute_read_scan_sees_each_form():
    text = ("x = cover.watch\n"
            "def f(cover, s):\n    s.watch = cover.pays[0]\n    return s.graph._structure.select\n"
            "class C:\n    def h(self):\n        self.watch = 1\n        return self.watch\n")
    assert list(attribute_reads(ast.parse(text), {"watch", "select", "pays"})) == [
        (None, "cover", "watch"), ("f", "s.graph._structure", "select"), ("f", "cover", "pays"),
        ("C", "self", "watch")]


def test_preference_and_cost_tables_are_read_in_one_place():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    # a preference system's checked orders are private; the library never reads the
    # public copy, and only the system, deferred acceptance and the scan read its ranks
    assert [read for tree in trees.values() for read in attribute_reads(tree, {"orders"})] == []
    found = sorted({(name, owner) for name, tree in trees.items()
                    for owner in referrers(tree, "_rank")}, key=str)
    assert found == [("matching.py", "PreferenceSystem"), ("matching.py", "gale_shapley"),
                     ("matching.py", "is_stable")]
    # a game's cost table is read in place only by the game and check_dual_optimal;
    # everything else takes cost_table()'s copy (AllocationScheme's _table is its own rows)
    found = sorted({(name, owner, obj) for name, tree in trees.items()
                    for owner, obj, _ in attribute_reads(tree, {"_table"})}, key=str)
    assert found == [("game.py", "VertexCoverGame", "self"), ("pmas.py", "AllocationScheme", "self"),
                     ("pmas.py", "check_dual_optimal", "game")]


def innermost_reads(tree: ast.AST, names, owner=None):
    """(function, name) for every load of one of names as a name or an attribute,
    by the innermost function around it (None outside every function)."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, FUNCTIONS):
            yield from innermost_reads(node, names, node.name)
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in names:
            yield owner, node.id
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and node.attr in names):
            yield owner, node.attr
        yield from innermost_reads(node, names, owner)


def test_scheme_rows_and_allocation_ownership_are_each_decided_once():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    # _payments checks the keys and payments of every scheme row and core allocation;
    # only it and the dual checks' own profile (kept inline for speed) call _exact_payment
    found = sorted((name, owner) for name, tree in trees.items()
                   for owner in callers(tree, "_exact_payment"))
    assert found == [("game.py", "_payments"), ("pmas.py", "_scaled_profile")]
    assert not any("_require_int_keys" in path.read_text(encoding="utf-8") for path in SOURCES)
    # _payments alone decides whether a row is indexed by its coalition's members, and
    # the scheme readers leave that to it
    phrase = "is not indexed by its members"
    assert sum(path.read_text(encoding="utf-8").count(phrase) for path in SOURCES) == 1
    found = [(name, func.name) for name, tree in trees.items() for func in ast.walk(tree)
             if isinstance(func, FUNCTIONS) and phrase in ast.unparse(func)]
    assert found == [("game.py", "_payments")]
    found = {owner for tree in trees.values() for owner, _ in innermost_reads(tree, {"keys"})}
    assert not found & {"_rows", "preferences_from_scheme"}
    # one helper decides whether allocation() is a class's own
    found = [(name, *read) for name, tree in trees.items()
             for read in innermost_reads(tree, {"vars", "__func__"})]
    assert found == [("pmas.py", "_answers_as", "vars")]


def test_innermost_read_scan_sees_each_form():
    text = ("x = vars(y)\n"
            "def f(a):\n    return a.__func__\n"
            "class C:\n    def h(self):\n"
            "        def g():\n            return vars(self)\n"
            "        return g, vars\n")
    assert list(innermost_reads(ast.parse(text), {"vars", "__func__"})) == [
        (None, "vars"), ("f", "__func__"), ("g", "vars"), ("h", "vars")]


def test_each_subcommand_is_declared_once():
    # one table gives the parser and the dispatch each subcommand; a string equal to a
    # subcommand name elsewhere in cli.py (but as a key of a JSON document built inside
    # a function) would be a second declaration
    tree = ast.parse(Path(vcgame.cli.__file__).read_text(encoding="utf-8"))
    document_keys = {id(key) for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
                     for node in ast.walk(func) if isinstance(node, ast.Dict) for key in node.keys}
    names = Counter(node.value for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and node.value in vcgame.cli.COMMANDS
                    and id(node) not in document_keys)
    assert list(vcgame.cli.COMMANDS) == ["classify", "game-info", "construct", "verify",
                                         "enumerate", "count", "stable-match"]
    assert names == Counter(list(vcgame.cli.COMMANDS))

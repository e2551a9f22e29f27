"""Every public name in src/prismlab is reached by something other than its
own tests, and every name a module imports is used in that module.

A public module-level function or class, or a public method, is reached
when src/prismlab (outside its own definition) or perfbench/*.py refers to
it as a name, an attribute or an imported name, or when it is a verify
suite registered with @suite.  Docstrings, comments and strings do not
count.  A method is matched by its bare name, so any `x.add` reaches every
`add`.  Names that only tests reach, and stay on purpose, are in KEEP,
each with the test that uses it and the reason it stays.

Only `ast` features of Python 3.10 are used.
"""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "prismlab"
BENCH = ROOT / "perfbench"

# "module.name" or "module.Class.method" -> (test, reason)
KEEP = {
    "intpoly.int_mul_rational": (
        "tests/test_intpoly.py::test_int_mul_matches_rational_oracle",
        "the rational oracle that int_mul is compared against"),
    "witt.bj_to_witt": (
        "tests/test_witt.py::test_bj_roundtrip_over_z",
        "the other half of the witt_to_bj round trip"),
    "witt.from_ghost_big": (
        "tests/test_witt.py::test_big_roundtrip",
        "the other half of the big ghost map round trip"),
    "cartier_witt.embed_R": (
        "tests/test_cartier_witt.py::test_embed_R_integer_points",
        "a paper map that only tier-1 states; a verify check would change "
        "the check counts the benchmark pins"),
    "fgl.phi_q_hom": (
        "tests/test_fgl.py::test_phi_q_hom_passes",
        "a paper map that only tier-1 states; a verify check would change "
        "the check counts the benchmark pins"),
    "derham.generic_vector": (
        "tests/test_bounded_lift.py::"
        "test_generic_vector_runs_on_the_lift_and_matches_the_tables",
        "a test input: the generic Witt vector over an F_p series ring"),
    "harness.strip_elapsed": (
        "tests/test_harness.py::test_golden_report",
        "a report tool: compares reports apart from their timings"),
}

# modules whose `# noqa: F401` imports re-export names they do not use
REEXPORTERS = {"derham", "cartier_witt"}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _modules():
    return {p.stem: _parse(p) for p in sorted(SRC.glob("*.py"))}


def _refs(tree):
    """Counts of the names, attribute names and imported names under
    tree."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
    return out


def _is_suite(node):
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "suite" for d in node.decorator_list)


def _public_defs(modules):
    """(qualified name, def node) of each public module-level function or
    class and each public method."""
    out = []
    for mod, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                out.append(("%s.%s" % (mod, node.name), node))
            if isinstance(node, ast.ClassDef):
                out.extend(("%s.%s.%s" % (mod, node.name, m.name), m)
                           for m in node.body
                           if isinstance(m, ast.FunctionDef)
                           and not m.name.startswith("_"))
    return out


def _unreached():
    modules = _modules()
    src = sum((_refs(tree) for tree in modules.values()), Counter())
    bench = sum((_refs(_parse(p)) for p in BENCH.glob("*.py")), Counter())
    out = []
    for qual, node in _public_defs(modules):
        if node.name in bench or (isinstance(node, ast.FunctionDef)
                                  and _is_suite(node)):
            continue
        if src[node.name] == _refs(node)[node.name]:
            out.append(qual)
    return out


def test_every_public_name_is_reached():
    stray = [q for q in _unreached() if q not in KEEP]
    assert not stray, (
        "public names that only tests reach; delete them, call them from "
        "the library, or add them to KEEP with a reason: %s" % stray)


def test_keep_list_names_live_tests_of_unreached_names():
    unreached = set(_unreached())
    for qual, (test, reason) in KEEP.items():
        assert qual in unreached, "%s is reached now; drop it from KEEP" % qual
        assert reason
        path, name = test.split("::")
        tests = {n.name for n in _parse(ROOT / path).body
                 if isinstance(n, ast.FunctionDef)}
        assert name in tests, "%s names no test" % test


def test_every_import_is_used():
    unused = {}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            if any("# noqa: F401" in line
                   for line in lines[node.lineno - 1:node.end_lineno]):
                assert path.stem in REEXPORTERS, (
                    "%s: a re-export outside %s" % (path.name, REEXPORTERS))
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.setdefault(path.name, []).append(bound)
    assert not unused, "imported but unused: %s" % unused

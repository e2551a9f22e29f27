"""Every name a module of src/prismlab imports is used there, and the
accounting of tests/census.py is right (no profiler; Python 3.10 `ast`)."""
import ast
import re

import census

# modules whose `# noqa: F401` imports re-export names they do not use
REEXPORTERS = {"derham", "cartier_witt"}

LIB = {"lib": ast.parse(
    "class A:\n"
    "    def verify(self): pass\n"
    "class B:\n"
    "    def verify(self): pass\n"
    "class Unnamed(Exception): pass\n"
    "class Raised(Exception): pass\n"
    "def check():\n"
    "    raise Raised\n"
    "def _helper(): pass\n")}


def test_census_counts_the_methods_that_ran_not_their_names():
    # "lib.B" is B's class body, which runs at import: no method of B ran
    ran = {"lib.A.verify", "lib.B", "lib.check"}
    assert census.unreached(ran, LIB) == ["lib.B", "lib.B.verify",
                                          "lib.Unnamed"]


def test_census_fails_on_stale_and_unreasoned_keep_entries():
    keep = {"lib.A.verify": "ran after all", "lib.B.verify": " "}
    assert census.problems({"lib.A.verify"}, LIB, keep) == [
        "never runs: lib.B", "never runs: lib.Unnamed",
        "never runs: lib.check", "KEEP entry runs or is gone: lib.A.verify",
        "KEEP entry gives no reason: lib.B.verify"]


def test_census_keep_list_names_live_tests():
    for qual, why in census.KEEP.items():
        tests = re.findall(r"(tests/\w+\.py)::(\w+)", why)
        assert tests, "%s: the reason names no test" % qual
        for path, name in tests:
            tree = ast.parse((census.ROOT / path).read_text())
            assert name in {n.name for n in tree.body
                            if isinstance(n, ast.FunctionDef)}, (qual, name)


def test_every_import_is_used():
    unused = {}
    for path in sorted(census.SRC.glob("*.py")):
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

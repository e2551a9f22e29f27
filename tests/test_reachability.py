"""Every public name in src/prismlab is reached by something other than its
own tests, and every name a module imports is used in that module.

A public module-level function or class f of module M is reached when M
refers to f outside f's own definition, when a module of src/prismlab or a
perfbench/*.py file imports f from M or refers to `M.f`, or when f is a
verify suite registered with @suite.

A public method m is reached when src/prismlab (outside m's own definition)
or perfbench/*.py reads an attribute `x.m`.  The receiver x is resolved to
a class C when it is `self` or `cls` in a method of C, the name of C, a
parameter annotated with C, or a local that its function binds only by
calls to C or to functions whose return annotation names C.  Then `x.m`
reaches the m that C inherits and every override of m in a subclass of C.
An unresolved receiver reaches every method named m.

Docstrings, comments and strings do not count.  Names that only tests
reach, and stay on purpose, are in KEEP, each with the test that uses it
and the reason it stays.

Only `ast` features of Python 3.10 are used.
"""
import ast
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

PKG = "prismlab"
DEFS = (ast.FunctionDef, ast.ClassDef)


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _modules():
    return {p.stem: _parse(p) for p in sorted(SRC.glob("*.py"))}


def _imports(tree):
    """(bound name, module, name) of each import of a prismlab module
    anywhere under tree; name is None when the module itself is bound."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                base = node.module
            elif node.level == 0 and (node.module or "").split(".")[0] == PKG:
                base = node.module.partition(".")[2] or None
            else:
                continue
            for alias in node.names:
                if base is None:
                    yield alias.asname or alias.name, alias.name, None
                else:
                    yield alias.asname or alias.name, base, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name.startswith(PKG + "."):
                    yield alias.asname, alias.name.partition(".")[2], None


def _namespaces(modules):
    """name -> key in each module: "M.f" or "M.C" for a module-level
    function or class that it defines or imports (through re-exports
    too), "M" for an imported module."""
    ns = {mod: {n.name: "%s.%s" % (mod, n.name)
                for n in tree.body if isinstance(n, DEFS)}
          for mod, tree in modules.items()}
    pending = [(mod, imp) for mod, tree in modules.items()
               for imp in _imports(tree)]
    while True:
        left = []
        for mod, (bound, base, name) in pending:
            key = base if name is None else ns.get(base, {}).get(name)
            if key is None:
                left.append((mod, (bound, base, name)))
            else:
                ns[mod][bound] = key
        if len(left) == len(pending):
            return ns
        pending = left


class _Program:
    """The classes of src/prismlab (class key -> its bases, and -> the
    names of its methods) and the class each annotated function returns."""

    def __init__(self, modules, ns):
        self.ns = ns
        self.bases, self.classes, self.returns = {}, {}, {}
        for mod, tree in modules.items():
            for node in tree.body:
                key = "%s.%s" % (mod, getattr(node, "name", None))
                if isinstance(node, ast.ClassDef):
                    self.bases[key] = [self.key(b, ns[mod])
                                       for b in node.bases]
                    self.classes[key] = {m.name for m in node.body
                                         if isinstance(m, ast.FunctionDef)}
                elif isinstance(node, ast.FunctionDef):
                    self.returns[key] = self.annotated(node.returns, ns[mod])

    def key(self, node, ns):
        """The key a name or a `module.name` attribute refers to in ns."""
        if isinstance(node, ast.Name):
            return ns.get(node.id)
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name):
            mod = ns.get(node.value.id)
            if mod in self.ns:
                return "%s.%s" % (mod, node.attr)
        return None

    def annotated(self, node, ns):
        """The class an annotation names, as a set, or None."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            key = ns.get(node.value)
        else:
            key = self.key(node, ns)
        return frozenset([key]) if key in self.classes else None

    def mro(self, cls):
        out = [cls]
        for base in filter(None, self.bases.get(cls, ())):
            out += [c for c in self.mro(base) if c not in out]
        return out

    def targets(self, classes, name):
        """The methods `x.name` can run when x is an instance of one of
        classes: the definition each inherits, and every override in a
        subclass."""
        out = set()
        for cls in classes:
            out.update(next(([c] for c in self.mro(cls)
                             if name in self.classes.get(c, ())), []))
            out.update(c for c, names in self.classes.items()
                       if name in names and cls in self.mro(c))
        return {"%s.%s" % (c, name) for c in out}


def _local_bindings(fn):
    """(name, value) of each name bound in fn's own scope; value is the
    expression of a plain `name = value` or `name := value`, else None.
    Imports are left out: they bind what the module's namespace holds."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, None
            continue
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            yield node.targets[0].id, node.value
            stack.append(node.value)
            continue
        if isinstance(node, ast.NamedExpr):
            yield node.target.id, node.value
            stack.append(node.value)
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id, None
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            for name in node.names:
                yield name, None
        elif isinstance(node, ast.ExceptHandler) and node.name:
            yield node.name, None
        stack.extend(ast.iter_child_nodes(node))


class _Reader(ast.NodeVisitor):
    """The references of one file: each (key, origin) of a module-level
    name, and each (classes, name, origin) of an attribute read on a
    receiver of those classes (None when unresolved).  The origin is the
    key of the module-level function or method the reference sits in."""

    def __init__(self, program, ns, module=None):
        self.program, self.ns, self.module = program, ns, module
        self.scopes = []        # name -> frozenset of class keys, or None
        self.owner = None       # the class key of the methods being read
        self.origin = None
        self.names, self.attrs = [], []

    def lookup(self, name):
        for scope in reversed(self.scopes):
            if name in scope:
                return True, scope[name]
        return False, None

    def key(self, node):
        """The key node refers to, unless its name is a local."""
        name = node.value if isinstance(node, ast.Attribute) else node
        if isinstance(name, ast.Name) and self.lookup(name.id)[0]:
            return None
        return self.program.key(node, self.ns)

    def receiver(self, node):
        """The classes node is an instance of, a module name, or None."""
        if isinstance(node, ast.Name):
            local, classes = self.lookup(node.id)
            if local:
                return classes
        key = self.key(node)
        if key in self.program.ns:
            return key
        return frozenset([key]) if key in self.program.classes else None

    def called(self, node):
        """The classes the call node returns an instance of, or None."""
        if not isinstance(node, ast.Call):
            return None
        key = self.key(node.func)
        if key in self.program.classes:
            return frozenset([key])
        return self.program.returns.get(key)

    def visit_ClassDef(self, node):
        for child in node.bases + node.keywords + node.decorator_list:
            self.visit(child)
        saved = self.owner, self.origin
        if self.module and not self.scopes and self.owner is None:
            self.owner = self.origin = "%s.%s" % (self.module, node.name)
        else:
            self.owner = None
        for child in node.body:
            self.visit(child)
        self.owner, self.origin = saved

    def visit_FunctionDef(self, node):
        self.function(node)

    visit_AsyncFunctionDef = visit_Lambda = visit_FunctionDef

    def function(self, node):
        args = node.args
        params = (args.posonlyargs + args.args + args.kwonlyargs
                  + [a for a in (args.vararg, args.kwarg) if a])
        for child in (args.defaults + [d for d in args.kw_defaults if d]
                      + getattr(node, "decorator_list", [])
                      + [a.annotation for a in params if a.annotation]
                      + [getattr(node, "returns", None)]):
            if child is not None:
                self.visit(child)
        scope = {}
        param_names = {a.arg for a in params}
        for a in params:
            if self.owner and a.arg in ("self", "cls"):
                scope[a.arg] = frozenset([self.owner])
            else:
                scope[a.arg] = self.program.annotated(a.annotation, self.ns)
        saved = self.owner, self.origin
        if self.module and not self.scopes \
                and not isinstance(node, ast.Lambda):
            self.origin = "%s.%s" % (self.origin or self.module, node.name)
        self.owner = None
        self.scopes.append(scope)
        body = node.body if isinstance(node.body, list) else [node.body]
        if not isinstance(node, ast.Lambda):
            values = {}
            for name, value in _local_bindings(node):
                values.setdefault(name, []).append(value)
            scope.update(dict.fromkeys(values))
            for name, vals in values.items():
                found = [self.called(v) for v in vals]
                if name not in param_names and None not in found:
                    scope[name] = frozenset().union(*found)
        for child in body:
            self.visit(child)
        self.scopes.pop()
        self.owner, self.origin = saved

    def visit_Name(self, node):
        key = self.key(node) if isinstance(node.ctx, ast.Load) else None
        if key is not None:
            self.names.append((key, self.origin))

    def visit_Attribute(self, node):
        recv = self.receiver(node.value)
        if isinstance(recv, str):
            self.names.append(("%s.%s" % (recv, node.attr), self.origin))
        else:
            self.attrs.append((recv, node.attr, self.origin))
        self.visit(node.value)

    def visit_ImportFrom(self, node):
        for bound, base, name in _imports(node):
            if name is not None:
                self.names.append((self.ns.get(bound) or
                                   "%s.%s" % (base, name), self.origin))


def _is_suite(node):
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "suite" for d in node.decorator_list)


def _public_defs(modules):
    """(qualified name, def node) of each public module-level function or
    class and each public method."""
    out = []
    for mod, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, DEFS):
                continue
            if not node.name.startswith("_"):
                out.append(("%s.%s" % (mod, node.name), node))
            if isinstance(node, ast.ClassDef):
                out.extend(("%s.%s.%s" % (mod, node.name, m.name), m)
                           for m in node.body
                           if isinstance(m, ast.FunctionDef)
                           and not m.name.startswith("_"))
    return out


def _unreached(modules=None, bench=None):
    """The public names of modules (module name -> tree; src/prismlab by
    default) that neither they nor the bench trees (perfbench/*.py by
    default) reach."""
    if modules is None:
        modules = _modules()
        bench = [_parse(p) for p in sorted(BENCH.glob("*.py"))]
    ns = _namespaces(modules)
    program = _Program(modules, ns)
    readers = []
    for mod, tree in modules.items():
        readers.append(_Reader(program, ns[mod], mod))
        readers[-1].visit(tree)
    for tree in bench:
        readers.append(_Reader(program, {
            bound: base if name is None else ns[base].get(name)
            for bound, base, name in _imports(tree)}))
        readers[-1].visit(tree)
    by_name = {}
    for cls, names in program.classes.items():
        for name in names:
            by_name.setdefault(name, set()).add("%s.%s" % (cls, name))
    origins = {}        # key -> the origins of the references that reach it
    for r in readers:
        for key, origin in r.names:
            origins.setdefault(key, set()).add(origin)
        for classes, name, origin in r.attrs:
            keys = (by_name.get(name, ()) if classes is None
                    else program.targets(classes, name))
            for key in keys:
                origins.setdefault(key, set()).add(origin)
    return [qual for qual, node in _public_defs(modules)
            if not (isinstance(node, ast.FunctionDef) and _is_suite(node))
            and all(o == qual or (o or "").startswith(qual + ".")
                    for o in origins.get(qual, ()))]


def test_every_public_name_is_reached():
    stray = [q for q in _unreached() if q not in KEEP]
    assert not stray, (
        "public names that only tests reach; delete them, call them from "
        "the library, or add them to KEEP with a reason: %s" % stray)


def test_receivers_tell_methods_apart():
    lib = ast.parse(
        "class A:\n"
        "    def verify(self): pass\n"
        "    def run(self): return self.verify()\n"
        "class B:\n"
        "    def verify(self): pass\n"
        "    def check(self): pass\n"
        "class S(A):\n"
        "    def run(self): pass\n"
        "class D:\n"
        "    def verify(self): pass\n"
        "    def check(self): pass\n"
        "def make() -> 'B':\n"
        "    return B()\n"
        "def adams(x):\n"
        "    return adams(x)\n"
        "def use(a: A, x):\n"
        "    b = make()\n"
        "    b.verify()\n"
        "    a.run()\n"
        "    x.check()\n"
        "    return D\n")
    other = ast.parse("def adams(x):\n    return x\n")
    bench = [ast.parse("from prismlab import lib\nlib.use(adams, 1)\n")]
    # S.run overrides the A.run that `a.run()` reaches; `x.check()` has
    # an unresolved receiver; `adams` in the bench reaches neither adams
    assert _unreached({"lib": lib, "other": other}, bench) == [
        "lib.S", "lib.D.verify", "lib.adams", "other.adams"]


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

"""Certify by execution: every public function, method and class of
src/prismlab runs under `verify` or a benchmark workload, or KEEP says why.

    PYTHONPATH=src python tests/census.py     # Python 3.11+ (co_qualname)

With `sys.setprofile` set before prismlab is imported, it runs `verify
--suite all --trials 1`, `verify --list` and round 0 at seed 0 of each
perfbench workload, and records the "module.qualname" of each code object of
src/prismlab that runs.  It exits 1 on a failing command or task, on a
public name that never runs and is not in KEEP, and on a KEEP entry that
runs (or is gone) or gives no reason.  pytest does not collect this file.
"""
import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "prismlab"
WORKLOADS = ("witt_tables", "qdeform", "derham_modp", "verify_cli")
RING = "tests/test_ringcore.py::test_ring_protocol_defaults: "
LIFT = ("tests/test_bounded_lift.py::test_generic_vector_runs_on_the_lift_"
        "and_matches_the_tables: ")

# name -> why it stays although no verify command and no workload runs it,
# naming a test that runs it
KEEP = {
    **dict.fromkeys(["ringcore.Ring." + m for m in (
        "add", "neg", "mul", "from_int", "rand")],
        RING + "the Ring protocol's abstract arithmetic"),
    "ringcore.Ring.div_int_exact": RING + "the Ring protocol's default, "
        "no division",
    "ringcore.RatRing.from_rational": RING + "the identity, the image of Q "
        "in itself",
    "ringcore.RatRing.neg": "tests/test_ringcore.py::test_ring_basics: the "
        "Ring protocol's negation over Q, which Ring.sub and the negation of "
        "a series over Q go through; the rings over Q negate numerators",
    "ringcore.IntRing.rand": "tests/test_ghost_dispatch.py::test_bigwitt_"
        "ghost_map_is_a_ring_map: a test input",
    "qhopf.B0Ring.rand": "tests/test_qhopf.py::test_b0ring_protocol: a test "
        "input",
    **dict.fromkeys(["derham.generic_vector"] + [
        "ringcore.SeriesCoeffRing." + m for m in (
            "add", "neg", "div_int_exact")],
        LIFT + "a test input, the generic Witt vector, and its ring"),
    "ringcore.SeriesCoeffRing.from_rational": "tests/test_witt_ghost.py::"
        "test_universal_fallback_matches_integral_ghosts: maps the generic "
        "vector's ring down from its lift",
    "intpoly.int_mul_rational": "tests/test_intpoly.py::test_int_mul_matches_"
        "rational_oracle: the oracle that int_mul is compared against",
    "derham.one_plus_p_x": "perfbench/test_perfbench.py::test_tracer_"
        "rebinds_and_restores and tests/test_derham.py::test_unit_map_"
        "matches_one_plus_p_x: 1 + px by witt_op and scalar_mul, the "
        "step-by-step reference for GdRPoint.unit; the tracer test reads "
        "its spans",
    "witt.bj_to_witt": "tests/test_witt.py::test_bj_roundtrip_over_z: the "
        "other half of the witt_to_bj round trip",
    "witt.from_ghost_big": "tests/test_witt.py::test_big_roundtrip: the "
        "other half of the big ghost map round trip",
    "witt.bigwitt_mul": "tests/test_ghost_dispatch.py::test_bigwitt_ghost_"
        "map_is_a_ring_map: the W_big product; a verify check would change "
        "the report digests and check counts that the benchmark pins",
    "cartier_witt.embed_R": "tests/test_cartier_witt.py::test_embed_R_"
        "integer_points: a paper map; a check would change pinned counts",
    "fgl.phi_q_hom": "tests/test_fgl.py::test_phi_q_hom_passes: a paper "
        "map; a check would change pinned counts",
    "harness.strip_elapsed": "tests/test_harness.py::test_golden_report: "
        "compares reports apart from their timings",
}


def modules():
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def unreached(ran, trees):
    """The public names of trees (module name -> ast) that did not run (ran
    holds "module.qualname").  A class runs when one of its methods does;
    a class without methods counts when trees name it."""
    named = {getattr(n, "id", getattr(n, "attr", None))
             for tree in trees.values() for n in ast.walk(tree)}
    out = []
    for mod, tree in trees.items():
        for node in tree.body:
            qual = "%s.%s" % (mod, getattr(node, "name", ""))
            if isinstance(node, ast.FunctionDef) and qual not in ran:
                out.append(qual)
            elif isinstance(node, ast.ClassDef):
                methods = ["%s.%s" % (qual, m.name) for m in node.body
                           if isinstance(m, ast.FunctionDef)]
                if not (any(r.startswith(qual + ".") for r in ran)
                        if methods else node.name in named):
                    out.append(qual)
                out += [m for m in methods if m not in ran]
    return [q for q in out if not q.rpartition(".")[2].startswith("_")]


def problems(ran, trees, keep):
    """What the census fails on, one line each."""
    stray = unreached(ran, trees)
    return (["never runs: " + q for q in stray if q not in keep]
            + ["KEEP entry runs or is gone: " + q
               for q in keep if q not in stray]
            + ["KEEP entry gives no reason: " + q
               for q, why in keep.items() if not why.strip()])


def record():
    """The "module.qualname" of each code object of src/prismlab that runs,
    and the commands and tasks that fail."""
    codes, failed = set(), []

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.setprofile(profile)
    try:
        from prismlab import harness
        import workloads
        with contextlib.redirect_stdout(io.StringIO()), \
                tempfile.TemporaryDirectory() as tmp:
            for argv in (["--suite", "all", "--trials", "1"], ["--list"]):
                if harness.main(argv):
                    failed.append("verify " + " ".join(argv))
            for w in WORKLOADS:
                for task in workloads.build_tasks(
                        w, workloads.make_inputs(w, 0, 0), tmp):
                    if not task.run()[0]:
                        failed.append("%s: %s" % (w, task.label))
    finally:
        sys.setprofile(None)
    return {"%s.%s" % (Path(c.co_filename).stem, c.co_qualname) for c in codes
            if Path(c.co_filename).resolve().parent == SRC}, failed


if __name__ == "__main__":
    ran, failed = record()
    out = ["fails: " + f for f in failed] + problems(ran, modules(), KEEP)
    print("\n".join(out) or "census: every public name runs or is in KEEP")
    sys.exit(1 if out else 0)

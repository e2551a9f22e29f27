"""Every name a module of src/prismlab imports is used there, the library
has one set of exception classes, each raised where its rule says, and the
accounting of tests/census.py is right (no profiler; Python 3.10 `ast`)."""
import ast
import importlib
import re
from fractions import Fraction

import pytest

import census
from prismlab import cartier_witt, derham, fgl, pd_dual, qprism, witt
from prismlab.ringcore import (
    BoundExceeded, CyclotomicRing, DomainError, ExactInt, IdentityFailed,
    IntModRing, ModP, NotIntegral, PrismlabError, QPoly, QSeriesRing,
    TruncSeries, _padic_profile, padic_log, q_element,
)
from test_bounded_lift import Opaque

KINDS = {DomainError, NotIntegral, BoundExceeded, IdentityFailed}

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
        tree = ast.parse(path.read_text())
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.setdefault(path.name, []).append(bound)
    assert not unused, "imported but unused: %s" % unused


def test_one_set_of_exception_classes():
    # the exception classes src/prismlab defines: four kinds under one
    # base, all in ringcore, plus the CLI's exit-2 signal; a module holds a
    # library error only where it raises or catches it: none re-exports one
    defined = set()
    for path in sorted(census.SRC.glob("*.py")):
        module = importlib.import_module("prismlab." + path.stem)
        tree = ast.parse(path.read_text())
        defined |= {"%s.%s" % (path.stem, node.name) for node in tree.body
                    if isinstance(node, ast.ClassDef) and issubclass(
                        getattr(module, node.name), BaseException)}
        held = {name for name, obj in vars(module).items()
                if isinstance(obj, type) and issubclass(obj, PrismlabError)}
        if path.stem != "ringcore":
            used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            assert held <= used, (path.name, held - used)
    assert defined == {"ringcore." + c.__name__ for c in KINDS} | {
        "ringcore.PrismlabError", "harness.ConfigError"}
    assert all(c.__bases__ == (PrismlabError,) for c in KINDS)


# the defs of src/prismlab that take p^n_p as a loose int: the ring
# constructors, the three entry points perfbench/workloads.py calls with
# (p, n_p, n_q), the canonical family whose memos those three ints key, and
# the box check and coefficient helpers those use; every other function
# reads p, n_p and n_q from its ring with ringcore._padic_profile
LOOSE_N_P = {
    "ringcore.ModP", "ringcore.QSeriesRing", "ringcore.CyclotomicRing",
    "qprism.canonical_point", "qprism.r0_relation_check",
    "qprism.q_exp_agreement", "qprism.q_exponential", "qprism._phi_series",
    "qprism._canonical_construction", "qprism.derham_specialization_of_x0",
    "qprism.bh_in_box", "qprism._lambda_cut", "derham._integer_coeffs",
    "derham._series_coeffs",
}


def test_one_precision_object_on_the_p_side():
    taking = {}
    for path in sorted(census.SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                taking["%s.%s" % (path.stem, node.name)] = {
                    x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
    assert {name for name, args in taking.items()
            if "n_p" in args} == LOOSE_N_P
    # none of them also takes the ring that would know n_p
    assert not [name for name in LOOSE_N_P
                if taking[name] & {"ring", "R", "C", "base"}]


def test_one_trial_loop():
    # Recorder.trials runs every randomized check's trials: no def of
    # src/prismlab outside the harness takes a trial count
    taking = ["%s.%s" % (path.stem, node.name)
              for path in sorted(census.SRC.glob("*.py"))
              if path.stem != "harness"
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and "trials" in {a.arg for a in node.args.posonlyargs +
                               node.args.args + node.args.kwonlyargs}]
    assert taking == []


@pytest.mark.parametrize("ring", [QSeriesRing(4), CyclotomicRing(3)],
                         ids=["Z[q]/(q-1)^4", "Z[zeta_3]"])
@pytest.mark.parametrize("call", [
    qprism.q_log_of_sigma, lambda r: qprism.equivariance_report(r, 2, 3),
    lambda r: qprism.hodge_tate_check(r, 3), pd_dual.log_mu_p_vanishes],
    ids=["q_log_of_sigma", "equivariance_report", "hodge_tate_check",
         "log_mu_p_vanishes"])
def test_ring_taking_checks_refuse_a_ring_with_no_p_adic_modulus(ring, call):
    # the three qprism checks read p (and n_p) with _padic_profile before
    # anything else; log(zeta) over a torsion-free ring stops at padic_log's
    # own guard, with the same reason
    with pytest.raises(DomainError, match="carries no p-adic modulus") as err:
        call(ring)
    assert err.traceback[-1].name == (
        "padic_log" if call is pd_dual.log_mu_p_vanishes else "_padic_profile")


def _series(ring, coeffs, order=3):
    return TruncSeries(ring, ("z",), {(n,): c for n, c in coeffs.items()},
                       order)


def _not_eigen():
    return witt.WittVector(ModP(2, 4), 2, [1, 0, 0])  # Fy != py


def _q_log_of_unit_one_plus_h(monkeypatch):
    # log(1 + h) (h / log(1 + h)) / 3 = h / 3 is not 3-integral
    monkeypatch.setattr(qprism, "gq_to_unit", lambda a: (1, 1))
    ring = QSeriesRing(4, p=3, n_p=4)
    qprism.q_log(qprism.GQPoint(witt.zero_vector(ring, 3, 2), check=False))


# sites whose raise names its kind by the rule of ringcore's docstrings
MISFILED = {
    "BigWitt.from_series": (DomainError, lambda mp: witt.BigWitt.from_series(
        _series(ExactInt(), {0: 2, 1: 1}))),
    "padic_log": (DomainError, lambda mp: padic_log(_series(
        CyclotomicRing(3), {0: q_element(CyclotomicRing(3))}, 2))),
    "_padic_profile": (DomainError, lambda mp: _padic_profile(
        IntModRing(25))),
    "witt.torsion": (DomainError, lambda mp: witt.ghost(
        witt.WittVector(ModP(3, 4), 3, [1, 2]))),
    "witt.no_bounded_lift": (DomainError, lambda mp: witt.ghost_combine(
        (witt.WittVector(Opaque(), 2, [0, 0]),), lambda r, g: g[0])),
    "MultHomSeries": (DomainError, lambda mp: cartier_witt.MultHomSeries(
        _series(ExactInt(), {0: 2, 1: 1}), "R")),
    "embed_R": (DomainError, lambda mp: cartier_witt.embed_R(
        cartier_witt.universal_pairing(2))),
    "embed_G_I": (DomainError, lambda mp: cartier_witt.embed_G_I(
        cartier_witt.MultHomSeries(_series(ExactInt(), {0: 1}), "R"))),
    "embed_G_II": (DomainError, lambda mp: cartier_witt.embed_G_II(
        cartier_witt.MultHomSeries(_series(ExactInt(), {0: 1}), "R"))),
    "FGLHom": (DomainError, lambda mp: fgl.FGLHom(
        _series(QPoly(), {0: QPoly().one}), fgl.additive_law(QPoly(), 3),
        fgl.additive_law(QPoly(), 3))),
    "g_exp": (DomainError, lambda mp: derham.g_exp(_not_eigen())),
    "id_minus_V": (DomainError, lambda mp: derham.id_minus_V(_not_eigen())),
    "derham._integer_coeffs": (NotIntegral, lambda mp: derham._integer_coeffs(
        lambda n: Fraction(1, 3), 3, 4, 2)),
    "q_log": (NotIntegral, _q_log_of_unit_one_plus_h),
    "_lambda_series": (NotIntegral, lambda mp: qprism._lambda_series(
        CyclotomicRing(3), 2)),
    "zp_action": (NotIntegral, lambda mp: qprism.zp_action(
        QSeriesRing(4, p=3, n_p=4), 3, 3)),
    "cartier_witt._basis_at_mt": (NotIntegral, lambda mp:
                                  cartier_witt._basis_at_mt(2, Fraction(1, 2))),
    "witt._pk_unpack": (IdentityFailed, lambda mp: witt._pk_unpack(
        {4: 1}, 2, 3, 3)),
    "witt._pk_unpack.bytes": (IdentityFailed, lambda mp: witt._pk_unpack(
        {1 << 16: 1}, 2, 8, 125)),
    "witt._pk_mul": (IdentityFailed, lambda mp: witt._pk_mul(
        {4: 1}, {1: 1}, 0b100100)),
}


@pytest.mark.parametrize("site", MISFILED)
def test_misfiled_sites_raise_their_kind(site, monkeypatch):
    kind, call = MISFILED[site]
    with pytest.raises(PrismlabError) as err:
        call(monkeypatch)
    assert type(err.value) is kind

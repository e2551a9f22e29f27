"""CLI entry point: configures precision, runs verification suites, and
emits machine-readable reports.

Every check carries a stable id and a reference tag; a run is deterministic
for a fixed (config, seed): randomized checks draw from per-check streams
derived by hashing the seed with the check id, so execution order never
matters.  The twelve acceptance criteria are named groups of suites
(CRITERIA): selecting `criteria.N`, `criteria` or `all` runs each member
suite once and adds one `criteria.N` check that passes exactly when every
check of its members passed.  Exit code 0 means every check passed, 1 some
check failed, 2 configuration error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import sys
import time
from dataclasses import asdict, dataclass

from .ringcore import Prec

SCHEMA = "prismlab-report/1"


class ConfigError(Exception):
    pass


@dataclass
class SuiteConfig:
    suite: str = "all"
    p: int | None = None          # None: every prime in the suite's grid
    n_p: int = 8
    n_q: int = 8
    n_z: int = 8
    L: int = 4
    N_big: int = 12
    trials: int | None = None     # None: the suite's documented count
    seed: int = 0
    format: str = "text"
    out: str | None = None

    def primes(self, default=(2, 3)):
        return (self.p,) if self.p is not None else tuple(default)

    def count(self, default: int) -> int:
        return self.trials if self.trials is not None else default


def check_stream(seed: int, check_id: str) -> random.Random:
    """Independent, order-insensitive randomness per check."""
    digest = hashlib.blake2b(("%d:%s" % (seed, check_id)).encode(),
                             digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


def _check(checks, cid, ref, ok, detail=""):
    checks.append({"id": cid, "paper_ref": ref,
                   "status": "pass" if ok else "fail",
                   "detail": detail})
    return ok


# ---------------------------------------------------------------------------
# suites


def suite_ringcore_series(cfg, checks):
    from .ringcore import ExactInt, TruncSeries
    ref = "invented — artifact plumbing"
    Z = ExactInt()
    rng = check_stream(cfg.seed, "ringcore.series_arith")

    def rand_series():
        return TruncSeries(Z, ("z1", "z2"),
                           {(i, j): rng.randrange(-4, 5)
                            for i in range(3) for j in range(3)}, cfg.n_z)

    ok = True
    for _ in range(cfg.count(50)):
        a, b, c = rand_series(), rand_series(), rand_series()
        ok = ok and (a * b) * c == a * (b * c)
        ok = ok and a * (b + c) == a * b + a * c and a * b == b * a
    _check(checks, "ringcore.series_arith.axioms", ref, ok)
    z = TruncSeries.var(Z, ("z",), cfg.n_z, "z")
    one = TruncSeries.one(Z, ("z",), cfg.n_z)
    got = (one + z) * (one - z)
    want = one - z * z
    _check(checks, "ringcore.series_arith.sample", ref, got == want)
    ok = True
    for _ in range(max(1, cfg.count(50) // 5)):
        f = TruncSeries(Z, ("z",), {(n,): rng.randrange(-4, 5)
                                    for n in range(1, 5)}, cfg.n_z)
        g = TruncSeries(Z, ("z",), {(n,): rng.randrange(-4, 5)
                                    for n in range(1, 5)}, cfg.n_z)
        h = TruncSeries(Z, ("z",), {(n,): rng.randrange(-4, 5)
                                    for n in range(1, 5)}, cfg.n_z)
        ok = ok and f.compose(g).compose(h) == f.compose(g.compose(h))
    _check(checks, "ringcore.series_compose.assoc", ref, ok)
    return checks


def suite_ringcore_clear(cfg, checks):
    from fractions import Fraction
    from .ringcore import (ExactInt, ExactRat, ModP, NonIntegralCoefficient,
                           TruncSeries, clear_denominators)
    ref = "invented — artifact plumbing"
    Q = ExactRat()
    f = TruncSeries(Q, ("z",), {(3,): Fraction(4, 3)}, 4)
    got = clear_denominators(f, ModP(2, 4))
    _check(checks, "ringcore.clear_denominators.mod16", ref,
           got.coefficient((3,)) == 12)
    try:
        clear_denominators(TruncSeries(Q, ("z",), {(1,): Fraction(1, 2)}, 2),
                           ModP(2, 4))
        ok = False
    except NonIntegralCoefficient:
        ok = True
    _check(checks, "ringcore.clear_denominators.rejects", ref, ok)
    rng = check_stream(cfg.seed, "ringcore.clear")
    Z = ExactInt()
    ok = True
    for _ in range(cfg.count(50)):
        f = TruncSeries(Z, ("z",), {(n,): rng.randrange(-9, 10)
                                    for n in range(5)}, 4)
        ok = ok and clear_denominators(f.map_coeffs(Fraction, Q), Z) == f
    _check(checks, "ringcore.clear_denominators.roundtrip", ref, ok)
    return checks


def suite_ringcore_padic_log(cfg, checks):
    from .ringcore import (CyclotomicRing, QSeriesRing, TruncSeries,
                           padic_log, q_element)
    ref = "e:restriction of H_Q^alg"
    for p in cfg.primes((2, 3, 5)):
        C = CyclotomicRing(p, n_p=min(cfg.n_p, 6))
        u = TruncSeries.const(C, ("z",), 1, q_element(C))
        _check(checks, "ringcore.padic_log.zeta.p%d" % p, ref,
               padic_log(u).is_zero())
    rng = check_stream(cfg.seed, "ringcore.padic_log")
    p = 3
    R = QSeriesRing(4, p=p, n_p=4)
    ok = True
    for _ in range(cfg.count(20)):
        a = TruncSeries(R, ("z",), {
            (0,): R.one, (1,): R.make_ints([3 * rng.randrange(9)]),
            (2,): R.make_ints([0, 3 * rng.randrange(5)])}, 4)
        b = TruncSeries(R, ("z",), {
            (0,): R.one, (1,): R.make_ints([3 * rng.randrange(-4, 5)])}, 4)
        ok = ok and padic_log(a * b).eq(padic_log(a) + padic_log(b))
    _check(checks, "ringcore.padic_log.product_rule", ref, ok)
    return checks


def suite_witt_ghost(cfg, checks):
    from .ringcore import ExactInt
    from .witt import WittVector, from_ghost, ghost
    ref = "invented — artifact plumbing"
    Z = ExactInt()
    for p in cfg.primes((2, 3, 5)):
        rng = check_stream(cfg.seed, "witt.ghost.p%d" % p)
        ok = True
        for _ in range(cfg.count(1000)):
            w = WittVector(Z, p, [rng.randrange(-9, 10)
                                  for _ in range(min(cfg.L, 4))])
            ok = ok and from_ghost(Z, p, ghost(w)) == w
        _check(checks, "witt.ghost_roundtrip.p%d" % p, ref, ok)
    return checks


def suite_witt_universal(cfg, checks):
    from .ringcore import ExactInt
    from .witt import WittVector, witt_op, witt_op_universal
    ref = "invented — artifact plumbing"
    Z = ExactInt()
    for p in cfg.primes((2, 3, 5)):
        rng = check_stream(cfg.seed, "witt.universal.p%d" % p)
        L = min(cfg.L, 4)
        bound = 2 if p == 5 else 9
        ok = True
        for _ in range(cfg.count(1000)):
            a = WittVector(Z, p, [rng.randrange(-bound, bound + 1)
                                  for _ in range(L)])
            b = WittVector(Z, p, [rng.randrange(-bound, bound + 1)
                                  for _ in range(L)])
            for op in ("add", "mul"):
                ok = ok and witt_op_universal(a, b, op) == witt_op(a, b, op)
        _check(checks, "witt.universal_agreement.p%d" % p, ref, ok)
    return checks


def suite_witt_frobenius(cfg, checks):
    from .ringcore import ExactInt, QPoly, h_element
    from .witt import (BigWitt, WittVector, frobenius, frobenius_big,
                       from_int_vector, teichmuller, teichmuller_big,
                       verschiebung, witt_op)
    ref = "§sss:examples of group delta-schemes"
    Z = ExactInt()
    for p in cfg.primes((2, 3, 5)):
        rng = check_stream(cfg.seed, "witt.frobenius.p%d" % p)
        L = min(cfg.L, 4)
        ok = all(frobenius(teichmuller(Z, p, L, a)) ==
                 teichmuller(Z, p, L - 1, a ** p) for a in (3, 5))
        fv = frobenius(verschiebung(teichmuller(Z, p, L, 1)))
        ok = ok and fv == from_int_vector(Z, p, L - 1, p)
        for _ in range(cfg.count(100)):
            a = WittVector(Z, p, [rng.randrange(-5, 6) for _ in range(L)])
            b = WittVector(Z, p, [rng.randrange(-5, 6) for _ in range(L)])
            ok = ok and frobenius(witt_op(a, b, "mul")) == \
                witt_op(frobenius(a), frobenius(b), "mul")
        _check(checks, "witt.frobenius.p%d" % p, ref, ok)
    P = QPoly()
    rng = check_stream(cfg.seed, "witt.frobenius_big.composition")
    ws = (teichmuller_big(P, cfg.N_big, h_element(P)),
          BigWitt(Z, cfg.N_big, {k: rng.randrange(-3, 4)
                                 for k in range(1, cfg.N_big + 1)}))
    ok = True
    for m, n in ((2, 2), (2, 3)) if cfg.N_big >= 6 else ((2, 2),):
        for w in ws:
            lhs = frobenius_big(frobenius_big(w, m), n)
            rhs = frobenius_big(w, m * n).truncate(cfg.N_big // m // n)
            ok = ok and lhs == rhs
    _check(checks, "witt.frobenius_big.composition",
           "Appendix C §sss:W_big", ok)
    return checks


def suite_witt_joyal(cfg, checks):
    from .ringcore import ExactInt, QPoly, q_element
    from .witt import DeltaRing, joyal_lift, ghost, teichmuller, witt_op
    ref = "e:psi"
    Z = ExactInt()
    for p in cfg.primes((2, 3)):
        dr = DeltaRing(Z, p, lambda x: x)
        rng = check_stream(cfg.seed, "witt.joyal.p%d" % p)
        ok = True
        L = min(cfg.L, 3)
        for _ in range(cfg.count(50)):
            a, b = rng.randrange(-9, 10), rng.randrange(-9, 10)
            ok = ok and joyal_lift(dr, a + b, L) == witt_op(
                joyal_lift(dr, a, L), joyal_lift(dr, b, L), "add")
            ok = ok and joyal_lift(dr, a * b, L) == witt_op(
                joyal_lift(dr, a, L), joyal_lift(dr, b, L), "mul")
            ok = ok and ghost(joyal_lift(dr, a, L)) == [a] * L
        _check(checks, "witt.joyal_lift.hom.p%d" % p, ref, ok)
    P = QPoly()
    p = cfg.primes((3,))[0]

    def phi(f):
        target = P.sub(P.pow(P.add(P.one, P.x), p), P.one)
        return P.subst(f, target)

    dr = DeltaRing(P, p, phi)
    q = q_element(P)
    _check(checks, "witt.joyal_lift.teichmuller", ref,
           joyal_lift(dr, q, min(cfg.L, 3)) ==
           teichmuller(P, p, min(cfg.L, 3), q))
    return checks


def suite_witt_wf_kernel(cfg, checks):
    from .ringcore import ModP, PolyQuotRing
    from .witt import wf_kernel_report
    ref = "Lemma l:W^F in characteristic p"
    for p in cfg.primes((2, 3)):
        R = PolyQuotRing(ModP(p, 1), (0, 0, 0, 1), "a")
        rng = check_stream(cfg.seed, "witt.wf_kernel.p%d" % p)
        rep = wf_kernel_report(R, p, 3, cfg.count(200), rng)
        _check(checks, "witt.wf_kernel.p%d" % p, ref, not rep["failures"],
               "trials=%d" % rep["trials"])
    return checks


def suite_fgl_axioms(cfg, checks):
    from .fgl import (additive_law, f_pullback_h_law, FormalGroupLaw, h_law,
                      multiplicative_law, n_series)
    from .ringcore import QPoly, h_element
    ref = "e:group law for H_Q"
    P = QPoly()
    order = max(cfg.n_z, 8)
    for name, laws in (
            ("additive", [additive_law(P, order)]),
            ("multiplicative", [multiplicative_law(P, order)]),
            ("h_law", [h_law(P, h_element(P), order)]),
            ("pullback", [f_pullback_h_law(P, p, order)
                          for p in cfg.primes((2, 3))])):
        try:
            for law in laws:
                FormalGroupLaw(law.law)
        except Exception as err:  # noqa: BLE001 - report any axiom break
            _check(checks, "fgl.axioms.%s" % name, ref, False, str(err))
            continue
        _check(checks, "fgl.axioms.%s" % name, ref, True)
    for p in cfg.primes((2, 3, 5)):
        F = h_law(P, h_element(P), p + 2)
        sp = n_series(F, p).series
        ok = True
        for n in range(1, p):
            c = sp.coefficient((n,))
            const = c[0] if c else 0
            ok = ok and const % p == 0
        _check(checks, "fgl.p_series.height.p%d" % p,
               "Lemma l:s_Q generates H_Q", ok)
    return checks


def suite_fgl_rescale(cfg, checks):
    from .fgl import multiplicative_law, rescale, h_law, verify_hom, scaling_map
    from .ringcore import ExactInt, QPoly, h_element
    ref = "e:action of alpha on morphisms"
    P = QPoly()
    h = h_element(P)
    order = max(cfg.n_z, 8)
    _check(checks, "fgl.rescale.h_law", ref,
           rescale(multiplicative_law(P, order), h).law == h_law(P, h, order).law)
    Z = ExactInt()
    F = multiplicative_law(Z, order)
    rng = check_stream(cfg.seed, "fgl.rescale")
    ok = True
    for _ in range(cfg.count(20)):
        a, b = rng.randrange(-5, 6), rng.randrange(-5, 6)
        ok = ok and rescale(rescale(F, a), b).law == rescale(F, a * b).law
    _check(checks, "fgl.rescale.monoidal", ref, ok)
    Fh = rescale(multiplicative_law(P, order), h)
    _check(checks, "fgl.rescale.psi_alpha", "Lemma l:univ property of sX(-D)",
           verify_hom(scaling_map(Fh, multiplicative_law(P, order), h))["ok"])
    return checks


def suite_fgl_deformation(cfg, checks):
    from .fgl import (additive_law, deformation_family, multiplicative_law,
                      specialize_deformation)
    from .ringcore import ExactInt
    ref = "sss:deformation to normal cone"
    Z = ExactInt()
    order = max(cfg.n_z, 6)
    F = multiplicative_law(Z, order)
    fam = deformation_family(F)
    _check(checks, "fgl.deformation.a0", ref,
           specialize_deformation(fam, 0).law == additive_law(Z, order).law)
    _check(checks, "fgl.deformation.a1", ref,
           specialize_deformation(fam, 1).law == F.law)
    return checks


def suite_intpoly_basis(cfg, checks):
    from fractions import Fraction
    from .intpoly import IntPoly, int_mul, to_binomial
    ref = "Prop p:Newton's description of sR"
    u = IntPoly.u()
    _check(checks, "intpoly.basis.u_squared", ref,
           to_binomial((Fraction(0), Fraction(0), Fraction(1))) == IntPoly((0, 1, 2)))
    rng = check_stream(cfg.seed, "intpoly.basis")
    ok = True
    for _ in range(cfg.count(50)):
        a = IntPoly(tuple(rng.randrange(-5, 6) for _ in range(4)))
        b = IntPoly(tuple(rng.randrange(-5, 6) for _ in range(4)))
        m = rng.randrange(-10, 11)
        ok = ok and int_mul(a, b)(m) == a(m) * b(m)
    _check(checks, "intpoly.evaluation_hom", ref, ok)
    return checks


def suite_intpoly_wilkerson(cfg, checks):
    from .intpoly import IntPoly
    ref = "Lemma l:Fr=id"
    for p in cfg.primes((2, 3, 5)):
        rng = check_stream(cfg.seed, "intpoly.wilkerson.p%d" % p)
        ok = True
        for _ in range(cfg.count(300)):
            x = IntPoly(tuple(rng.randrange(-9, 10) for _ in range(11)))
            diff = (x ** p) - x
            ok = ok and all(c % p == 0 for c in diff.coords)
        _check(checks, "intpoly.wilkerson.p%d" % p, ref, ok)
    return checks


def suite_intpoly_mahler(cfg, checks):
    from .intpoly import IntPoly, mahler_table
    ref = "e:3Mahler"
    t = mahler_table(IntPoly.basis(2), 2, 1)
    _check(checks, "intpoly.mahler.c2_mod2", ref,
           t["period"] == 4 and t["residues"] == [0, 0, 1, 1])
    rng = check_stream(cfg.seed, "intpoly.mahler")
    ok = True
    for p in cfg.primes((2, 3)):
        for _ in range(cfg.count(10)):
            x = IntPoly(tuple(rng.randrange(-9, 10) for _ in range(5)))
            tab = mahler_table(x, p, 2)
            P, mod = tab["period"], p ** 2
            ok = ok and all(x(m) % mod == tab["residues"][m % P]
                            for m in range(-P, 2 * P))
    _check(checks, "intpoly.mahler.evaluation", ref, ok)
    return checks


def suite_intpoly_delta_basis(cfg, checks):
    from .intpoly import IntPoly, delta_basis_combine, delta_basis_expand
    ref = "Lemma l:generators of Int otimesZ_p"
    for p in cfg.primes((2, 3)):
        rng = check_stream(cfg.seed, "intpoly.delta_basis.p%d" % p)
        ok = True
        for _ in range(cfg.count(10)):
            x = IntPoly(tuple(rng.randrange(-9, 10)
                              for _ in range(p ** 3 + 1)))
            coords = delta_basis_expand(x, p, 3)
            ok = ok and delta_basis_combine(coords, p) == x.to_rational()
            ok = ok and all(c.denominator % p != 0 for c in coords.values())
        _check(checks, "intpoly.delta_basis.p%d" % p, ref, ok)
    return checks


def suite_qhopf_structure(cfg, checks):
    from .qhopf import QH, structure_constants
    ref = "Prop p:G=Spec B_0"
    ok = True
    for m in range(7):
        for n in range(m, 13 - m):
            for g in structure_constants(m, n):
                ok = ok and (QH.is_zero(g) or all(f.denominator == 1 for f in g))
    _check(checks, "qhopf.structure_constants.integral_12", ref, ok)
    from fractions import Fraction
    from .intpoly import IntPoly, int_mul
    from .qhopf import B0Elem, b0_mul
    rng = check_stream(cfg.seed, "qhopf.structure")
    ok = True
    for _ in range(cfg.count(20)):
        a = B0Elem(tuple(QH.make([Fraction(rng.randrange(-3, 4))])
                         for _ in range(4)))
        b = B0Elem(tuple(QH.make([Fraction(rng.randrange(-3, 4))])
                         for _ in range(4)))

        def at_h1(x):
            out = IntPoly(())
            for n, c in enumerate(x.specialize_h(Fraction(1))):
                v = c[0] if c else Fraction(0)
                out = out + IntPoly.basis(n).scale(int(v))
            return out

        ok = ok and at_h1(b0_mul(a, b)) == int_mul(at_h1(a), at_h1(b))
    _check(checks, "qhopf.h1_matches_int", "e:B_0 in terms of Int", ok)
    ok = True
    for m in range(5):
        for n in range(5):
            prod = b0_mul(B0Elem.basis(m), B0Elem.basis(n))
            spec = prod.specialize_h(Fraction(0))
            for k, c in enumerate(spec):
                v = c[0] if c else Fraction(0)
                ok = ok and v == (math.comb(m + n, n) if k == m + n else 0)
    _check(checks, "qhopf.h0_divided_powers", "§sss:remarks on B_0", ok)
    return checks


def suite_qhopf_adams(cfg, checks):
    from fractions import Fraction
    from .qhopf import QH, B0Elem, adams, b0_coproduct, v_scalar
    ref = "Lemma l:B_0 as lambda-ring"
    rng = check_stream(cfg.seed, "qhopf.adams")
    ok_hom, ok_semi = True, True
    for _ in range(cfg.count(10)):
        a = B0Elem(tuple(QH.make([Fraction(rng.randrange(-2, 3)),
                                  Fraction(rng.randrange(-2, 3))])
                         for _ in range(8)))
        b = B0Elem(tuple(QH.make([Fraction(rng.randrange(-2, 3))])
                         for _ in range(8)))
        for n in (2, 3, 4):
            ok_hom = ok_hom and adams(n, a * b) == adams(n, a) * adams(n, b)
        ok_semi = ok_semi and adams(2, adams(3, a)) == adams(6, a)
    _check(checks, "qhopf.adams.ring_hom", ref, ok_hom)
    _check(checks, "qhopf.adams.semigroup", ref, ok_semi)
    ok = True
    for n in (2, 3, 4):
        for d in range(9):
            x = B0Elem.basis(d)
            lhs = b0_coproduct(adams(n, x))
            rhs = {}
            for (i, j), c in b0_coproduct(x).items():
                for k, f in enumerate(c):
                    if f:
                        term = QH.mul(QH.make([Fraction(0)] * k + [f]),
                                      QH.pow(v_scalar(n), i + j + k))
                        rhs[(i, j)] = QH.add(rhs.get((i, j), QH.zero), term)
            rhs = {k: v for k, v in rhs.items() if not QH.is_zero(v)}
            ok = ok and lhs == rhs
    _check(checks, "qhopf.adams.coproduct", ref, ok)
    return checks


def suite_qhopf_delta(cfg, checks):
    from fractions import Fraction
    from .qhopf import QH, B0Elem, adams, b0_delta
    ref = "e:defining relation"
    got = b0_delta(B0Elem.t(), 2)
    _check(checks, "qhopf.delta.t_p2", ref,
           got == B0Elem((QH.zero, QH.make([Fraction(1)]),
                          QH.make([Fraction(-1)]))))
    rng = check_stream(cfg.seed, "qhopf.delta")
    ok = True
    for p in cfg.primes((2, 3, 5)):
        for _ in range(cfg.count(10)):
            x = B0Elem(tuple(QH.make([Fraction(rng.randrange(-2, 3)),
                                      Fraction(rng.randrange(-2, 3))])
                             for _ in range(3)))
            diff = adams(p, x) - x ** p
            ok = ok and all(
                all(f.denominator == 1 and f.numerator % p == 0 for f in c)
                for c in diff.coords)
    _check(checks, "qhopf.wilkerson", "§sss:Wilkerson", ok)
    return checks


def suite_qhopf_int(cfg, checks):
    from .intpoly import IntPoly
    from .qhopf import B0Elem, b0_from_filtration, b0_to_int_h
    ref = "e:B_0 in terms of Int"
    ok = all(b0_to_int_h(B0Elem.basis(n)) == {n: IntPoly.basis(n)}
             for n in range(1, 5))
    ok = ok and b0_to_int_h(B0Elem.t()) == {1: IntPoly.u()}
    _check(checks, "qhopf.to_int_h.basis", ref, ok)
    rng = check_stream(cfg.seed, "qhopf.int")
    ok = True
    for _ in range(cfg.count(20)):
        f = IntPoly(tuple(rng.randrange(-4, 5) for _ in range(3)))
        n = max(f.degree(), 0) + rng.randrange(2)
        back = b0_to_int_h(b0_from_filtration(f, n))
        ok = ok and back == ({n: f} if f.coords else {})
    _check(checks, "qhopf.filtration_roundtrip", ref, ok)
    return checks


def suite_pd_pairing(cfg, checks):
    from .intpoly import gen_binom
    from .pd_dual import PDElem, delta_to_e, distr_mul, pair_distr, pair_xu
    ref = "e:BM_m times Gamma^+ to BM_m"
    ok = all(pair_xu(m, PDElem.gamma(n)) == gen_binom(m, n)
             for m in range(-6, 7) for n in range(13))
    _check(checks, "pd_dual.pairing.matrix", ref, ok)
    ok = all(pair_distr(delta_to_e(m, 14), PDElem.gamma(n)) == gen_binom(m, n)
             for m in range(-6, 7) for n in range(13))
    _check(checks, "pd_dual.pairing.distr", "Lemma l:the dual of G_m^sharp", ok)
    ok = all(distr_mul(delta_to_e(m, 10 + abs(m) + abs(n)),
                       delta_to_e(n, 10 + abs(m) + abs(n)))
             == delta_to_e(m + n, 10 + abs(m) + abs(n))
             for m in range(-3, 4) for n in range(-3, 4))
    _check(checks, "pd_dual.delta_to_e.convolution",
           "§sss:Distributions", ok)
    return checks


def suite_pd_log_sharp(cfg, checks):
    from .pd_dual import log_sharp_power, stirling_first
    ref = "Lemma l:factorization of log"
    ok = True
    for n in range(21):
        for k in range(1, 11):
            if k <= n:
                ok = ok and log_sharp_power(k, n).coord(n) == stirling_first(n, k)
    _check(checks, "pd_dual.log_sharp.stirling", ref, ok)
    _check(checks, "pd_dual.log_sharp.k2", ref,
           log_sharp_power(2, 4).coords == (0, 0, 1, -3, 11))
    return checks


def suite_pd_mu_p(cfg, checks):
    from .pd_dual import mu_p_pd_check
    ref = "Lemma l:mu_p in G_m^sharp"
    for p in cfg.primes((2, 3, 5)):
        rng = check_stream(cfg.seed, "pd_dual.mu_p.p%d" % p)
        rep = mu_p_pd_check(p, cfg.count(200), rng)
        _check(checks, "pd_dual.mu_p.p%d" % p, ref, not rep["failures"],
               "trials=%d" % rep["trials"])
    return checks


def suite_pd_gsharp(cfg, checks):
    from .pd_dual import gsharp_comparison
    ref = "Prop p:G_m^sharp/mu_p"
    for p in cfg.primes((2, 3)):
        rng = check_stream(cfg.seed, "pd_dual.gsharp.p%d" % p)
        rep = gsharp_comparison(p, 12, cfg.count(25), rng)
        expected = {2: (0, 1, 1), 3: (0, 1, 2, 2)}.get(p)
        ok = not rep["failures"]
        if expected is not None:
            ok = ok and tuple(rep["z_coords"]) == expected
        _check(checks, "pd_dual.gsharp.p%d" % p, ref, ok)
    return checks


def suite_pd_exact_sequence(cfg, checks):
    from .pd_dual import exact_sequence_check
    ref = "e:G_m^sharp sequence"
    for p in cfg.primes((2, 3)):
        rep = exact_sequence_check(p, min(cfg.n_p, 6), 5)
        _check(checks, "pd_dual.exact_sequence.p%d" % p, ref,
               rep["log_xu"] and rep["log_mu_p"] and rep["exp_pairing"])
    return checks


def suite_cw_universal(cfg, checks):
    from fractions import Fraction
    from .cartier_witt import specialize_pairing_at_t, universal_pairing
    from .qhopf import QH
    ref = "e:Euler series"
    f = universal_pairing(min(cfg.n_z, 8))
    _check(checks, "cartier_witt.universal_pairing.equation", ref, f.verify())
    h = QH.make([Fraction(0), Fraction(1)])
    spec = specialize_pairing_at_t(6, h)
    ok = QH.eq(spec.coefficient((1,)), h) and all(
        QH.is_zero(spec.coefficient((n,))) for n in range(2, 7))
    _check(checks, "cartier_witt.universal_pairing.t_h", "Prop p:G_Q^!=SpfB", ok)
    return checks


def suite_cw_eigen(cfg, checks):
    from fractions import Fraction
    from .cartier_witt import (MultHomSeries, embed_G_I, embed_G_II,
                               eigencheck_I, eigencheck_II, eigencheck_R,
                               universal_pairing)
    from .intpoly import gen_binom
    from .qhopf import QH, B0Elem
    from .ringcore import ExactInt, TruncSeries
    ref = "e:G^!? in terms of big Witt"
    N = cfg.N_big
    f = universal_pairing(N)
    q = B0Elem((QH.make([Fraction(1), Fraction(1)]),))
    wI, wII = embed_G_I(f), embed_G_II(f)
    ok = f.verify() and all(eigencheck_I(wI, q, m) for m in (2, 3))
    _check(checks, "cartier_witt.eigen_I.universal", ref, ok)
    ok = eigencheck_II(wII, q, 2) and (N < 9 or eigencheck_II(wII, q, 3))
    _check(checks, "cartier_witt.eigen_II.universal",
           "e:G^!! in terms of big Witt", ok)
    Z = ExactInt()
    rng = check_stream(cfg.seed, "cartier_witt.eigen")
    ok, okq2 = True, True
    for _ in range(cfg.count(50)):
        qv = rng.randrange(2, 8)
        k = rng.randrange(-5, 6)
        h = qv - 1
        coeffs = {(n,): gen_binom(k, n) * h ** n for n in range(N + 1)}
        g = MultHomSeries(TruncSeries(Z, ("z",), coeffs, N), "G", h)
        vI, vII = embed_G_I(g), embed_G_II(g)
        for m in (2, 3):
            ok = ok and eigencheck_I(vI, qv, m) and eigencheck_II(vII, qv, m)
        if qv == 2:
            okq2 = okq2 and all(eigencheck_R(vI, m) for m in (2, 3, 4))
    coeffs = {(n,): gen_binom(3, n) for n in range(N + 1)}
    vI = embed_G_I(MultHomSeries(TruncSeries(Z, ("z",), coeffs, N), "G", 1))
    okq2 = okq2 and all(eigencheck_R(vI, m) for m in (2, 3, 4))
    _check(checks, "cartier_witt.eigen.numeric", ref, ok)
    _check(checks, "cartier_witt.eigen.q2_degeneration", "§sss:[h]", okq2)
    return checks


def suite_cw_psi(cfg, checks):
    from .cartier_witt import (eigencheck_I, eigencheck_II, psi_map)
    from .ringcore import QPoly, h_element, q_element
    from .witt import teichmuller_big
    ref = "e:3 Psi_n"
    P = QPoly()
    h, q = h_element(P), q_element(P)
    N = cfg.N_big
    w = teichmuller_big(P, N, h)
    w2, q2 = psi_map("I", 2, w, q)
    ok = w2 == teichmuller_big(P, N, P.sub(P.pow(q, 2), P.one))
    ok = ok and eigencheck_I(w2, q2, 2)
    _check(checks, "cartier_witt.psi_I", "e:2 Psi_n(w,q)", ok)
    v = teichmuller_big(P, N, q) - teichmuller_big(P, N, P.one)
    v2, q2 = psi_map("II", 2, v, q)
    ok = v2 == (teichmuller_big(P, N // 2, P.pow(q, 2)) -
                teichmuller_big(P, N // 2, P.one))
    ok = ok and eigencheck_II(v2, q2, 2)
    _check(checks, "cartier_witt.psi_II", ref, ok)
    return checks


def suite_cw_wf_ring(cfg, checks):
    from .cartier_witt import (eval_bj_poly, fixed_point_bj_values,
                               wf_ring_reduce)
    ref = "e:equations for W^F"
    ok = all(wf_ring_reduce({(p,): 1}, p, 4) == {(1,): 1, (0, 1): -p}
             for p in cfg.primes((2, 3, 5)))
    _check(checks, "cartier_witt.wf_ring.rewrite", ref, ok)
    rng = check_stream(cfg.seed, "cartier_witt.wf_ring")
    ok = True
    for p in cfg.primes((2, 3)):
        for _ in range(cfg.count(20)):
            expr = {tuple(rng.randrange(0, 2 * p) for _ in range(2)):
                    rng.randrange(-5, 6) for _ in range(4)}
            red = wf_ring_reduce(expr, p, 6)
            ok = ok and all(all(v < p for v in e) for e in red)
            for m in (-2, 1, 3):
                vals = fixed_point_bj_values(m, p, 7)
                ok = ok and eval_bj_poly(expr, vals) == eval_bj_poly(red, vals)
    _check(checks, "cartier_witt.wf_ring.evaluation",
           "§sss:proof of flatness of W^F", ok)
    return checks


def suite_cw_m_series(cfg, checks):
    from .cartier_witt import m_series_identity
    ref = "Lemma l:simple lemma"
    ok = True
    for m in (1, 2, 3):
        rep = m_series_identity(m, min(cfg.n_z, 6))
        ok = ok and rep["power"] and rep["compose"] and rep["int_h1"]
    _check(checks, "cartier_witt.m_series", ref, ok)
    return checks


def suite_cw_hom_pullback(cfg, checks):
    from .cartier_witt import hom_pullback_check
    ref = "Lemma l:motivation of lambda-structure"
    ok = True
    for n in (1, 2, 3, 6):
        rep = hom_pullback_check(n)
        ok = ok and rep["scalar_identity"] and rep["hom"]
    _check(checks, "cartier_witt.hom_pullback", ref, ok)
    return checks


def _derham_grid(cfg):
    """The (L, n_p) cells of derham.log_exp and derham.frobenius_power."""
    if cfg.p is None:
        return [(L, n_p) for L in (2, 3, 4) for n_p in (4, 6)]
    return [(min(cfg.L, 4), cfg.n_p)]


def suite_derham_log_exp(cfg, checks):
    from .derham import f_log, g_exp, gdr_op, is_eigen, sample_eigen, sample_gdr
    from .ringcore import ModP
    from .witt import witt_op
    ref = "Lemma l:G_dR=W^{F=p}"
    for p in cfg.primes((2, 3)):
        for L, n_p in _derham_grid(cfg):
            cid = "derham.log_exp.p%d.L%d.np%d" % (p, L, n_p)
            rng = check_stream(cfg.seed, cid)
            R = ModP(p, n_p)
            ok = True
            for _ in range(cfg.count(100)):
                a = sample_gdr(R, p, L, rng)
                y = f_log(a)
                ok = ok and is_eigen(y) and g_exp(y) == a
            y = sample_eigen(R, p, L, rng)
            ok = ok and f_log(g_exp(y)) == y
            a, b = sample_gdr(R, p, L, rng), sample_gdr(R, p, L, rng)
            ok = ok and f_log(gdr_op(a, b)) == witt_op(f_log(a), f_log(b), "add")
            _check(checks, cid, ref, ok)
    return checks


def suite_derham_frobenius(cfg, checks):
    from .derham import frob_power_identity, sample_gdr
    from .ringcore import ModP
    ref = "e:Fx=h(x)"
    for p in cfg.primes((2, 3)):
        rng = check_stream(cfg.seed, "derham.frob.p%d" % p)
        R = ModP(p, min(cfg.n_p, 6))
        ok = all(frob_power_identity(sample_gdr(R, p, min(cfg.L, 3), rng))["ok"]
                 for _ in range(cfg.count(50)))
        # and one point in every cell of derham.log_exp's grid
        ok = ok and all(
            frob_power_identity(sample_gdr(ModP(p, n_p), p, L, rng))["ok"]
            for L, n_p in _derham_grid(cfg))
        _check(checks, "derham.frobenius_power.p%d" % p, ref, ok)
    return checks


def suite_derham_id_minus_v(cfg, checks):
    from .derham import id_minus_V, sample_eigen, v_geometric
    from .ringcore import ModP
    from .witt import frobenius
    ref = "e:1-V"
    for p in cfg.primes((2, 3)):
        rng = check_stream(cfg.seed, "derham.idv.p%d" % p)
        R = ModP(p, min(cfg.n_p, 6))
        ok = True
        for _ in range(cfg.count(50)):
            y = sample_eigen(R, p, min(cfg.L, 4), rng)
            z = id_minus_V(y)
            ok = ok and frobenius(z).is_zero() and v_geometric(z) == y
        _check(checks, "derham.id_minus_v.p%d" % p, ref, ok)
    return checks


def suite_derham_discrepancy(cfg, checks):
    import itertools
    from .derham import discrepancy_check
    from .ringcore import ModP, PolyQuotRing
    from .witt import WittVector, frobenius, scalar_mul, witt_pow
    ref = "e:f_naive & f"
    for p in cfg.primes((2, 3)):
        R = PolyQuotRing(ModP(p, 1), (0, 0, 0, 1), "a")
        elems = [R.make_ints(v) for v in itertools.product(range(p), repeat=3)]
        nilp = [c for c in elems if R.is_zero(R.pow(c, p))]
        xs = [WittVector(R, p, comps)
              for comps in itertools.product(nilp, repeat=3)]
        rep = discrepancy_check(R, p, 3, xs)
        # the kernel lemma: Fx = 0 gives px = x^p = 0
        kernel = all(frobenius(x).is_zero() and scalar_mul(p, x).is_zero()
                     and witt_pow(x, p).is_zero() for x in xs)
        _check(checks, "derham.discrepancy.p%d" % p, ref,
               not rep["failures"] and rep["differs_from_identity"] and kernel,
               "exhaustive over %d kernel vectors" % rep["count"])
    return checks


def suite_derham_g_eta(cfg, checks):
    from .derham import g_eta_check
    from .ringcore import ModP, PolyQuotRing
    from .witt import WittVector, sample_f_kernel
    ref = "Prop p:G_eta"
    for p in cfg.primes((2, 3)):
        rng = check_stream(cfg.seed, "derham.g_eta.p%d" % p)
        R = PolyQuotRing(ModP(p, 1), (0, 0, 0, 1), "a")
        pairs = []
        for _ in range(cfg.count(40)):
            pairs.append((sample_f_kernel(R, p, 3, rng),
                          sample_f_kernel(R, p, 3, rng)))
            pairs.append((WittVector(R, p, [R.rand(rng) for _ in range(3)]),
                          sample_f_kernel(R, p, 3, rng)))
        rep = g_eta_check(R, p, 3, pairs)
        _check(checks, "derham.g_eta.p%d" % p, ref, not rep["failures"])
    return checks


def suite_qprism_law(cfg, checks):
    from .qprism import (gq_at_q1_matches_derham, gq_op, gq_ring, gq_to_unit,
                         sample_gq)
    from .witt import zero_vector
    from .qprism import GQPoint
    ref = "e:G_Q(A)"
    for p in cfg.primes((2, 3)):
        cid = "qprism.group_law.p%d" % p
        rng = check_stream(cfg.seed, cid)
        ring = gq_ring(p, min(cfg.n_p, 4), min(cfg.n_q, 4))
        ok = True
        for _ in range(cfg.count(5)):
            a = sample_gq(ring, p, 2, rng)
            b = sample_gq(ring, p, 2, rng)
            s = gq_op(a, b)
            ok = ok and ring.eq(gq_to_unit(s),
                                ring.mul(gq_to_unit(a), gq_to_unit(b)))
            zero = GQPoint(zero_vector(ring, p, 2), check=False)
            ok = ok and gq_op(a, zero) == a
        ok = ok and gq_at_q1_matches_derham(p, min(cfg.n_p, 4), 2, rng)
        _check(checks, cid, ref, ok)
    return checks


def suite_qprism_sigma(cfg, checks):
    from .qprism import frobenius_of_point, gq_ring, gq_to_unit, sigma_point
    from .ringcore import q_element
    from .witt import teichmuller, witt_neg, witt_op
    ref = "e:sigma(q)"
    for p in cfg.primes((2, 3)):
        ring = gq_ring(p, min(cfg.n_p, 4), min(cfg.n_q, 4))
        s = sigma_point(ring, p, 3)
        ok = ring.eq(gq_to_unit(s), ring.pow(q_element(ring), p))
        fs = frobenius_of_point(s)
        qp = ring.pow(q_element(ring), p)
        expected = witt_op(teichmuller(ring, p, 2, qp),
                           witt_neg(teichmuller(ring, p, 2, ring.one)), "add")
        ok = ok and fs.x == expected
        _check(checks, "qprism.sigma.p%d" % p, ref, ok)
    return checks


def suite_qprism_qexp(cfg, checks):
    from .qprism import q_exp_agreement
    ref = "Prop p:G_Q^!=SpfB"
    for p in cfg.primes((2, 3)):
        rep = q_exp_agreement(p, min(cfg.n_p, 4), min(cfg.n_q, 4), 4)
        _check(checks, "qprism.q_exponential.p%d" % p, ref,
               rep["coords_are_phi_powers"] and rep["agree"],
               "tails=%s" % (rep["tails"],))
    return checks


def suite_qprism_canonical(cfg, checks):
    from .qprism import canonical_point, derham_specialization_of_x0
    ref = "Prop p:formula for tilde x"
    for p in cfg.primes((2, 3)):
        rep = canonical_point(p, min(cfg.n_p, 4), min(cfg.n_q, 4), L=2, t_deg=4)
        ok = rep["teichmuller"] and rep["rank_one"] and rep["zeroth_component"]
        ok = ok and derham_specialization_of_x0(p, min(cfg.n_p, 4),
                                                min(cfg.n_q, 4))
        _check(checks, "qprism.canonical_point.p%d" % p, ref, ok,
               "tail=%d" % rep["tail"])
    return checks


def suite_qprism_qlog(cfg, checks):
    from .qprism import (gq_op, gq_ring, q_log, q_log_of_sigma,
                         q_log_precision_loss, sample_gq)
    ref = "e:t=log_q(u)"
    for p in cfg.primes((2, 3)):
        n_q = min(cfg.n_q, 4)
        n_p = max(min(cfg.n_p, 6), q_log_precision_loss(p, n_q) + 2)
        ok = q_log_of_sigma(p, n_p, n_q)[0]
        cid = "qprism.q_log.p%d" % p
        rng = check_stream(cfg.seed, cid)
        ring = gq_ring(p, n_p, n_q)
        for _ in range(cfg.count(3)):
            a = sample_gq(ring, p, 2, rng)
            b = sample_gq(ring, p, 2, rng)
            oring, vs = q_log(gq_op(a, b), n_p, n_q)
            _, va = q_log(a, n_p, n_q)
            _, vb = q_log(b, n_p, n_q)
            ok = ok and oring.eq(vs, oring.add(va, vb))
        _check(checks, cid, ref, ok)
    return checks


def suite_qprism_zp(cfg, checks):
    from .qprism import equivariance_report
    ref = "Cor c:Z_p^times-action on H_Q"
    for p in cfg.primes((2, 3, 5)):
        ok = True
        for n in (2, 3, 4):
            if n % p == 0:
                continue
            rep = equivariance_report(p, n, min(cfg.n_p, 6),
                                      min(cfg.n_q, 6), min(cfg.n_z, 6))
            ok = ok and rep["equivariant"] and rep["composes"] \
                and rep["exact_polynomial_identity"]
        _check(checks, "qprism.zp_action.p%d" % p, ref, ok)
    return checks


def suite_qprism_hodge_tate(cfg, checks):
    from .qprism import hodge_tate_check
    ref = "e:restriction of H_Q^alg to Delta_0_Q"
    for p in cfg.primes((2, 3, 5)):
        rep = hodge_tate_check(p, 6, 5)
        _check(checks, "qprism.hodge_tate.p%d" % p, ref,
               rep["additive"] and rep["kills_torsion_point"]
               and rep["leading_one"])
    return checks


def suite_qprism_sections(cfg, checks):
    from .qprism import factorization_identity, phi_of_section_identity
    ref = "e:s_Q & varphi_Q"
    ok = all(factorization_identity(p) for p in cfg.primes((2, 3, 5)))
    _check(checks, "qprism.factorization", "e:F^{-1}(D)", ok)
    ok = all(phi_of_section_identity(p) for p in cfg.primes((2, 3)))
    _check(checks, "qprism.phi_section", ref, ok)
    return checks


CRITERIA = {
    1: ("witt.ghost", "witt.universal", "witt.frobenius"),
    2: ("derham.log_exp", "derham.frobenius_power"),
    3: ("derham.discrepancy",),
    4: ("qprism.canonical_point",),
    5: ("qprism.q_exponential",),
    6: ("qhopf.structure_constants", "qhopf.adams"),
    7: ("cartier_witt.eigen",),
    8: ("pd_dual.pairing", "pd_dual.log_sharp", "pd_dual.mu_p",
        "pd_dual.gsharp"),
    9: ("intpoly.wilkerson", "intpoly.mahler", "intpoly.delta_basis"),
    10: ("qprism.zp_action",),
    11: ("qprism.hodge_tate",),
    12: ("fgl.axioms",),
}
"""Acceptance criterion number -> the suites whose checks make it up."""

CRITERION_REFS = {
    1: "invented — artifact plumbing",
    2: "Lemma l:G_dR=W^{F=p}",
    3: "e:f_naive & f",
    4: "Prop p:formula for tilde x",
    5: "Prop p:G_Q^!=SpfB",
    6: "Prop p:G=Spec B_0",
    7: "e:G^!? in terms of big Witt",
    8: "Lemma l:factorization of log",
    9: "Lemma l:Fr=id",
    10: "Prop p:sigma^* is equivariant",
    11: "e:restriction of H_Q^alg to Delta_0_Q",
    12: "e:group law for H_Q",
}

SUITES = [
    ("ringcore.series_arith", "invented — artifact plumbing", suite_ringcore_series),
    ("ringcore.clear_denominators", "invented — artifact plumbing", suite_ringcore_clear),
    ("ringcore.padic_log", "e:restriction of H_Q^alg", suite_ringcore_padic_log),
    ("witt.ghost", "invented — artifact plumbing", suite_witt_ghost),
    ("witt.universal", "invented — artifact plumbing", suite_witt_universal),
    ("witt.frobenius", "§sss:examples of group delta-schemes", suite_witt_frobenius),
    ("witt.joyal_lift", "e:psi", suite_witt_joyal),
    ("witt.wf_kernel", "Lemma l:W^F in characteristic p", suite_witt_wf_kernel),
    ("fgl.axioms", "e:group law for H_Q", suite_fgl_axioms),
    ("fgl.rescale", "e:action of alpha on morphisms", suite_fgl_rescale),
    ("fgl.deformation", "sss:deformation to normal cone", suite_fgl_deformation),
    ("intpoly.basis", "Prop p:Newton's description of sR", suite_intpoly_basis),
    ("intpoly.wilkerson", "Lemma l:Fr=id", suite_intpoly_wilkerson),
    ("intpoly.mahler", "e:3Mahler", suite_intpoly_mahler),
    ("intpoly.delta_basis", "Lemma l:generators of Int otimesZ_p", suite_intpoly_delta_basis),
    ("qhopf.structure_constants", "Prop p:G=Spec B_0", suite_qhopf_structure),
    ("qhopf.adams", "Lemma l:B_0 as lambda-ring", suite_qhopf_adams),
    ("qhopf.delta", "e:defining relation", suite_qhopf_delta),
    ("qhopf.int_comparison", "e:B_0 in terms of Int", suite_qhopf_int),
    ("pd_dual.pairing", "e:BM_m times Gamma^+ to BM_m", suite_pd_pairing),
    ("pd_dual.log_sharp", "Lemma l:factorization of log", suite_pd_log_sharp),
    ("pd_dual.mu_p", "Lemma l:mu_p in G_m^sharp", suite_pd_mu_p),
    ("pd_dual.gsharp", "Prop p:G_m^sharp/mu_p", suite_pd_gsharp),
    ("pd_dual.exact_sequence", "e:G_m^sharp sequence", suite_pd_exact_sequence),
    ("cartier_witt.universal_pairing", "e:Euler series", suite_cw_universal),
    ("cartier_witt.eigen", "e:G^!? in terms of big Witt", suite_cw_eigen),
    ("cartier_witt.psi", "e:3 Psi_n", suite_cw_psi),
    ("cartier_witt.wf_ring", "e:equations for W^F", suite_cw_wf_ring),
    ("cartier_witt.m_series", "Lemma l:simple lemma", suite_cw_m_series),
    ("cartier_witt.hom_pullback", "Lemma l:motivation of lambda-structure", suite_cw_hom_pullback),
    ("derham.log_exp", "Lemma l:G_dR=W^{F=p}", suite_derham_log_exp),
    ("derham.frobenius_power", "e:Fx=h(x)", suite_derham_frobenius),
    ("derham.id_minus_v", "e:1-V", suite_derham_id_minus_v),
    ("derham.discrepancy", "e:f_naive & f", suite_derham_discrepancy),
    ("derham.g_eta", "Prop p:G_eta", suite_derham_g_eta),
    ("qprism.group_law", "e:G_Q(A)", suite_qprism_law),
    ("qprism.sigma", "e:sigma(q)", suite_qprism_sigma),
    ("qprism.q_exponential", "Prop p:G_Q^!=SpfB", suite_qprism_qexp),
    ("qprism.canonical_point", "Prop p:formula for tilde x", suite_qprism_canonical),
    ("qprism.q_log", "e:t=log_q(u)", suite_qprism_qlog),
    ("qprism.zp_action", "Cor c:Z_p^times-action on H_Q", suite_qprism_zp),
    ("qprism.hodge_tate", "e:restriction of H_Q^alg to Delta_0_Q", suite_qprism_hodge_tate),
    ("qprism.sections", "e:s_Q & varphi_Q", suite_qprism_sections),
]


def _named(sid: str, name: str) -> bool:
    return name == "all" or sid == name or sid.startswith(name + ".")


def list_suites() -> list:
    """Suite ids with their reference tags, then each criterion with its
    member suites."""
    return ([("%s — %s" % (sid, ref)) for sid, ref, _ in SUITES] +
            ["criteria.%d — %s — runs %s" % (num, CRITERION_REFS[num],
                                             ", ".join(members))
             for num, members in CRITERIA.items()])


def select_criteria(name: str) -> list:
    """The numbers of the criteria that `name` selects."""
    return [num for num in CRITERIA if _named("criteria.%d" % num, name)]


def select_suites(name: str) -> list:
    """The suites that `name` selects, directly or as criterion members,
    each once and in registry order."""
    members = {sid for num in select_criteria(name) for sid in CRITERIA[num]}
    chosen = [s for s in SUITES if s[0] in members or _named(s[0], name)]
    if not chosen:
        raise ConfigError("unknown suite %r" % name)
    return chosen


def run(cfg: SuiteConfig) -> tuple:
    """Execute the configured suites; returns (report dict, exit code)."""
    try:
        # p = None means each suite's own primes; check the other fields
        Prec(p=2 if cfg.p is None else cfg.p, n_p=cfg.n_p, n_q=cfg.n_q,
             n_z=cfg.n_z, L=cfg.L, N_big=cfg.N_big)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    if cfg.trials is not None and cfg.trials < 1:
        raise ConfigError("trials must be >= 1")
    if cfg.format not in ("text", "json"):
        raise ConfigError("format must be text or json")
    chosen = select_suites(cfg.suite)
    checks: list = []
    produced: dict = {}
    for sid, ref, fn in chosen:
        start = time.monotonic()
        before = len(checks)
        try:
            fn(cfg, checks)
        except Exception as err:  # noqa: BLE001 - suites must not crash the run
            checks.append({"id": sid + ".error", "paper_ref": ref,
                           "status": "fail",
                           "detail": "%s: %s" % (type(err).__name__, err)})
        elapsed = time.monotonic() - start
        n_new = max(len(checks) - before, 1)
        for c in checks[before:]:
            c.setdefault("elapsed", round(elapsed / n_new, 6))
        produced[sid] = checks[before:]
    for num in select_criteria(cfg.suite):
        members = [c for sid in CRITERIA[num] for c in produced[sid]]
        bad = [c["id"] for c in members if c["status"] != "pass"]
        detail = ("failing: " + ", ".join(bad) if bad else
                  "%d checks of %s" % (len(members), ", ".join(CRITERIA[num])))
        _check(checks, "criteria.%d" % num, CRITERION_REFS[num],
               bool(members) and not bad, detail)
        checks[-1]["elapsed"] = 0.0
    failed = sum(1 for c in checks if c["status"] == "fail")
    report = {
        "schema": SCHEMA,
        "suite": cfg.suite,
        "params": {k: v for k, v in asdict(cfg).items() if k != "out"},
        "checks": checks,
        "passed": len(checks) - failed,
        "failed": failed,
    }
    return report, (0 if failed == 0 else 1)


def render_text(report: dict) -> str:
    lines = []
    for c in report["checks"]:
        lines.append("%-4s %-45s %s%s" % (
            c["status"].upper(), c["id"], c["paper_ref"],
            ("  [%s]" % c["detail"]) if c.get("detail") else ""))
    lines.append("%d passed, %d failed" % (report["passed"], report["failed"]))
    return "\n".join(lines)


def strip_elapsed(report: dict) -> dict:
    out = dict(report)
    out["checks"] = [{k: v for k, v in c.items() if k != "elapsed"}
                     for c in report["checks"]]
    return out


def main(argv=None) -> int:
    import os
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run exact-arithmetic verification suites.")
    parser.add_argument("--suite", default="all")
    parser.add_argument("--p", type=int, default=None)
    parser.add_argument("--padic-prec", type=int, default=8, dest="n_p")
    parser.add_argument("--q-prec", type=int, default=8, dest="n_q")
    parser.add_argument("--series-order", type=int, default=8, dest="n_z")
    parser.add_argument("--witt-len", type=int, default=4, dest="L")
    parser.add_argument("--bigwitt", type=int, default=12, dest="N_big")
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", default=None)
    parser.add_argument("--list", action="store_true",
                        help="list suite ids with their reference tags, and "
                             "each criterion with its member suites")
    args = parser.parse_args(argv)
    if args.list:
        print("\n".join(list_suites()))
        return 0
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("PRISMLAB_SEED", "0"))
    cfg = SuiteConfig(suite=args.suite, p=args.p, n_p=args.n_p, n_q=args.n_q,
                      n_z=args.n_z, L=args.L, N_big=args.N_big,
                      trials=args.trials, seed=seed, format=args.format,
                      out=args.out)
    try:
        report, code = run(cfg)
    except ConfigError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    text = (json.dumps(report, indent=2) if cfg.format == "json"
            else render_text(report))
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

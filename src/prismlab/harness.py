"""CLI entry point: configures precision, runs verification suites, and
emits machine-readable reports.

Every check carries a stable id and a reference tag; a run is deterministic
for a fixed (config, seed): randomized checks draw from per-check streams
derived by hashing the seed with the check id, so execution order never
matters.  Each suite registers once with `@suite(sid, ref, **params)`,
declaring a `Param` (default and honoured range) for each precision field
it reads, and records its checks on a `Recorder`.  Before any suite runs,
`plan` fills in each suite's values and refuses a value outside a selected
suite's range or read by no selected suite; every check records its
suite's values as `params`.  The twelve acceptance criteria are named
groups of suites (CRITERIA): selecting `criteria.N`, `criteria` or `all`
runs each member suite once and adds one `criteria.N` check that passes
exactly when every check of its members passed.  Exit code 0 means every
check passed, 1 some check failed, 2 configuration error.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import random
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, replace
from fractions import Fraction

from .cartier_witt import (eigencheck_I, eigencheck_II, eigencheck_R,
                           embed_G_I, embed_G_II, eval_bj_poly,
                           fixed_point_bj_values, hom_pullback_check,
                           m_series_identity, MultHomSeries, psi_map,
                           specialize_pairing_at_t, universal_pairing,
                           wf_ring_reduce)
from .derham import (discrepancy_check, f_log, frob_power_identity,
                     g_eta_check, g_exp, id_minus_V, is_eigen, sample_eigen,
                     sample_gdr, v_geometric)
from .fgl import (additive_law, deformation_family, f_pullback_h_law,
                  FormalGroupLaw, h_law, multiplicative_law, n_series, rescale,
                  scaling_map, specialize_deformation, verify_hom)
from .intpoly import (delta_basis_combine, delta_basis_expand, gen_binom,
                      int_mul, IntPoly, mahler_table, to_binomial)
from .pd_dual import (delta_to_e, distr_mul, gsharp_comparison,
                      log_and_pairing_check, log_mu_p_vanishes,
                      log_sharp_power, mu_p_pd_check, pair_distr, pair_xu,
                      PDElem, stirling_first)
from .qhopf import (_c_monomial, _from_monomial, adams, b0_at_h1,
                    b0_coproduct, b0_delta, b0_from_filtration, b0_mul,
                    b0_to_int_h, B0Elem, QH, QHT, structure_constants,
                    v_scalar)
from .qprism import (canonical_point, derham_specialization_of_x0,
                     equivariance_report, factorization_identity,
                     frobenius_of_point, gq_at_q1_matches_derham,
                     gq_ring, gq_to_unit, GQPoint, hodge_tate_check,
                     phi_of_section_identity, q_exp_agreement, q_log,
                     q_log_of_sigma, q_log_precision_loss, sample_gq,
                     sigma_point)
from .ringcore import (BoundExceeded, clear_denominators, CyclotomicRing,
                       ExactInt, ExactRat, h_element, IdentityFailed, is_prime,
                       ModP, NotIntegral, padic_log, PolyQuotRing, q_element,
                       QPoly, QSeriesRing, TruncSeries)
from .witt import (BigWitt, check_universal_size, DeltaRing, frobenius,
                   frobenius_big, from_ghost, from_int_vector, ghost,
                   joyal_lift, sample_f_kernel, scalar_mul, teichmuller,
                   teichmuller_big, verschiebung,
                   wf_kernel_report, witt_neg, witt_op, witt_op_universal,
                   witt_pow, WittVector, zero_vector)

SCHEMA = "prismlab-report/2"
PRECISION = ("n_p", "n_q", "n_z", "L", "N_big")


class ConfigError(Exception):
    pass


@dataclass
class SuiteConfig:
    """What to run, and the truncation: coefficients are tracked mod
    p^n_p, n_q is the (q-1)-adic cutoff, n_z the series order cutoff per
    formal variable block, L the p-typical Witt length and N_big the
    big-Witt series cutoff.  A precision field left None takes each
    suite's own value, its Param default."""

    suite: str = "all"
    p: int | None = None          # None: every prime in the suite's grid
    n_p: int | None = None
    n_q: int | None = None
    n_z: int | None = None
    L: int | None = None
    N_big: int | None = None
    trials: int | None = None     # None: the suite's documented count
    seed: int = 0
    format: str = "text"
    out: str | None = None

    def primes(self, default=(2, 3)):
        return (self.p,) if self.p is not None else tuple(default)

    def count(self, default: int) -> int:
        return self.trials if self.trials is not None else default

    def precision(self) -> dict:
        """The precision fields that are set, by name."""
        return {f: getattr(self, f) for f in PRECISION
                if getattr(self, f) is not None}

    def validate(self):
        """Raise ConfigError naming the first invalid field."""
        if self.p is not None and not is_prime(self.p):
            raise ConfigError("p must be prime")
        for field in PRECISION + ("trials",):
            value = getattr(self, field)
            if value is not None and value < 1:
                raise ConfigError("%s must be >= 1" % field)
        if self.format not in ("text", "json"):
            raise ConfigError("format must be text or json")


@dataclass(frozen=True)
class Param:
    """A precision field that a suite reads: its value where the config has
    None, and the range lo..hi that the suite honours (hi None: no upper
    end).  lo, hi and gate may be functions of the filled-in config; gate
    returns the reason a value is refused, or None.  A tuple default is a
    grid of values that all run; an explicit value replaces it."""

    default: int | tuple
    lo: object = 1
    hi: object = None
    gate: object = None

    def fill(self, value):
        """The config's value, or the default where it is None."""
        if value is None:
            return self.default
        return (value,) if isinstance(self.default, tuple) else value

    def refusal(self, cfg, name):
        """Why cfg's value of `name` is outside the range, or None."""
        value = getattr(cfg, name)
        lo, hi = (b(cfg) if callable(b) else b for b in (self.lo, self.hi))
        for v in value if isinstance(value, tuple) else (value,):
            if v < lo or hi is not None and v > hi:
                return "%s = %d is outside its range [%d, %s]" % (
                    name, v, lo, "inf" if hi is None else hi)
        why = self.gate and self.gate(cfg)
        return why and "%s = %s is outside its range: %s" % (name, value, why)


def check_stream(seed: int, check_id: str) -> random.Random:
    """Independent, order-insensitive randomness per check."""
    digest = hashlib.blake2b(("%d:%s" % (seed, check_id)).encode(),
                             digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


def _record(cid, ref, ok, detail, params, elapsed) -> dict:
    return {"id": cid, "paper_ref": ref, "status": "pass" if ok else "fail",
            "detail": detail, "params": params, "elapsed": elapsed}


class Recorder:
    """The checks of one suite run, each with `params`, the precision the
    suite ran with (cfg.precision()).  A check's elapsed is the time since
    the suite's previous check, or since the suite started, between offsets
    rounded to the microsecond: a suite's values add up to its time."""

    def __init__(self, cfg: SuiteConfig, ref: str):
        self.cfg, self.ref, self.params = cfg, ref, cfg.precision()
        self.checks: list = []
        self._start = time.monotonic()
        self._offset = 0.0

    def check(self, cid: str, ok, detail: str = "", ref: str | None = None):
        """Record check `cid`, under the suite's reference tag or `ref`."""
        offset = round(time.monotonic() - self._start, 6)
        self.checks.append(_record(cid, ref or self.ref, ok, detail,
                                   self.params,
                                   round(offset - self._offset, 6)))
        self._offset = offset

    def trials(self, cid: str, default: int, trial, stream=None, *,
               primes=None, then=None, count=None, ref: str | None = None):
        """Record check `cid` from randomized trials on one stream: the one
        named `stream` (by default `cid`), or `stream` itself if it is a
        stream already in use.  trial(rng) runs cfg.count(default) times,
        or `count` times; with `primes`, trial(rng, p) runs that often for
        each p in turn.  then(rng), if given, runs once after them.  The
        check fails at the first trial that returns False, and its detail
        names that trial, the trial count and the seed."""
        seed = self.cfg.seed
        rng = (stream if isinstance(stream, random.Random)
               else check_stream(seed, stream or cid))
        n = self.cfg.count(default) if count is None else count
        for args in [(p,) for p in primes] if primes else [()]:
            for i in range(n):
                if not trial(rng, *args):
                    at = "p=%d, " % args if args else ""
                    return self.check(cid, False, "failed at %strial index "
                                      "%d of %d trials, seed %d"
                                      % (at, i, n, seed), ref)
        if then is None or then(rng):
            return self.check(cid, True, ref=ref)
        self.check(cid, False, "failed after %d passing trials, seed %d"
                   % (n, seed), ref)


SUITES: list = []
"""(suite id, reference tag, suite function, {precision field: Param} for
each field the suite reads), in registration order."""


def suite(sid: str, ref: str, **params):
    """Register the decorated suite_* function as suite `sid`; its checks
    take the reference tag `ref` unless they name their own.  `params`
    declares each precision field that the suite reads as a Param."""
    def register(fn):
        SUITES.append((sid, ref, fn, params))
        return fn
    return register


# ---------------------------------------------------------------------------
# suites


@suite("ringcore.series_arith", "invented — artifact plumbing", n_z=Param(8))
def suite_ringcore_series(cfg, out):
    Z = ExactInt()

    def rand_series(rng):
        return TruncSeries(Z, ("z1", "z2"),
                           {(i, j): rng.randrange(-4, 5)
                            for i in range(3) for j in range(3)}, cfg.n_z)

    def axioms(rng):
        a, b, c = rand_series(rng), rand_series(rng), rand_series(rng)
        return ((a * b) * c == a * (b * c) and
                a * (b + c) == a * b + a * c and a * b == b * a)

    def compose(rng):
        f, g, h = (TruncSeries(Z, ("z",), {(n,): rng.randrange(-4, 5)
                                           for n in range(1, 5)}, cfg.n_z)
                   for _ in range(3))
        return f.compose(g).compose(h) == f.compose(g.compose(h))

    rng = check_stream(cfg.seed, "ringcore.series_arith")
    out.trials("ringcore.series_arith.axioms", 50, axioms, rng)
    z = TruncSeries.var(Z, ("z",), cfg.n_z, "z")
    one = TruncSeries.one(Z, ("z",), cfg.n_z)
    out.check("ringcore.series_arith.sample",
              (one + z) * (one - z) == one - z * z)
    # a fifth of the axiom trials, at least one, on the same stream
    out.trials("ringcore.series_compose.assoc", 10, compose, rng,
               count=max(1, cfg.count(50) // 5))


@suite("ringcore.clear_denominators", "invented — artifact plumbing")
def suite_ringcore_clear(cfg, out):
    Q = ExactRat()
    f = TruncSeries(Q, ("z",), {(3,): Fraction(4, 3)}, 4)
    got = clear_denominators(f, ModP(2, 4))
    out.check("ringcore.clear_denominators.mod16", got.coefficient((3,)) == 12)
    try:
        clear_denominators(TruncSeries(Q, ("z",), {(1,): Fraction(1, 2)}, 2),
                           ModP(2, 4))
        ok = False
    except NotIntegral:
        ok = True
    out.check("ringcore.clear_denominators.rejects", ok)
    Z = ExactInt()

    def roundtrip(rng):
        f = TruncSeries(Z, ("z",), {(n,): rng.randrange(-9, 10)
                                    for n in range(5)}, 4)
        return clear_denominators(f.map_coeffs(Fraction, Q), Z) == f

    out.trials("ringcore.clear_denominators.roundtrip", 50, roundtrip,
               "ringcore.clear")


@suite("ringcore.padic_log", "e:restriction of H_Q^alg", n_p=Param(6, hi=6))
def suite_ringcore_padic_log(cfg, out):
    for p in cfg.primes((2, 3, 5)):
        C = CyclotomicRing(p, n_p=cfg.n_p)
        u = TruncSeries.const(C, ("z",), 1, q_element(C))
        out.check("ringcore.padic_log.zeta.p%d" % p, padic_log(u).is_zero())
    p = 3
    R = QSeriesRing(4, p=p, n_p=4)

    def product_rule(rng):
        a = TruncSeries(R, ("z",), {
            (0,): R.one, (1,): R.make_ints([3 * rng.randrange(9)]),
            (2,): R.make_ints([0, 3 * rng.randrange(5)])}, 4)
        b = TruncSeries(R, ("z",), {
            (0,): R.one, (1,): R.make_ints([3 * rng.randrange(-4, 5)])}, 4)
        return padic_log(a * b).eq(padic_log(a) + padic_log(b))

    out.trials("ringcore.padic_log.product_rule", 20, product_rule,
               "ringcore.padic_log")


@suite("witt.ghost", "invented — artifact plumbing", L=Param(4, hi=4))
def suite_witt_ghost(cfg, out):
    Z = ExactInt()
    for p in cfg.primes((2, 3, 5)):
        def roundtrip(rng):
            w = WittVector(Z, p, [rng.randrange(-9, 10) for _ in range(cfg.L)])
            return from_ghost(Z, p, ghost(w)) == w

        out.trials("witt.ghost_roundtrip.p%d" % p, 1000, roundtrip,
                   "witt.ghost.p%d" % p)


UNIVERSAL_PRIMES = (2, 3, 5)


def _universal_tables_fit(cfg):
    """Why witt.universal could not build its add and mul tables at cfg.L,
    or None (witt.check_universal_size)."""
    try:
        for p in cfg.primes(UNIVERSAL_PRIMES):
            for op in ("add", "mul"):
                check_universal_size(op, p, cfg.L)
    except BoundExceeded as err:
        return str(err)


@suite("witt.universal", "invented — artifact plumbing",
       L=Param(4, gate=_universal_tables_fit))
def suite_witt_universal(cfg, out):
    Z = ExactInt()
    L = cfg.L
    for p in cfg.primes(UNIVERSAL_PRIMES):
        bound = 2 if p == 5 else 9

        def agree(rng):
            a = WittVector(Z, p, [rng.randrange(-bound, bound + 1)
                                  for _ in range(L)])
            b = WittVector(Z, p, [rng.randrange(-bound, bound + 1)
                                  for _ in range(L)])
            return all(witt_op_universal(a, b, op) == witt_op(a, b, op)
                       for op in ("add", "mul"))

        out.trials("witt.universal_agreement.p%d" % p, 1000, agree,
                   "witt.universal.p%d" % p)


@suite("witt.frobenius", "§sss:examples of group delta-schemes",
       L=Param(4, hi=4), N_big=Param(12, lo=6))
def suite_witt_frobenius(cfg, out):
    Z = ExactInt()
    L = cfg.L
    for p in cfg.primes((2, 3, 5)):
        def multiplicative(rng):
            a = WittVector(Z, p, [rng.randrange(-5, 6) for _ in range(L)])
            b = WittVector(Z, p, [rng.randrange(-5, 6) for _ in range(L)])
            return frobenius(witt_op(a, b, "mul")) == \
                witt_op(frobenius(a), frobenius(b), "mul")

        def fixed_points(rng):  # F[a] = [a^p] and FV = p
            return all(frobenius(teichmuller(Z, p, L, a)) ==
                       teichmuller(Z, p, L - 1, a ** p) for a in (3, 5)) and \
                frobenius(verschiebung(teichmuller(Z, p, L, 1))) == \
                from_int_vector(Z, p, L - 1, p)

        out.trials("witt.frobenius.p%d" % p, 100, multiplicative,
                   then=fixed_points)
    P = QPoly()
    rng = check_stream(cfg.seed, "witt.frobenius_big.composition")
    ws = (teichmuller_big(P, cfg.N_big, h_element(P)),
          BigWitt(Z, cfg.N_big, {k: rng.randrange(-3, 4)
                                 for k in range(1, cfg.N_big + 1)}))
    out.check("witt.frobenius_big.composition", all(
        frobenius_big(frobenius_big(w, m), n) ==
        frobenius_big(w, m * n).truncate(cfg.N_big // m // n)
        for m, n in ((2, 2), (2, 3))
        for w in ws), ref="Appendix C §sss:W_big")


@suite("witt.joyal_lift", "e:psi", L=Param(3, hi=3))
def suite_witt_joyal(cfg, out):
    Z = ExactInt()
    L = cfg.L
    for p in cfg.primes((2, 3)):
        dr = DeltaRing(Z, p, lambda x: x)

        def hom(rng):
            a, b = rng.randrange(-9, 10), rng.randrange(-9, 10)
            ja, jb = joyal_lift(dr, a, L), joyal_lift(dr, b, L)
            return (joyal_lift(dr, a + b, L) == witt_op(ja, jb, "add") and
                    joyal_lift(dr, a * b, L) == witt_op(ja, jb, "mul") and
                    ghost(ja) == [a] * L)

        out.trials("witt.joyal_lift.hom.p%d" % p, 50, hom,
                   "witt.joyal.p%d" % p)
    P = QPoly()
    p = cfg.primes((3,))[0]
    target = P.sub(P.pow(P.add(P.one, P.x), p), P.one)  # phi(x) = (1+x)^p - 1
    dr = DeltaRing(P, p, lambda f: P.subst(f, target))
    q = q_element(P)
    out.check("witt.joyal_lift.teichmuller",
              joyal_lift(dr, q, L) == teichmuller(P, p, L, q))


@suite("witt.wf_kernel", "Lemma l:W^F in characteristic p")
def suite_witt_wf_kernel(cfg, out):
    for p in cfg.primes((2, 3)):
        R = PolyQuotRing(ModP(p, 1), (0, 0, 0, 1), "a")
        rng = check_stream(cfg.seed, "witt.wf_kernel.p%d" % p)
        rep = wf_kernel_report(R, p, 3, cfg.count(200), rng)
        out.check("witt.wf_kernel.p%d" % p, not rep["failures"],
                  "trials=%d" % rep["trials"])


@suite("fgl.axioms", "e:group law for H_Q", n_z=Param(8, lo=8))
def suite_fgl_axioms(cfg, out):
    P = QPoly()
    order = cfg.n_z
    for name, laws in (
            ("additive", [additive_law(P, order)]),
            ("multiplicative", [multiplicative_law(P, order)]),
            ("h_law", [h_law(P, h_element(P), order)]),
            ("pullback", [f_pullback_h_law(P, p, order)
                          for p in cfg.primes((2, 3))])):
        try:
            for law in laws:
                FormalGroupLaw(law.law)
        except IdentityFailed as err:
            out.check("fgl.axioms.%s" % name, False, str(err))
        else:
            out.check("fgl.axioms.%s" % name, True)
    for p in cfg.primes((2, 3, 5)):
        sp = n_series(h_law(P, h_element(P), p + 2), p).series
        consts = (sp.coefficient((n,)) for n in range(1, p))
        out.check("fgl.p_series.height.p%d" % p,
                  all(P.coeff(c, 0) % p == 0 for c in consts),
                  ref="Lemma l:s_Q generates H_Q")


@suite("fgl.rescale", "e:action of alpha on morphisms", n_z=Param(8, lo=8))
def suite_fgl_rescale(cfg, out):
    P = QPoly()
    h = h_element(P)
    order = cfg.n_z
    out.check("fgl.rescale.h_law",
              rescale(multiplicative_law(P, order), h).law ==
              h_law(P, h, order).law)
    Z = ExactInt()
    F = multiplicative_law(Z, order)

    def monoidal(rng):
        a, b = rng.randrange(-5, 6), rng.randrange(-5, 6)
        return rescale(rescale(F, a), b).law == rescale(F, a * b).law

    out.trials("fgl.rescale.monoidal", 20, monoidal, "fgl.rescale")
    Fh = rescale(multiplicative_law(P, order), h)
    psi = scaling_map(Fh, multiplicative_law(P, order), h)
    out.check("fgl.rescale.psi_alpha", verify_hom(psi)["ok"],
              ref="Lemma l:univ property of sX(-D)")


@suite("fgl.deformation", "sss:deformation to normal cone", n_z=Param(8, lo=6))
def suite_fgl_deformation(cfg, out):
    Z = ExactInt()
    order = cfg.n_z
    F = multiplicative_law(Z, order)
    fam = deformation_family(F)
    out.check("fgl.deformation.a0",
              specialize_deformation(fam, 0).law == additive_law(Z, order).law)
    out.check("fgl.deformation.a1",
              specialize_deformation(fam, 1).law == F.law)


@suite("intpoly.basis", "Prop p:Newton's description of sR")
def suite_intpoly_basis(cfg, out):
    out.check("intpoly.basis.u_squared",
              to_binomial((0, 0, 1)) == IntPoly((0, 1, 2)))

    def evaluation_hom(rng):
        a = IntPoly(tuple(rng.randrange(-5, 6) for _ in range(4)))
        b = IntPoly(tuple(rng.randrange(-5, 6) for _ in range(4)))
        m = rng.randrange(-10, 11)
        return int_mul(a, b)(m) == a(m) * b(m)

    out.trials("intpoly.evaluation_hom", 50, evaluation_hom, "intpoly.basis")


@suite("intpoly.wilkerson", "Lemma l:Fr=id")
def suite_intpoly_wilkerson(cfg, out):
    for p in cfg.primes((2, 3, 5)):
        def frobenius_lift(rng):
            x = IntPoly(tuple(rng.randrange(-9, 10) for _ in range(11)))
            return all(c % p == 0 for c in ((x ** p) - x).coords)

        out.trials("intpoly.wilkerson.p%d" % p, 300, frobenius_lift)


@suite("intpoly.mahler", "e:3Mahler")
def suite_intpoly_mahler(cfg, out):
    t = mahler_table(IntPoly.basis(2), 2, 1)
    out.check("intpoly.mahler.c2_mod2",
              t["period"] == 4 and t["residues"] == [0, 0, 1, 1])

    def evaluation(rng, p):
        x = IntPoly(tuple(rng.randrange(-9, 10) for _ in range(5)))
        tab = mahler_table(x, p, 2)
        P, mod = tab["period"], p ** 2
        return all(x(m) % mod == tab["residues"][m % P]
                   for m in range(-P, 2 * P))

    out.trials("intpoly.mahler.evaluation", 10, evaluation, "intpoly.mahler",
               primes=cfg.primes((2, 3)))


@suite("intpoly.delta_basis", "Lemma l:generators of Int otimesZ_p")
def suite_intpoly_delta_basis(cfg, out):
    for p in cfg.primes((2, 3)):
        def roundtrip(rng):
            x = IntPoly(tuple(rng.randrange(-9, 10)
                              for _ in range(p ** 3 + 1)))
            coords = delta_basis_expand(x, p, 3)
            return (delta_basis_combine(coords, p) == x.to_rational() and
                    all(c.denominator % p != 0 for c in coords.values()))

        out.trials("intpoly.delta_basis.p%d" % p, 10, roundtrip)


@suite("qhopf.structure_constants", "Prop p:G=Spec B_0")
def suite_qhopf_structure(cfg, out):
    # the closed form against elimination of the monomial-form product
    out.check("qhopf.structure_constants.integral_12", all(
        structure_constants(m, n) == _from_monomial(
            QHT.mul(_c_monomial(m), _c_monomial(n))) and
        all(g.den == 1 for g in structure_constants(m, n))
        for m in range(7) for n in range(m, 13 - m)))

    def h1_product(rng):
        a = B0Elem(tuple(QH.make([rng.randrange(-3, 4)]) for _ in range(4)))
        b = B0Elem(tuple(QH.make([rng.randrange(-3, 4)]) for _ in range(4)))
        return (b0_at_h1(b0_mul(a, b))
                == int_mul(b0_at_h1(a), b0_at_h1(b)))

    out.trials("qhopf.h1_matches_int", 20, h1_product, "qhopf.structure",
               ref="e:B_0 in terms of Int")
    out.check("qhopf.h0_divided_powers", all(
        QH.coeff(c, 0) == (math.comb(m + n, n) if k == m + n else 0)
        for m in range(5) for n in range(5)
        for k, c in enumerate(b0_mul(B0Elem.basis(m), B0Elem.basis(n))
                              .specialize_h(Fraction(0)))),
        ref="§sss:remarks on B_0")


@suite("qhopf.adams", "Lemma l:B_0 as lambda-ring")
def suite_qhopf_adams(cfg, out):
    def pair(rng):
        a = B0Elem(tuple(QH.make([rng.randrange(-2, 3), rng.randrange(-2, 3)])
                         for _ in range(8)))
        b = B0Elem(tuple(QH.make([rng.randrange(-2, 3)]) for _ in range(8)))
        return a, b

    def ring_hom(rng):
        a, b = pair(rng)
        return all(adams(n, a * b) == adams(n, a) * adams(n, b) and
                   adams(n, a + b) == adams(n, a) + adams(n, b)
                   for n in (2, 3, 4))

    def semigroup(rng):
        a, _ = pair(rng)
        return adams(2, adams(3, a)) == adams(6, a)

    # both checks draw the same pairs: each starts the stream afresh
    out.trials("qhopf.adams.ring_hom", 10, ring_hom, "qhopf.adams")
    out.trials("qhopf.adams.semigroup", 10, semigroup, "qhopf.adams")

    def coproduct(n, v, d):
        x = B0Elem.basis(d)
        lhs = b0_coproduct(adams(n, x))
        rhs = {}
        for (i, j), c in b0_coproduct(x).items():
            for k, f in enumerate(c):
                if f:
                    term = QH.mul(QH.make([0] * k + [f]),
                                  QH.pow(v, i + j + k))
                    rhs[(i, j)] = QH.add(rhs.get((i, j), QH.zero), term)
        return lhs == {ij: c for ij, c in rhs.items() if not QH.is_zero(c)}

    v_n = {n: v_scalar(n) for n in (2, 3, 4)}
    out.check("qhopf.adams.coproduct",
              all(coproduct(n, v, d) for n, v in v_n.items() for d in range(9)))


@suite("qhopf.delta", "e:defining relation")
def suite_qhopf_delta(cfg, out):
    out.check("qhopf.delta.t_p2", b0_delta(B0Elem.t(), 2) ==
              B0Elem((QH.zero, QH.one, QH.make([-1]))))

    def wilkerson(rng, p):
        x = B0Elem(tuple(QH.make([rng.randrange(-2, 3), rng.randrange(-2, 3)])
                         for _ in range(3)))
        diff = adams(p, x) - x ** p
        return all(c.den == 1 and not any(x % p for x in c.nums)
                   for c in diff.coords)

    out.trials("qhopf.wilkerson", 10, wilkerson, "qhopf.delta",
               primes=cfg.primes((2, 3, 5)), ref="§sss:Wilkerson")


@suite("qhopf.int_comparison", "e:B_0 in terms of Int")
def suite_qhopf_int(cfg, out):
    out.check("qhopf.to_int_h.basis",
              all(b0_to_int_h(B0Elem.basis(n)) == {n: IntPoly.basis(n)}
                  for n in range(1, 5)) and
              b0_to_int_h(B0Elem.t()) == {1: IntPoly.u()})

    def roundtrip(rng):
        f = IntPoly(tuple(rng.randrange(-4, 5) for _ in range(3)))
        n = max(f.degree(), 0) + rng.randrange(2)
        back = b0_to_int_h(b0_from_filtration(f, n))
        return back == ({n: f} if f.coords else {})

    out.trials("qhopf.filtration_roundtrip", 20, roundtrip, "qhopf.int")


@suite("pd_dual.pairing", "e:BM_m times Gamma^+ to BM_m")
def suite_pd_pairing(cfg, out):
    out.check("pd_dual.pairing.matrix",
              all(pair_xu(m, PDElem.gamma(n)) == gen_binom(m, n)
                  for m in range(-6, 7) for n in range(13)))
    out.check("pd_dual.pairing.distr",
              all(pair_distr(delta_to_e(m, 14), PDElem.gamma(n)) ==
                  gen_binom(m, n) for m in range(-6, 7) for n in range(13)),
              ref="Lemma l:the dual of G_m^sharp")
    out.check("pd_dual.delta_to_e.convolution",
              all(distr_mul(delta_to_e(m, 10 + abs(m) + abs(n)),
                            delta_to_e(n, 10 + abs(m) + abs(n)))
                  == delta_to_e(m + n, 10 + abs(m) + abs(n))
                  for m in range(-3, 4) for n in range(-3, 4)),
              ref="§sss:Distributions")


@suite("pd_dual.log_sharp", "Lemma l:factorization of log")
def suite_pd_log_sharp(cfg, out):
    out.check("pd_dual.log_sharp.stirling",
              all(log_sharp_power(k, n).coord(n) == stirling_first(n, k)
                  for n in range(21) for k in range(1, min(n, 10) + 1)))
    out.check("pd_dual.log_sharp.k2",
              log_sharp_power(2, 4).coords == (0, 0, 1, -3, 11))


@suite("pd_dual.mu_p", "Lemma l:mu_p in G_m^sharp")
def suite_pd_mu_p(cfg, out):
    for p in cfg.primes((2, 3, 5)):
        rng = check_stream(cfg.seed, "pd_dual.mu_p.p%d" % p)
        rep = mu_p_pd_check(p, cfg.count(200), rng)
        out.check("pd_dual.mu_p.p%d" % p, not rep["failures"],
                  "trials=%d" % rep["trials"])


@suite("pd_dual.gsharp", "Prop p:G_m^sharp/mu_p")
def suite_pd_gsharp(cfg, out):
    for p in cfg.primes((2, 3)):
        rng = check_stream(cfg.seed, "pd_dual.gsharp.p%d" % p)
        rep = gsharp_comparison(p, 12, cfg.count(25), rng)
        expected = {2: (0, 1, 1), 3: (0, 1, 2, 2)}.get(p)
        out.check("pd_dual.gsharp.p%d" % p, not rep["failures"] and (
            expected is None or tuple(rep["z_coords"]) == expected))


@suite("pd_dual.exact_sequence", "e:G_m^sharp sequence", n_p=Param(6, hi=6))
def suite_pd_exact_sequence(cfg, out):
    # log(x^u) = u log x and the exp(uv) pairing do not depend on p
    rep = log_and_pairing_check(5)
    shared = rep["log_xu"] and rep["exp_pairing"]
    for p in cfg.primes((2, 3)):
        out.check("pd_dual.exact_sequence.p%d" % p,
                  shared and log_mu_p_vanishes(p, cfg.n_p))


@suite("cartier_witt.universal_pairing", "e:Euler series", n_z=Param(8, hi=8))
def suite_cw_universal(cfg, out):
    f = universal_pairing(cfg.n_z)
    out.check("cartier_witt.universal_pairing.equation", f.verify())
    h = QH.x
    spec = specialize_pairing_at_t(6, h)
    out.check("cartier_witt.universal_pairing.t_h",
              QH.eq(spec.coefficient((1,)), h) and all(
                  QH.is_zero(spec.coefficient((n,))) for n in range(2, 7)),
              ref="Prop p:G_Q^!=SpfB")


@suite("cartier_witt.eigen", "e:G^!? in terms of big Witt",
       N_big=Param(12, lo=9))
def suite_cw_eigen(cfg, out):
    N = cfg.N_big
    f = universal_pairing(N)
    q = B0Elem((QH.make([1, 1]),))
    wI, wII = embed_G_I(f), embed_G_II(f)
    out.check("cartier_witt.eigen_I.universal",
              f.verify() and all(eigencheck_I(wI, q, m) for m in (2, 3)))
    out.check("cartier_witt.eigen_II.universal",
              eigencheck_II(wII, q, 2) and eigencheck_II(wII, q, 3),
              ref="e:G^!! in terms of big Witt")
    Z = ExactInt()

    def series(qv, k):
        """sum_n binom(k, n) h^n z^n with h = qv - 1."""
        h = qv - 1
        coeffs = {(n,): gen_binom(k, n) * h ** n for n in range(N + 1)}
        return MultHomSeries(TruncSeries(Z, ("z",), coeffs, N), "G", h)

    def degenerates(k):
        vI = embed_G_I(series(2, k))
        return all(eigencheck_R(vI, m) for m in (2, 3, 4))

    def numeric(rng):
        qv, k = rng.randrange(2, 8), rng.randrange(-5, 6)
        g = series(qv, k)
        vI, vII = embed_G_I(g), embed_G_II(g)
        return all(eigencheck_I(vI, qv, m) and eigencheck_II(vII, qv, m)
                   for m in (2, 3))

    def q2(rng):
        qv, k = rng.randrange(2, 8), rng.randrange(-5, 6)
        return qv != 2 or degenerates(k)

    # both checks draw the same (q, k): each starts the stream afresh
    out.trials("cartier_witt.eigen.numeric", 50, numeric, "cartier_witt.eigen")
    out.trials("cartier_witt.eigen.q2_degeneration", 50, q2,
               "cartier_witt.eigen", then=lambda rng: degenerates(3),
               ref="§sss:[h]")


# eigencheck_II applies F_2 to psi_map's F_2 output, of order N_big // 2
@suite("cartier_witt.psi", "e:3 Psi_n", N_big=Param(12, lo=4))
def suite_cw_psi(cfg, out):
    P = QPoly()
    h, q = h_element(P), q_element(P)
    N = cfg.N_big
    w = teichmuller_big(P, N, h)
    w2, q2 = psi_map("I", 2, w, q)
    out.check("cartier_witt.psi_I",
              w2 == teichmuller_big(P, N, P.sub(P.pow(q, 2), P.one)) and
              eigencheck_I(w2, q2, 2), ref="e:2 Psi_n(w,q)")
    v = teichmuller_big(P, N, q) - teichmuller_big(P, N, P.one)
    v2, q2 = psi_map("II", 2, v, q)
    out.check("cartier_witt.psi_II",
              v2 == (teichmuller_big(P, N // 2, P.pow(q, 2)) -
                     teichmuller_big(P, N // 2, P.one)) and
              eigencheck_II(v2, q2, 2))


@suite("cartier_witt.wf_ring", "e:equations for W^F")
def suite_cw_wf_ring(cfg, out):
    out.check("cartier_witt.wf_ring.rewrite",
              all(wf_ring_reduce({(p,): 1}, p, 4) == {(1,): 1, (0, 1): -p}
                  for p in cfg.primes((2, 3, 5))))

    def evaluation(rng, p):
        expr = {tuple(rng.randrange(0, 2 * p) for _ in range(2)):
                rng.randrange(-5, 6) for _ in range(4)}
        red = wf_ring_reduce(expr, p, 6)
        return all(all(v < p for v in e) for e in red) and all(
            eval_bj_poly(expr, vals) == eval_bj_poly(red, vals)
            for vals in (fixed_point_bj_values(m, p, 7) for m in (-2, 1, 3)))

    out.trials("cartier_witt.wf_ring.evaluation", 20, evaluation,
               "cartier_witt.wf_ring", primes=cfg.primes((2, 3)),
               ref="§sss:proof of flatness of W^F")


@suite("cartier_witt.m_series", "Lemma l:simple lemma", n_z=Param(6, hi=6))
def suite_cw_m_series(cfg, out):
    reps = [m_series_identity(m, cfg.n_z) for m in (1, 2, 3)]
    out.check("cartier_witt.m_series", all(
        rep["power"] and rep["compose"] and rep["int_h1"] for rep in reps))


@suite("cartier_witt.hom_pullback", "Lemma l:motivation of lambda-structure")
def suite_cw_hom_pullback(cfg, out):
    reps = [hom_pullback_check(n) for n in (1, 2, 3, 6)]
    out.check("cartier_witt.hom_pullback", all(
        rep["scalar_identity"] and rep["hom"] for rep in reps))


DERHAM_GRID = ((2, 3, 4), (4, 6))
"""The default (L, n_p) grid of derham.log_exp."""


# at n_p = 1 (over F_p) sample_gdr's digit branches can all dead-end
@suite("derham.log_exp", "Lemma l:G_dR=W^{F=p}",
       L=Param(DERHAM_GRID[0], lo=2, hi=4), n_p=Param(DERHAM_GRID[1], lo=2))
def suite_derham_log_exp(cfg, out):
    for p in cfg.primes((2, 3)):
        for L, n_p in itertools.product(cfg.L, cfg.n_p):
            R = ModP(p, n_p)

            def roundtrip(rng):
                a = sample_gdr(R, p, L, rng)
                y = f_log(a)
                return is_eigen(y) and g_exp(y) == a

            def inverse_and_additive(rng):
                y = sample_eigen(R, p, L, rng)
                a, b = sample_gdr(R, p, L, rng), sample_gdr(R, p, L, rng)
                return f_log(g_exp(y)) == y and \
                    f_log(a.op(b)) == witt_op(f_log(a), f_log(b), "add")

            out.trials("derham.log_exp.p%d.L%d.np%d" % (p, L, n_p), 100,
                       roundtrip, then=inverse_and_additive)


@suite("derham.frobenius_power", "e:Fx=h(x)",
       n_p=Param(6, lo=2, hi=6), L=Param(3, hi=3))
def suite_derham_frobenius(cfg, out):
    for p in cfg.primes((2, 3)):
        R = ModP(p, cfg.n_p)

        def identity(rng):
            x = sample_gdr(R, p, cfg.L, rng)
            return frob_power_identity(x)["ok"]

        def on_grid(rng):  # one point in every cell of derham.log_exp's grid
            return all(
                frob_power_identity(sample_gdr(ModP(p, n_p), p, L, rng))["ok"]
                for L, n_p in itertools.product(*DERHAM_GRID))

        out.trials("derham.frobenius_power.p%d" % p, 50, identity,
                   "derham.frob.p%d" % p, then=on_grid)


@suite("derham.id_minus_v", "e:1-V", n_p=Param(6, hi=6), L=Param(4, hi=4))
def suite_derham_id_minus_v(cfg, out):
    for p in cfg.primes((2, 3)):
        R = ModP(p, cfg.n_p)

        def inverts_v(rng):
            y = sample_eigen(R, p, cfg.L, rng)
            z = id_minus_V(y)
            return frobenius(z).is_zero() and v_geometric(z) == y

        out.trials("derham.id_minus_v.p%d" % p, 50, inverts_v,
                   "derham.idv.p%d" % p)


@suite("derham.discrepancy", "e:f_naive & f")
def suite_derham_discrepancy(cfg, out):
    for p in cfg.primes((2, 3)):
        cid = "derham.discrepancy.p%d" % p
        R = PolyQuotRing(ModP(p, 1), (0, 0, 0, 1), "a")
        elems = [R.make_ints(v) for v in itertools.product(range(p), repeat=3)]
        nilp = [c for c in elems if R.is_zero(R.pow(c, p))]
        vectors = list(itertools.product(nilp, repeat=3))
        how = "exhaustive over %d kernel vectors" % len(vectors)
        if p >= 5:
            k = min(cfg.count(729), len(vectors))
            how = "sampled %d of %d kernel vectors, seed %d" % (
                k, len(vectors), cfg.seed)
            vectors = check_stream(cfg.seed, cid).sample(vectors, k)
        xs = [WittVector(R, p, comps) for comps in vectors]
        rep = discrepancy_check(R, p, 3, xs)
        # the kernel lemma: Fx = 0 gives px = x^p = 0
        kernel = all(frobenius(x).is_zero() and scalar_mul(p, x).is_zero()
                     and witt_pow(x, p).is_zero() for x in xs)
        out.check(cid,
                  not rep["failures"] and rep["differs_from_identity"] and kernel,
                  how)


@suite("derham.g_eta", "Prop p:G_eta")
def suite_derham_g_eta(cfg, out):
    for p in cfg.primes((2, 3)):
        R = PolyQuotRing(ModP(p, 1), (0, 0, 0, 1), "a")

        def two_pairs(rng):
            pairs = [(sample_f_kernel(R, p, 3, rng),
                      sample_f_kernel(R, p, 3, rng)),
                     (WittVector(R, p, [R.rand(rng) for _ in range(3)]),
                      sample_f_kernel(R, p, 3, rng))]
            return not g_eta_check(R, p, 3, pairs)["failures"]

        out.trials("derham.g_eta.p%d" % p, 40, two_pairs)


QPRISM_PRECISION = dict(n_p=Param(4, hi=4), n_q=Param(4, hi=4))
"""The precision of the q-deformed suites that build gq_ring(p, n_p, n_q)."""


@suite("qprism.group_law", "e:G_Q(A)", **QPRISM_PRECISION)
def suite_qprism_law(cfg, out):
    for p in cfg.primes((2, 3)):
        ring = gq_ring(p, cfg.n_p, cfg.n_q)
        zero = GQPoint(zero_vector(ring, p, 2), check=False)

        def law(rng):
            a = sample_gq(ring, p, 2, rng)
            b = sample_gq(ring, p, 2, rng)
            return ring.eq(gq_to_unit(a.op(b)),
                           ring.mul(gq_to_unit(a), gq_to_unit(b))) and \
                a.op(zero) == a

        out.trials("qprism.group_law.p%d" % p, 5, law, then=lambda rng:
                   gq_at_q1_matches_derham(p, cfg.n_p, 2, rng))


@suite("qprism.sigma", "e:sigma(q)", **QPRISM_PRECISION)
def suite_qprism_sigma(cfg, out):
    for p in cfg.primes((2, 3)):
        ring = gq_ring(p, cfg.n_p, cfg.n_q)
        s = sigma_point(ring, p, 3)
        qp = ring.pow(q_element(ring), p)
        expected = witt_op(teichmuller(ring, p, 2, qp),
                           witt_neg(teichmuller(ring, p, 2, ring.one)), "add")
        out.check("qprism.sigma.p%d" % p, ring.eq(gq_to_unit(s), qp) and
                  frobenius_of_point(s).x == expected)


@suite("qprism.q_exponential", "Prop p:G_Q^!=SpfB", **QPRISM_PRECISION)
def suite_qprism_qexp(cfg, out):
    for p in cfg.primes((2, 3)):
        rep = q_exp_agreement(p, cfg.n_p, cfg.n_q, 4)
        out.check("qprism.q_exponential.p%d" % p,
                  rep["coords_are_phi_powers"] and rep["agree"],
                  "tails=%s" % (rep["tails"],))


@suite("qprism.canonical_point", "Prop p:formula for tilde x",
       **QPRISM_PRECISION)
def suite_qprism_canonical(cfg, out):
    for p in cfg.primes((2, 3)):
        rep = canonical_point(p, cfg.n_p, cfg.n_q, L=2, t_deg=4)
        ok = rep["teichmuller"] and rep["rank_one"] and rep["zeroth_component"]
        out.check("qprism.canonical_point.p%d" % p, ok and
                  derham_specialization_of_x0(p, cfg.n_p, cfg.n_q),
                  "tail=%d" % rep["tail"])


def _q_log_floor(cfg):
    """q_log uses up q_log_precision_loss(p, n_q) digits; two must be left
    at every prime of the suite."""
    return max(q_log_precision_loss(p, cfg.n_q) + 2
               for p in cfg.primes((2, 3)))


@suite("qprism.q_log", "e:t=log_q(u)",
       n_q=Param(4, hi=4), n_p=Param(6, lo=_q_log_floor, hi=6))
def suite_qprism_qlog(cfg, out):
    n_p, n_q = cfg.n_p, cfg.n_q
    for p in cfg.primes((2, 3)):
        ring = gq_ring(p, n_p, n_q)

        def additive(rng):
            a = sample_gq(ring, p, 2, rng)
            b = sample_gq(ring, p, 2, rng)
            oring, vs = q_log(a.op(b))
            va, vb = q_log(a)[1], q_log(b)[1]
            return oring.eq(vs, oring.add(va, vb))

        out.trials("qprism.q_log.p%d" % p, 3, additive,
                   then=lambda rng: q_log_of_sigma(p, n_p, n_q)[0])


@suite("qprism.zp_action", "Cor c:Z_p^times-action on H_Q",
       n_p=Param(6, hi=6), n_q=Param(6, hi=6), n_z=Param(6, hi=6))
def suite_qprism_zp(cfg, out):
    for p in cfg.primes((2, 3, 5)):
        reps = [equivariance_report(p, n, cfg.n_p, cfg.n_q, cfg.n_z)
                for n in (2, 3, 4) if n % p != 0]
        out.check("qprism.zp_action.p%d" % p, all(
            rep["equivariant"] and rep["composes"] and
            rep["exact_polynomial_identity"] for rep in reps))


@suite("qprism.hodge_tate", "e:restriction of H_Q^alg to Delta_0_Q",
       n_p=Param(6), n_z=Param(5, lo=2))
def suite_qprism_hodge_tate(cfg, out):
    # the (zeta-1) z1 z2 term of the law reaches the log from order 2 on
    for p in cfg.primes((2, 3, 5)):
        rep = hodge_tate_check(p, cfg.n_p, cfg.n_z)
        out.check("qprism.hodge_tate.p%d" % p, rep["additive"] and
                  rep["kills_torsion_point"] and rep["leading_one"])


@suite("qprism.sections", "e:s_Q & varphi_Q")
def suite_qprism_sections(cfg, out):
    out.check("qprism.factorization",
              all(factorization_identity(p) for p in cfg.primes((2, 3, 5))),
              ref="e:F^{-1}(D)")
    out.check("qprism.phi_section",
              all(phi_of_section_identity(p) for p in cfg.primes((2, 3))))


CRITERIA = {
    1: ("invented — artifact plumbing",
        ("witt.ghost", "witt.universal", "witt.frobenius")),
    2: ("Lemma l:G_dR=W^{F=p}", ("derham.log_exp", "derham.frobenius_power")),
    3: ("e:f_naive & f", ("derham.discrepancy",)),
    4: ("Prop p:formula for tilde x", ("qprism.canonical_point",)),
    5: ("Prop p:G_Q^!=SpfB", ("qprism.q_exponential",)),
    6: ("Prop p:G=Spec B_0", ("qhopf.structure_constants", "qhopf.adams")),
    7: ("e:G^!? in terms of big Witt", ("cartier_witt.eigen",)),
    8: ("Lemma l:factorization of log",
        ("pd_dual.pairing", "pd_dual.log_sharp", "pd_dual.mu_p",
         "pd_dual.gsharp")),
    9: ("Lemma l:Fr=id",
        ("intpoly.wilkerson", "intpoly.mahler", "intpoly.delta_basis")),
    10: ("Prop p:sigma^* is equivariant", ("qprism.zp_action",)),
    11: ("e:restriction of H_Q^alg to Delta_0_Q", ("qprism.hodge_tate",)),
    12: ("e:group law for H_Q", ("fgl.axioms",)),
}
"""Acceptance criterion number -> (reference tag, the suites whose checks
make it up)."""


def _named(sid: str, name: str) -> bool:
    return name == "all" or sid == name or sid.startswith(name + ".")


def list_suites() -> list:
    """Suite ids with their reference tags, then each criterion with its
    member suites."""
    return ([("%s — %s" % (sid, ref)) for sid, ref, _, _ in SUITES] +
            ["criteria.%d — %s — runs %s" % (num, ref, ", ".join(members))
             for num, (ref, members) in CRITERIA.items()])


def select_criteria(name: str) -> list:
    """The numbers of the criteria that `name` selects."""
    return [num for num in CRITERIA if _named("criteria.%d" % num, name)]


def select_suites(name: str) -> list:
    """The suites that `name` selects, directly or as criterion members,
    each once and in registry order."""
    members = {sid for num in select_criteria(name)
               for sid in CRITERIA[num][1]}
    chosen = [s for s in SUITES if s[0] in members or _named(s[0], name)]
    if not chosen:
        raise ConfigError("unknown suite %r" % name)
    return chosen


def plan(cfg: SuiteConfig) -> list:
    """The selected suites as (sid, ref, fn, filled): `filled` is cfg with
    each precision field the suite declares set to the config's value, or
    the suite's default where the config has None, and the others None.
    Raises ConfigError on an invalid field, a value outside a selected
    suite's range, or a value that no selected suite reads."""
    cfg.validate()
    chosen = select_suites(cfg.suite)
    for name, value in cfg.precision().items():
        if not any(name in declared for _, _, _, declared in chosen):
            raise ConfigError("%s = %s is read by no selected suite"
                              % (name, value))
    planned = []
    for sid, ref, fn, declared in chosen:
        filled = replace(cfg, **{name: declared[name].fill(getattr(cfg, name))
                                 if name in declared else None
                                 for name in PRECISION})
        for name, param in declared.items():
            why = param.refusal(filled, name)
            if why:
                raise ConfigError("%s: %s" % (sid, why))
        planned.append((sid, ref, fn, filled))
    return planned


def run(cfg: SuiteConfig) -> tuple:
    """Execute the configured suites, each with its filled-in config from
    plan; returns (report dict, exit code)."""
    checks: list = []
    produced: dict = {}
    for sid, ref, fn, filled in plan(cfg):
        out = Recorder(filled, ref)
        try:
            fn(filled, out)
        except Exception as err:  # noqa: BLE001 - suites must not crash the run
            out.check(sid + ".error", False,
                      "%s: %s" % (type(err).__name__, err))
        produced[sid] = out.checks
        checks += out.checks
    for num in select_criteria(cfg.suite):
        ref, suites = CRITERIA[num]
        members = [c for sid in suites for c in produced[sid]]
        bad = [c["id"] for c in members if c["status"] != "pass"]
        detail = ("failing: " + ", ".join(bad) if bad else
                  "%d checks of %s" % (len(members), ", ".join(suites)))
        checks.append(_record("criteria.%d" % num, ref,
                              bool(members) and not bad, detail, {}, 0.0))
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


# built once at import: main may be called many times in one process
_PARSER = argparse.ArgumentParser(
    prog="verify",
    description="Run exact-arithmetic verification suites.")
_PARSER.add_argument("--suite", default="all")
_PARSER.add_argument("--p", type=int, default=None)
# a precision flag left out takes each suite's own value
_PARSER.add_argument("--padic-prec", type=int, dest="n_p")
_PARSER.add_argument("--q-prec", type=int, dest="n_q")
_PARSER.add_argument("--series-order", type=int, dest="n_z")
_PARSER.add_argument("--witt-len", type=int, dest="L")
_PARSER.add_argument("--bigwitt", type=int, dest="N_big")
_PARSER.add_argument("--trials", type=int)
_PARSER.add_argument("--seed", type=int, default=0)
_PARSER.add_argument("--format", choices=("text", "json"), default="text")
_PARSER.add_argument("--out", default=None)
_PARSER.add_argument("--list", action="store_true",
                     help="list suite ids with their reference tags, and "
                          "each criterion with its member suites")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if args.list:
        print("\n".join(list_suites()))
        return 0
    cfg = SuiteConfig(**{k: v for k, v in vars(args).items() if k != "list"})
    try:
        plan(cfg)
        # open --out before any suite runs, so a bad path costs no run
        dest = open(cfg.out, "w") if cfg.out else nullcontext(sys.stdout)
    except (ConfigError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    with dest as fh:
        report, code = run(cfg)
        print(json.dumps(report, indent=2) if cfg.format == "json"
              else render_text(report), file=fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

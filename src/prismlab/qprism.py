"""The q-deformed fiber: points (q, x) with 1 + Phi_p([q]) x Teichmuller,
the canonical Witt point of the completed coordinate ring, the two forms of
the q-exponential, the q-logarithm, the unit-group action, and the
cyclotomic (Hodge-Tate) specialization.

The completed ring (infinite sums sum a_n c_n with a_n -> 0 in the
(p, q-1)-adic topology) is modeled exactly: elements live in
Q[h]/(h^n_q)[t] (bhat_ring) with rational coefficients, infinite sums are
cut at an explicit tail index, and every comparison happens inside the box
(p^n_p, h^n_q) with the tail error certified to fall outside it.  The box's
h-cut is the ring's own truncation, so a box check reads only p^n_p.  The
basis c_n and the coordinates against it are qhopf's (_c_monomial,
_from_monomial), computed in this truncated ring.  Divisions by p or by
Phi_p(q) are exact in this representation, so no precision is lost inside
a computation.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from typing import NamedTuple

from .derham import _RescaledPoint, gdr_op, sample_gdr
from .fgl import FGLHom, additive_law, h_law, verify_hom
from .qhopf import _c_at_mt, _c_monomial, _from_monomial
from .ringcore import (
    BoundExceeded, CyclotomicRing, DomainError, ModP, NotIntegral,
    PolyQuotRing, QPoly, QSeriesRing, RatPoly, RatRing, TruncSeries,
    _last_live_term, _log_term_ring, _padic_profile, build_once, h_element,
    q_element, q_number, valuation,
)
from .witt import (
    DeltaRing, WittVector, frobenius, from_ghost, ghost_combine,
    joyal_lift, teichmuller, witt_sub,
)


# ---------------------------------------------------------------------------
# the exact model of the completed ring


def bhat_ring(h_prec: int) -> PolyQuotRing:
    """Q[h]/(h^h_prec)[t]: the exact cover of the completed ring, whose
    h-cut is the h-side of the box."""
    hring = PolyQuotRing(RatRing(), (0,) * h_prec + (1,), "h")
    return PolyQuotRing(hring, None, "t")


def frac_vp(f: Fraction, p: int) -> int | None:
    """v_p of a rational number; None for 0, whose valuation is infinite."""
    if f == 0:
        return None
    return valuation(f.numerator, p) - valuation(f.denominator, p)


def vp_at_least(f: Fraction, p: int, n: int) -> bool:
    """v_p(f) >= n, counting v_p(0) as infinite."""
    return f == 0 or frac_vp(f, p) >= n


def bh_in_box(a, p: int, n_p: int, t_deg: int | None = None) -> bool:
    """Whether an element of bhat_ring(n_q) vanishes mod (p^n_p, h^n_q),
    optionally only on the monomials of t-degree <= t_deg.  The ring keeps
    no h^n_q, so only the p-side is left to check."""
    return all(x % p ** (n_p + valuation(hc.den, p)) == 0
               for hc in (a if t_deg is None else a[:t_deg + 1]) for x in hc.nums)


def bh_eq_box(R, a, b, p, n_p, t_deg=None) -> bool:
    return bh_in_box(R.sub(a, b), p, n_p, t_deg)


def bh_phi_endo(R: PolyQuotRing, p: int):
    """The Frobenius lift: q -> q^p (h -> (1+h)^p - 1) and t -> Phi_p(q) t."""
    H = R.scalar
    hp = H.sub(H.pow(H.make([1, 1]), p), H.one)
    t_image = R.make([H.zero, q_number(H, p)])
    return lambda a: R.subst(R.make([H.subst(hc, hp) for hc in a]), t_image)


# ---------------------------------------------------------------------------
# the q-exponential, two ways


@build_once
def _phi_series(p: int, n_p: int, n_q: int, slack: int) -> tuple:
    """(R, x0, X, tail) with R = bhat_ring(n_q), tail = n_p + n_q + slack,
    x0 = sum_{1 <= n <= tail} c_n Phi_p(q)^(n-1) and X = 1 + Phi_p(q) x0 =
    sum_{n <= tail} c_n Phi_p(q)^n: X - 1 = Phi x0 needs no division.
    Built once per key (ringcore.build_once): q_exponential and the
    canonical construction at L = 2 share the key (p, n_p, n_q, 8)."""
    R = bhat_ring(n_q)
    H = R.scalar
    phi = q_number(H, p)
    tail = n_p + n_q + slack
    x0 = R.zero
    power = H.one
    for n in range(1, tail + 1):
        if n > 1:
            power = H.mul(power, phi)
        x0 = R.add(x0, R.mul(R.make([power]), _c_monomial(n, R)))
    return R, x0, R.add(R.one, R.mul(R.make([phi]), x0)), tail


def q_exponential(p: int, n_p: int, n_q: int) -> dict:
    """X = sum c_n(t,h) Phi_p(q)^n, cut where Phi^n falls outside the box:
    the X of the canonical point at L = 2.

    Returns the ring, the element, and the bookkeeping of the cut."""
    R, _, X, tail = _phi_series(p, n_p, n_q, 8)
    # certificate: the next coordinate Phi^(tail+1) is already in the box
    if not bh_in_box((R.scalar.pow(q_number(R.scalar, p), tail + 1),), p, n_p):
        raise BoundExceeded("Phi^%d not yet inside the box" % (tail + 1))
    return {"ring": R, "element": X, "tail": tail}


def q_exp_alt(p: int, n_p: int, n_q: int, t_deg: int) -> dict:
    """sum_n c_n(pt, h): the c_k-coordinate of the n-th summand is an
    integer polynomial divisible by h^(n-k), so coordinates of degree <= K
    receive no contribution past n = K + n_q."""
    R = bhat_ring(n_q)
    n_max = t_deg + n_q
    acc = R.zero
    for n in range(n_max + 1):
        acc = R.add(acc, _c_at_mt(n, p, R))
    return {"ring": R, "element": acc, "tail": n_max}


def q_exp_agreement(p: int, n_p: int, n_q: int, t_deg: int) -> dict:
    """The two sums agree coordinatewise mod (p^n_p, h^n_q) up to t_deg;
    coordinates of the first form are exactly Phi^k."""
    e1 = q_exponential(p, n_p, n_q)
    e2 = q_exp_alt(p, n_p, n_q, t_deg)
    R = e1["ring"]
    H = R.scalar
    c1 = _from_monomial(e1["element"], R)
    c2 = _from_monomial(e2["element"], R)
    phi = q_number(H, p)
    ok_phi = True
    power = H.one
    for k in range(t_deg + 1):
        if k:
            power = H.mul(power, phi)
        ok_phi = ok_phi and H.eq(R.coeff(c1, k), power)
    # coordinate vectors subtract coefficientwise, as elements of R do
    return {"coords_are_phi_powers": ok_phi,
            "agree": bh_eq_box(R, c1, c2, p, n_p, t_deg),
            "tails": (e1["tail"], e2["tail"])}


# ---------------------------------------------------------------------------
# the canonical Witt point


class _Canonical(NamedTuple):
    """The part of canonical_point that does not depend on t_deg."""

    ring: PolyQuotRing
    x0: tuple
    X: tuple
    x: WittVector
    phi_X: tuple                # phi(X)
    X_p: tuple                  # X^p
    teich_lhs: WittVector       # 1 + Phi_p([q]) x
    teich_rhs: WittVector       # [X]
    tail: int


@build_once
def _canonical_construction(p: int, n_p: int, n_q: int, L: int) -> _Canonical:
    """The construction behind canonical_point, built once per
    (p, n_p, n_q, L) (ringcore.build_once), however many threads ask."""
    R, x0, X, tail = _phi_series(p, n_p, n_q, L + 6)
    H = R.scalar
    phi_endo = bh_phi_endo(R, p)
    dr = DeltaRing(R, p, phi_endo)
    x = joyal_lift(dr, x0, L)
    # Teichmuller identity: 1 + Phi_p([q]) x = [X], with q = 1 + h
    lhs = _one_plus_phi_x(x, R.make([H.make([1, 1])]))
    rhs = teichmuller(R, p, L, X)
    return _Canonical(R, x0, X, x, phi_endo(X), R.pow(X, p), lhs, rhs, tail)


def canonical_point(p: int, n_p: int, n_q: int, L: int = 2,
                    t_deg: int = 4) -> dict:
    """x = (Joyal lift of (X-1)/Phi): the 0-th component is the explicit
    series, 1 + Phi_p([q]) x is the Teichmuller lift of X componentwise in
    the box, and phi(X) = X^p (the rank-one condition).

    The construction is built once per (p, n_p, n_q, L) by
    ringcore.build_once: concurrent first callers wait for one build and
    share it.  The box checks at t_deg run on every call, and every call
    returns a new dict."""
    c = _canonical_construction(p, n_p, n_q, L)
    R = c.ring
    teich_ok = all(bh_eq_box(R, a, b, p, n_p, t_deg)
                   for a, b in zip(c.teich_lhs.components,
                                   c.teich_rhs.components))
    rank_one = bh_eq_box(R, c.phi_X, c.X_p, p, n_p, t_deg)
    # 0-th component is the explicit series by construction
    zeroth = c.x.components[0] == c.x0
    return {"ring": R, "x": c.x, "X": c.X, "x0": c.x0,
            "teichmuller": teich_ok, "rank_one": rank_one,
            "zeroth_component": zeroth, "tail": c.tail}


def derham_specialization_of_x0(p: int, n_p: int, n_q: int) -> bool:
    """At q = 1 the 0-th component becomes (exp(pt) - 1)/p, checked up to
    t^6."""
    c = _canonical_construction(p, n_p, n_q, 2)
    H = c.ring.scalar
    return all(H.coeff(c.ring.coeff(c.x0, i), 0)
               == Fraction(p ** (i - 1), math.factorial(i)) for i in range(1, 7))


def r0_relation_check(p: int, n_p: int, n_q: int, t_deg: int = 4) -> dict:
    """delta(1 + Phi_p(q) x0) = 0: the rank-one condition phi(X) = X^p,
    plus its t = 0 and q = 1 degenerations."""
    cp = canonical_point(p, n_p, n_q, L=2, t_deg=t_deg)
    c = _canonical_construction(p, n_p, n_q, 2)
    R = c.ring
    out = {"rank_one": cp["rank_one"]}
    # t = 0 fiber: X(0) = 1
    out["t0_fiber"] = R.scalar.eq(R.coeff(c.X, 0), R.scalar.one)
    # q = 1 fiber: phi(X) and X^p both specialize to exp(p^2 t) in the box
    out["q1_fiber"] = all(
        vp_at_least(R.scalar.coeff(R.coeff(a, i), 0)
                    - Fraction(p ** (2 * i), math.factorial(i)), p, n_p)
        for i in range(t_deg + 1) for a in (c.phi_X, c.X_p))
    return out


# ---------------------------------------------------------------------------
# concrete points over Z[q]/((q-1)^n_q, p^n_p)


def gq_ring(p: int, n_p: int, n_q: int) -> PolyQuotRing:
    return QSeriesRing(n_q, p=p, n_p=n_p)


def _one_plus_phi_x(x: WittVector, q) -> WittVector:
    """1 + Phi_p([q]) x, one ghost solve: [q] has n-th ghost q^(p^n), so
    Phi_p([q]) = 1 + [q] + ... + [q^(p-1)] has n-th ghost Phi_p(q^(p^n))."""
    p = x.p
    return ghost_combine((x, teichmuller(x.ring, p, x.L, q)), lambda r, g: [
        r.add(r.one, r.mul(q_number(r, p, gq), gx)) for gx, gq in zip(*g)])


class GQPoint(_RescaledPoint):
    """(q, x): x a Witt vector with 1 + Phi_p([q]) x Teichmuller."""

    __slots__ = ()
    refusal = "1 + Phi_p([q]) x is not Teichmuller"
    tag = "GQ"

    @staticmethod
    def _unit(x: WittVector) -> WittVector:
        return _one_plus_phi_x(x, q_element(x.ring))


def gq_to_unit(a: GQPoint):
    return GQPoint._unit(a.x).components[0]


def gq_op(a: GQPoint, b: GQPoint) -> GQPoint:
    """x1 + x2 + Phi_p([q]) x1 x2, one ghost solve, with the ghosts of
    Phi_p([q]) as in _one_plus_phi_x."""
    x1, x2 = a.x, b.x
    x1._check(x2)
    p = x1.p
    tq = teichmuller(x1.ring, p, x1.L, q_element(x1.ring))
    out = ghost_combine((x1, x2, tq), lambda r, g: [
        r.add(r.add(g1, g2), r.mul(q_number(r, p, gq), r.mul(g1, g2)))
        for g1, g2, gq in zip(*g)])
    return GQPoint(out, check=False)


def sigma_point(ring, p, L) -> GQPoint:
    """sigma(q) = (q, [q] - 1); its unit is q^p."""
    q = q_element(ring)
    one = teichmuller(ring, p, L, ring.one)
    x = witt_sub(teichmuller(ring, p, L, q), one)
    return GQPoint(x)


def frobenius_of_point(a: GQPoint) -> GQPoint:
    """F(q, x) = (q^p, F x), landing over the subring generated by q^p."""
    return GQPoint(frobenius(a.x), check=False)


def q_power_substitute(ring: PolyQuotRing, elem, n: int):
    """The ring map q -> q^n, i.e. h -> (1+h)^n - 1."""
    target = ring.sub(ring.pow(ring.add(ring.one, ring.x), n), ring.one)
    return ring.subst(elem, target)


def sample_gq(ring, p, L, rng) -> GQPoint:
    """Random point: lift U = 1 + Phi_p(q) r exactly and solve the ghost
    equations of Phi_p([q]) x = [U] - 1 over Q[h], where Phi_p(q^(p^i)),
    p modulo h, is a unit; ring.from_rational certifies p-integrality of
    each component and reduces it."""
    rring = PolyQuotRing(RatRing(), ring.modulus, ring.var)
    phi = q_number(rring, p)
    for _ in range(32):
        r = [rng.randrange(-9, 10) for _ in range(ring.deg)]
        U = rring.add(rring.one, rring.mul(phi, rring.make(r)))
        # ghost_i(x) = (U^(p^i) - 1) / Phi_p(q^(p^i))
        ghosts = [rring.mul(rring.sub(rring.pow(U, p ** i), rring.one),
                            rring.inv(q_power_substitute(rring, phi, p ** i)
                                      if i else phi))
                  for i in range(L)]
        try:
            return GQPoint(from_ghost(rring, p, ghosts)._map(
                ring, ring.from_rational))
        except (NotIntegral, DomainError):
            continue
    raise BoundExceeded("no q-deformed point found")


# ---------------------------------------------------------------------------
# the q-logarithm


def _h_over_log(n_q: int) -> RatPoly:
    """h / log(1+h), the inverse of R_log = log(1+h)/h, in Q[h]/(h^n_q)."""
    rring = PolyQuotRing(RatRing(), (0,) * n_q + (1,), "h")
    return rring.inv(rring.make([Fraction((-1) ** k, k + 1)
                                 for k in range(n_q)]))


def _precision_loss(p: int, h_over_log: RatPoly) -> int:
    """One digit for the division by p plus the worst p-adic denominator
    among the coefficients of h/log(1+h)."""
    return 1 + max([-v for v in (frac_vp(c, p) for c in h_over_log)
                    if v is not None and v < 0], default=0)


def q_log(a: GQPoint) -> tuple:
    """(q-1) log_q of the point's unit, normalized so that sigma goes to
    q - 1: computed as log(U) (q-1)/(p log q), exactly over Q[h] with the
    p-adic tail cut certified, then reduced.

    The precision is the one the point's ring Z/p^n_p[q]/((q-1)^n_q)
    carries.  The division by p costs one digit: the result is valid mod
    p^(n_p - 1) and is returned together with its output ring at that
    precision.

    The one log sum besides padic_log, kept over Q[h]: at p = 2, n_q >= 5
    some terms (U - 1)^n / n are not p-integral, and padic_log, dividing
    term by term, raises NotIntegral where this sum succeeds.
    """
    ring = a.x.ring
    p, n_p, n_q = _padic_profile(ring)
    rring = PolyQuotRing(RatRing(), ring.modulus, ring.var)
    U = rring.make_ints(gq_to_unit(a))
    # log(U): U - 1 is in (p, h), so v_p of the n-th term grows like
    # n/(p-1)-ish minus log_p n; cut generously
    n_max = (n_p + n_q + 4) * max(1, p - 1)
    w = rring.sub(U, rring.one)
    log_u = rring.zero
    power = rring.one
    for n in range(1, n_max + 1):
        power = rring.mul(power, w)
        log_u = rring.add(log_u,
                          rring.mul(power, rring.make([Fraction((-1) ** (n - 1), n)])))
    inv = _h_over_log(n_q)
    val = rring.mul(log_u, inv)
    val = rring.div_int_exact(val, p)
    loss = _precision_loss(p, inv)
    if n_p - loss < 1:
        raise BoundExceeded(
            "q-log needs input precision above %d at n_q = %d" % (loss, n_q))
    out_ring = QSeriesRing(n_q, p=p, n_p=n_p - loss)
    out = out_ring.from_rational(val)
    if out is None:
        raise NotIntegral("q-log value is not p-integral at this precision")
    return out_ring, out


def q_log_precision_loss(p: int, n_q: int) -> int:
    """Digits of p-precision consumed by q_log: one for the division by p
    plus the worst denominator of ((q-1)/log q), measured on its actual
    coefficients."""
    return _precision_loss(p, _h_over_log(n_q))


def q_log_of_sigma(p: int, n_p: int, n_q: int):
    ring = gq_ring(p, n_p, n_q)
    out_ring, val = q_log(sigma_point(ring, p, 2))
    return out_ring.eq(val, h_element(out_ring)), val


# ---------------------------------------------------------------------------
# unit-group action on the deformed multiplicative law


def h_n_series(ring, n: int, order: int) -> TruncSeries:
    """h_n(z, q) = ((1+(q-1)z)^n - 1)/(q-1) = sum C(n,i)(q-1)^(i-1) z^i."""
    h = h_element(ring)
    coeffs = {}
    for i in range(1, min(n, order) + 1):
        coeffs[(i,)] = ring.mul_int(ring.pow(h, i - 1), math.comb(n, i))
    return TruncSeries(ring, ("z",), coeffs, order)


def zp_action(ring, n: int, order: int) -> TruncSeries:
    """The action of the unit n on the coordinate z, as a series:
    z -> h_n(z, q)/h_n(1, q); needs v_n = h_n(1,q) invertible (n prime
    to p)."""
    hn = h_n_series(ring, n, order)
    vn = q_number(ring, n)
    inv = ring.inv(vn)
    if inv is None:
        raise NotIntegral("h_n(1, q) is not invertible for n = %d" % n)
    return hn.scale(inv)


def sigma_star(ring, z: TruncSeries) -> TruncSeries:
    """(q, z) -> 1 + (q-1) z."""
    one = TruncSeries.one(ring, z.variables, z.order)
    return one + z.scale(h_element(ring))


def equivariance_report(p: int, n: int, n_p: int, n_q: int, n_z: int) -> dict:
    """sigma* intertwines the action with n-th powers, and the action
    composes: action(m) after action(n) = action(mn)."""
    ring = gq_ring(p, n_p, n_q)
    z = TruncSeries.var(ring, ("z",), n_z, "z")
    act = zp_action(ring, n, n_z)
    # equivariance: the image point has base q^n and coordinate act(z), so
    # sigma* of it is 1 + (q^n - 1) act(z); it must equal (1 + (q-1)z)^n
    hn_elem = ring.sub(ring.pow(q_element(ring), n), ring.one)
    lhs = TruncSeries.one(ring, ("z",), n_z) + act.scale(hn_elem)
    rhs = sigma_star(ring, z) ** n
    ok_equi = lhs == rhs
    # composition of actions
    ok_comp = True
    for m in (2, 3):
        if math.gcd(m * n, p) != 1:
            continue
        act_m_at_qn = zp_action(ring, m, n_z).map_coeffs(
            lambda c: q_power_substitute(ring, c, n))
        composed = act_m_at_qn.subs({"z": act})
        direct = zp_action(ring, m * n, n_z)
        ok_comp = ok_comp and composed == direct
    # division-free global identity over Z[q]: (q-1) h_n + 1 = (1+(q-1)z)^n
    P = QPoly()
    zP = TruncSeries.var(P, ("z",), n_z, "z")
    lhsP = TruncSeries.one(P, ("z",), n_z) + \
        h_n_series(P, n, n_z).scale(h_element(P))
    rhsP = sigma_star(P, zP) ** n
    return {"equivariant": ok_equi, "composes": ok_comp,
            "exact_polynomial_identity": lhsP == rhsP}


# ---------------------------------------------------------------------------
# the cyclotomic fiber


def hodge_tate_check(p: int, n_p: int, order: int) -> dict:
    """(a) the logarithm map is additive for the law z1 + z2 + (zeta-1)z1z2;
    (b) it kills z = 1 (the image of Z/p); (c) its linear coefficient is 1.

    (b) sums lambda(1) to its last nonzero term: as (zeta-1)^(p-1) = p unit,
    the n-th term (zeta-1)^(n-1)/n has (zeta-1)-adic valuation
    n - 1 - (p - 1) v_p(n), so it is nonzero in Z/p^n_p[zeta] exactly when
    floor((n-1)/(p-1)) - v_p(n) < n_p (_lambda_cut)."""
    C = CyclotomicRing(p, n_p=n_p)
    zeta = q_element(C)
    lam = _lambda_series(C, order)
    # (a) additivity: a hom from the law to the additive one
    ok_add = verify_hom(FGLHom(lam, h_law(C, h_element(C), order),
                               additive_law(C, order), check=False))["ok"]
    # (b) lambda(1) = (zeta-1)^{-1} log(zeta) = 0
    lam_1 = _lambda_series(C, _lambda_cut(p, n_p))
    ok_kernel = C.is_zero(reduce(C.add, lam_1.coeffs.values(), C.zero))
    # (c) leading coefficient
    ok_lead = C.eq(lam.coefficient((1,)), C.one)
    return {"additive": ok_add, "kills_torsion_point": ok_kernel,
            "leading_one": ok_lead, "zeta": zeta}


def _lambda_cut(p: int, n_p: int) -> int:
    """The last n with n - 1 - (p - 1) v_p(n) < (p - 1) n_p: as v_p(n) <=
    floor_log(n, p), none lies past _last_live_term(p, (p - 1) n_p, 1)."""
    return max(n for n in range(1, _last_live_term(p, (p - 1) * n_p, 1) + 1)
               if n - 1 - (p - 1) * valuation(n, p) < (p - 1) * n_p)


def _lambda_series(C, order: int) -> TruncSeries:
    """(zeta-1)^{-1} log(1 + (zeta-1) z) = sum (-1)^(n-1) (zeta-1)^(n-1)/n z^n
    over C = CyclotomicRing(p, n_p), by padic_log's term routine."""
    wide, term, reduce_ = _log_term_ring(C, order)
    coeffs, power, zeta1 = {}, wide.one, h_element(wide)
    for n in range(1, order + 1):
        c = term(power, n)
        if c is None:
            raise NotIntegral("lambda coefficient %d not p-integral" % n)
        coeffs[(n,)] = reduce_(c)
        power = wide.mul(power, zeta1)
    return TruncSeries(C, ("z",), coeffs, order)


# ---------------------------------------------------------------------------
# exact polynomial shadows


def factorization_identity(p: int) -> bool:
    """q^p - 1 = (q - 1) Phi_p(q) in Z[q]."""
    P = QPoly()
    q = q_element(P)
    return P.eq(P.sub(P.pow(q, p), P.one),
                P.mul(h_element(P), q_number(P, p)))


def phi_of_section_identity(p: int) -> bool:
    """The [p]-series of the deformed law at z = Phi_p(q) equals
    (q^(p^2)-1)/(q-1), which also factors as Phi_p(q) Phi_p(q^p)+...;
    both closed forms agree exactly in Z[q]."""
    P = QPoly()
    q = q_element(P)
    h = h_element(P)
    phi = q_number(P, p)
    # [p]-series of z1+z2+(q-1)z1z2 is ((1+(q-1)z)^p - 1)/(q-1); at z = Phi:
    # (1+(q-1)Phi) = q^p, so the value is (q^(p^2)-1)/(q-1) = v_{p^2}
    val = q_number(P, p * p)
    lhs_num = P.sub(P.pow(P.add(P.one, P.mul(h, phi)), p), P.one)
    ok1 = P.eq(lhs_num, P.mul(h, val))
    phi_qp = q_power_substitute(P, phi, p)
    ok2 = P.eq(P.mul(phi, phi_qp), val)
    return ok1 and ok2


def gq_at_q1_matches_derham(p: int, n_p: int, L: int, rng) -> bool:
    """Specializing q to 1 collapses the deformed law onto the de Rham one,
    on five random pairs."""
    ring = gq_ring(p, n_p, 1)  # h = 0: the ring is Z/p^n_p itself in degree 0
    base = ModP(p, n_p)
    for _ in range(5):
        a = sample_gdr(base, p, L, rng)
        b = sample_gdr(base, p, L, rng)
        # transport to the h-adic ring with h = 0
        ax = WittVector(ring, p, [ring.make_ints([c]) for c in a.x.components])
        bx = WittVector(ring, p, [ring.make_ints([c]) for c in b.x.components])
        got = gq_op(GQPoint(ax, check=False), GQPoint(bx, check=False))
        expect = gdr_op(a, b)
        if [ring.coeff(c, 0) for c in got.x.components] != list(expect.x.components):
            return False
    return True

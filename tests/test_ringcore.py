import itertools
import random

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from prismlab import ringcore

from prismlab.ringcore import (
    CyclotomicRing, DoesNotConverge, ExactInt, ExactRat, IntModRing, ModP,
    NonIntegralCoefficient, NonzeroConstantTerm, PolyQuotRing,
    PrecisionExhausted, QPoly, QSeriesRing, RingMismatch, TruncSeries,
    _last_live_term, _log_term_bound, _padic_profile,
    clear_denominators, cyclotomic_modulus, floor_log, h_element, padic_log,
    q_element, q_number as phi_p_element, series_exp, series_inverse,
    valuation, widened,
)

from rational_twin import rational_twin


def z_series(ring, order, var="z"):
    return TruncSeries.var(ring, (var,), order, var)


def test_ring_basics():
    Z = ExactInt()
    assert Z.add(2, 3) == 5
    Q = ExactRat()
    assert Q.mul(Fraction(1, 2), Fraction(2, 3)) == Fraction(1, 3)
    R = ModP(2, 4)
    assert R.add(9, 9) == 2
    assert R.inv(3) == 11  # 3 * 11 = 33 = 1 mod 16
    assert R.inv(2) is None


def test_div_int_exact_over_z_mod_m_divides_the_representative():
    R = IntModRing(9)
    assert R.div_int_exact(6, 3) == 2 and R.div_int_exact(0, 3) == 0
    assert R.div_int_exact(4, 3) is None
    # 2 * 5 = 1 in Z/9, but the representative 1 of 1 is odd
    assert R.div_int_exact(1, 2) is None
    A = PolyQuotRing(R, (0, 0, 1), "a")
    assert A.div_int_exact(A.make([6, 3]), 3) == A.make([2, 1])
    assert A.div_int_exact(A.make([6, 1]), 3) is None
    assert A.div_int_exact(A.one, 2) is None


def test_qpoly_and_qseries():
    P = QPoly()
    q = q_element(P)
    h = h_element(P)
    assert P.sub(q, P.one) == h
    # (q-1)*(q+1) = q^2 - 1 = h^2 + 2h
    assert P.mul(h, P.add(q, P.one)) == P.make_ints([0, 2, 1])
    S = QSeriesRing(3)
    hh = h_element(S)
    assert S.pow(hh, 3) == S.zero
    assert S.pow(hh, 2) == S.make_ints([0, 0, 1])


def test_cyclotomic():
    C = CyclotomicRing(3)
    z = q_element(C)
    # 1 + z + z^2 = 0
    assert C.add(C.add(C.one, z), C.mul(z, z)) == C.zero
    assert C.pow(z, 3) == C.one
    Cm = CyclotomicRing(3, n_p=2)
    zm = q_element(Cm)
    assert Cm.pow(zm, 3) == Cm.one


def test_phi_p_element():
    P = QPoly()
    # Phi_2(q) = 1 + q = 2 + h
    assert phi_p_element(P, 2) == P.make_ints([2, 1])
    # Phi_3(q) = 1 + q + q^2 = 3 + 3h + h^2
    assert phi_p_element(P, 3) == P.make_ints([3, 3, 1])
    # q^p - 1 = (q-1) Phi_p(q)
    for p in (2, 3, 5):
        q = q_element(P)
        lhs = P.sub(P.pow(q, p), P.one)
        rhs = P.mul(h_element(P), phi_p_element(P, p))
        assert lhs == rhs


def test_series_mul_trivial():
    Z = ExactInt()
    z = z_series(Z, 2)
    one = TruncSeries.one(Z, ("z",), 2)
    # (1+z)(1-z) = 1 - z^2 at order 2
    assert (one + z) * (one - z) == TruncSeries(
        Z, ("z",), {(0,): 1, (2,): -1}, 2)


def test_series_commutes_two_vars():
    Z = ExactInt()
    z1 = TruncSeries.var(Z, ("z1", "z2"), 4, "z1")
    z2 = TruncSeries.var(Z, ("z1", "z2"), 4, "z2")
    assert z1 * z2 + z2 * z1 == (z1 * z2).scale(2)


def test_series_convolution_truncates():
    # (sum_{n<=4} z^n) * (1 - z) = 1 at order 4 (the z^5 term is cut)
    Z = ExactInt()
    f = TruncSeries(Z, ("z",), {(n,): 1 for n in range(5)}, 4)
    g = TruncSeries(Z, ("z",), {(0,): 1, (1,): -1}, 4)
    assert f * g == TruncSeries.one(Z, ("z",), 4)


def test_series_ring_mismatch():
    Z, Q = ExactInt(), ExactRat()
    with pytest.raises(RingMismatch):
        z_series(Z, 2) + z_series(Q, 2)


def test_compose_trivial():
    Z = ExactInt()
    one = TruncSeries.one(Z, ("z",), 3)
    f = one + z_series(Z, 3)
    g = -z_series(Z, 3)
    assert f.compose(g) == one - z_series(Z, 3)


def test_compose_exp_2z():
    Q = ExactRat()
    z = z_series(Q, 4)
    f = series_exp(z)
    g = z.scale(Fraction(2))
    got = f.compose(g)
    want = TruncSeries(Q, ("z",), {
        (0,): Fraction(1), (1,): Fraction(2), (2,): Fraction(2),
        (3,): Fraction(4, 3), (4,): Fraction(2, 3)}, 4)
    assert got == want


def test_compose_rational_oracle():
    # f = z/(1+z) composed with itself gives z/(1+2z)
    Q = ExactRat()
    z = z_series(Q, 3)
    one = TruncSeries.one(Q, ("z",), 3)
    f = z * series_inverse(one + z)
    got = f.compose(f)
    want = z * series_inverse(one + z.scale(Fraction(2)))
    assert got == want
    assert want == TruncSeries(Q, ("z",), {
        (1,): Fraction(1), (2,): Fraction(-2), (3,): Fraction(4)}, 3)


def test_compose_rejects_constant_term():
    Q = ExactRat()
    z = z_series(Q, 3)
    one = TruncSeries.one(Q, ("z",), 3)
    with pytest.raises(NonzeroConstantTerm):
        series_exp(z).compose(one + z)


def test_compose_associative():
    Z = ExactInt()
    rng = random.Random(7)

    def rand_series():
        return TruncSeries(Z, ("z",),
                           {(n,): rng.randrange(-4, 5) for n in range(1, 6)}, 6)

    for _ in range(10):
        f, g, h = rand_series(), rand_series(), rand_series()
        assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_ring_axioms_random_triples():
    Z = ExactInt()
    rng = random.Random(11)

    def rand_series():
        return TruncSeries(Z, ("z1", "z2"),
                           {(i, j): rng.randrange(-3, 4)
                            for i in range(3) for j in range(3)}, 4)

    for _ in range(20):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_clear_denominators_examples():
    Q = ExactRat()
    f = TruncSeries(Q, ("z",), {(3,): Fraction(4, 3)}, 4)
    got = clear_denominators(f, ModP(2, 4))
    assert got.coefficient((3,)) == 12
    with pytest.raises(NonIntegralCoefficient):
        clear_denominators(TruncSeries(Q, ("z",), {(1,): Fraction(1, 2)}, 2),
                           ModP(2, 4))
    f = TruncSeries(Q, ("z",), {(1,): Fraction(1)}, 2)
    assert clear_denominators(f, ExactInt()).coefficient((1,)) == 1


def test_clear_denominators_roundtrip():
    Z, Q = ExactInt(), ExactRat()
    rng = random.Random(3)
    f = TruncSeries(Z, ("z",), {(n,): rng.randrange(-9, 10) for n in range(5)}, 4)
    up = f.map_coeffs(Fraction, Q)
    assert clear_denominators(up, Z) == f


def test_padic_log_exact():
    Q = ExactRat()
    z = z_series(Q, 3)
    one = TruncSeries.one(Q, ("z",), 3)
    got = padic_log(one + z)
    assert got == TruncSeries(Q, ("z",), {
        (1,): Fraction(1), (2,): Fraction(-1, 2), (3,): Fraction(1, 3)}, 3)


def test_padic_log_inverse_of_exp():
    Q = ExactRat()
    z = z_series(Q, 4)
    p = 3
    f = series_exp(z.scale(Fraction(p)))
    assert padic_log(f) == z.scale(Fraction(p))


def test_padic_log_zeta_is_zero():
    # log of a primitive p-th root of unity vanishes at mod-p^n precision
    C = CyclotomicRing(3, n_p=4)
    z = q_element(C)
    u = TruncSeries.const(C, ("z",), 2, z)
    got = padic_log(u)
    assert got.is_zero()


def test_padic_log_constant_term_over_a_nested_quotient():
    # (Z/3^4[h]/(h^2))[zeta]: the terms run in the same ring over Z/3^8
    R = PolyQuotRing(QSeriesRing(2, p=3, n_p=4), cyclotomic_modulus(3), "zeta")
    assert widened(R, 3 ** 4)[0] == PolyQuotRing(
        QSeriesRing(2, p=3, n_p=8), cyclotomic_modulus(3), "zeta")
    zeta = R.make([R.scalar.zero, R.scalar.one])
    assert padic_log(TruncSeries.const(R, ("z",), 2, zeta)).is_zero()
    a = R.make([R.scalar.make_ints([4, 3]), R.scalar.make_ints([3])])
    log_a = padic_log(TruncSeries.const(R, ("z",), 2, a))
    assert not log_a.is_zero()
    # log(a zeta) = log a + log zeta = log a
    assert padic_log(TruncSeries.const(R, ("z",), 2, R.mul(a, zeta))) == log_a


def _log_over_cover(u, bound):
    """The constant-term log as padic_log summed it before: each term over
    the ring's rational twin, cleared back on its own."""
    r = u.ring
    rring, to_rat = rational_twin(r)
    w = (u - TruncSeries.one(r, u.variables, u.order)).map_coeffs(to_rat, rring)
    out = TruncSeries.zero(r, u.variables, u.order)
    power = TruncSeries.one(rring, u.variables, u.order)
    for n in range(1, bound + 1):
        power = power * w
        term = power.map_coeffs(
            lambda c: rring.div_int_exact(rring.mul_int(c, (-1) ** (n - 1)), n))
        out = out + clear_denominators(term, r)
    return out


@pytest.mark.parametrize("ring", [
    ModP(3, 4), CyclotomicRing(2, n_p=5), CyclotomicRing(3, n_p=4),
    QSeriesRing(3, p=3, n_p=3)], ids=repr)
def test_padic_log_constant_term_matches_the_cover_sum(ring):
    rng = random.Random(7)
    p = _padic_profile(ring)[0]
    for _ in range(8):
        c = ring.add(ring.one, ring.mul_int(ring.rand(rng), rng.choice((1, p))))
        if getattr(ring, "var", None) == "zeta":
            c = ring.mul(c, ring.pow(q_element(ring), rng.randrange(p)))
        u = TruncSeries(ring, ("z",), {(0,): c, (1,): ring.rand(rng)}, 2)
        try:
            want = _log_over_cover(u, _log_term_bound(ring, u.order))
        except NonIntegralCoefficient:
            with pytest.raises(NonIntegralCoefficient):
                padic_log(u)
        else:
            assert padic_log(u) == want


def test_padic_log_non_integral_term_raises():
    # w = zeta is a unit, not topologically nilpotent: w^3 / 3 = 1 / 3
    C = CyclotomicRing(3, n_p=4)
    u = TruncSeries.const(C, ("z",), 1, C.make_ints([1, 1]))
    with pytest.raises(NonIntegralCoefficient, match="w\\^3 / 3"):
        padic_log(u)


def test_padic_log_needs_modulus():
    C = CyclotomicRing(3)  # exact: the log of zeta never stabilizes
    z = q_element(C)
    u = TruncSeries.const(C, ("z",), 2, z)
    with pytest.raises(DoesNotConverge):
        padic_log(u)


def test_exact_and_modular_backends_agree():
    # the same computation over Z[h] and over Z/p^n[h] matches after reduction
    rng = random.Random(13)
    E = QSeriesRing(4)
    M = QSeriesRing(4, p=3, n_p=4)
    for _ in range(10):
        coeffs = {(n,): [rng.randrange(-40, 40) for _ in range(4)]
                  for n in range(4)}
        a_e = TruncSeries(E, ("z",), {e: E.make_ints(c) for e, c in coeffs.items()}, 4)
        a_m = TruncSeries(M, ("z",), {e: M.make_ints(c) for e, c in coeffs.items()}, 4)
        prod_e = a_e * a_e
        prod_m = a_m * a_m
        _, _, reduce_ = widened(M, 1)
        assert prod_e.map_coeffs(reduce_, M) == prod_m


def test_padic_log_product_rule():
    # units congruent to 1 modulo p, where the log series is p-integral
    R = QSeriesRing(4, p=3, n_p=4)
    rng = random.Random(5)
    for _ in range(5):
        a = TruncSeries(R, ("z",), {
            (0,): R.one,
            (1,): R.make_ints([3 * rng.randrange(9), rng.randrange(3) * 3]),
            (2,): R.make_ints([rng.randrange(-3, 4) * 3]),
        }, 4)
        b = TruncSeries(R, ("z",), {
            (0,): R.one,
            (1,): R.make_ints([3 * rng.randrange(-2, 3)]),
            (2,): R.make_ints([0, 3 * rng.randrange(5)]),
        }, 4)
        assert padic_log(a * b).eq(padic_log(a) + padic_log(b))


# --- exact integer precision bounds ------------------------------------------------


def test_floor_log_at_powers():
    # math.floor(math.log(243, 3)) is 4
    assert floor_log(243, 3) == 5
    assert floor_log(3 ** 10, 3) == 10
    for p in (2, 3, 5, 7):
        for k in range(1, 40):
            assert floor_log(p ** k - 1, p) == k - 1
            assert floor_log(p ** k, p) == k
            assert floor_log(p ** k + 1, p) == k
    assert floor_log(1, 3) == 0


def test_valuation_and_padic_profile():
    assert valuation(3 ** 5, 3) == 5
    assert valuation(2 * 3 ** 4, 3) == 4
    assert valuation(7, 3) == 0
    assert _padic_profile(ModP(3, 5)) == (3, 5, 0)
    # round(math.log(162, 3)) is 5, but Z/162 holds only 3^4
    assert _padic_profile(IntModRing(2 * 3 ** 4, 3)) == (3, 4, 0)
    assert _padic_profile(QSeriesRing(4, p=3, n_p=6)) == (3, 6, 4)
    for p in (2, 3, 5):
        for n_p in range(1, 30):
            assert _padic_profile(ModP(p, n_p)) == (p, n_p, 0)
    # no prime to measure against: Z/25 built without p, and Z[h]/(h^4)
    for ring in (IntModRing(25), QSeriesRing(4)):
        with pytest.raises(DoesNotConverge, match="no p-adic modulus"):
            _padic_profile(ring)


def _last_below(p, target, shift, window):
    """The last k < window with k - shift - (p - 1) floor_log(k) < target,
    by brute force over the whole window."""
    return max([k for k in range(1, window)
                if k - shift - (p - 1) * (len(_digits(k, p)) - 1) < target],
               default=0)


def test_log_term_bound_is_exact():
    # the certificate at n and the next power of p finds the same last
    # live index as a scan over a window far past it
    for p in (2, 3, 5, 7):
        for target in (1, 2, 5, 12, 40):
            for shift in (0, 1, 3, 8):
                got = _last_live_term(p, target, shift)
                assert got == _last_below(p, target, shift, 10 * got + 200)
    # (p - 1)(n_p + extra) with extra = p - 1 for the cyclotomic layer
    assert [_log_term_bound(CyclotomicRing(p, n_p=6), 1)
            for p in (2, 3, 5)] == [10, 20, 48]
    # at 3^117 the certificate must step past k = 243, where floor-log is 5
    assert _log_term_bound(ModP(3, 117), 0) == 243
    assert _log_term_bound(ModP(3, 117), 2) == 245
    with pytest.raises(DoesNotConverge):
        _log_term_bound(QSeriesRing(4), 2)
    # a series of order None has no last term
    for ring, coeffs in ((ModP(3, 4), {(0,): 4}),
                         (ExactRat(), {(0,): 1, (1,): 3})):
        u = TruncSeries(ring, ("z",), {e: ring.from_int(c)
                                       for e, c in coeffs.items()}, None)
        with pytest.raises(PrecisionExhausted):
            padic_log(u)


def _worst_case(ring, order, rng):
    """u = a x^i + sum of unit multiples of z^j, with x = zeta, 1 + h or
    1 + p and a = 1 mod p: the constant term of u - 1 has the least weight
    the ideal allows, and every other coefficient lies outside it."""
    p = _padic_profile(ring)[0]
    a = ring.add(ring.one, ring.mul_int(ring.rand(rng), p))
    x = q_element(ring) if getattr(ring, "var", None) else ring.from_int(1 + p)
    coeffs = {(0,): ring.mul(a, ring.pow(x, rng.randrange(1, p + 1)))}
    for j in range(1, order + 1):
        coeffs[(j,)] = ring.from_int(rng.choice((1, -1, 2, p + 1)))
    return TruncSeries(ring, ("z",), coeffs, order)


@pytest.mark.parametrize("ring", [
    ModP(3, 4), ModP(5, 3), CyclotomicRing(2, n_p=5), CyclotomicRing(3, n_p=4),
    CyclotomicRing(5, n_p=3), QSeriesRing(3, p=3, n_p=3)], ids=repr)
def test_log_term_bound_agrees_with_a_much_larger_one(ring):
    rng = random.Random(11)
    p = _padic_profile(ring)[0]
    for order in sorted({1, p - 1}):
        bound = _log_term_bound(ring, order)
        for _ in range(3):
            u = _worst_case(ring, order, rng)
            assert padic_log(u) == _log_over_cover(u, 3 * bound + 10)


def _series_log_over_cover(u):
    """The positive-order log as padic_log computed it before: summed over
    the ring's rational twin to the series order, then cleared back."""
    r = u.ring
    rring, to_rat = rational_twin(r)
    one = TruncSeries.one(rring, u.variables, u.order)
    w = u.map_coeffs(to_rat, rring) - one
    out = TruncSeries.zero(rring, u.variables, u.order)
    power = one
    for n in range(1, u.order + 1):
        power = power * w
        out = out + power.map_coeffs(
            lambda c: rring.div_int_exact(rring.mul_int(c, (-1) ** (n - 1)), n))
    return clear_denominators(out, r)


@pytest.mark.parametrize("ring", [
    ModP(2, 5), ModP(3, 4), QSeriesRing(3, p=2, n_p=4),
    QSeriesRing(3, p=3, n_p=3), CyclotomicRing(3, n_p=4),
    CyclotomicRing(5, n_p=3)], ids=repr)
@pytest.mark.parametrize("names", [("z",), ("z", "y")], ids=len)
def test_padic_log_positive_order_matches_the_cover_route(ring, names):
    rng = random.Random(17)
    p = _padic_profile(ring)[0]
    ideal = h_element(ring) if getattr(ring, "var", None) else ring.from_int(p)
    for _ in range(20):
        order = rng.randrange(1, p + 2)
        coeffs = {}
        for _ in range(rng.randrange(1, 4)):
            e = tuple(rng.randrange(3) for _ in names)
            if 0 < sum(e) <= order:
                c = ring.rand(rng)
                coeffs[e] = c if rng.random() < 0.4 else ring.mul(c, ideal)
        u = TruncSeries(ring, names, coeffs, order) + TruncSeries.one(
            ring, names, order)
        try:
            want = _series_log_over_cover(u)
        except NonIntegralCoefficient:
            with pytest.raises(NonIntegralCoefficient):
                padic_log(u)
        else:
            assert padic_log(u) == want
    # a unit coefficient of z at order p: z^p / p has no image either way
    u = TruncSeries.one(ring, names, p) + TruncSeries.var(ring, names, p, "z")
    with pytest.raises(NonIntegralCoefficient):
        _series_log_over_cover(u)
    with pytest.raises(NonIntegralCoefficient):
        padic_log(u)


def _digits(k, p):
    out = []
    while k:
        k, r = divmod(k, p)
        out.append(r)
    return out


# --- series over Z: the packed product against a schoolbook -------------


def schoolbook_series_mul(a, b):
    """(coefficients, order) of a * b, one pair of terms at a time."""
    if a.order is None or b.order is None:
        order = b.order if a.order is None else a.order
    else:
        order = min(a.order, b.order)
    out = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if order is None or sum(e) <= order:
                out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}, order


def random_int_series(rng, variables, order, terms, top, coeff):
    """A sparse series over Z with exponents up to top in each variable;
    terms above order are dropped by the constructor."""
    coeffs = {tuple(rng.randrange(top + 1) for _ in variables): coeff(rng)
              for _ in range(terms)}
    return TruncSeries(ExactInt(), variables, coeffs, order)


SERIES_COEFFS = {
    "small": lambda rng: rng.randrange(-9, 10),
    "negative": lambda rng: -rng.randrange(1, 10 ** 6),
    "near 2^64": lambda rng: rng.choice((1, -1)) * (2 ** 64 - rng.randrange(3)),
}


@pytest.mark.parametrize("coeff", sorted(SERIES_COEFFS))
@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_int_series_mul_matches_schoolbook(nvars, coeff):
    rng = random.Random(1000 * nvars + len(coeff))
    variables = ("x", "y", "z")[:nvars]
    orders = (None, 0, 4, 8)
    for order_a in orders:
        for order_b in orders:
            for _ in range(3):
                # an order-None operand reaches exponents above 4 and 8
                a = random_int_series(rng, variables, order_a, rng.randrange(12),
                                      9 if order_a is None else order_a,
                                      SERIES_COEFFS[coeff])
                b = random_int_series(rng, variables, order_b, rng.randrange(12),
                                      9 if order_b is None else order_b,
                                      SERIES_COEFFS[coeff])
                prod = a * b
                want, order = schoolbook_series_mul(a, b)
                assert prod.coeffs == want, (a, b)
                assert prod.order == order
                assert all(prod.coeffs.values())


def test_int_series_mul_edge_operands():
    Z = ExactInt()
    xy = ("x", "y")
    zero = TruncSeries.zero(Z, xy, 4)
    three = TruncSeries.const(Z, xy, 4, 3)
    # exponents above 4 in the untruncated operand: x^5 y^0 and x^0 y^6
    high = TruncSeries(Z, xy, {(5, 0): -7, (0, 6): 2 ** 64 - 1, (1, 1): -1}, None)
    low = TruncSeries(Z, xy, {(0, 0): 1, (2, 1): -(2 ** 64 - 1), (1, 3): 5}, 4)
    for a, b in [(zero, low), (high, zero), (three, low), (low, three),
                 (high, low), (low, high), (high, high), (low, low),
                 (three, three), (-low, low)]:
        prod = a * b
        want, order = schoolbook_series_mul(a, b)
        assert prod.coeffs == want and prod.order == order
        assert all(prod.coeffs.values())
    # cancellation down to zero: (1 + x)(1 - x) = 1 - x^2 at order 1
    one_x = TruncSeries(Z, ("x",), {(0,): 1, (1,): 1}, 1)
    one_mx = TruncSeries(Z, ("x",), {(0,): 1, (1,): -1}, 1)
    assert (one_x * one_mx).coeffs == {(0,): 1}
    # no variables at all
    c = TruncSeries(Z, (), {(): -4}, None)
    assert (c * c).coeffs == {(): 16}


def generic_series_mul(a, b):
    """a * b through the generic term-by-term path of TruncSeries.__mul__,
    which multiplies over Q one pair of terms at a time with the ring's mul
    and add, carried back to Z."""
    Q = ExactRat()
    prod = a.map_coeffs(Fraction, Q) * b.map_coeffs(Fraction, Q)
    assert all(c.denominator == 1 for c in prod.coeffs.values())
    return prod.map_coeffs(int, ExactInt())


def sparse_xyz_series(rng, terms, order=8):
    """terms distinct monomials of total degree <= order in x, y, z."""
    monomials = [e for e in itertools.product(range(order + 1), repeat=3)
                 if sum(e) <= order]
    return TruncSeries(ExactInt(), ("x", "y", "z"),
                       {e: rng.choice((-1, 1)) * rng.randrange(1, 10)
                        for e in rng.sample(monomials, terms)}, order)


def test_sparse_int_series_skip_the_kernel(monkeypatch):
    # 42 and 44 terms in a box of 17^3 slots: the dense vectors would be
    # mostly zeros, and the product runs one pair of terms at a time
    rng = random.Random(8)
    a, b = sparse_xyz_series(rng, 42), sparse_xyz_series(rng, 44)
    want = generic_series_mul(a, b)

    def refuse(*args):
        raise AssertionError("the Kronecker kernel ran on sparse operands")

    monkeypatch.setattr(ringcore, "_kronecker_mul", refuse)
    assert a * b == want
    assert (a * b).order == 8


def test_dense_int_series_use_the_kernel(monkeypatch):
    calls = []
    kronecker = ringcore._kronecker_mul

    def spy(x, y):
        calls.append(len(x) * len(y))
        return kronecker(x, y)

    monkeypatch.setattr(ringcore, "_kronecker_mul", spy)
    rng = random.Random(9)
    xy = ("x", "y")
    a, b = (TruncSeries(ExactInt(), xy, {(i, j): rng.randrange(-4, 5) or 1
                                         for i in range(3) for j in range(3)},
                        8) for _ in range(2))
    assert a * b == generic_series_mul(a, b) and len(calls) == 1
    # a dense series of all 165 monomials of degree <= 8 in three variables
    c = sparse_xyz_series(rng, 165)
    assert c * c == generic_series_mul(c, c) and len(calls) == 2


@st.composite
def int_series(draw, variables):
    order = draw(st.sampled_from((None, 0, 3, 8)))
    top = 6 if order is None else order
    exps = st.tuples(*[st.integers(0, top)] * len(variables))
    coeffs = draw(st.dictionaries(
        exps, st.integers(-10 ** 20, 10 ** 20) | st.integers(-3, 3),
        max_size=draw(st.sampled_from((3, 12, 40)))))
    return TruncSeries(ExactInt(), variables, coeffs, order)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), nvars=st.integers(0, 3))
def test_int_series_mul_matches_generic_path(data, nvars):
    # both branches of the integer product, the kernel on dense operands
    # and the pairs on sparse ones, against the path every other ring takes
    variables = ("x", "y", "z")[:nvars]
    a = data.draw(int_series(variables))
    b = data.draw(int_series(variables))
    prod = a * b
    want = generic_series_mul(a, b)
    assert prod == want and prod.order == want.order
    assert all(type(c) is int and c for c in prod.coeffs.values())

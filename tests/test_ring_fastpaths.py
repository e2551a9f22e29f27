"""The scalar ring protocol's integer fast paths (constant zero, is_zero by
truthiness, one-pass add and sub, the integral add over Q) checked against
a model of each ring written out below with Python arithmetic alone, on
seeded random elements."""
import operator
import random
from fractions import Fraction

import pytest

from prismlab.qhopf import QH, QHT
from prismlab.qprism import bhat_ring
from prismlab.ringcore import (
    ExactInt, IntModRing, IntRing, ModP, PolyQuotRing, RatRing,
    cyclotomic_modulus,
)

RINGS = {
    "Q[h]": QH,
    "Q[h]/(h^5)": PolyQuotRing(RatRing(), (0,) * 5 + (1,), "h"),
    "Q(zeta_5)": PolyQuotRing(RatRing(), cyclotomic_modulus(5), "zeta"),
    "Q[h][t]": QHT,
    "bhat_ring(4)": bhat_ring(4),
    "Z": ExactInt(),
    "Z/3^4": ModP(3, 4),
    "F_3[a]/(a^3)": PolyQuotRing(ModP(3, 1), (0, 0, 0, 1), "a"),
}
# mostly integral coefficients, as in the library's own elements, with
# denominators that are coprime, shared or wider than a machine word
DENOMINATORS = (1, 1, 1, 1, 2, 3, 9, 25, 2 ** 61 - 1)


def model(ring):
    """(zero, from_int, add, mul) of ring from Python arithmetic: elements
    in the library's form, a polynomial reduced by its monic modulus from
    the top degree down and stripped of trailing zeros."""
    if type(ring) is IntRing:
        return 0, int, operator.add, operator.mul
    if type(ring) is RatRing:
        return Fraction(0), Fraction, operator.add, operator.mul
    if type(ring) is IntModRing:
        m = ring.m
        return (0, lambda n: n % m, lambda x, y: (x + y) % m,
                lambda x, y: (x * y) % m)
    zero, from_int, add, mul = model(ring.scalar)

    def strip(cs):
        while cs and cs[-1] == zero:
            cs.pop()
        return tuple(cs)

    def padd(a, b):
        n = max(len(a), len(b))
        a, b = list(a) + [zero] * (n - len(a)), list(b) + [zero] * (n - len(b))
        return strip([add(x, y) for x, y in zip(a, b)])

    def pmul(a, b):
        if not a or not b:
            return ()
        out = [zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = add(out[i + j], mul(x, y))
        if ring.modulus is not None:
            d = len(ring.modulus) - 1
            for i in range(len(out) - 1, d - 1, -1):
                for j, mj in enumerate(ring.modulus[:-1]):
                    k = i - d + j
                    out[k] = add(out[k], mul(out[i], from_int(-mj)))
                out.pop()
        return strip(out)

    return (), lambda n: strip([from_int(n)]), padd, pmul


def rand_elem(ring, rng):
    if type(ring) is IntRing:
        return rng.choice((0, rng.randrange(-9, 10),
                           rng.randrange(-2 ** 70, 2 ** 70)))
    if type(ring) is RatRing:
        return Fraction(rng.choice((0, rng.randrange(-40, 41))),
                        rng.choice(DENOMINATORS))
    if type(ring) is IntModRing:
        return rng.choice((0, rng.randrange(ring.m)))
    return ring.make([rand_elem(ring.scalar, rng)
                      for _ in range(rng.randrange(7))])


def leaves(ring, x):
    """(scalar ring, coefficient) for every scalar inside x."""
    if not isinstance(ring, PolyQuotRing):
        yield ring, x
        return
    for c in x:
        yield from leaves(ring.scalar, c)


def assert_same(ring, got, want):
    # Fraction(3) == 3 and (Fraction(0),) != (): repr tells both apart, and
    # a Fraction leaf must stay a Fraction, an integer leaf an int
    assert repr(got) == repr(want)
    for scalar, c in leaves(ring, got):
        want = Fraction if type(scalar) is RatRing else int
        assert type(c) is want, (c, scalar)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_arithmetic_matches_the_model(name):
    R = RINGS[name]
    zero, from_int, add, mul = model(R)

    def neg(x):
        return mul(from_int(-1), x)

    rng = random.Random(name)
    assert_same(R, R.zero, zero)
    assert R.is_zero(R.zero)
    for _ in range(150):
        a, b, c = (rand_elem(R, rng) for _ in range(3))
        n = rng.randrange(-4, 5)
        # b_minus_a + a == b: a sum whose top coefficients cancel
        b_minus_a = R.sub(b, a)
        cases = [(R.add(a, b), add(a, b)), (R.sub(a, b), add(a, neg(b))),
                 (R.neg(a), neg(a)), (R.mul_int(a, n), mul(from_int(n), a)),
                 (b_minus_a, add(b, neg(a))), (R.add(b_minus_a, a), b),
                 (R.sub(a, a), zero), (R.sub(R.add(a, c), c), a),
                 (R.add(a, R.neg(a)), zero), (R.mul(a, b), mul(a, b))]
        for got, want in cases:
            assert_same(R, got, want)
        for x in (a, b, b_minus_a, R.sub(a, a)):
            # an element over Q refuses == with a plain tuple: compare reprs
            assert R.is_zero(x) == (repr(x) == repr(zero))
        assert R.eq(R.add(a, b), R.add(b, a))


def test_scalar_zero_is_one_constant():
    Q = RatRing()
    assert RatRing().zero is Q.zero and type(Q.zero) is Fraction
    assert ExactInt().zero == 0 == ModP(5, 2).zero
    for ring, zero, other in ((Q, Fraction(0), Fraction(1, 3)),
                              (ExactInt(), 0, -2), (ModP(5, 2), 0, 24)):
        assert ring.is_zero(zero) and not ring.is_zero(other)


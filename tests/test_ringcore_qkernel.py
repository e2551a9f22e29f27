"""Polynomial rings over Q on integer numerators (RatPolyRing and its
RatPoly elements), the integer fold over Z and Horner evaluation, each
checked through the public ring API against a schoolbook on plain tuples
of Fractions written out below; every result over Q is also checked to be
in normal form."""
import copy
import math
import operator
import re

import pytest
from fractions import Fraction
from decimal import Decimal
from hypothesis import example, given, settings, strategies as st

from prismlab.intpoly import binom_poly
from prismlab.qhopf import QH, QHT
from prismlab.qprism import bhat_ring
from prismlab.ringcore import (
    CyclotomicRing, DomainError, IntRing, PolyQuotRing, QPoly, QSeriesRing,
    RatPoly, RatPolyRing, RatRing, Ring, TruncSeries, _kronecker_mul,
    clear_denominators, cyclotomic_modulus, h_element,
)

from rational_twin import rational_twin


class Schoolbook:
    """ring's arithmetic on plain tuples of numbers (tuples of such tuples
    over a ring of polynomials over a polynomial ring), with Python
    operators alone: products coefficient by coefficient, reduced by the
    monic modulus from the top degree down, trailing zeros stripped."""

    def __init__(self, ring):
        self.modulus = ring.modulus
        if isinstance(ring.scalar, PolyQuotRing):
            inner = Schoolbook(ring.scalar)
            self.czero, self.cadd, self.cmul = (), inner.add, inner.mul
            self.cscale, self.one = inner.scale, (inner.one,)
        else:
            self.czero, self.cadd, self.cmul = Fraction(0), operator.add, operator.mul
            self.cscale, self.one = operator.mul, (Fraction(1),)

    def strip(self, cs) -> tuple:
        cs = list(cs)
        while cs and cs[-1] == self.czero:
            cs.pop()
        return tuple(cs)

    def reduce(self, cs) -> tuple:
        cs = list(cs)
        if self.modulus is not None:
            d = len(self.modulus) - 1
            for i in range(len(cs) - 1, d - 1, -1):
                for j, m in enumerate(self.modulus[:-1]):
                    cs[i - d + j] = self.cadd(cs[i - d + j],
                                              self.cscale(cs[i], -m))
                cs.pop()
        return self.strip(cs)

    def add(self, a, b) -> tuple:
        n = max(len(a), len(b))
        a = list(a) + [self.czero] * (n - len(a))
        b = list(b) + [self.czero] * (n - len(b))
        return self.strip(map(self.cadd, a, b))

    def scale(self, a, c) -> tuple:
        """a times the rational number c."""
        return self.strip([self.cscale(x, c) for x in a])

    def sub(self, a, b) -> tuple:
        return self.add(a, self.scale(b, -1))

    def mul(self, a, b) -> tuple:
        if not a or not b:
            return ()
        out = [self.czero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = self.cadd(out[i + j], self.cmul(x, y))
        return self.reduce(out)

    def pow(self, a, n: int) -> tuple:
        acc = self.reduce(self.one)
        for _ in range(n):
            acc = self.mul(acc, a)
        return acc

    def subst(self, a, value) -> tuple:
        """sum a_i value^i, one power of value after the other."""
        acc, power = (), self.reduce(self.one)
        for c in a:
            acc = self.add(acc, self.mul(self.strip([c]), power))
            power = self.mul(power, value)
        return acc

    def inv(self, a) -> tuple:
        """1 / a mod x^N, for the modulus x^N and a(0) != 0, coefficient by
        coefficient: b_k = -(sum_{0 < i <= k} a_i b_(k-i)) / a_0."""
        N = len(self.modulus) - 1
        a = list(a) + [Fraction(0)] * N
        b = [1 / a[0]]
        for k in range(1, N):
            b.append(-sum(a[i] * b[k - i] for i in range(1, k + 1)) / a[0])
        return self.strip(b)


def plain(ring, x) -> tuple:
    """An element as plain tuples of Fractions."""
    if isinstance(ring.scalar, PolyQuotRing):
        return tuple(plain(ring.scalar, c) for c in x)
    return tuple(x)


def assert_normal(ring, x):
    """x is an element of ring in normal form: over Q a RatPoly with integer
    numerators, no trailing zero, reduced below the modulus's degree, and a
    positive denominator prime to them; over Q[h] a stripped tuple of those."""
    if isinstance(ring.scalar, PolyQuotRing):
        assert type(x) is tuple and (not x or x[-1])
        for c in x:
            assert_normal(ring.scalar, c)
        return
    assert type(x) is RatPoly and type(x.nums) is tuple
    assert all(type(n) is int for n in x.nums) and type(x.den) is int
    assert x.den > 0 and math.gcd(x.den, *x.nums) == 1
    assert not x.nums or x.nums[-1]
    assert ring.deg is None or len(x) <= ring.deg
    assert all(type(c) is Fraction for c in x)


def truncated_q(n):
    return PolyQuotRing(RatRing(), (0,) * n + (1,), "h")


def q_zeta(p):
    return PolyQuotRing(RatRing(), cyclotomic_modulus(p), "zeta")


UNIVARIATE = {"QH": QH, "Q[h]/(h^1)": truncated_q(1),
              "Q[h]/(h^4)": truncated_q(4), "Q[h]/(h^8)": truncated_q(8),
              "Q(zeta_3)": q_zeta(3), "Q(zeta_5)": q_zeta(5)}
BIVARIATE = {"bhat_ring(4)": bhat_ring(4), "QHT": QHT}
Q_RINGS = dict(UNIVARIATE, **BIVARIATE)

# large and pairwise coprime denominators, next to small ones
DENOMINATORS = (1, 2, 3, 4, 9, 125, 2 ** 61 - 1, 10 ** 30 + 57, 3 ** 40)
rationals = st.builds(
    Fraction, st.integers(-10 ** 40, 10 ** 40),
    st.sampled_from(DENOMINATORS) | st.integers(1, 10 ** 12))
# a leading run of zeros makes products that h^N truncates to zero
coefficient_lists = st.builds(
    lambda shift, cs: [Fraction(0)] * shift + cs,
    st.integers(0, 6), st.lists(rationals, max_size=10))
small_rationals = st.builds(Fraction, st.integers(-50, 50),
                            st.sampled_from((1, 2, 3, 7, 10 ** 9 + 7)))
small_lists = st.builds(lambda shift, cs: [Fraction(0)] * shift + cs,
                        st.integers(0, 3), st.lists(small_rationals, max_size=6))


def make(ring, cs):
    """The element of ring from lists of coefficients (lists of those over a
    ring over Q[h])."""
    if isinstance(ring.scalar, PolyQuotRing):
        return ring.make([ring.scalar.make(c) for c in cs])
    return ring.make(cs)


def assert_same_product(ring, a, b):
    got = ring.mul(a, b)
    assert_normal(ring, got)
    assert plain(ring, got) == Schoolbook(ring).mul(plain(ring, a),
                                                    plain(ring, b))


@pytest.mark.parametrize("name", sorted(UNIVARIATE))
@settings(max_examples=60, deadline=None)
@given(a=coefficient_lists, b=coefficient_lists)
@example(a=[], b=[Fraction(1)])
@example(a=[Fraction(-3, 7)], b=[Fraction(5, 2 ** 61 - 1)])
@example(a=[0, 0, 0, Fraction(1)], b=[0, Fraction(-1, 3)])
# integral operands: every denominator is 1
@example(a=[Fraction(2), 0, Fraction(-5)], b=[Fraction(3), Fraction(1)])
def test_ratpolyring_mul_matches_schoolbook(name, a, b):
    ring = UNIVARIATE[name]
    a, b = ring.make(a), ring.make(b)
    assert_same_product(ring, a, b)


@pytest.mark.parametrize("name", sorted(BIVARIATE))
@settings(max_examples=60, deadline=None)
@given(a=st.lists(coefficient_lists, max_size=6),
       b=st.lists(coefficient_lists, max_size=6))
@example(a=[], b=[[Fraction(1)]])
@example(a=[[Fraction(2, 3)]], b=[[Fraction(-1)]])
@example(a=[[], [0, 0, Fraction(1)]], b=[[0, 0, Fraction(7, 9)]])
@example(a=[[Fraction(2)], [0, Fraction(-1)]],
         b=[[Fraction(3), Fraction(1)], [Fraction(4)]])
def test_nested_q_product_matches_schoolbook(name, a, b):
    R = BIVARIATE[name]
    assert_same_product(R, make(R, a), make(R, b))


@pytest.mark.parametrize("name", sorted(Q_RINGS))
@settings(max_examples=40, deadline=None)
@given(a=st.lists(small_lists, max_size=4), b=st.lists(small_lists, max_size=4),
       n=st.integers(-30, 30).filter(bool), k=st.integers(0, 4))
@example(a=[[Fraction(1, 2), Fraction(1, 3)]], b=[[Fraction(-1, 2)]], n=-6,
         k=3)
@example(a=[[Fraction(0)]], b=[], n=1, k=0)
def test_q_ring_operations_match_the_fraction_schoolbook(name, a, b, n, k):
    # +, -, x, pow, mul_int, div_int_exact, subst and (mod h^N) inv through
    # the public API; each result in normal form.  A univariate ring takes
    # the first list of each operand.
    R = Q_RINGS[name]
    if name in UNIVARIATE:
        a, b = a[0] if a else [], b[0] if b else []
    a, b = make(R, a), make(R, b)
    S = Schoolbook(R)
    pa, pb = plain(R, a), plain(R, b)
    assert pa == S.reduce(pa) and pb == S.reduce(pb)
    cases = [(R.add(a, b), S.add(pa, pb)), (R.sub(a, b), S.sub(pa, pb)),
             (R.neg(a), S.scale(pa, -1)), (R.mul(a, b), S.mul(pa, pb)),
             (R.pow(a, k), S.pow(pa, k)), (R.mul_int(a, n), S.scale(pa, n)),
             (R.div_int_exact(a, n), S.scale(pa, Fraction(1, n))),
             (R.subst(a, b), S.subst(pa, pb))]
    if (name in UNIVARIATE and R.modulus is not None
            and not any(R.modulus[:-1]) and R.coeff(a, 0)):
        cases.append((R.inv(a), S.inv(pa)))
        assert R.mul(a, R.inv(a)) == R.one
    for got, want in cases:
        assert_normal(R, got)
        assert plain(R, got) == want
    assert R.eq(a, b) == (pa == pb) == (a == b)
    assert R.eq(R.add(a, b), R.add(b, a))


@settings(max_examples=200, deadline=None)
@given(a=st.lists(st.integers(-2 ** 200, 2 ** 200), min_size=1, max_size=20),
       b=st.lists(st.integers(-2 ** 200, 2 ** 200), min_size=1, max_size=20))
@example(a=[-1] * 9, b=[-1] * 9)
@example(a=[2 ** 64 - 1] * 8, b=[-(2 ** 64 - 1)] * 8)
@example(a=[0], b=[5, -5])
@example(a=[0], b=[0] * 8 + [256])
@example(a=[0] * 9, b=[-(2 ** 70)] * 9)
def test_kronecker_mul_matches_integer_schoolbook(a, b):
    # sign changes, all-zero operands and digits wider than a machine word
    want = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            want[i + j] += x * y
    assert _kronecker_mul(a, b) == want


def test_ratpolyring_mul_and_nested_product_edge_cases():
    H = truncated_q(4)
    h2 = H.make([0, 0, Fraction(1, 3)])
    assert H.mul(h2, h2) == H.zero
    assert H.mul(H.zero, h2) == H.zero == H.mul(h2, H.zero)
    R = bhat_ring(4)
    a = R.make([H.make([0, 0, Fraction(1)]), H.zero,
                H.make([0, 0, 0, Fraction(-2)])])
    assert R.mul(a, a) == ()
    # zeros of any length make the one zero, which kills a long operand
    # with large numerators on either side
    long = QH.make([Fraction(3 ** 60, 7)] * 12)
    for zero in ([Fraction(0)], [0, 0, Fraction(0)]):
        assert QH.make(zero) == QH.zero
        assert QH.mul(QH.make(zero), long) == QH.zero == QH.mul(
            long, QH.make(zero))
    # (1 + h)(1 - h) = 1 - h^2 over Q with coprime denominators
    u = QH.make([Fraction(1, 3), Fraction(1, 5)])
    v = QH.make([Fraction(1, 3), Fraction(-1, 5)])
    assert QH.mul(u, v) == QH.make([Fraction(1, 9), 0, Fraction(-1, 25)])
    assert repr(QH.mul(u, v)) == (
        "(Fraction(1, 9), Fraction(0, 1), Fraction(-1, 25))")
    # one normal form however an element is reached: == and hash agree
    x = QH.div_int_exact(QH.make([2, 4]), 4)
    y = QH.make([Fraction(1, 2), Fraction(3, 3)])
    assert x == y and hash(x) == hash(y) and (x.nums, x.den) == ((1, 2), 2)
    # the same numerators over another denominator are another element
    assert x != QH.make([Fraction(1, 3), Fraction(2, 3)])


def test_kernel_chosen_at_construction():
    # rings over Z, over Z/m, and polynomial rings over a polynomial ring
    # over Z keep the class schoolbook and the class add: no per-instance
    # kernel, so mul costs them nothing extra; add is bound nowhere
    others = (QSeriesRing(4, p=3, n_p=4), CyclotomicRing(5, n_p=3),
              PolyQuotRing(QSeriesRing(3), None, "t"))
    for ring in (*INTEGER.values(), *others):
        assert not {"mul", "add", "pow"} & set(vars(ring))
        assert type(ring) is PolyQuotRing
    # over Q the constructor returns a RatPolyRing, whose operations are
    # its class methods; the rings over it bind the nested product
    for ring in UNIVARIATE.values():
        assert type(ring) is RatPolyRing and copy.copy(ring) == ring
        assert not {"mul", "add", "pow"} & set(vars(ring))
    for ring in BIVARIATE.values():
        assert vars(ring)["mul"] == ring._mul_nested
        assert not {"add", "pow"} & set(vars(ring))


def test_monomial_modulus_truncates():
    M = QSeriesRing(3, p=2, n_p=3)
    h = h_element(M)
    assert M.make_ints([1, 2, 3, 4, 5]) == (1, 2, 3)
    assert M.pow(h, 3) == ()
    assert vars(M)["_reduce"] == M._truncate
    # Phi_3 = 1 + q + q^2 is not monomial: q^3 = 1 still reduces.  Over Z
    # the fold runs on plain integers, bound per instance; over Z/27 it
    # runs through the class method and the scalar ring's add and mul
    C = CyclotomicRing(3)
    assert C.make_ints([0, 0, 0, 1]) == (1,)
    assert vars(C)["_reduce"] == C._reduce_int
    C27 = CyclotomicRing(3, n_p=3)
    assert C27.make_ints([0, 0, 0, 1]) == (1,)
    assert "_reduce" not in vars(C27)
    # the fold uses only the nonzero terms of the modulus, on the numerators
    # over Q as over Z
    Q3 = q_zeta(3)
    assert C._top_terms == ((0, -1), (1, -1)) == Q3._top_terms
    assert vars(Q3)["_reduce"] == Q3._reduce_int
    assert INTEGER["Z[x]/(x^5 - 1)"]._top_terms == ((0, 1),)


# --- rings over Z: the schoolbook and the integer fold ----------------------

def x_p_minus_one(p):
    return PolyQuotRing(IntRing(), (-1,) + (0,) * (p - 1) + (1,), "x")


INTEGER = {"Z[h]": QPoly(), "Z[h]/(h^1)": QSeriesRing(1),
           "Z[h]/(h^6)": QSeriesRing(6), "Z[x]/(x^2 - 1)": x_p_minus_one(2),
           "Z[x]/(x^5 - 1)": x_p_minus_one(5),
           "Z[x]/(x^7 - 1)": x_p_minus_one(7), "Z[zeta_3]": CyclotomicRing(3),
           "Z[zeta_7]": CyclotomicRing(7),
           # a modulus with a coefficient other than 0 and -1 to fold with
           "Z[x]/(x^3 - 2x + 5)": PolyQuotRing(IntRing(), (5, -2, 0, 1), "x")}
# a leading run of zeros makes products that h^N truncates to zero
integer_lists = st.builds(
    lambda shift, cs: [0] * shift + cs, st.integers(0, 4),
    st.lists(st.integers(-10 ** 30, 10 ** 30) | st.integers(-9, 9),
             max_size=12))


@pytest.mark.parametrize("name", sorted(INTEGER))
@settings(max_examples=60, deadline=None)
@given(a=integer_lists, b=integer_lists)
@example(a=[], b=[1])
@example(a=[0, 0, 0, 0, 0, 0, 0, 1], b=[0, 0, 0, 0, 0, 0, 0, 1])
@example(a=[-1, 1], b=[1, 1, 1, 1, 1, 1, 1])
@example(a=[2 ** 64 - 1] * 9, b=[-(2 ** 64 - 1)] * 9)
def test_int_kernel_matches_rational_twin(name, a, b):
    # the product over Z, carried into the ring over Q, is the product
    # there, and both are the schoolbook's, which shares no code with the
    # integer fold
    ring = INTEGER[name]
    a, b = ring.make_ints(a), ring.make_ints(b)
    got = ring.mul(a, b)
    assert all(type(c) is int for c in got) and (not got or got[-1])
    twin, up = rational_twin(ring)
    assert up(got) == twin.mul(up(a), up(b))
    assert tuple(up(got)) == Schoolbook(twin).mul(tuple(up(a)), tuple(up(b)))
    assert got == Schoolbook(ring).mul(a, b)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_int_kernel_powers_in_the_group_ring_of_mu_p(p):
    # in Z[x]/(x^p - 1), x^n = x^(n mod p), and (x - 1)^p is divisible by p
    # with quotient in (x - 1): the two facts pd_dual.mu_p checks
    ring = x_p_minus_one(p)
    x = ring.make_ints([0, 1])
    for n in range(3 * p):
        assert ring.pow(x, n) == ring.make_ints([0] * (n % p) + [1])
    xm1 = ring.make_ints([-1, 1])
    fp = ring.pow(xm1, p)
    assert all(c % p == 0 for c in fp) and sum(fp) == 0
    assert fp == Schoolbook(ring).pow(xm1, p)


# --- monomial products, the Q[h] power and Horner evaluation ---------------

monomials = st.builds(lambda k, c: [Fraction(0)] * k + [c],
                      st.integers(0, 9), rationals)


@pytest.mark.parametrize("name", sorted(UNIVARIATE))
@settings(max_examples=60, deadline=None)
@given(a=coefficient_lists, m=monomials)
@example(a=[Fraction(2), 0, Fraction(-5)], m=[Fraction(3)])
@example(a=[Fraction(1, 3), Fraction(-1, 5)], m=[0, 0, Fraction(-7, 2)])
@example(a=[0, Fraction(4)], m=[0, Fraction(0)])
@example(a=[], m=[0, Fraction(1, 9)])
@example(a=[Fraction(-1, 2 ** 61 - 1)] * 3, m=[Fraction(1)])
def test_monomial_product_matches_schoolbook(name, a, m):
    # c x^k shifts and scales the other operand, on either side, over every
    # modulus; c = 0 and a = 0 give the zero element
    ring = UNIVARIATE[name]
    a, m = ring.make(a), ring.make(m)
    assert_same_product(ring, a, m)
    assert_same_product(ring, m, a)


@settings(max_examples=80, deadline=None)
@given(a=st.lists(rationals, max_size=6), n=st.integers(0, 12))
@example(a=[], n=0)
@example(a=[], n=5)
@example(a=[Fraction(3)], n=7)
@example(a=[0, 0, Fraction(-5, 3)], n=4)
@example(a=[Fraction(-1)] * 5, n=12)
@example(a=[Fraction(1, 2), Fraction(-1, 3)], n=2)
def test_q_power_matches_square_and_multiply(a, n):
    # the packed power against Ring.pow, which multiplies through QH.mul; a
    # monomial's top coefficient is exactly sum |a_i| ^ n, the digit bound
    a = QH.make(a)
    got = QH.pow(a, n)
    assert_normal(QH, got)
    assert got == Ring.pow(QH, a, n)


def test_q_power_rejects_negative_exponents():
    for a in (QH.zero, QH.one, QH.make([Fraction(1, 2), Fraction(1)])):
        with pytest.raises(ValueError):
            QH.pow(a, -1)


def term_by_term(ring, a, value):
    """sum a_i value^i, one power of value after the other."""
    acc, power = ring.zero, ring.one
    for c in a:
        acc = ring.add(acc, ring.mul(ring.make([c]), power))
        power = ring.mul(power, value)
    return acc


SUBST_RINGS = dict(UNIVARIATE, **{
    "Z[h]": QPoly(), "Z/81[h]/(h^4)": QSeriesRing(4, p=3, n_p=4),
    "Z[zeta_5]": CyclotomicRing(5), "Z/27[zeta_3]": CyclotomicRing(3, n_p=3)})


@pytest.mark.parametrize("name", sorted(SUBST_RINGS))
@settings(max_examples=40, deadline=None)
@given(a=st.lists(small_rationals, max_size=8),
       value=st.lists(small_rationals, max_size=4))
@example(a=[Fraction(1), Fraction(2), Fraction(3)], value=[Fraction(2)])
@example(a=[Fraction(-1, 3), 0, Fraction(5)], value=[])
@example(a=[], value=[Fraction(1), Fraction(1)])
def test_horner_subst_matches_term_by_term(name, a, value):
    ring = SUBST_RINGS[name]
    if type(ring.scalar) is RatRing:
        a, value = ring.make(a), ring.make(value)
    else:
        a = ring.make_ints([c.numerator for c in a])
        value = ring.make_ints([c.numerator for c in value])
    got = ring.subst(a, value)
    assert repr(got) == repr(term_by_term(ring, a, value))
    if type(ring.scalar) is RatRing:
        assert_normal(ring, got)
        assert plain(ring, got) == Schoolbook(ring).subst(tuple(a),
                                                          tuple(value))


def test_make_over_z_mod_m_takes_each_coefficient_mod_m():
    """make over Z/81 gives the element make_ints gives, so Horner's rule,
    which passes the constant term through at zero, stays canonical."""
    ring = QSeriesRing(4, p=3, n_p=4)
    a = ring.make([-1, 0, 5])
    assert a == ring.make_ints([-1, 0, 5]) == (80, 0, 5)
    assert ring.make([81, -162]) == ()
    assert ring.subst(a, ring.zero) == (80,)
    for value in (ring.zero, ring.one, ring.make([-2, 7]), ring.make([0, -1])):
        assert ring.subst(a, value) == term_by_term(ring, a, value)


def test_subst_at_a_nonzero_constant_is_the_value():
    f = QH.make([Fraction(1, 2), Fraction(-3), 0, Fraction(5, 7)])
    for x in (Fraction(2), Fraction(-1, 3)):
        want = sum(c * x ** i for i, c in enumerate(f))
        assert QH.subst(f, QH.make([x])) == QH.make([want])


# --- the element reads as its tuple of Fractions ----------------------------

# (ring, coefficients given to make, the tuple of Fractions it stands for):
# trailing zeros stripped, h^4 cut, zeta^2 = -1 - zeta in Q(zeta_3)
TUPLE_READS = {
    "QH": (QH, [Fraction(1, 2), Fraction(0), Fraction(-3), Fraction(0)],
           (Fraction(1, 2), Fraction(0), Fraction(-3))),
    "QH zero": (QH, [Fraction(0), Fraction(0)], ()),
    "Q[h]/(h^4)": (truncated_q(4),
                   [Fraction(2, 3), Fraction(1), Fraction(0), Fraction(0),
                    Fraction(5)], (Fraction(2, 3), Fraction(1))),
    "Q[h]/(h^4) cut to zero": (truncated_q(4),
                               [Fraction(0)] * 4 + [Fraction(7, 2)], ()),
    "Q(zeta_3)": (q_zeta(3), [Fraction(0), Fraction(0), Fraction(1, 4)],
                  (Fraction(-1, 4), Fraction(-1, 4))),
    "Q[u]": (PolyQuotRing(RatRing(), None, "u"), None,
             (Fraction(0), Fraction(1, 3), Fraction(-1, 2), Fraction(1, 6))),
}


@pytest.mark.parametrize("name", sorted(TUPLE_READS))
def test_elements_read_as_their_tuple_of_fractions(name):
    # what the benchmark and the goldens read of an element over Q: repr,
    # str, len, truth value, iteration and [i] are those of the tuple
    ring, coeffs, t = TUPLE_READS[name]
    x = binom_poly(3) if coeffs is None else ring.make(coeffs)
    assert repr(x) == repr(t) and str(x) == str(t)
    assert len(x) == len(t) and bool(x) == bool(t)
    assert [(type(c), c) for c in x] == [(Fraction, c) for c in t]
    for i in range(-len(t), len(t)):
        assert type(x[i]) is Fraction and x[i] == t[i]
    assert ring.fmt(x) == ring.fmt(t)
    assert repr(QH.make([Fraction(1, 2), Fraction(0), Fraction(-3)])) == (
        "(Fraction(1, 2), Fraction(0, 1), Fraction(-3, 1))")


def test_comparing_an_element_with_a_plain_tuple_fails_loudly():
    # a missed conversion must not turn a check silently false
    x = QH.make([Fraction(1, 2)])
    for raw in ((Fraction(1, 2),), (), [Fraction(1, 2)]):
        with pytest.raises(TypeError):
            x == raw
        with pytest.raises(TypeError):
            raw == x
        with pytest.raises(TypeError):
            x != raw
    assert x == QH.make([Fraction(2, 4)]) and x != QH.zero
    assert x != Fraction(1, 2)


# the inexact coefficients make over Q once stored: a float next to the ints
# (its sums became floats and its products raised AttributeError), a
# Decimal, a string, a complex number
INEXACT = (0.5, 1.0, Decimal("0.5"), "1", 1j)


@pytest.mark.parametrize("ring", [QH, truncated_q(4), q_zeta(3)], ids=repr)
@pytest.mark.parametrize("bad", INEXACT, ids=repr)
def test_make_over_q_refuses_an_inexact_coefficient(ring, bad):
    with pytest.raises(DomainError, match=re.escape(repr(bad))):
        ring.make([bad, 1])
    with pytest.raises(DomainError):
        ring.make_ints([1, bad])


def test_make_over_q_with_a_float_leaves_no_element_to_add_or_multiply():
    # add gave (1.0, 2) and mul raised AttributeError on the made element
    with pytest.raises(DomainError):
        QH.add(QH.make([0.5, 1]), QH.make([Fraction(1, 2), 1]))
    with pytest.raises(DomainError):
        QH.mul(QH.make([0.5, 1]), QH.one)


def test_from_rational_over_q_is_the_identity():
    # the image of a ring over Q in itself, also through clear_denominators
    for ring in (QH, truncated_q(4), q_zeta(3)):
        x = ring.make([Fraction(1, 2), Fraction(-3)])
        assert ring.from_rational(x) is x
        f = TruncSeries(ring, ("z",), {(1,): x}, 3)
        assert clear_denominators(f, ring) == f


def test_make_over_q_reads_ints_as_fractions():
    # ints and Fractions mix in make; every coefficient reads as a Fraction
    x = QH.make([Fraction(1, 2), 1])
    assert [type(c) for c in x] == [Fraction, Fraction]
    assert repr(x) == "(Fraction(1, 2), Fraction(1, 1))"
    assert x == QH.make([Fraction(1, 2), Fraction(1)]) == QH.make(x)
    assert QH.make(x) is x

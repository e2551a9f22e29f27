"""The integer kernels of PolyQuotRing over Fraction coefficients (mul, the
monomial products and pow), the integer fold over Z and Horner evaluation,
each checked against the path it replaces: the class schoolbook through the
scalar ring, the class reduction, square-and-multiply, and term-by-term
evaluation."""
import pytest
from fractions import Fraction
from hypothesis import example, given, settings, strategies as st

from prismlab.qhopf import QH, QHT
from prismlab.qprism import bhat_ring
from prismlab.ringcore import (
    CyclotomicRing, IntRing, PolyQuotRing, QPoly, QSeriesRing, RatRing, Ring,
    _kronecker_mul, cyclotomic_modulus, h_element,
)

from rational_twin import rational_twin


def schoolbook(ring):
    """The same ring with the schoolbook at every level: dropping the
    kernels and the reductions chosen at construction leaves the class
    methods, which go through the scalar ring's add and mul."""
    scalar = ring.scalar
    if isinstance(scalar, PolyQuotRing):
        scalar = schoolbook(scalar)
    oracle = PolyQuotRing(scalar, ring.modulus, ring.var)
    for attr in ("mul", "add", "pow", "_reduce"):
        vars(oracle).pop(attr, None)
    return oracle


def truncated_q(n):
    return PolyQuotRing(RatRing(), (0,) * n + (1,), "h")


def q_zeta(p):
    return PolyQuotRing(RatRing(), cyclotomic_modulus(p), "zeta")


UNIVARIATE = {"QH": QH, "Q[h]/(h^1)": truncated_q(1),
              "Q[h]/(h^4)": truncated_q(4), "Q[h]/(h^8)": truncated_q(8),
              "Q(zeta_3)": q_zeta(3), "Q(zeta_5)": q_zeta(5)}
BIVARIATE = {"bhat_ring(4)": bhat_ring(4), "QHT": QHT}

# large and pairwise coprime denominators, next to small ones
DENOMINATORS = (1, 2, 3, 4, 9, 125, 2 ** 61 - 1, 10 ** 30 + 57, 3 ** 40)
rationals = st.builds(
    Fraction, st.integers(-10 ** 40, 10 ** 40),
    st.sampled_from(DENOMINATORS) | st.integers(1, 10 ** 12))
# a leading run of zeros makes products that h^N truncates to zero
coefficient_lists = st.builds(
    lambda shift, cs: [Fraction(0)] * shift + cs,
    st.integers(0, 6), st.lists(rationals, max_size=10))


def assert_same_product(ring, a, b):
    got = ring.mul(a, b)
    want = PolyQuotRing.mul(schoolbook(ring), a, b)
    # repr also tells a Fraction from an int and a stripped tuple from not
    assert repr(got) == repr(want)


@pytest.mark.parametrize("name", sorted(UNIVARIATE))
@settings(max_examples=60, deadline=None)
@given(a=coefficient_lists, b=coefficient_lists)
@example(a=[], b=[Fraction(1)])
@example(a=[Fraction(-3, 7)], b=[Fraction(5, 2 ** 61 - 1)])
@example(a=[0, 0, 0, Fraction(1)], b=[0, Fraction(-1, 3)])
# integral operands: the kernel's shortcut when every denominator is 1
@example(a=[Fraction(2), 0, Fraction(-5)], b=[Fraction(3), Fraction(1)])
def test_rat_kernel_matches_schoolbook(name, a, b):
    ring = UNIVARIATE[name]
    assert_same_product(ring, ring.make(a), ring.make(b))


@pytest.mark.parametrize("name", sorted(BIVARIATE))
@settings(max_examples=60, deadline=None)
@given(a=st.lists(coefficient_lists, max_size=6),
       b=st.lists(coefficient_lists, max_size=6))
@example(a=[], b=[[Fraction(1)]])
@example(a=[[Fraction(2, 3)]], b=[[Fraction(-1)]])
@example(a=[[], [0, 0, Fraction(1)]], b=[[0, 0, Fraction(7, 9)]])
@example(a=[[Fraction(2)], [0, Fraction(-1)]],
         b=[[Fraction(3), Fraction(1)], [Fraction(4)]])
def test_rat_bivariate_kernel_matches_schoolbook(name, a, b):
    R = BIVARIATE[name]
    H = R.scalar
    assert_same_product(R, R.make([H.make(c) for c in a]),
                        R.make([H.make(c) for c in b]))


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


def test_rat_kernel_edge_cases():
    H = truncated_q(4)
    h2 = H.make([0, 0, Fraction(1, 3)])
    assert H.mul(h2, h2) == ()
    assert H.mul((), h2) == () and H.mul(h2, ()) == ()
    R = bhat_ring(4)
    a = R.make([H.make([0, 0, Fraction(1)]), (), H.make([0, 0, 0, Fraction(-2)])])
    assert R.mul(a, a) == ()
    # an unstripped zero operand against a long one with large numerators
    long = QH.make([Fraction(3 ** 60, 7)] * 12)
    assert QH.mul((Fraction(0),), long) == ()
    assert repr(QH.mul((Fraction(0),), long)) == repr(
        PolyQuotRing.mul(QH, (Fraction(0),), long))
    # an unstripped zero is the monomial 0 h^k, on either side
    for zero in ((Fraction(0),), (0, 0, Fraction(0))):
        assert QH.mul(zero, long) == () == QH.mul(long, zero)
    # (1 + h)(1 - h) = 1 - h^2 over Q with coprime denominators
    u = QH.make([Fraction(1, 3), Fraction(1, 5)])
    v = QH.make([Fraction(1, 3), Fraction(-1, 5)])
    assert QH.mul(u, v) == (Fraction(1, 9), Fraction(0), Fraction(-1, 25))
    assert all(type(c) is Fraction for c in QH.mul(u, v))


def test_kernel_chosen_at_construction():
    # rings over Z, over Z/m, and polynomial rings over a polynomial ring
    # over Z keep the class schoolbook and the class add: no per-instance
    # kernel, so mul costs them nothing extra; add is bound nowhere
    others = (QSeriesRing(4, p=3, n_p=4), CyclotomicRing(5, n_p=3),
              PolyQuotRing(QSeriesRing(3), None, "t"))
    for ring in (*INTEGER.values(), *others):
        assert not {"mul", "add", "pow"} & set(vars(ring))
    for ring in UNIVARIATE.values():
        assert "mul" in vars(ring) and "add" not in vars(ring)
        # pow only without a modulus: a modulus keeps square-and-multiply,
        # which reduces every factor
        assert ("pow" in vars(ring)) == (ring.modulus is None)
    for ring in BIVARIATE.values():
        assert "mul" in vars(ring) and not {"add", "pow"} & set(vars(ring))


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
    # the fold uses only the nonzero terms of the modulus
    assert C._top_terms == ((0, -1), (1, -1))
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
    # there: by the Q kernel and by the Fraction schoolbook with the class
    # reduction, which shares no code with the integer fold
    ring = INTEGER[name]
    a, b = ring.make_ints(a), ring.make_ints(b)
    got = ring.mul(a, b)
    assert all(type(c) is int for c in got) and (not got or got[-1])
    twin, up = rational_twin(ring)
    assert up(got) == twin.mul(up(a), up(b))
    assert up(got) == PolyQuotRing.mul(schoolbook(twin), up(a), up(b))
    assert got == PolyQuotRing.mul(schoolbook(ring), a, b)


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
    assert fp == Ring.pow(schoolbook(ring), xm1, p)


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
    # the packed power against Ring.pow, which multiplies through the
    # kernel; a monomial's top coefficient is exactly sum |a_i| ^ n, the
    # digit bound
    a = QH.make(a)
    assert repr(QH.pow(a, n)) == repr(Ring.pow(QH, a, n))


def test_q_power_rejects_negative_exponents():
    for a in ((), QH.one, QH.make([Fraction(1, 2), Fraction(1)])):
        with pytest.raises(ValueError):
            QH.pow(a, -1)


def term_by_term(ring, a, value):
    """sum a_i value^i, one power of value after the other."""
    acc, power = ring.zero, ring.one
    for c in a:
        acc = ring.add(acc, ring.mul(ring._strip([c]), power))
        power = ring.mul(power, value)
    return acc


SUBST_RINGS = dict(UNIVARIATE, **{
    "Z[h]": QPoly(), "Z/81[h]/(h^4)": QSeriesRing(4, p=3, n_p=4),
    "Z[zeta_5]": CyclotomicRing(5), "Z/27[zeta_3]": CyclotomicRing(3, n_p=3)})
small_rationals = st.builds(Fraction, st.integers(-50, 50),
                            st.sampled_from((1, 2, 3, 7, 10 ** 9 + 7)))


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

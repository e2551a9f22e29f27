"""The integer kernel of PolyQuotRing.mul over Fraction coefficients,
checked against the Fraction schoolbook that every other ring uses."""
import pytest
from fractions import Fraction
from hypothesis import example, given, settings, strategies as st

from prismlab.qhopf import QH, QHT
from prismlab.qprism import bhat_ring
from prismlab.ringcore import (
    CyclotomicRing, PolyQuotRing, QPoly, QSeriesRing, RatRing,
    _kronecker_mul, cyclotomic_modulus, h_element,
)


def schoolbook(ring):
    """The same ring with the Fraction schoolbook at every level: dropping
    the kernels chosen at construction leaves the class methods."""
    scalar = ring.scalar
    if isinstance(scalar, PolyQuotRing):
        scalar = schoolbook(scalar)
    oracle = PolyQuotRing(scalar, ring.modulus, ring.var)
    for attr in ("mul", "add"):
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
    # (1 + h)(1 - h) = 1 - h^2 over Q with coprime denominators
    u = QH.make([Fraction(1, 3), Fraction(1, 5)])
    v = QH.make([Fraction(1, 3), Fraction(-1, 5)])
    assert QH.mul(u, v) == (Fraction(1, 9), Fraction(0), Fraction(-1, 25))
    assert all(type(c) is Fraction for c in QH.mul(u, v))


def test_kernel_chosen_at_construction():
    # rings over Z, Z/m and the cyclotomic rings keep the class schoolbook:
    # no per-instance kernel, so mul costs them nothing extra; add is bound
    # over Q only, and the bivariate rings add through it
    for ring in (QPoly(), QSeriesRing(4), QSeriesRing(4, p=3, n_p=4),
                 CyclotomicRing(3), CyclotomicRing(5, n_p=3),
                 PolyQuotRing(QSeriesRing(3), None, "t")):
        assert not {"mul", "add"} & set(vars(ring))
    for ring in UNIVARIATE.values():
        assert {"mul", "add"} <= set(vars(ring))
    for ring in BIVARIATE.values():
        assert "mul" in vars(ring) and "add" not in vars(ring)


def test_monomial_modulus_truncates():
    M = QSeriesRing(3, p=2, n_p=3)
    h = h_element(M)
    assert M.make_ints([1, 2, 3, 4, 5]) == (1, 2, 3)
    assert M.pow(h, 3) == ()
    # Phi_3 = 1 + q + q^2 is not monomial: q^3 = 1 still reduces, through
    # the class method, with no per-instance truncation in front of it
    C = CyclotomicRing(3)
    assert C.make_ints([0, 0, 0, 1]) == (1,)
    assert "_reduce" in vars(M) and "_reduce" not in vars(C)

import random

import math

import pytest
from fractions import Fraction
from hypothesis import example, given, settings, strategies as st

from prismlab.intpoly import (
    _RATPOLY, IntPoly, binom_poly,
    delta_basis_combine, delta_basis_expand, delta_p, gen_binom,
    int_mul, lambda_op, mahler_table, to_binomial, vandermonde,
)
from prismlab.ringcore import NotIntegral


def test_gen_binom():
    assert gen_binom(5, 2) == 10
    assert gen_binom(-1, 3) == -1
    assert gen_binom(-2, 2) == 3
    assert gen_binom(2, 5) == 0


def test_to_binomial_u_squared():
    # u^2 = C(u,1) + 2 C(u,2)
    got = to_binomial((Fraction(0), Fraction(0), Fraction(1)))
    assert got == IntPoly((0, 1, 2))


def test_to_binomial_rejects_u_half():
    with pytest.raises(NotIntegral):
        to_binomial((Fraction(0), Fraction(1, 2)))


def test_to_binomial_basis_vector():
    assert to_binomial(binom_poly(3)) == IntPoly.basis(3)


def test_int_mul_examples():
    u = IntPoly.u()
    # C(u,1)^2 = C(u,1) + 2 C(u,2)
    assert int_mul(u, u) == IntPoly((0, 1, 2))
    # 1 * a = a
    a = IntPoly((3, -1, 2))
    assert int_mul(IntPoly((1,)), a) == a
    # C(u,1) C(u,2) = 2 C(u,2) + 3 C(u,3)
    assert int_mul(u, IntPoly.basis(2)) == IntPoly((0, 0, 2, 3))


def test_int_mul_matches_rational_oracle():
    from prismlab.intpoly import int_mul_rational
    rng = random.Random(7)
    for _ in range(25):
        a = IntPoly(tuple(rng.randrange(-9, 10) for _ in range(6)))
        b = IntPoly(tuple(rng.randrange(-9, 10) for _ in range(6)))
        assert int_mul(a, b) == int_mul_rational(a, b)


def test_evaluation_hom():
    rng = random.Random(0)
    for _ in range(20):
        a = IntPoly(tuple(rng.randrange(-5, 6) for _ in range(4)))
        b = IntPoly(tuple(rng.randrange(-5, 6) for _ in range(4)))
        m = rng.randrange(-10, 11)
        assert (a * b)(m) == a(m) * b(m)
        assert (a + b)(m) == a(m) + b(m)


def test_lambda_examples():
    u = IntPoly.u()
    assert lambda_op(2, u) == IntPoly.basis(2)
    x = IntPoly((1, 4, -2))
    assert lambda_op(1, x) == x
    # lambda_2(u^2) = u^2 (u^2 - 1)/2 reconverted
    u2 = int_mul(u, u)
    direct = to_binomial(tuple(
        c / 2 for c in _rat_mul(u2.to_rational(),
                                _rat_sub(u2.to_rational(), (Fraction(1),)))))
    assert lambda_op(2, u2) == direct


def _rat_mul(a, b):
    from prismlab.intpoly import _RATPOLY
    return _RATPOLY.mul(a, b)


def _rat_sub(a, b):
    from prismlab.intpoly import _RATPOLY
    return _RATPOLY.sub(a, _RATPOLY.make(b))


def test_lambda_addition_formula():
    rng = random.Random(1)
    for _ in range(5):
        x = IntPoly(tuple(rng.randrange(-3, 4) for _ in range(3)))
        y = IntPoly(tuple(rng.randrange(-3, 4) for _ in range(3)))
        for n in range(1, 5):
            lhs = lambda_op(n, x + y)
            rhs = IntPoly(())
            for i in range(n + 1):
                rhs = rhs + int_mul(lambda_op(i, x), lambda_op(n - i, y))
            assert lhs == rhs


def test_delta_examples():
    u = IntPoly.u()
    # delta_2(u) = -C(u,2)
    assert delta_p(u, 2) == IntPoly((0, 0, -1))
    assert delta_p(IntPoly(()), 3) == IntPoly(())
    # iterate: delta_2(delta_2(u)) agrees with the direct formula
    d = delta_p(u, 2)
    expected = to_binomial(tuple(
        c / 2 for c in _rat_sub(d.to_rational(),
                                _rat_mul(d.to_rational(), d.to_rational()))))
    assert delta_p(d, 2) == expected


def test_wilkerson_congruence():
    rng = random.Random(2)
    for p in (2, 3, 5):
        for _ in range(30):
            x = IntPoly(tuple(rng.randrange(-9, 10) for _ in range(6)))
            diff = (x ** p) - x
            assert all(c % p == 0 for c in diff.coords)


def test_mahler_u():
    for p, n in ((2, 2), (3, 1)):
        got = mahler_table(IntPoly.u(), p, n)
        assert got["period"] == p ** n
        assert got["residues"] == list(range(p ** n))


def test_mahler_agrees_with_evaluation():
    rng = random.Random(3)
    for p in (2, 3):
        for _ in range(5):
            x = IntPoly(tuple(rng.randrange(-9, 10) for _ in range(5)))
            t = mahler_table(x, p, 2)
            P, mod = t["period"], p ** 2
            for m in range(-2 * P, 2 * P):
                assert x(m) % mod == t["residues"][m % P]


def test_mahler_dimension_count():
    # restriction to residues mod p^k maps span{C(u,d): d < p^k} bijectively
    # onto Fun(Z/p^k, Z/p^n): the value matrix C(r,d) is triangular with
    # unit diagonal.  Mod p the period of C(u,d) also divides p^k; for n >= 2
    # that refinement fails (C(u,3) mod 4 has period 8), so only the
    # dimension count is asserted there.
    for p, n, k in ((2, 1, 2), (2, 2, 2), (3, 1, 1), (3, 2, 1)):
        P, mod = p ** k, p ** n
        for d in range(P):
            row = [IntPoly.basis(d)(r) % mod for r in range(P)]
            assert row[:d] == [0] * d and row[d] % p != 0
            t = mahler_table(IntPoly.basis(d), p, n)
            if n == 1:
                assert t["period"] <= P
    # explicit counterexample to the naive period claim at n = 2
    assert mahler_table(IntPoly.basis(3), 2, 2)["period"] == 8


def test_delta_basis_expand_u():
    got = delta_basis_expand(IntPoly.u(), 2, 2)
    assert got == {1: Fraction(1)}


def test_delta_basis_expand_c2():
    # C(u,2) = -delta(u) for p = 2
    got = delta_basis_expand(IntPoly.basis(2), 2, 2)
    assert got == {2: Fraction(-1)}


def test_delta_basis_expand_c3_p3():
    got = delta_basis_expand(IntPoly.basis(3), 3, 2)
    # leading coordinate sits on delta(u) (index 3 = p) and is a p-adic unit
    c = got[3]
    assert c.denominator % 3 != 0 and c.numerator % 3 != 0


def test_delta_basis_roundtrip():
    rng = random.Random(5)
    for p in (2, 3):
        for _ in range(10):
            x = IntPoly(tuple(rng.randrange(-9, 10) for _ in range(p ** 2 + 1)))
            coords = delta_basis_expand(x, p, 3)
            assert delta_basis_combine(coords, p) == x.to_rational()
            for c in coords.values():
                assert c.denominator % p != 0


# The Fraction monomial route, the reference for the value-space operations:
# compute over Q[u] and convert back through finite differences.

def _pow_rational(x, n):
    return to_binomial(_RATPOLY.pow(x.to_rational(), n))


def _lambda_rational(n, x):
    R, fx = _RATPOLY, x.to_rational()
    acc = R.one
    for i in range(n):
        acc = R.mul(acc, R.sub(fx, R.make([Fraction(i)])))
    return to_binomial(tuple(c / math.factorial(n) for c in acc))


def _delta_rational(x, p):
    R, fx = _RATPOLY, x.to_rational()
    return to_binomial(tuple(c / p for c in R.sub(fx, R.pow(fx, p))))


int_polys = st.builds(IntPoly, st.lists(st.integers(-30, 30), max_size=6)
                      .map(tuple))


@settings(max_examples=80, deadline=None)
@given(x=int_polys, n=st.integers(0, 4))
@example(x=IntPoly(()), n=0)
@example(x=IntPoly(()), n=3)
@example(x=IntPoly((-7,)), n=0)
@example(x=IntPoly((-7,)), n=3)
@example(x=IntPoly((0, 1)), n=4)
def test_value_space_pow_and_lambda_match_monomial_route(x, n):
    assert x ** n == _pow_rational(x, n)
    assert lambda_op(n, x) == _lambda_rational(n, x)


@settings(max_examples=80, deadline=None)
@given(x=int_polys, p=st.sampled_from((2, 3, 5)))
@example(x=IntPoly(()), p=2)
@example(x=IntPoly((5,)), p=3)
@example(x=IntPoly((-4,)), p=5)
@example(x=IntPoly((0, 0, 0, 0, 0, 1)), p=5)
def test_value_space_delta_matches_monomial_route(x, p):
    assert delta_p(x, p) == _delta_rational(x, p)


def test_vandermonde_constants():
    # C(u,m) C(u,n) = sum_k g_k C(u,k), checked on values at 0..m+n
    for m in range(7):
        for n in range(7):
            consts = vandermonde(m, n)
            assert [k for k, _ in consts] == list(range(max(m, n), m + n + 1))
            for v in range(m + n + 1):
                assert math.comb(v, m) * math.comb(v, n) == sum(
                    g * math.comb(v, k) for k, g in consts)


def test_negative_exponents_raise():
    with pytest.raises(ValueError):
        IntPoly((0, 1)) ** -1
    with pytest.raises(ValueError):
        lambda_op(-1, IntPoly((0, 1)))

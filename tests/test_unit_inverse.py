"""The one unit inverse: Ring.inv and series_inverse run Newton's iteration
(ringcore.newton_inverse); each is checked by a . inv(a) == 1 and against
the geometric series written out below."""
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from prismlab.ringcore import (
    DomainError, ExactInt, ExactRat, IntModRing, ModP, NotIntegral,
    PolyQuotRing, QSeriesRing, RatRing, TruncSeries, newton_inverse,
    series_inverse,
)
from prismlab.witt import BigWitt, WittVector, teichmuller, verschiebung

SERIES_OPS = (operator.add, operator.mul, operator.sub)


def geometric_inverse(a, inv0, one, ops, terms):
    """inv0 (1 + n + ... + n^terms) with n = 1 - inv0 a: the inverse of a
    once n^(terms + 1) = 0."""
    add, mul, sub = ops
    n = sub(one, mul(inv0, a))
    acc = term = one
    for _ in range(terms):
        term = mul(term, n)
        acc = add(acc, term)
    return mul(inv0, acc)


rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 30))


# --- Ring.inv on the scalar rings ------------------------------------------


@given(a=st.integers(-5, 5))
def test_inv_over_z(a):
    inv = ExactInt().inv(a)
    assert inv == (a if a in (1, -1) else None)


@given(a=rationals)
def test_inv_over_q(a):
    inv = ExactRat().inv(a)
    if a == 0:
        assert inv is None
    else:
        assert a * inv == 1 and type(inv) is Fraction


@pytest.mark.parametrize("p, n", [(2, 4), (3, 2), (5, 3)])
@given(a=st.integers(0, 10 ** 4))
def test_inv_over_z_mod_pn(p, n, a):
    R = ModP(p, n)
    a = R.from_int(a)
    inv = R.inv(a)
    if a % p == 0:
        assert inv is None
    else:
        assert R.mul(a, inv) == 1


def truncated(scalar, N):
    return PolyQuotRing(scalar, (0,) * N + (1,), "h")


def check_poly_inverse(R, a, inv0):
    """R.inv(a) against the geometric series when inv0 inverts a's constant
    term, else None."""
    inv = R.inv(a)
    if inv0 is None:
        assert inv is None
        return
    assert R.mul(a, inv) == R.one
    want = geometric_inverse(a, R.make([inv0]), R.one,
                             (R.add, R.mul, R.sub), R.deg)
    assert repr(inv) == repr(want)


@settings(max_examples=60, deadline=None)
@given(N=st.integers(1, 12), cs=st.lists(rationals, min_size=1, max_size=14))
@example(N=3, cs=[Fraction(0), Fraction(1)])
@example(N=5, cs=[Fraction(1), Fraction(-1, 2), Fraction(1, 3)])
def test_inv_over_q_h_mod_hn(N, cs):
    R = truncated(RatRing(), N)
    a = R.make(cs)
    check_poly_inverse(R, a, 1 / cs[0] if cs[0] else None)


@pytest.mark.parametrize("p, n", [(2, 3), (3, 6)])
@settings(max_examples=40, deadline=None)
@given(N=st.integers(1, 12), cs=st.lists(st.integers(0, 10 ** 3), min_size=1,
                                         max_size=14))
def test_inv_over_z_mod_pn_h_mod_hn(p, n, N, cs):
    R = QSeriesRing(N, p=p, n_p=n)
    a = R.make_ints(cs)
    check_poly_inverse(R, a, pow(cs[0], -1, p ** n) if cs[0] % p else None)


@settings(max_examples=40, deadline=None)
@given(N=st.integers(1, 12), c0=st.sampled_from([1, -1, 2, 0]),
       cs=st.lists(st.integers(-9, 9), max_size=13))
def test_inv_over_z_h_mod_hn(N, c0, cs):
    R = QSeriesRing(N)
    check_poly_inverse(R, R.make_ints([c0] + cs),
                       c0 if c0 in (1, -1) else None)


def test_inv_without_monomial_modulus_sees_only_plus_minus_one():
    R = PolyQuotRing(ExactInt(), (1, 1, 1), "zeta")
    assert R.inv(R.one) == R.one
    assert R.inv(R.neg(R.one)) == R.neg(R.one)
    assert R.inv(R.make_ints([1, 1])) is None


# --- series_inverse ---------------------------------------------------------


def check_series_inverse(f, inv0):
    got = series_inverse(f)
    one = TruncSeries.one(f.ring, f.variables, f.order)
    assert f * got == one
    c = TruncSeries.const(f.ring, f.variables, f.order, inv0)
    assert got == geometric_inverse(f, c, one, SERIES_OPS, f.order)


SCALARS = {"Z": ExactInt(), "Z/27": ModP(3, 3), "Q": ExactRat()}
# (unit constant, its inverse)
UNIT_CONSTANTS = {
    "Z": st.sampled_from([(1, 1), (-1, -1)]),
    "Z/27": st.sampled_from([(c, pow(c, -1, 27)) for c in (1, 2, 4, 5, 7, 26)]),
    "Q": rationals.filter(bool).map(lambda c: (c, 1 / c)),
}


@pytest.mark.parametrize("name", sorted(SCALARS))
@pytest.mark.parametrize("variables", [("z",), ("z1", "z2")])
@settings(max_examples=15, deadline=None)
@given(data=st.data(), order=st.integers(0, 6))
def test_series_inverse(name, variables, data, order):
    ring = SCALARS[name]
    c0, inv0 = data.draw(UNIT_CONSTANTS[name])
    exps = st.tuples(*[st.integers(0, 6)] * len(variables)).filter(any)
    terms = data.draw(st.dictionaries(exps, st.integers(-9, 9), max_size=6))
    coeffs = {e: ring.from_int(c) for e, c in terms.items()}
    coeffs[(0,) * len(variables)] = c0
    check_series_inverse(TruncSeries(ring, variables, coeffs, order), inv0)


def test_series_inverse_rejects_non_units():
    z = TruncSeries.var(ExactInt(), ("z",), 4, "z")
    with pytest.raises(NotIntegral):
        series_inverse(z + TruncSeries.const(ExactInt(), ("z",), 4, 2))
    Z9 = IntModRing(9)
    z9 = TruncSeries.var(Z9, ("z",), 4, "z")
    with pytest.raises(NotIntegral):
        series_inverse(z9 + TruncSeries.const(Z9, ("z",), 4, 3))
    with pytest.raises(DomainError):
        series_inverse(TruncSeries.one(ExactRat(), ("z",), None))


def test_series_inverse_inverts_every_unit_constant():
    # constants other than 1 and -1 over Z/9 are units too, and are inverted
    Z9 = IntModRing(9)
    f = TruncSeries(Z9, ("z",), {(0,): 2, (1,): 1}, 3)
    # 1/(2 + z) = 5 (1 + 5z)^(-1) = 5 - 25z + 125z^2 - 625z^3
    assert series_inverse(f) == TruncSeries(
        Z9, ("z",), {(0,): 5, (1,): 2, (2,): 8, (3,): 5}, 3)


# --- Witt units and big-Witt negation -------------------------------------


@pytest.mark.parametrize("p", [2, 3])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_witt_unit_inverse(p, data):
    L = 3
    R = PolyQuotRing(ModP(p, 1), (0, 0, 0, 1), "a")
    comps = [R.make_ints(data.draw(st.lists(st.integers(0, p - 1),
                                            min_size=3, max_size=3)))
             for _ in range(L)]
    one = teichmuller(R, p, L, R.one)
    w = one + verschiebung(WittVector(R, p, comps))
    # V W is nilpotent: (V W)^L = 0 in characteristic p
    inv = newton_inverse(w, one, one, operator.mul, operator.sub,
                         L.bit_length())
    assert inv is not None and w * inv == one
    assert inv == geometric_inverse(w, one, one, SERIES_OPS, L)


def test_newton_inverse_returns_none_when_steps_run_out():
    R = QSeriesRing(8)
    a = R.make_ints([1, 1])
    assert newton_inverse(a, R.one, R.one, R.mul, R.sub, 2) is None
    assert R.mul(a, newton_inverse(a, R.one, R.one, R.mul, R.sub, 3)) == R.one


@pytest.mark.parametrize("ring", [ExactInt(), ModP(3, 2)], ids=repr)
@settings(max_examples=20, deadline=None)
@given(N=st.integers(1, 8), cs=st.lists(st.integers(-20, 20), max_size=8))
def test_bigwitt_negation(ring, N, cs):
    w = BigWitt(ring, N, {n: ring.from_int(c)
                          for n, c in enumerate(cs, start=1)})
    assert w + (-w) == BigWitt.one(ring, N)

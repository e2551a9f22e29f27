import math
import random

import pytest
from fractions import Fraction
from hypothesis import example, given, settings, strategies as st

from prismlab import pd_dual
from prismlab.intpoly import gen_binom
from prismlab.pd_dual import (
    DistrElem, NotPD, PDElem, ReductionFailure, _gsharp_basis_elem,
    _gamma_op, delta_to_e, distr_mul, gsharp_comparison,
    log_and_pairing_check, log_mu_p_vanishes, log_pd, log_sharp_power,
    mu_p_pd_check, reduce_against_basis,
    pair_distr, pair_xu, pd_normalize, rescaled_section, stirling_first,
)
from prismlab.ringcore import TruncSeries, series_exp


def test_pd_normalize_examples():
    assert pd_normalize([0, 0, Fraction(1, 2)]) == PDElem.gamma(2)
    with pytest.raises(NotPD):
        pd_normalize([0, Fraction(1, 2)])
    assert pd_normalize([0, 1]) == PDElem.gamma(1)


def test_pd_mul_example():
    # x * gamma_2 = gamma_2 + 3 gamma_3  (x = 1 + gamma_1)
    x = PDElem((1, 1))
    got = x * PDElem.gamma(2)
    assert got == PDElem((0, 0, 1, 3))


def test_pd_divided_power_law():
    for m in range(5):
        for n in range(5):
            got = PDElem.gamma(m) * PDElem.gamma(n)
            assert got == PDElem((0,) * (m + n) + (math.comb(m + n, n),))


def test_delta_to_e_examples():
    assert delta_to_e(2, 6).coords[:3] == (1, 2, 2)
    assert delta_to_e(0, 6).coords == (1, 0, 0, 0, 0, 0, 0)
    d1, dm1 = delta_to_e(1, 8), delta_to_e(-1, 8)
    assert distr_mul(d1, dm1) == delta_to_e(0, 8)


def test_delta_to_e_convolution():
    for m in range(-3, 4):
        for n in range(-3, 4):
            order = 8 + abs(m) + abs(n)
            lhs = distr_mul(delta_to_e(m, order), delta_to_e(n, order))
            # valid at filtration order >= |m| + |n|
            assert lhs == delta_to_e(m + n, order)


def test_delta_inverse_expansion():
    # delta_1^{-1} = sum (-1)^n n! e_n
    got = delta_to_e(-1, 6)
    assert got.coords == tuple((-1) ** n * math.factorial(n) for n in range(7))


def test_pair_delta0():
    for n in range(1, 6):
        assert pair_xu(0, PDElem.gamma(n)) == 0
    assert pair_xu(0, PDElem.gamma(0)) == 1


def test_pairing_linear():
    f = PDElem((2, -3, 5))
    assert pair_xu(4, f) == 2 - 3 * 4 + 5 * 6


def test_bialgebra_duality():
    # <delta_m delta_n, f> = <delta_m x delta_n, Delta f> with
    # Delta gamma_k = sum gamma_i tensor x^i gamma_j; restricted to pure
    # delta-points the prefactor acts through the Vandermonde identity
    rng = random.Random(0)
    for _ in range(20):
        m, n = rng.randrange(-4, 5), rng.randrange(-4, 5)
        f = PDElem(tuple(rng.randrange(-5, 6) for _ in range(7)))
        lhs = pair_xu(m + n, f)
        rhs = 0
        for k, a in enumerate(f.coords):
            for i in range(k + 1):
                rhs += a * gen_binom(m, i) * gen_binom(n, k - i)
        assert lhs == rhs


def test_log_pd_coords():
    # log x = gamma_1 - gamma_2 + 2 gamma_3 - ...
    got = log_pd(3)
    assert got == PDElem((0, 1, -1, 2))


def test_log_sharp_k1():
    assert log_sharp_power(1, 3) == PDElem((0, 1, -1, 2))


def test_log_sharp_leading():
    for k in (2, 3, 4):
        got = log_sharp_power(k, k)
        assert got == PDElem.gamma(k)


def test_stirling_first_is_falling_factorial_coefficients():
    # x (x - 1) ... (x - n + 1) = sum_k s(n, k) x^k, up to n where the
    # unmemoized recursion would take about 2^n calls
    falling = [1]
    for n in range(61):
        assert [stirling_first(n, k) for k in range(n + 1)] == falling
        falling = [(falling[k - 1] if k else 0)
                   - n * (falling[k] if k < len(falling) else 0)
                   for k in range(n + 2)]


def test_mu_p_pd_check():
    rng = random.Random(1)
    for p in (2, 3, 5):
        rep = mu_p_pd_check(p, 50, rng)
        assert not rep["failures"]


def test_mu_p_example_p2():
    # f = x - 1 in Z[x]/(x^2-1): f^2 = -2(x-1)
    rep = mu_p_pd_check(2, 1, random.Random(2))
    assert not rep["failures"]


def test_rescaled_section():
    assert rescaled_section(2) == PDElem((0, 1, 1))
    assert rescaled_section(3) == PDElem((0, 1, 2, 2))


def test_gsharp_reduction_example_p2():
    # gamma_2(t) = z - t
    z = rescaled_section(2)
    basis = {0: PDElem.from_int(1), 1: PDElem.gamma(1), 2: z}
    coords = reduce_against_basis(PDElem.gamma(2), basis, 2)
    assert coords == {2: Fraction(1), 1: Fraction(-1)}


def test_gsharp_comparison():
    rng = random.Random(3)
    for p in (2, 3):
        rep = gsharp_comparison(p, 12, 25, rng)
        assert not rep["failures"]
        expected = rescaled_section(p).coords
        assert tuple(rep["z_coords"]) == expected


def test_exact_sequence_check():
    rep = log_and_pairing_check(5)
    assert rep["log_xu"]
    assert rep["log_at_zero"]
    assert rep["exp_pairing"]
    for p in (2, 3, 5, 7):
        assert log_mu_p_vanishes(p, 6)


@pytest.mark.parametrize("term, value", [
    ((2, 2), Fraction(1, 3)), ((1, 2), Fraction(1)), ((6, 0), Fraction(1))])
def test_exp_pairing_fails_on_one_wrong_exp_term(monkeypatch, term, value):
    # a diagonal term off 1/n!, an off-diagonal one, one beyond i, j <= N
    def wrong(f):
        good = series_exp(f)
        return TruncSeries(good.ring, good.variables,
                           {**good.coeffs, term: value}, good.order)

    monkeypatch.setattr(pd_dual, "series_exp", wrong)
    rep = log_and_pairing_check(5)
    assert rep["log_xu"] and rep["log_at_zero"] and not rep["exp_pairing"]


def test_log_sharp_power_is_stirling():
    for N in range(21):
        for k in range(1, 11):
            want = [stirling_first(n, k) for n in range(N + 1)]
            while want and want[-1] == 0:
                want.pop()
            assert log_sharp_power(k, N).coords == tuple(want), (k, N)


def test_log_sharp_power_is_prefix_of_full_power():
    # the untruncated (log x)^k / k!, with its k N + 1 coordinates
    for N in range(13):
        log = log_pd(N)
        acc = log
        for k in range(1, 5):
            if k > 1:
                acc = acc * log
            full = [c // math.factorial(k) for c in acc.coords[:N + 1]]
            assert log_sharp_power(k, N) == PDElem(tuple(full)), (k, N)


def old_pair_distr(d, f):
    acc = Fraction(0)
    for n, c in enumerate(d.coords):
        acc += Fraction(c * f.coord(n), math.factorial(n))
    return acc


def test_pair_distr_matches_fraction_sum():
    rng = random.Random(5)
    for m in range(-6, 7):
        for order in range(15):
            d = delta_to_e(m, order)
            for n in range(order + 2):
                g = PDElem.gamma(n)
                assert pair_distr(d, g) == old_pair_distr(d, g)
                assert n > order or pair_distr(d, g) == gen_binom(m, n)
            f = PDElem(tuple(rng.randrange(-9, 10) for _ in range(order + 3)))
            assert pair_distr(d, f) == old_pair_distr(d, f)
    # a distribution that does not come from an integer point
    d = DistrElem((1, -3, 5, 7), 3)
    f = PDElem((2, 1, 1, 1))
    assert pair_distr(d, f) == old_pair_distr(d, f) == Fraction(8, 3)
    assert pair_distr(DistrElem((), 0), f) == 0


# --- the binomial convolution and the scaled reduction against oracles -----


def comb_product(a, b, top=None):
    """c_k = sum a_m b_n C(m + n, n), one pair of coordinates at a time, for
    k <= top (every k when top is None)."""
    out = {}
    for m, x in enumerate(a):
        for n, y in enumerate(b):
            if top is None or m + n <= top:
                out[m + n] = out.get(m + n, 0) + x * y * math.comb(m + n, n)
    size = max(out, default=-1) + 1 if top is None else top + 1
    return tuple(out.get(k, 0) for k in range(size))


coordinates = st.lists(st.integers(-10 ** 25, 10 ** 25) | st.integers(-5, 5),
                       max_size=16)


@settings(max_examples=150, deadline=None)
@given(a=coordinates, b=coordinates)
@example(a=[], b=[1, 2])
@example(a=[0, 0, 0], b=[7])
@example(a=[1] + [0] * 20, b=[0] * 20 + [1])
@example(a=[-1] * 16, b=[10 ** 25] * 16)
def test_pd_product_matches_comb_double_loop(a, b):
    got = PDElem(tuple(a)) * PDElem(tuple(b))
    assert got == PDElem(comb_product(a, b))
    assert all(type(c) is int for c in got.coords)


@settings(max_examples=150, deadline=None)
@given(a=coordinates, b=coordinates, order_a=st.integers(0, 20),
       order_b=st.integers(0, 20))
@example(a=[], b=[], order_a=0, order_b=3)
@example(a=[1, 2, 3, 4, 5], b=[5, 4, 3], order_a=2, order_b=9)
def test_distr_product_matches_comb_double_loop(a, b, order_a, order_b):
    # coordinates past an operand's order are kept and must not leak in
    got = DistrElem(tuple(a), order_a) * DistrElem(tuple(b), order_b)
    order = min(order_a, order_b)
    assert got.order == order
    assert got.coords == comb_product(a, b, order)


def test_delta_to_e_is_gen_binom_times_factorial():
    for m in range(-12, 13):
        for order in range(16):
            assert delta_to_e(m, order).coords == tuple(
                gen_binom(m, n) * math.factorial(n) for n in range(order + 1))


def fraction_reduction(f, basis, p):
    """The reduction on Fractions, one coordinate at a time: the reference
    for the scaled integer reduction."""
    coords = {}
    residual = [Fraction(c) for c in f.coords]
    while residual:
        n = len(residual) - 1
        c = residual[n] / basis[n].coord(n)
        assert c.denominator % p
        coords[n] = c
        for i, v in enumerate(basis[n].coords):
            residual[i] -= c * v
        while residual and residual[-1] == 0:
            residual.pop()
    return coords


def gsharp_basis(p, max_degree=12):
    z_iter = [rescaled_section(p)]
    while p ** len(z_iter) <= max_degree:
        z_iter.append(_gamma_op(z_iter[-1], p))
    return {n: _gsharp_basis_elem(n, p, z_iter) for n in range(max_degree + 1)}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_reduction_matches_fraction_reference(p):
    basis = gsharp_basis(p)
    rng = random.Random(p)
    denominators = set()
    for _ in range(40):
        size = rng.randrange(14)
        f = PDElem(tuple(rng.randrange(-9, 10) for _ in range(size)))
        got = reduce_against_basis(f, basis, p)
        assert got == fraction_reduction(f, basis, p)
        assert list(got) == list(fraction_reduction(f, basis, p))
        denominators |= {c.denominator for c in got.values()}
    # p-integral, not integral: at p = 2 the denominators are odd numbers
    # such as 25, 63 and 10395
    assert max(denominators) > 1


def test_reduction_refuses_what_is_not_p_integral_or_exact(monkeypatch):
    basis = {0: PDElem((1,)), 1: PDElem((0, 3))}
    assert reduce_against_basis(PDElem((0, 1)), basis, 2) == {1: Fraction(1, 3)}
    with pytest.raises(ReductionFailure, match="not p-integral"):
        reduce_against_basis(PDElem((0, 1)), basis, 3)
    with pytest.raises(ReductionFailure, match="degree 0 is not p-integral"):
        reduce_against_basis(PDElem((1,)), {0: PDElem((2,))}, 2)
    # a scale that does not clear the lead leaves a remainder, which raises
    # instead of being floored away
    monkeypatch.setattr(pd_dual.math, "prod", lambda leads: 1)
    with pytest.raises(ReductionFailure, match="not an exact quotient"):
        reduce_against_basis(PDElem((0, 1)), basis, 2)


def test_gsharp_round_trip_catches_a_wrong_coefficient(monkeypatch):
    # the integer round trip is as strict as the Fraction one: one
    # coefficient moved by 1/M shows as a mismatch
    good = pd_dual.reduce_against_basis

    def off(f, basis, p):
        coords = good(f, basis, p)
        n = max(coords)
        coords[n] += Fraction(1, 10 ** 9 + 7)
        return coords

    monkeypatch.setattr(pd_dual, "reduce_against_basis", off)
    rep = gsharp_comparison(3, 12, 5, random.Random(4))
    assert len(rep["failures"]) == 5
    assert all(f.startswith("roundtrip mismatch") for f in rep["failures"])

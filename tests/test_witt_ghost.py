"""Ghost-side Witt operations checked against independent algorithms:
scalar_mul against n-fold Witt addition by double-and-add, witt_pow against
one ghost power over the rational twin, both against the universal tables on
generic_vector's F_p series ring, and the p-power ladders of the ghost maps
against the ghost formula written out term by term."""
import random
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from prismlab.derham import generic_vector
from prismlab.ringcore import (
    ExactInt, ExactRat, IntModRing, ModP, NotIntegral, PolyQuotRing,
    SeriesCoeffRing,
)
from prismlab.witt import (
    WittVector, _GhostStep, _universal, from_ghost, ghost, ghost_in_ring,
    scalar_mul, teichmuller, witt_neg, witt_op, witt_op_universal, witt_pow,
    zero_vector,
)

from rational_twin import rational_twin


def double_and_add(n, w, add=lambda a, b: witt_op(a, b, "add"), neg=witt_neg):
    if n < 0:
        return double_and_add(-n, neg(w), add, neg)
    acc, base = zero_vector(w.ring, w.p, w.L), w
    while n:
        if n & 1:
            acc = add(acc, base)
        base = add(base, base)
        n >>= 1
    return acc


def scalar_mul_table(n, w):
    """n . w as n-fold addition on the universal tables."""
    return double_and_add(n, w, lambda a, b: witt_op_universal(a, b, "add"),
                          lambda a: _universal("neg", a))


def ghost_power(w, n):
    """w^n as one ghost power, ghost(w^n) = ghost(w)^n, solved over the
    rational twin of the coefficient ring and certified back."""
    rring, to_rat = rational_twin(w.ring)
    x = w._map(rring, to_rat)
    return from_ghost(rring, w.p, [rring.pow(g, n) for g in ghost_in_ring(x)]
                      )._map(w.ring, w.ring.from_rational)


def power_by_products(ring, x, e):
    out = ring.one
    for _ in range(e):
        out = ring.mul(out, x)
    return out


def ghost_direct(w):
    """sum_i p^i x_i^(p^(n-i)), each power a chain of e products."""
    r, p, xs = w.ring, w.p, w.components
    return [reduce(r.add, [
        r.mul_int(power_by_products(r, xs[i], p ** (n - i)), p ** i)
        for i in range(n + 1)]) for n in range(len(xs))]


def trunc_poly(scalar):
    """scalar[a]/(a^3)"""
    return PolyQuotRing(scalar, (0, 0, 0, 1), "a")


# (ring, p-adic precision n_p used for the value p^(n_p+4), component values)
def rings(p):
    mods = [(ModP(p, n_p), n_p, st.integers(0, p ** n_p - 1))
            for n_p in (1, 2, 4)]
    fp_a3 = trunc_poly(ModP(p, 1))
    return st.sampled_from(
        [(ExactInt(), 4, st.integers(-20, 20))] + mods
        + [(fp_a3, 1, st.lists(st.integers(0, p - 1), max_size=3)
            .map(fp_a3.make_ints))])


@st.composite
def vectors(draw, max_len=4):
    p = draw(st.sampled_from((2, 3, 5)))
    ring, n_p, comps = draw(rings(p))
    L = draw(st.integers(1, max_len))
    comps = draw(st.lists(comps, min_size=L, max_size=L))
    return WittVector(ring, p, comps), n_p


def multipliers(p, n_p):
    special = [0, 1, -1, p, -p, p ** (n_p + 4)]
    return st.sampled_from(special) | st.integers(-(2 ** 20 - 1), 2 ** 20 - 1)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_scalar_mul_matches_double_and_add(data):
    w, n_p = data.draw(vectors())
    n = data.draw(multipliers(w.p, n_p))
    assert scalar_mul(n, w).components == double_and_add(n, w).components


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_witt_pow_matches_ghost_power(data):
    # the lift's ghost components grow linearly in n, so n stays small here
    w, _ = data.draw(vectors())
    n = data.draw(st.sampled_from([0, 1, w.p, w.p ** 2]) | st.integers(0, 12))
    assert witt_pow(w, n).components == ghost_power(w, n).components


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_witt_pow_adds_exponents(data):
    # large exponents over rings with torsion: w^(a+b) = w^a . w^b
    w, n_p = data.draw(vectors().filter(lambda v: not v[0].ring.is_torsion_free))
    a, b = (data.draw(st.sampled_from([0, 1, w.p, w.p ** (n_p + 4)])
                      | st.integers(0, 2 ** 20 - 1)) for _ in range(2))
    assert witt_pow(w, a + b).components == witt_op(
        witt_pow(w, a), witt_pow(w, b), "mul").components


def square_and_multiply(w, n):
    """w^n by square-and-multiply on Witt products."""
    acc = teichmuller(w.ring, w.p, w.L, w.ring.one)
    while n:
        if n & 1:
            acc = witt_op(acc, w, "mul")
        n >>= 1
        if n:
            w = witt_op(w, w, "mul")
    return acc


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_witt_pow_matches_square_and_multiply(data):
    w, _ = data.draw(vectors())
    n = data.draw(st.sampled_from([0, 1, 2, w.p, w.p + 1])
                  | st.integers(0, 12))
    assert witt_pow(w, n).components == square_and_multiply(w, n).components


@pytest.mark.parametrize("p", [2, 3])
def test_witt_pow_zero_and_one(p):
    # over Z, Z/p^3 and F_p[a]/(a^3): w^0 is the unit [1], w^1 is w
    fp_a3 = trunc_poly(ModP(p, 1))
    polys = [fp_a3.make_ints(c) for c in ([1, 1], [0, 1], [1, 0, 1])]
    for ring, comps in ((ExactInt(), [-7, 4, 11]), (ModP(p, 3), [5, 0, 3]),
                        (fp_a3, polys)):
        w = WittVector(ring, p, comps)
        one = teichmuller(ring, p, 3, ring.one)
        assert witt_pow(w, 0).components == one.components
        assert witt_pow(w, 1).components == w.components
        assert square_and_multiply(w, 0) == one
        assert square_and_multiply(w, 1) == w


def test_witt_pow_rejects_negative_exponent():
    w = teichmuller(ExactInt(), 2, 3, 5)
    with pytest.raises(ValueError):
        witt_pow(w, -1)


@pytest.mark.parametrize("p,L", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)])
@settings(max_examples=15, deadline=None)
@given(n=st.sampled_from([0, 1, -1, 2, -3, 5 ** 5])
       | st.integers(-(2 ** 20 - 1), 2 ** 20 - 1))
def test_universal_fallback_matches_integral_ghosts(p, L, n):
    # generic_vector's F_p series ring runs its ghost solves on the bounded
    # lift, the same series ring over Z/p^L.  Independent references: n-fold sums and products on
    # the universal tables, which evaluate in the F_p ring itself, and the
    # same symbolic vector over Z, since reduction mod p is a ring map.
    ring, x = generic_vector(p, L)
    Z = SeriesCoeffRing(ExactInt(), ring.variables, ring.order)
    xz = WittVector(Z, p, [Z.var(v) for v in ring.variables])

    def mod_p(w):
        return [{e: c % p for e, c in comp.coeffs.items() if c % p}
                for comp in w.components]

    got = scalar_mul(n, x)
    assert got.components == double_and_add(n, x).components
    assert got.components == scalar_mul_table(n, x).components
    assert [c.coeffs for c in got.components] == mod_p(scalar_mul(n, xz))
    k = abs(n) % 7
    got = witt_pow(x, k)
    assert [c.coeffs for c in got.components] == mod_p(ghost_power(xz, k))
    table_pow = teichmuller(ring, p, L, ring.one)
    for _ in range(k):
        table_pow = witt_op_universal(table_pow, x, "mul")
    assert got.components == table_pow.components


@st.composite
def ladder_vectors(draw):
    p = draw(st.sampled_from((2, 3)))
    L = draw(st.integers(1, 6))
    if draw(st.booleans()):
        ring, comps = ExactInt(), st.integers(-50, 50)
    else:
        ring = trunc_poly(ExactInt())
        comps = st.lists(st.integers(-9, 9), max_size=3).map(ring.make_ints)
    return WittVector(ring, p, draw(st.lists(comps, min_size=L, max_size=L)))


@settings(max_examples=60, deadline=None)
@given(w=ladder_vectors())
def test_ghost_ladder_matches_direct_formula(w):
    ghosts = ghost_in_ring(w)
    assert ghosts == ghost_direct(w)
    assert from_ghost(w.ring, w.p, ghost(w)).components == w.components


def solve_outcome(ring, p, ghosts):
    try:
        return WittVector(ring, p, ())._solve(ring, ghosts).components
    except NotIntegral as err:
        return str(err)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_int_kernel_matches_the_ring_api_path(p):
    # over Z and Z/p^(n_p+L-1) the step runs on plain ints; the constant
    # polynomials of scalar[x] take the ring-API path over the same scalar
    rng = random.Random(p)
    for L in range(1, 6):
        n_p = rng.randrange(1, 5)
        M = p ** (n_p + L - 1)
        for scalar, draw in ((ExactInt(), lambda: rng.randrange(-50, 51)),
                             (IntModRing(M, p), lambda: rng.randrange(M))):
            P = PolyQuotRing(scalar, None, "x")

            def const(values):
                return [P.make([c]) for c in values]

            def scalars(elems):
                # the generic path's values, each a constant, as scalars
                assert all(len(e) <= 1 for e in elems)
                return tuple(P.coeff(e, 0) for e in elems)
            for _ in range(10):
                comps = [draw() for _ in range(L)]
                ghosts = ghost_in_ring(WittVector(scalar, p, comps))
                assert tuple(ghosts) == scalars(ghost_in_ring(
                    WittVector(P, p, const(comps))))
                # integral ghosts, and arbitrary ones, mostly not integral
                for gs in (ghosts, [draw() for _ in range(L)]):
                    want = solve_outcome(P, p, const(gs))
                    assert solve_outcome(scalar, p, gs) == (
                        scalars(want) if isinstance(want, tuple) else want)
    # the same non-integral ghost: (0 - 1^p) / p
    for scalar in (ExactInt(), IntModRing(p ** 3, p)):
        P = PolyQuotRing(scalar, None, "x")
        msg = "ghost component 1 is not integral"
        assert solve_outcome(scalar, p, [1, 0]) == msg
        assert solve_outcome(P, p, [P.one, P.zero]) == msg


def test_int_kernel_chosen_at_construction():
    # Z/M and Z take the plain-int kernel, every other ring (a subclass of
    # IntModRing among them) its own arithmetic
    class Sub(IntModRing):
        pass
    assert _GhostStep(ModP(3, 4), 3).mod == 81
    assert _GhostStep(ExactInt(), 3).mod == 0
    for ring in (ExactRat(), Sub(81, 3), trunc_poly(ModP(3, 4)),
                 PolyQuotRing(ExactInt(), None, "x")):
        assert _GhostStep(ring, 3).mod is None
    # a solve over Z/81 calls none of the ring's methods
    R = ModP(3, 4)
    w = WittVector(R, 3, [5, 7, 11])
    gs = ghost_in_ring(w)
    # x_2 is 11 only mod 3^(4-2): a solve over Z/81 is not unique
    solved = WittVector(R, 3, ())._solve(R, gs).components
    assert solved == (5, 7, 2)

    def refuse(*args):
        raise AssertionError("ring method called")
    for name in ("add", "sub", "pow", "mul_int", "div_int_exact"):
        setattr(R, name, refuse)
    assert ghost_in_ring(w) == gs
    assert WittVector(R, 3, ())._solve(R, gs).components == solved

import random

import pytest
from fractions import Fraction

from prismlab.ringcore import (
    BoundExceeded, ExactInt, ModP, NotIntegral, PolyQuotRing, QPoly,
    h_element, q_element,
)
from prismlab.witt import (
    BigWitt, DeltaRing, WittVector, bj_to_witt,
    frobenius, frobenius_big, from_ghost, from_ghost_big, from_int_vector,
    ghost, joyal_lift, scalar_mul, teich_mul,
    teichmuller, teichmuller_big, verschiebung, wf_kernel_report,
    witt_op, witt_op_universal, witt_pow, witt_to_bj,
    zero_vector,
)

from rational_twin import rational_twin


def fp_poly_ring(p, k):
    """F_p[a]/(a^k)"""
    return PolyQuotRing(ModP(p, 1), (0,) * k + (1,), "a")


def test_ghost_of_teichmuller():
    Z = ExactInt()
    for p in (2, 3, 5):
        w = teichmuller(Z, p, 3, 7)
        assert ghost(w) == [Fraction(7), Fraction(7 ** p), Fraction(7 ** (p * p))]


def test_from_ghost_example():
    Z = ExactInt()
    w = from_ghost(Z, 2, [Fraction(2), Fraction(2)])
    assert w.components == (2, -1)


def test_from_ghost_non_integral():
    Z = ExactInt()
    with pytest.raises(NotIntegral):
        from_ghost(Z, 2, [Fraction(0), Fraction(1)])


def test_universal_add_example():
    # p=2, L=2: (1,0) + (1,0) = (2,-1)
    got = witt_op_universal(teichmuller(ExactInt(), 2, 2, 1),
                            teichmuller(ExactInt(), 2, 2, 1), "add")
    assert got.components == (2, -1)


def test_universal_matches_ghost():
    Z = ExactInt()
    rng = random.Random(2)
    for p in (2, 3):
        for L in (1, 2, 3, 4):
            for _ in range(10):
                a = WittVector(Z, p, [rng.randrange(-5, 6) for _ in range(L)])
                b = WittVector(Z, p, [rng.randrange(-5, 6) for _ in range(L)])
                for op in ("add", "mul"):
                    assert witt_op_universal(a, b, op) == witt_op(a, b, op)


def test_universal_works_mod_p():
    R = ModP(2, 4)
    a = WittVector(R, 2, [3, 5, 7])
    b = WittVector(R, 2, [1, 2, 3])
    s = witt_op(a, b, "add")
    # reduce the exact computation mod 16
    Z = ExactInt()
    se = witt_op(WittVector(Z, 2, [3, 5, 7]), WittVector(Z, 2, [1, 2, 3]), "add")
    assert s.components == tuple(c % 16 for c in se.components)


def test_teichmuller_multiplicative():
    Z = ExactInt()
    for p in (2, 3):
        a, b = 3, -2
        got = witt_op(teichmuller(Z, p, 3, a), teichmuller(Z, p, 3, b), "mul")
        assert got == teichmuller(Z, p, 3, a * b)


def test_additive_unit():
    Z = ExactInt()
    w = WittVector(Z, 3, [4, -1, 2])
    assert witt_op(w, zero_vector(Z, 3, 3), "add") == w


def test_frobenius_of_teichmuller():
    Z = ExactInt()
    for p in (2, 3, 5):
        w = teichmuller(Z, p, 3, 3)
        assert frobenius(w) == teichmuller(Z, p, 2, 3 ** p)


def test_length_zero_vectors_are_empty():
    # F: W_1 -> W_0 and FV = p at length 1 compare against length-0 vectors
    Z = ExactInt()
    for p in (2, 3, 5):
        assert teichmuller(Z, p, 0, 3).components == ()
        assert from_int_vector(Z, p, 0, 7).components == ()
        assert frobenius(teichmuller(Z, p, 1, 3)) == \
            teichmuller(Z, p, 0, 3 ** p)
        assert frobenius(verschiebung(teichmuller(Z, p, 1, 1))) == \
            from_int_vector(Z, p, 0, p)
        assert teichmuller(Z, p, 1, 3).components == (3,)


def test_fv_is_p():
    Z = ExactInt()
    for p in (2, 3):
        v1 = verschiebung(teichmuller(Z, p, 4, 1))
        fv = frobenius(v1)
        assert fv == from_int_vector(Z, p, 3, p)


def test_frobenius_ring_hom():
    Z = ExactInt()
    rng = random.Random(3)
    for p in (2, 3):
        for _ in range(10):
            a = WittVector(Z, p, [rng.randrange(-5, 6) for _ in range(3)])
            b = WittVector(Z, p, [rng.randrange(-5, 6) for _ in range(3)])
            assert frobenius(witt_op(a, b, "add")) == witt_op(frobenius(a), frobenius(b), "add")
            assert frobenius(witt_op(a, b, "mul")) == witt_op(frobenius(a), frobenius(b), "mul")


def test_frobenius_is_p_power_mod_p():
    R = ModP(3, 1)
    rng = random.Random(4)
    for _ in range(20):
        w = WittVector(R, 3, [rng.randrange(3) for _ in range(4)])
        fw = frobenius(w)
        assert fw.components == tuple(pow(c, 3, 3) for c in w.components[:3])


def test_ghost_is_ring_hom():
    Z = ExactInt()
    rng = random.Random(5)
    for p in (2, 5):
        for _ in range(10):
            a = WittVector(Z, p, [rng.randrange(-4, 5) for _ in range(3)])
            b = WittVector(Z, p, [rng.randrange(-4, 5) for _ in range(3)])
            ga, gb = ghost(a), ghost(b)
            assert ghost(witt_op(a, b, "add")) == [x + y for x, y in zip(ga, gb)]
            assert ghost(witt_op(a, b, "mul")) == [x * y for x, y in zip(ga, gb)]


# --- Joyal lift -------------------------------------------------------------


def test_joyal_lift_of_teichmuller_type():
    # delta(q) = 0 in Z[q], so the lift of q is its Teichmuller representative
    P = QPoly()
    p = 3
    q = q_element(P)

    def phi(f):
        # q -> q^p, i.e. h -> (1+h)^p - 1
        target = P.sub(P.pow(P.add(P.one, P.x), p), P.one)
        acc = P.zero
        for i, c in enumerate(f):
            acc = P.add(acc, P.mul(P.make([c]), P.pow(target, i)))
        return acc

    dr = DeltaRing(P, p, phi)
    for x in (q, h_element(P), P.from_int(5)):
        # a Frobenius lift: phi(x) - x^3 is divisible by 3
        assert P.div_int_exact(P.sub(phi(x), P.pow(x, p)), p) is not None
    assert phi(q) == P.pow(q, p)  # delta(q) = 0
    assert joyal_lift(dr, q, 3) == teichmuller(P, p, 3, q)


def test_joyal_lift_ghosts_and_bj():
    Z = ExactInt()
    p = 2
    dr = DeltaRing(Z, p, lambda x: x)
    w = joyal_lift(dr, 2, 2)
    assert ghost(w) == [Fraction(2), Fraction(2)]
    assert w.components == (2, -1)
    assert witt_to_bj(w) == [2, -1]
    assert bj_to_witt(Z, p, [2, -1]) == w


def test_joyal_lift_is_ring_hom():
    Z = ExactInt()
    rng = random.Random(6)
    for p in (2, 3):
        dr = DeltaRing(Z, p, lambda x: x)
        for _ in range(10):
            a, b = rng.randrange(-9, 10), rng.randrange(-9, 10)
            assert joyal_lift(dr, a + b, 3) == witt_op(joyal_lift(dr, a, 3), joyal_lift(dr, b, 3), "add")
            assert joyal_lift(dr, a * b, 3) == witt_op(joyal_lift(dr, a, 3), joyal_lift(dr, b, 3), "mul")


def test_joyal_lift_solves_as_over_the_rational_cover():
    # the ghosts are solved in the delta-ring itself; solving them over
    # its rational twin, the ring over Q, and certifying back gives the
    # same vector
    P = QPoly()
    p = 2
    target = P.sub(P.pow(P.add(P.one, P.x), p), P.one)
    dr = DeltaRing(P, p, lambda f: P.subst(f, target))
    rat, to_rat = rational_twin(P)
    rng = random.Random(8)
    for _ in range(5):
        b = P.make_ints([rng.randrange(-9, 10) for _ in range(3)])
        ghosts = [b, dr.phi(b), dr.phi(dr.phi(b))]
        want = from_ghost(rat, p, [to_rat(g) for g in ghosts])
        assert joyal_lift(dr, b, 3) == want._map(P, P.from_rational)


# --- char p -----------------------------------------------------------------


def test_wf_kernel_v_of_teichmuller():
    # V([b]) lies in the kernel of F exactly when b^p = 0
    for p in (2, 3):
        R = fp_poly_ring(p, 3)
        b = R.pow(R.x, -(-3 // p))  # smallest power with b^p = 0
        x = verschiebung(teichmuller(R, p, 3, b))
        assert frobenius(x).is_zero()
        assert scalar_mul(p, x).is_zero()
        assert witt_pow(x, p).is_zero()


def test_wf_kernel_report():
    for p in (2, 3):
        R = fp_poly_ring(p, 3)
        rep = wf_kernel_report(R, p, 3, 50, random.Random(7))
        assert not rep["failures"]
        assert rep["checks"]["fx0_px"] == 50


# --- big Witt ---------------------------------------------------------------


def test_big_ghost_of_teichmuller():
    Z = ExactInt()
    w = teichmuller_big(Z, 8, 3)  # 1 - 3z
    assert ghost(w) == [Fraction(3 ** d) for d in range(1, 9)]


def test_big_unit_is_one_minus_z():
    Z = ExactInt()
    w = teichmuller_big(Z, 6, 1)
    assert ghost(w) == [Fraction(1)] * 6


def test_big_roundtrip():
    Z = ExactInt()
    rng = random.Random(8)
    for _ in range(10):
        w = BigWitt(Z, 10, {n: rng.randrange(-4, 5) for n in range(1, 11)})
        assert from_ghost_big(Z, 10, ghost(w)) == w


def test_big_add_is_series_mul():
    Z = ExactInt()
    a = teichmuller_big(Z, 8, 2)
    b = teichmuller_big(Z, 8, 3)
    s = a + b
    # (1-2z)(1-3z) = 1 - 5z + 6z^2
    assert s.coefficient(1) == -5 and s.coefficient(2) == 6
    ga, gb = ghost(a), ghost(b)
    assert ghost(s) == [x + y for x, y in zip(ga, gb)]


def test_big_mul_teichmuller():
    Z = ExactInt()
    a = teichmuller_big(Z, 8, 2)
    b = teichmuller_big(Z, 8, 3)
    assert a * b == teichmuller_big(Z, 8, 6)
    assert teich_mul(2, b) == teichmuller_big(Z, 8, 6)


def test_frobenius_big_teichmuller():
    P = QPoly()
    h = h_element(P)
    w = teichmuller_big(P, 12, h)
    for m in (2, 3, 4):
        fm = frobenius_big(w, m)
        assert fm == teichmuller_big(P, 12 // m, P.pow(h, m))


def test_frobenius_big_names_the_order_it_was_given():
    # psi_map("II", 2, .) halves the order: F_2 of its output at N_big = 3
    # is refused for that order, 1, not for the N_big = 3 the caller chose
    Z = ExactInt()
    w = frobenius_big(teichmuller_big(Z, 3, 2), 2)
    with pytest.raises(BoundExceeded, match=r"^F_2 needs order >= 2, got a "
                       r"vector of order 1$"):
        frobenius_big(w, 2)
    assert frobenius_big(frobenius_big(teichmuller_big(Z, 4, 2), 2), 2) == \
        teichmuller_big(Z, 1, 16)


def test_frobenius_big_composition():
    Z = ExactInt()
    rng = random.Random(9)
    w = BigWitt(Z, 12, {n: rng.randrange(-3, 4) for n in range(1, 13)})
    for m, n in ((2, 2), (2, 3), (3, 2)):
        assert frobenius_big(frobenius_big(w, m), n) == frobenius_big(w, m * n).truncate(12 // m // n)


def test_one_minus_z_fixed_by_all_frobenii():
    Z = ExactInt()
    w = teichmuller_big(Z, 12, 1)
    for m in (1, 2, 3, 4):
        assert frobenius_big(w, m) == w.truncate(12 // m)


def test_bj_roundtrip_over_z():
    Z = ExactInt()
    rng = random.Random(17)
    for p in (2, 3, 5):
        for L in range(1, 8):
            for _ in range(3):
                w = WittVector(Z, p, tuple(rng.randrange(-20, 21)
                                           for _ in range(L)))
                assert bj_to_witt(Z, p, witt_to_bj(w)) == w, (p, w)

"""The one ghost dispatch of p-typical and big Witt vectors on each of its
two paths: exact division in the ring (Z, Z[h], B0) and the bounded lift
reduced back (Z/m and Z/m[h]/(h^2) for m up to 81), which every ring
constructor reaches; B0 against its former route over Q[h] coordinates;
the route of qprism.sample_gq, solving from ghosts over Q[h] and
certifying each component into Z/p^n[h]; and the ghost maps, which refuse
torsion rings."""
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from prismlab import witt
from prismlab.qhopf import QH, B0Elem, B0Ring
from prismlab.qprism import bhat_ring
from prismlab.ringcore import (
    CyclotomicRing, DomainError, ExactInt, IntModRing, ModP, NotIntegral,
    PolyQuotRing, QPoly, QSeriesRing, RatRing, SeriesCoeffRing,
    TruncSeries, padic_log, widened,
)
from prismlab.witt import (
    BigWitt, WittVector, bj_to_witt, frobenius_big,
    from_ghost, from_ghost_big, ghost, ghost_combine,
    teichmuller_big,
)

P = 3
Z = ExactInt()
ZH = PolyQuotRing(Z, (0, 0, 1), "h")
MOD = ModP(P, 4)
MODH = PolyQuotRing(MOD, (0, 0, 1), "h")
TORSION_FREE = {"Z": Z, "Z[h]": ZH, "B0": B0Ring()}


def big(ring, N, coeffs):
    return BigWitt(ring, N, dict(enumerate(coeffs, 1)))


def random_pair(ring, N, rng):
    return [big(ring, N, [ring.rand(rng) for _ in range(N)]) for _ in (0, 1)]


def same(ring, xs, ys):
    return len(xs) == len(ys) and all(map(ring.eq, xs, ys))


@settings(max_examples=40, deadline=None)
@given(key=st.sampled_from(sorted(TORSION_FREE)), N=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32), data=st.data())
def test_bigwitt_ghost_map_is_a_ring_map(key, N, seed, data):
    ring = TORSION_FREE[key]
    a, b = random_pair(ring, N, random.Random(seed))
    m = data.draw(st.integers(1, N))
    ga, gb = ghost(a), ghost(b)
    assert same(ring, ghost(a + b), list(map(ring.add, ga, gb)))
    assert same(ring, ghost(a * b), list(map(ring.mul, ga, gb)))
    assert same(ring, ghost(frobenius_big(a, m)), ga[m - 1::m])
    x, y = a.coefficient(1), b.coefficient(1)
    assert (teichmuller_big(ring, N, x) * teichmuller_big(ring, N, y)
            == teichmuller_big(ring, N, ring.mul(x, y)))


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 81), h=st.booleans(), N=st.integers(1, 12),
       seed=st.integers(0, 2 ** 32), data=st.data())
@example(m=8, h=False, N=2, seed=0, data=None)
@example(m=9, h=True, N=3, seed=1, data=None)
def test_bigwitt_over_torsion_ring_is_integral_result_reduced(m, h, N, seed,
                                                              data):
    # over Z/m or Z/m[h]/(h^2), the bounded lift Z/(m lcm(1..N)) must
    # reproduce the solve over Z or Z[h]/(h^2) mod m, for any lift
    ring, lift = IntModRing(m), Z
    if h:
        ring, lift = PolyQuotRing(ring, (0, 0, 1), "h"), ZH
    down = widened(ring, 1)[2]

    def red(w):
        return BigWitt(ring, w.N, {n: down(c) for n, c in w.coeffs.items()})

    a, b = random_pair(lift, N, random.Random(seed))
    k = data.draw(st.integers(1, N)) if data else N
    # raw coefficients: the results must be reduced, not just congruent
    assert (red(a) + red(b)).coeffs == red(a + b).coeffs
    assert (red(a) * red(b)).coeffs == red(a * b).coeffs
    assert frobenius_big(red(a), k).coeffs == red(frobenius_big(a, k)).coeffs
    x, y = down(a.coefficient(1)), down(b.coefficient(1))
    assert (teichmuller_big(ring, N, x) * teichmuller_big(ring, N, y)
            == teichmuller_big(ring, N, ring.mul(x, y)))


class B0OverQ(B0Ring):
    """B0 with coordinates anywhere in Q[h]: division skips the Z[h] check."""

    name = "B0@Q"

    def div_int_exact(self, a, n):
        return B0Elem(tuple(QH.div_int_exact(c, n) for c in a.coords))


def b0_over_q(vectors, combine):
    """The reference route of a B0 ghost solve: over B0OverQ, each result
    coefficient certified back into B0."""
    rat = B0OverQ()
    out = vectors[0]._solve(rat, combine(rat, [v._ghosts() for v in vectors]))
    return out._map(vectors[0].ring,
                    lambda a: a if a.is_integral() else None)


def mul(r, g):
    return list(map(r.mul, *g))


@settings(max_examples=40, deadline=None)
@given(N=st.integers(1, 6), seed=st.integers(0, 2 ** 32), data=st.data())
def test_b0_solves_in_b0_as_over_q_h(N, seed, data):
    R = B0Ring()
    assert R.is_torsion_free and witt._has_exact_division(R)
    a, b = random_pair(R, N, random.Random(seed))
    m = data.draw(st.integers(1, N))
    prod = ghost_combine((a, b), mul)
    assert prod.ring == R and prod.coeffs == b0_over_q((a, b), mul).coeffs
    assert prod == a * b

    def frob(r, g):
        return g[0][m - 1::m]
    assert (frobenius_big(a, m).coeffs
            == ghost_combine((a,), frob).coeffs
            == b0_over_q((a,), frob).coeffs)


def test_b0_non_integral_input_raises():
    R = B0Ring()
    half = B0Elem((QH.make([Fraction(1, 2)]),))
    a = big(R, 3, [R.one, half, R.zero])
    one = teichmuller_big(R, 3, R.one)      # the unit 1 - z
    for route in (ghost_combine, b0_over_q):
        with pytest.raises(NotIntegral):
            route((a, one), mul)
        with pytest.raises(NotIntegral):
            route((a,), lambda r, g: g[0])
    # a p-typical solve certifies its first component too
    x = WittVector(R, P, [half, R.zero])
    for route in (ghost_combine, b0_over_q):
        with pytest.raises(NotIntegral):
            route((x,), lambda r, g: g[0])


# Q[h]/(h^2), where qprism.sample_gq solves for a point over Z/p^n[h]
QH2 = PolyQuotRing(RatRing(), MODH.modulus, MODH.var)


def solve_over_q_h(ghosts):
    """sample_gq's route: solve over Q[h], certify each component down."""
    return from_ghost(QH2, P, ghosts)._map(MODH, MODH.from_rational)


@settings(max_examples=40, deadline=None)
@given(L=st.integers(1, 4), seed=st.integers(0, 2 ** 32))
def test_solve_over_q_h_mapped_down_is_the_reduction(L, seed):
    rng = random.Random(seed)
    w = WittVector(ZH, P, [ZH.rand(rng) for _ in range(L)])
    down = widened(MODH, 1)[2]
    ghosts = [QH2.make(map(Fraction, g)) for g in ghost(w)]
    assert (solve_over_q_h(ghosts)
            == WittVector(MODH, P, map(down, w.components)))


def test_solve_over_q_h_mapped_down_certifies_p_integrality():
    half = QH2.make([Fraction(1, 2)])
    # 1/2 is 3-integral: 41 * 2 = 1 mod 81
    assert solve_over_q_h([half]).components == (MODH.make([41]),)
    with pytest.raises(NotIntegral):
        solve_over_q_h([QH2.zero, QH2.one])    # x_1 = 1/3


def test_ghost_is_strict_over_torsion_rings():
    for w in (WittVector(MOD, P, [1, 2]), WittVector(MODH, P, [MODH.one]),
              big(MOD, 3, [1, 2, 3])):
        with pytest.raises(DomainError):
            ghost(w)


def test_solving_from_ghosts_refuses_torsion_rings():
    # over Z/p^n the ghost map is not injective: ghosts do not determine a
    # vector, even when they are the ghosts of one
    for solve in (lambda: from_ghost(MOD, P, [1, 1]),
                  lambda: from_ghost_big(MOD, 2, [1, 1]),
                  lambda: bj_to_witt(MOD, P, [1, 0])):
        with pytest.raises(DomainError, match="torsion"):
            solve()


@pytest.mark.parametrize("ring", [Z, ZH, RatRing()], ids=repr)
def test_padic_log_constant_term_needs_a_p_adic_ring(ring):
    u = TruncSeries(ring, ("z",), {(0,): ring.from_int(2), (1,): ring.one}, 3)
    with pytest.raises(DomainError):
        padic_log(u)


@pytest.mark.parametrize("ring", [
    ExactInt(), RatRing(), ModP(3, 2), IntModRing(25), QPoly(),
    QSeriesRing(3), QSeriesRing(3, p=2, n_p=3), CyclotomicRing(3),
    CyclotomicRing(3, n_p=2), SeriesCoeffRing(ModP(2, 1), ("x", "y"), 4),
    SeriesCoeffRing(ExactInt(), ("x",), 4), B0Ring(), bhat_ring(3),
], ids=repr)
def test_every_ring_constructor_reaches_the_ghost_dispatch(ring):
    # exact division in the ring, or a bounded lift to solve in
    assert ((ring.is_torsion_free and witt._has_exact_division(ring))
            or widened(ring, 1) is not None)
    one = teichmuller_big(ring, 3, ring.one)
    assert one * one == one

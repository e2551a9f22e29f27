"""The bounded lift of the ghost dispatch: p-typical Witt vectors of length
L over Z/m, or over a PolyQuotRing or SeriesCoeffRing over Z/m, run their
ghost solve in the same ring over Z/(m p^(L-1)), whether or not p | m.
Every operation is checked against the universal polynomial tables, which
are built from a ghost solve over Z once and evaluated in the coefficient
ring, with no lift at all.  So is the F_p series ring of generic_vector; a
ring with neither exact division nor a bounded lift is refused."""
import random

import pytest

from prismlab import witt
from prismlab.derham import generic_vector
from prismlab.ringcore import (
    DomainError, IntModRing, ModP, PolyQuotRing, Ring, _same,
)
from prismlab.witt import (
    WittVector, frobenius, ghost_combine, scalar_mul,
    witt_neg, witt_op, witt_op_universal, witt_sub,
)


def fp_trunc(p):
    """F_p[a]/(a^3)"""
    return PolyQuotRing(ModP(p, 1), (0, 0, 0, 1), "a")


def zp2_trunc(p):
    """Z/p^2[a]/(a^2)"""
    return PolyQuotRing(ModP(p, 2), (0, 0, 1), "a")


# (ring, p, L): Z/p^n up to L = 4, a modulus with a unit factor, truncated
# polynomial rings over F_p and Z/p^2
BOUNDED = ([(ModP(p, n), p, L) for p, n in ((2, 5), (3, 4)) for L in (1, 2, 3, 4)]
           + [(ModP(5, 3), 5, L) for L in (2, 3)]
           + [(IntModRing(24, 2), 2, 3), (IntModRing(24, 2), 2, 4),
              (fp_trunc(2), 2, 3), (fp_trunc(3), 3, 3),
              (zp2_trunc(2), 2, 3), (zp2_trunc(3), 3, 2)])


def neg_table(w):
    return witt._universal("neg", w)


def frobenius_table(w):
    return witt._universal("frobenius", w)


def scalar_mul_table(n, w):
    """n . w as n-fold addition on the tables, by double-and-add."""
    if n < 0:
        n, w = -n, neg_table(w)
    acc = WittVector(w.ring, w.p, [w.ring.zero] * w.L)
    while n:
        if n & 1:
            acc = witt_op_universal(acc, w, "add")
        w = witt_op_universal(w, w, "add")
        n >>= 1
    return acc


def vectors(ring, p, L, rng, count):
    """count random vectors, then the zero vector and the vector of -1s."""
    out = [WittVector(ring, p, [ring.rand(rng) for _ in range(L)])
           for _ in range(count)]
    minus_one = ring.neg(ring.one)
    return out + [WittVector(ring, p, [ring.zero] * L),
                  WittVector(ring, p, [minus_one] * L)]


def check_against_tables(ring, p, L, rng, count):
    xs = vectors(ring, p, L, rng, count)
    ys = xs[1:] + xs[:1]
    for a, b in zip(xs, ys):
        assert witt_op(a, b, "add") == witt_op_universal(a, b, "add")
        assert witt_op(a, b, "mul") == witt_op_universal(a, b, "mul")
        assert witt_neg(a) == neg_table(a)
        assert witt_sub(a, b) == witt_op_universal(a, neg_table(b), "add")
        assert a - b == witt_sub(a, b)
        n = rng.choice([-1, 2, p, p + 1, -7, 100])
        assert scalar_mul(n, a) == scalar_mul_table(n, a)
        if L > 1:
            assert frobenius(a) == frobenius_table(a)


@pytest.mark.parametrize("ring,p,L", BOUNDED, ids=lambda v: str(v))
def test_bounded_lift_matches_universal_tables(ring, p, L):
    assert witt._bounded_lift(ring, p ** (L - 1)) is not None
    check_against_tables(ring, p, L, random.Random(L * 1000 + p), 20)


def test_bounded_modulus_is_m_times_p_to_the_L_minus_1():
    assert witt._bounded_lift(ModP(3, 4), 3 ** 3)[0].m == 3 ** 4 * 3 ** 3
    assert witt._bounded_lift(IntModRing(24, 2), 4)[0].m == 24 * 4
    wide = witt._bounded_lift(zp2_trunc(3), 3)[0]
    assert type(wide) is PolyQuotRing and wide.scalar.m == 9 * 3
    assert wide.modulus == (0, 0, 1)


def test_bounded_lift_is_built_once_per_ring():
    first = witt._bounded_lift(fp_trunc(3), 9)
    assert witt._bounded_lift(fp_trunc(3), 9) is first


@pytest.mark.parametrize("ring,p,L", [(ModP(3, 2), 2, 3), (IntModRing(25), 2, 4),
                                      (PolyQuotRing(ModP(3, 2), (0, 0, 1), "a"), 2, 3)],
                         ids=lambda v: str(v))
def test_p_not_dividing_m_runs_on_the_bounded_lift(ring, p, L):
    # a = b mod m p^j => a^p = b^p mod m p^(j+1) holds for j >= 1 whether
    # or not p | m, and only x_0, ..., x_(L-2), known mod m p^j with
    # j >= 1, are raised to powers in a solve of length L
    assert witt._bounded_lift(ring, p ** (L - 1)) is not None
    check_against_tables(ring, p, L, random.Random(p + L), 20)


def test_long_vectors_stay_exact():
    # a product of products: the solve divides by p^(L-1) at the last
    # component, so any lost precision there shows
    R, p, L = ModP(2, 3), 2, 5
    rng = random.Random(11)
    a, b, c = vectors(R, p, L, rng, 3)[:3]
    lhs = witt_op(witt_op(a, b, "mul"), c, "mul")
    rhs = witt_op_universal(witt_op_universal(a, b, "mul"), c, "mul")
    assert lhs == rhs


@pytest.mark.parametrize("p,L", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_generic_vector_runs_on_the_lift_and_matches_the_tables(p, L):
    # generic_vector's F_p series ring has torsion: it solves in the same
    # series ring over Z/p^L, its series re-wrapped there, and the result
    # is reduced back.  The tables evaluate in the F_p series ring itself,
    # with no lift at all.
    ring, x = generic_vector(p, L)
    assert not ring.is_torsion_free
    wide, up, _ = witt._bounded_lift(ring, p ** (L - 1))
    assert wide.base.m == p ** L and up is not _same
    assert up(x.components[0]).ring == wide.base
    y = WittVector(ring, p, [ring.var(v) for v in reversed(ring.variables)])
    for a, b in ((x, y), (y, x)):
        assert witt_op(a, b, "add") == witt_op_universal(a, b, "add")
        assert witt_op(a, b, "mul") == witt_op_universal(a, b, "mul")
        assert witt_neg(a) == neg_table(a)
        assert witt_sub(a, b) == witt_op_universal(a, neg_table(b), "add")
        for n in (-1, 2, p, p + 1, -7):
            assert scalar_mul(n, a) == scalar_mul_table(n, a)
        if L > 1:
            assert frobenius(a) == frobenius_table(a)


class Opaque(Ring):
    """A ring with neither exact division nor a bounded lift."""

    name = "Opaque"

    def from_int(self, n):
        return n


def test_ring_without_exact_division_or_bounded_lift_raises():
    w = WittVector(Opaque(), 2, [0, 0])
    with pytest.raises(DomainError, match="Opaque has neither exact "
                       "division nor a bounded lift"):
        ghost_combine((w,), lambda r, g: g[0])

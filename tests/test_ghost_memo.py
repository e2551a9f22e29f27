"""Each Witt vector computes its ghost components once per ring: it keeps
(ring, ghosts) for the last ring in which ghost_combine needed them, the
bounded lift on a torsion ring and the ring itself on a torsion-free one,
and recomputes them in any other ring.  A result of ghost_combine keeps
the ghosts it was solved from, keyed by the ring it was solved in."""
import math
import random

from prismlab import witt
from prismlab.derham import generic_vector
from prismlab.ringcore import ExactInt, IntModRing, ModP, PolyQuotRing
from prismlab.witt import (
    BigWitt, WittVector, _bounded_lift, frobenius, ghost, ghost_combine,
    scalar_mul,
)


def add(r, g):
    return list(map(r.add, *g))


def mul(r, g):
    return list(map(r.mul, *g))


def triple(r, g):
    return [r.mul_int(x, 3) for x in g[0]]


def fresh(v):
    """An equal vector that has computed no ghosts."""
    if isinstance(v, WittVector):
        return WittVector(v.ring, v.p, v.components)
    return BigWitt(v.ring, v.N, v.coeffs)


def random_vector(ring, p, L, rng):
    return WittVector(ring, p, [ring.rand(rng) for _ in range(L)])


def big_factor(N):
    """The bounded lift's factor at big Witt order N: lcm(1..N)."""
    return math.lcm(*range(1, N + 1))


def test_memo_follows_the_ring_beside_a_longer_vector():
    # alone at length 2 the ghosts live over Z/(m p); beside a length-4
    # vector, over Z/(m p^3), where they are recomputed.  Over Z/m and
    # Z/m[a] a stale ring's ghosts would still solve correctly mod m (the
    # _bounded_lift argument); the series ring of generic_vector tags its
    # elements with their ring, so there a stale entry cannot pass
    rng = random.Random(3)
    rings = [(ModP(2, 3), 2), (ModP(3, 3), 3),
             (PolyQuotRing(ModP(3, 2), (0, 0, 1), "a"), 3)]
    cases = [(R, p, random_vector(R, p, 4, rng)) for R, p in rings]
    cases += [(R, p, x) for p in (2, 3) for R, x in [generic_vector(p, 4)]]
    for ring, p, long in cases:
        for first in (lambda v: scalar_mul(p, v), frobenius):
            v = WittVector(ring, p, long.components[:2])
            first(v)
            alone = v._ghost_memo
            assert alone[0] == _bounded_lift(ring, p)[0]
            got = [ghost_combine((v, long), combine) for combine in (add, mul)]
            beside = v._ghost_memo
            assert beside[0] == _bounded_lift(ring, p ** 3)[0]
            assert beside is not alone
            assert got == [ghost_combine((fresh(v), long), combine)
                           for combine in (add, mul)]
            # the second combine beside long reused the first one's ghosts
            ghost_combine((v, long), add)
            assert v._ghost_memo is beside


def test_bigwitt_over_z24_at_two_orders():
    R = IntModRing(24)
    rng = random.Random(24)
    for n, n_long in ((2, 4), (3, 5), (4, 6)):
        a = BigWitt(R, n, {i: R.rand(rng) for i in range(1, n + 1)})
        b = BigWitt(R, n_long, {i: R.rand(rng) for i in range(1, n_long + 1)})
        for order, vectors, combine in ((n, (a,), triple),
                                        (n_long, (a, b), mul),
                                        (n_long, (a, b), add),
                                        (n, (a, a), mul)):
            before = a._ghost_memo
            got = ghost_combine(vectors, combine)
            wide = _bounded_lift(R, big_factor(order))[0]
            assert a._ghost_memo[0] == wide
            # recomputed when the order changed, else reused
            assert (a._ghost_memo is before) == (
                before is not None and before[0] == wide)
            assert got == ghost_combine(tuple(map(fresh, vectors)), combine)
        assert b._ghost_memo[0] == _bounded_lift(R, big_factor(n_long))[0]


def test_vector_over_z_keeps_its_ghosts_in_z():
    Z = ExactInt()
    rng = random.Random(0)
    for p in (2, 3):
        v = random_vector(Z, p, 4, rng)
        w = random_vector(Z, p, 3, rng)
        once = ghost_combine((v, w), add)
        memos = v._ghost_memo, w._ghost_memo
        assert memos[0][0] is Z and memos[1][0] is Z
        assert list(memos[0][1]) == ghost(fresh(v))
        for combine in (add, mul):
            assert ghost_combine((v, w), combine) == \
                ghost_combine((fresh(v), fresh(w)), combine)
        assert ghost_combine((v, w), add) == once
        assert scalar_mul(p, v) == scalar_mul(p, fresh(v))
        # computed once each, then reused
        assert (v._ghost_memo, w._ghost_memo) == memos
        assert v._ghost_memo is memos[0] and w._ghost_memo is memos[1]


def test_memo_entries_are_tuples():
    rng = random.Random(1)
    vectors = [random_vector(ModP(2, 4), 2, 3, rng),
               random_vector(ExactInt(), 3, 3, rng),
               BigWitt(IntModRing(24), 4, {1: 5, 3: 7}),
               BigWitt(ExactInt(), 4, {2: -1})]
    for v in vectors:
        ghost_combine((v,), triple)
        assert isinstance(v._ghost_memo[1], tuple)
    # ghost() keeps its list
    assert isinstance(ghost(vectors[1]), list)


def solved_back(v, factor):
    """The vector solved from v's kept ghosts, reduced onto v's ring."""
    wide, gs = v._ghost_memo
    out = v._solve(wide, gs)
    return out if wide is v.ring else out._map(
        v.ring, _bounded_lift(v.ring, factor)[2])


def test_a_result_keeps_the_ghosts_it_was_solved_from():
    rng = random.Random(5)
    for p in (2, 3):
        for ring in (ExactInt(), ModP(p, 3),
                     PolyQuotRing(ModP(p, 1), (0, 0, 0, 1), "a")):
            a, b, c = (random_vector(ring, p, 3, rng) for _ in range(3))
            wide = ring if ring.is_torsion_free else \
                _bounded_lift(ring, p ** 2)[0]
            for first in (add, mul, triple):
                r = ghost_combine((a, b), first)
                assert r._ghost_memo[0] == wide
                assert solved_back(r, p ** 2) == r
                if ring.is_torsion_free:
                    assert list(r._ghost_memo[1]) == ghost(fresh(r))
                for then in (add, mul, triple):
                    assert ghost_combine((r, c), then) == \
                        ghost_combine((fresh(r), c), then)
                # a chain of results, each solved from the last one's ghosts
                chained = scalar_mul(p + 1, ghost_combine((r, r), mul))
                assert chained == scalar_mul(
                    p + 1, ghost_combine((fresh(r), fresh(r)), mul))


def test_a_big_witt_result_keeps_its_ghosts_over_z24():
    R = IntModRing(24)
    rng = random.Random(7)
    for n in (2, 3, 4):
        a, b, c = (BigWitt(R, n, {i: R.rand(rng) for i in range(1, n + 1)})
                   for _ in range(3))
        for first in (add, mul, triple):
            r = ghost_combine((a, b), first)
            assert r._ghost_memo[0] == _bounded_lift(R, big_factor(n))[0]
            assert solved_back(r, big_factor(n)) == r
            for then in (add, mul):
                assert ghost_combine((r, c), then) == \
                    ghost_combine((fresh(r), c), then)
            assert r * r * c == fresh(r) * fresh(r) * fresh(c)


def test_a_result_recomputes_its_ghosts_beside_a_longer_partner():
    # a length-2 result keeps ghosts over Z/(m p); beside a length-4
    # vector they are computed again over Z/(m p^3), and generic_vector's
    # series ring, whose elements carry their ring, would not pass a stale
    # entry
    rng = random.Random(11)
    rings = [(ModP(2, 3), 2), (ModP(3, 3), 3),
             (PolyQuotRing(ModP(3, 2), (0, 0, 1), "a"), 3)]
    cases = [(R, p, random_vector(R, p, 4, rng)) for R, p in rings]
    cases += [(R, p, x) for p in (2, 3) for R, x in [generic_vector(p, 4)]]
    for ring, p, long in cases:
        short = WittVector(ring, p, long.components[:2])
        for combine in (add, mul):
            r = scalar_mul(p + 1, short)
            assert r._ghost_memo[0] == _bounded_lift(ring, p)[0]
            got = ghost_combine((r, long), combine)
            assert r._ghost_memo[0] == _bounded_lift(ring, p ** 3)[0]
            assert got == ghost_combine((fresh(r), long), combine)


def test_bigwitt_mul_serves_equal_orders_from_the_memo(monkeypatch):
    R = IntModRing(24)
    a = BigWitt(R, 4, {1: 5, 2: 7, 4: 11})
    b = BigWitt(R, 4, {1: 3, 3: 2})
    first = a * b
    assert a._ghost_memo is not None and b._ghost_memo is not None
    ghosted = []
    real = witt.ghost_big_in_ring
    monkeypatch.setattr(witt, "ghost_big_in_ring",
                        lambda w: ghosted.append(w) or real(w))
    again = a * b
    chained = first * a
    assert ghosted == []
    assert again == first
    assert chained == fresh(first) * fresh(a)
    # a longer partner is truncated, a copy that computes its ghosts
    c = BigWitt(R, 6, {1: 1, 5: 9})
    ghosted.clear()
    assert a * c == fresh(a) * c.truncate(4)
    assert len(ghosted) == 3

import random

import pytest
from fractions import Fraction

from prismlab.cartier_witt import (
    MultHomSeries, embed_G_I, embed_G_II, embed_R,
    eigencheck_I, eigencheck_II, eigencheck_R, eval_bj_poly,
    fixed_point_bj_values, hom_pullback_check, m_series_identity, psi_map,
    specialize_pairing_at_t, universal_pairing, wf_ring_reduce,
)
from prismlab.qhopf import QH, B0Elem, B0Ring
from prismlab.ringcore import (
    BoundExceeded, ExactInt, QPoly, TruncSeries, h_element, q_element,
)
from prismlab.witt import BigWitt, teichmuller_big


def int_unit_series(m, N):
    """f(y) = y^m as an R-type series in w = y - 1."""
    Z = ExactInt()
    from prismlab.intpoly import gen_binom
    coeffs = {(n,): gen_binom(m, n) for n in range(N + 1)}
    return MultHomSeries(TruncSeries(Z, ("w",), coeffs, N), "R")


def test_r_type_verifies():
    f = int_unit_series(3, 8)
    assert f.verify()
    g = int_unit_series(-2, 8)
    assert g.verify()


def test_universal_pairing_coefficients():
    f = universal_pairing(6)
    assert f.series.coefficient((2,)) == B0Elem.basis(2)
    assert f.series.coefficient((0,)) == B0Elem.from_int(1)


def test_universal_pairing_functional_equation():
    assert universal_pairing(6).verify()


def test_pairing_specialization_t_h():
    # t -> q - 1 collapses the series to 1 + h z
    h = QH.make([Fraction(0), Fraction(1)])
    got = specialize_pairing_at_t(6, h)
    assert got.coefficient((0,)) == QH.one
    assert got.coefficient((1,)) == h
    for n in range(2, 7):
        assert QH.is_zero(got.coefficient((n,)))


def test_embed_R_integer_points():
    for m in (1, 3, -1):
        w = embed_R(int_unit_series(m, 12))
        # (1-z)^m, F_n-fixed for all n
        Z = ExactInt()
        assert w == _power_of_one_minus_z(Z, m, 12)
        for n in (1, 2, 3, 4):
            assert eigencheck_R(w, n)


def _power_of_one_minus_z(Z, m, N):
    if m >= 0:
        base = teichmuller_big(Z, N, 1)
        acc = BigWitt.one(Z, N)
        for _ in range(m):
            acc = acc + base
        return acc
    return -_power_of_one_minus_z(Z, -m, N)


def test_embed_R_unit():
    f = int_unit_series(0, 8)
    assert embed_R(f) == BigWitt.one(ExactInt(), 8)


def test_embed_G_I_teichmuller_point():
    # f = 1 + (q-1) z (the t = q-1 point) embeds to [q-1]
    P = QPoly()
    h = h_element(P)
    q = q_element(P)
    f = MultHomSeries(TruncSeries(P, ("z",), {(0,): P.one, (1,): h}, 12),
                      "G", h)
    assert f.verify()
    w = embed_G_I(f)
    assert w == teichmuller_big(P, 12, h)
    for m in (2, 3):
        assert eigencheck_I(w, q, m)


def test_embed_G_II_teichmuller_point():
    # f = 1 + (q-1) z embeds to (1 - qz)/(1 - z) = [q] - [1]
    P = QPoly()
    h = h_element(P)
    q = q_element(P)
    f = MultHomSeries(TruncSeries(P, ("z",), {(0,): P.one, (1,): h}, 12),
                      "G", h)
    w = embed_G_II(f)
    expected = teichmuller_big(P, 12, q) - teichmuller_big(P, 12, P.one)
    assert w == expected
    for m in (1, 2, 3):
        assert eigencheck_II(w, q, m)


def test_universal_pairing_eigenchecks():
    f = universal_pairing(12)
    R = B0Ring()
    q = B0Elem((QH.make([Fraction(1), Fraction(1)]),))
    wI = embed_G_I(f)
    wII = embed_G_II(f)
    for m in (2, 3):
        assert eigencheck_I(wI, q, m)
    assert eigencheck_II(wII, q, 2)
    _ = R


def test_numeric_specializations():
    # specialize q to integers: embed and check both eigen equations
    rng = random.Random(0)
    Z = ExactInt()
    from prismlab.intpoly import gen_binom
    for _ in range(10):
        qv = rng.randrange(2, 7)
        tv = rng.randrange(-4, 5)
        h = qv - 1
        # f = (1 + h z)^(t/h) needs t/h integral: take t = h * k
        k = tv
        coeffs = {(n,): gen_binom(k, n) * h ** n for n in range(13)}
        f = MultHomSeries(TruncSeries(Z, ("z",), coeffs, 12), "G", h)
        assert f.verify()
        wI = embed_G_I(f)
        wII = embed_G_II(f)
        for m in (2, 3):
            assert eigencheck_I(wI, qv, m)
            assert eigencheck_II(wII, qv, m)


def test_q2_degeneration_is_R():
    # at q = 2 the first eigen equation becomes F_m(w) = w
    Z = ExactInt()
    from prismlab.intpoly import gen_binom
    coeffs = {(n,): gen_binom(3, n) for n in range(13)}
    f = MultHomSeries(TruncSeries(Z, ("z",), coeffs, 12), "G", 1)
    w = embed_G_I(f)
    for m in (2, 3, 4):
        assert eigencheck_I(w, 2, m)
        assert eigencheck_R(w, m)


def test_psi_maps():
    P = QPoly()
    h = h_element(P)
    q = q_element(P)
    # variant I on [q-1]: result [ (q^n-1)/(q-1) ] . [q-1] = [q^n - 1]
    w = teichmuller_big(P, 12, h)
    w2, q2 = psi_map("I", 2, w, q)
    assert q2 == P.pow(q, 2)
    assert w2 == teichmuller_big(P, 12, P.sub(P.pow(q, 2), P.one))
    assert eigencheck_I(w2, q2, 2)
    # variant II on [q] - [1]
    v = teichmuller_big(P, 12, q) - teichmuller_big(P, 12, P.one)
    v2, q2 = psi_map("II", 2, v, q)
    expected = teichmuller_big(P, 6, P.pow(q, 2)) - teichmuller_big(P, 6, P.one)
    assert v2 == expected
    assert eigencheck_II(v2, q2, 2)
    # n = 1 is the identity
    w1, q1 = psi_map("I", 1, w, q)
    assert w1 == w and q1 == q


def test_psi_functoriality():
    rng = random.Random(1)
    Z = ExactInt()
    from prismlab.intpoly import gen_binom
    for variant in ("I", "II"):
        for _ in range(5):
            qv = rng.randrange(2, 5)
            k = rng.randrange(-3, 4)
            h = qv - 1
            coeffs = {(n,): gen_binom(k, n) * h ** n for n in range(13)}
            f = MultHomSeries(TruncSeries(Z, ("z",), coeffs, 12), "G", h)
            w = embed_G_I(f) if variant == "I" else embed_G_II(f)
            check = eigencheck_I if variant == "I" else eigencheck_II
            for n in (2, 3):
                wn, qn = psi_map(variant, n, w, qv)
                for m in (2, 3):
                    if wn.N // m >= 1:
                        assert check(wn, qn, m)


def test_wf_reduce_examples():
    for p in (2, 3, 5):
        got = wf_ring_reduce({(p,): 1}, p, 4)
        assert got == {(1,): 1, (0, 1): -p}
    assert wf_ring_reduce({(1,): 1}, 3, 4) == {(1,): 1}


def test_wf_reduce_x0_to_4_p2():
    # x0^4 -> x0 - 2x1 - 4 x0 x1 + 4 x1^2 -> ... fully reduced
    got = wf_ring_reduce({(4,): 1}, 2, 4)
    assert all(all(v < 2 for v in e) for e in got)
    # evaluation on F-fixed points is preserved
    for m in (1, 2, 5, -3):
        vals = fixed_point_bj_values(m, 2, 5)
        assert eval_bj_poly({(4,): 1}, vals) == eval_bj_poly(got, vals)


def test_wf_reduce_preserves_evaluation():
    rng = random.Random(2)
    for p in (2, 3):
        for _ in range(10):
            expr = {tuple(rng.randrange(0, 2 * p) for _ in range(2)):
                    rng.randrange(-5, 6) for _ in range(4)}
            red = wf_ring_reduce(expr, p, 6)
            for m in (-2, 1, 3):
                vals = fixed_point_bj_values(m, p, 7)
                assert eval_bj_poly(expr, vals) == eval_bj_poly(red, vals)


def test_wf_reduce_normal_forms_independent():
    # a random combination of distinct normal-form monomials is already
    # reduced, and reduces to zero only if it is zero
    rng = random.Random(3)
    for p in (2, 3):
        monos = [(0,), (1,), (0, 1), (1, 1), (1, 0, 1)]
        combo = {m: rng.randrange(-9, 10) for m in monos}
        red = wf_ring_reduce(combo, p, 4)
        assert red == {m: c for m, c in combo.items() if c}


def test_wf_reduce_bound():
    with pytest.raises(BoundExceeded):
        wf_ring_reduce({(8,): 1}, 2, 2)


def test_m_series_identity():
    for m in (1, 2, 3):
        rep = m_series_identity(m, 6)
        assert rep["power"] and rep["compose"] and rep["int_h1"]


def test_hom_pullback():
    for n in (1, 2, 3, 6):
        rep = hom_pullback_check(n)
        assert rep["scalar_identity"] and rep["hom"]


def test_embed_is_group_hom():
    # product of G-points maps to the Witt sum of the images
    Z = ExactInt()
    from prismlab.intpoly import gen_binom
    qv, h = 3, 2
    f1 = {(n,): gen_binom(2, n) * h ** n for n in range(13)}
    f2 = {(n,): gen_binom(-1, n) * h ** n for n in range(13)}
    s1 = TruncSeries(Z, ("z",), f1, 12)
    s2 = TruncSeries(Z, ("z",), f2, 12)
    m1 = MultHomSeries(s1, "G", h)
    m2 = MultHomSeries(s2, "G", h)
    prod = MultHomSeries(s1 * s2, "G", h)
    assert embed_G_I(prod) == embed_G_I(m1) + embed_G_I(m2)
    assert embed_G_II(prod) == embed_G_II(m1) + embed_G_II(m2)
    _ = qv


def test_lemma_h_diagram():
    # an R-point f induces a G-point F(hz); its image under embed_G_I is
    # [q-1] times the image of f under embed_R, at integer q
    Z = ExactInt()
    from prismlab.intpoly import gen_binom
    from prismlab.witt import teich_mul
    for qv in (2, 3, 5):
        h = qv - 1
        for m in (2, 3, -1):
            # R-point in w-coordinates
            r_coeffs = {(n,): gen_binom(m, n) for n in range(13)}
            g_coeffs = {(n,): gen_binom(m, n) * h ** n for n in range(13)}
            fr = MultHomSeries(TruncSeries(Z, ("w",), r_coeffs, 12), "R")
            fg = MultHomSeries(TruncSeries(Z, ("z",), g_coeffs, 12), "G", h)
            assert embed_G_I(fg) == teich_mul(h, embed_R(fr))

import hashlib
import random
import sys
import threading
import time

import pytest
from fractions import Fraction

from prismlab import fgl, qprism
from prismlab.derham import GdRPoint, sample_gdr
from prismlab.qprism import (
    GQPoint,
    canonical_point, hodge_tate_check, derham_specialization_of_x0,
    factorization_identity, frobenius_of_point, gq_at_q1_matches_derham,
    gq_op, gq_ring, gq_to_unit, phi_of_section_identity,
    q_exponential, q_log,
    q_log_of_sigma, q_log_precision_loss, q_power_substitute, sample_gq,
    sigma_point, zp_action, bh_in_box, bhat_ring, frac_vp, vp_at_least,
)
from prismlab.ringcore import (
    BoundExceeded, CyclotomicRing, DomainError, ExactRat, ModP, PolyQuotRing,
    TruncSeries, cyclotomic_modulus, h_element, q_element, q_number,
)
from prismlab.qhopf import _c_monomial, _from_monomial
from prismlab.witt import WittVector, witt_op, zero_vector


def test_factorization_and_section_identities():
    for p in (2, 3, 5):
        assert factorization_identity(p)
    for p in (2, 3):
        assert phi_of_section_identity(p)


def test_sigma_unit_is_qp():
    for p in (2, 3):
        ring = gq_ring(p, 4, 4)
        s = sigma_point(ring, p, 2)
        assert ring.eq(gq_to_unit(s), ring.pow(q_element(ring), p))


def test_sigma_is_delta_point():
    # F(sigma(q)) = sigma(q^p): the Witt Frobenius matches the base map
    for p in (2, 3):
        ring = gq_ring(p, 4, 4)
        s = sigma_point(ring, p, 3)
        fs = frobenius_of_point(s)
        # sigma at base q^p: x = [q^p] - 1
        from prismlab.witt import teichmuller, witt_neg
        qp = ring.pow(q_element(ring), p)
        expected = witt_op(teichmuller(ring, p, 2, qp),
                           witt_neg(teichmuller(ring, p, 2, ring.one)), "add")
        assert fs.x == expected


def test_gq_membership_enforced():
    ring = gq_ring(3, 4, 4)
    bad = WittVector(ring, 3, [ring.one, ring.one])
    with pytest.raises(DomainError):
        GQPoint(bad)


# --- the one rescaled-point type -------------------------------------------


def test_each_point_class_refuses_with_its_own_message():
    R = ModP(3, 2)
    with pytest.raises(DomainError, match=r"^1 \+ px is not a Teichmuller "
                       r"unit$"):
        GdRPoint(WittVector(R, 3, [1, 1]))
    ring = gq_ring(3, 2, 2)
    with pytest.raises(DomainError, match=r"^1 \+ Phi_p\(\[q\]\) x is not "
                       r"Teichmuller$"):
        GQPoint(WittVector(ring, 3, [ring.one, ring.one]))


def test_de_rham_and_q_points_never_compare_equal():
    ring = gq_ring(3, 2, 1)
    for x in (zero_vector(ring, 3, 2),
              WittVector(ring, 3, [ring.make_ints([3]), ring.make_ints([6])])):
        a, b = GdRPoint(x, check=False), GQPoint(x, check=False)
        assert a.x == b.x
        assert a != b and b != a and not a == b and not b == a
        assert a == GdRPoint(x, check=False) and b == GQPoint(x, check=False)


def test_point_reprs_are_pinned():
    a = sample_gdr(ModP(3, 2), 3, 2, random.Random(0))
    assert repr(a) == "GdR(W(3, 6))"
    b = sample_gq(gq_ring(3, 2, 2), 3, 2, random.Random(0))
    assert repr(b) == "GQ(W(3 + 4*h, 3 + 7*h))"


def test_hodge_tate_additivity_fails_for_a_wrong_law(monkeypatch):
    assert hodge_tate_check(3, 2, 6)["additive"]

    def doubled(ring, h, order):
        # z1 + z2 + 2(zeta - 1) z1 z2, not the law of the cyclotomic fiber
        return fgl.h_law(ring, ring.mul_int(h, 2), order)
    monkeypatch.setattr(qprism, "h_law", doubled)
    for p in (2, 3, 5):
        rep = hodge_tate_check(p, 2, 6)
        assert not rep["additive"]
        assert rep["kills_torsion_point"] and rep["leading_one"]


def test_gq_group_unit():
    rng = random.Random(0)
    for p in (2, 3):
        ring = gq_ring(p, 4, 4)
        a = sample_gq(ring, p, 2, rng)
        zero = GQPoint(zero_vector(ring, p, 2), check=False)
        assert gq_op(a, zero) == a


def test_gq_to_unit_multiplicative():
    rng = random.Random(1)
    ring = gq_ring(3, 4, 4)
    for _ in range(5):
        a, b = sample_gq(ring, 3, 2, rng), sample_gq(ring, 3, 2, rng)
        s = gq_op(a, b)
        assert ring.eq(gq_to_unit(s), ring.mul(gq_to_unit(a), gq_to_unit(b)))


def test_gq_law_at_q1_is_derham():
    rng = random.Random(2)
    for p in (2, 3):
        assert gq_at_q1_matches_derham(p, 4, 2, rng)


# --- q-exponential ------------------------------------------------------------


def test_q_exponential_constant_term():
    e = q_exponential(2, 4, 4)
    coords = _from_monomial(e["element"], e["ring"])
    H = e["ring"].scalar
    assert H.eq(coords[0], H.one)


def test_q_exp_mod_q_minus_1():
    # at q = 1 the coordinates Phi^k become p^k, the divided-power shape
    for p in (2, 3):
        e = q_exponential(p, 4, 4)
        coords = _from_monomial(e["element"], e["ring"])
        for k in range(5):
            c = coords[k] if k < len(coords) else ()
            const = c[0] if c else Fraction(0)
            assert const == p ** k


def test_q_exponential_is_the_canonical_X():
    # the direct sum of c_n Phi^n up to the tail, and the X of the
    # canonical point at L = 2, which sums the same series as 1 + Phi x0
    for p in (2, 3):
        e = q_exponential(p, 4, 4)
        assert e["element"] == canonical_point(p, 4, 4, L=2)["X"]
        R = e["ring"]
        phi = q_number(R.scalar, p)
        direct, power = R.zero, R.scalar.one
        for n in range(e["tail"] + 1):
            direct = R.add(direct, R.mul(R.make([power]), _c_monomial(n, R)))
            power = R.scalar.mul(power, phi)
        assert e["element"] == direct


def test_q_exponential_reuses_the_canonical_phi_series(monkeypatch):
    monkeypatch.delitem(qprism._phi_series.cache, (2, 4, 4, 8),
                        raising=False)
    monkeypatch.delitem(qprism._canonical_construction.cache, (2, 4, 4, 2),
                        raising=False)
    real_ring = qprism.bhat_ring
    builds = []

    # each build of the Phi-power series makes its ring once
    def counted_ring(h_prec):
        builds.append(h_prec)
        return real_ring(h_prec)

    monkeypatch.setattr(qprism, "bhat_ring", counted_ring)
    X = canonical_point(2, 4, 4)["X"]
    assert builds == [4]
    e = q_exponential(2, 4, 4)
    assert builds == [4]
    assert e["element"] is X
    assert (2, 4, 4, 8) in qprism._phi_series.cache


def test_c_monomial_memo_is_per_ring():
    # c_n truncated at h^2 and at h^5 differ from n = 3 on; the memo must
    # serve each ring its own, in either order, and one ring equal to
    # another shares its entries
    for h_prec in (2, 5, 2):
        R = bhat_ring(h_prec)
        for n in range(7):
            want = R.make([R.scalar.make(list(c)) for c in _c_monomial(n)])
            assert _c_monomial(n, R) == want
            assert _c_monomial(n, R) is _c_monomial(n, bhat_ring(h_prec))


# --- canonical point -----------------------------------------------------------


# sha256 of repr, first 16 hex digits, as computed by the Fraction
# schoolbook before the integer kernel: (x.components, X, x0)
CANONICAL_DIGESTS = {
    2: ("b39e24865c0e78e4", "7949eed0c580b2ae", "5987162d3efc7ec7"),
    3: ("16a5b6ce1e68d3a1", "273614b876d3407b", "13c9e8c2ee81bc0c"),
}


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def test_canonical_point_is_bit_identical():
    for p, digests in CANONICAL_DIGESTS.items():
        cp = canonical_point(p, 4, 4, L=2, t_deg=4)
        assert (_digest(cp["x"].components), _digest(cp["X"]),
                _digest(cp["x0"])) == digests


def test_canonical_point_returns_a_new_dict():
    first = canonical_point(2, 2, 2, L=2, t_deg=2)
    first["x0"] = None
    first["teichmuller"] = False
    second = canonical_point(2, 2, 2, L=2, t_deg=2)
    assert second is not first
    assert second["x0"] is not None and second["teichmuller"]


def test_concurrent_requests_build_the_canonical_point_once(monkeypatch):
    monkeypatch.delitem(qprism._canonical_construction.cache, (2, 2, 2, 2),
                        raising=False)
    real_series = qprism._phi_series
    builds = []

    # the Phi-power series is summed once in each build of the construction
    def slow_series(*args):
        builds.append(args)
        time.sleep(0.05)
        return real_series(*args)

    monkeypatch.setattr(qprism, "_phi_series", slow_series)
    workers = 4
    barrier = threading.Barrier(workers)
    results = [None] * workers

    def ask(i):
        barrier.wait(timeout=10)
        results[i] = canonical_point(2, 2, 2, L=2, t_deg=2 + i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(i,))
                   for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert builds == [(2, 2, 2, 8)]
    assert all(r["x"] is results[0]["x"] for r in results)
    assert all(r["teichmuller"] and r["rank_one"] for r in results)


def test_canonical_point_derham_specialization():
    for p in (2, 3):
        assert derham_specialization_of_x0(p, 4, 4)


def test_r0_relation():
    from prismlab.qprism import r0_relation_check
    for p in (2, 3):
        rep = r0_relation_check(p, 4, 4)
        assert rep["rank_one"] and rep["t0_fiber"] and rep["q1_fiber"]


# --- q-logarithm ----------------------------------------------------------------


def test_q_log_of_sigma():
    assert q_log_of_sigma(3, 4, 4)[0]
    assert q_log_of_sigma(2, 6, 4)[0]


def test_q_log_of_unit_point():
    ring = gq_ring(3, 4, 4)
    zero = GQPoint(zero_vector(ring, 3, 2), check=False)
    out_ring, val = q_log(zero)
    assert out_ring.is_zero(val)


def test_q_log_additive():
    for p, n_p in ((3, 4), (2, 7)):
        rng = random.Random(3)
        ring = gq_ring(p, n_p, 4)
        for _ in range(5):
            a, b = sample_gq(ring, p, 2, rng), sample_gq(ring, p, 2, rng)
            oring, vs = q_log(gq_op(a, b))
            _, va = q_log(a)
            _, vb = q_log(b)
            assert oring.eq(vs, oring.add(va, vb))


def test_q_log_precision_guard():
    assert q_log_precision_loss(3, 4) == 2
    ring = gq_ring(3, 2, 4)
    s = sigma_point(ring, 3, 2)
    with pytest.raises(BoundExceeded):
        q_log(s)


# --- unit action -----------------------------------------------------------------


def test_zp_action_formula_n2():
    ring = gq_ring(3, 4, 6)
    act = zp_action(ring, 2, 6)
    # z -> (2z + (q-1)z^2)/(q+1)
    q = q_element(ring)
    vinv_num = TruncSeries(ring, ("z",), {
        (1,): ring.from_int(2), (2,): h_element(ring)}, 6)
    lhs = act.scale(ring.add(q, ring.one))
    assert lhs == vinv_num


def test_zp_action_identity():
    ring = gq_ring(3, 4, 6)
    act = zp_action(ring, 1, 6)
    assert act == TruncSeries.var(ring, ("z",), 6, "z")


# --- Hodge-Tate fiber -------------------------------------------------------------


def test_q_power_substitute():
    ring = gq_ring(3, 4, 4)
    q = q_element(ring)
    got = q_power_substitute(ring, q, 3)
    assert ring.eq(got, ring.pow(q, 3))


def test_section_vanishes_exactly_on_cyclotomic_fiber():
    # the section value Phi_p(q) is zero in Z[q]/(Phi_p(q)) and is a
    # nonzerodivisor in Z[q]: its vanishing locus is exactly that quotient
    from prismlab.ringcore import CyclotomicRing, QPoly
    from prismlab.ringcore import q_number as phi_p_element
    for p in (2, 3, 5):
        C = CyclotomicRing(p)
        assert C.is_zero(phi_p_element(C, p))
        P = QPoly()
        phi = phi_p_element(P, p)
        # nonzerodivisor: multiplication by Phi is injective on samples
        rng = random.Random(17)
        for _ in range(10):
            f = P.make_ints([rng.randrange(-9, 10) for _ in range(4)])
            if not P.is_zero(f):
                assert not P.is_zero(P.mul(phi, f))


def _lambda_over_q_zeta(C, p, order):
    """_lambda_series as it was computed before: each coefficient
    (-1)^(n-1) (zeta-1)^(n-1)/n in Q(zeta), certified p-integral by
    C.from_rational."""
    rring = PolyQuotRing(ExactRat(), cyclotomic_modulus(p), "zeta")
    zeta1 = rring.sub(q_element(rring), rring.one)
    coeffs = {}
    for n in range(1, order + 1):
        c = rring.mul(rring.pow(zeta1, n - 1),
                      rring.make([Fraction((-1) ** (n - 1), n)]))
        coeffs[(n,)] = C.from_rational(c)
    return TruncSeries(C, ("z",), coeffs, order)


@pytest.mark.parametrize("p, cut", [(2, 8), (3, 12), (5, 25)])
def test_lambda_series_matches_the_q_zeta_loop_and_ends_at_the_cut(p, cut):
    C = CyclotomicRing(p, n_p=6)
    assert qprism._lambda_cut(p, 6) == cut
    lam = qprism._lambda_series(C, 3 * cut)
    assert lam == _lambda_over_q_zeta(C, p, 3 * cut)
    assert not C.is_zero(lam.coefficient((cut,)))
    assert all(n <= cut for (n,) in lam.coeffs)
    # so lambda(1) summed to the cut is the sum to three times it
    total = C.zero
    for c in lam.coeffs.values():
        total = C.add(total, c)
    assert C.is_zero(total)


# --- exact valuations in the box checks ------------------------------------------


def test_frac_vp_is_exact():
    assert frac_vp(Fraction(0), 3) is None
    assert frac_vp(Fraction(243), 3) == 5
    for p in (2, 3, 5):
        for k in range(1, 30):
            assert frac_vp(Fraction(p ** k), p) == k
            assert frac_vp(Fraction(p ** k - 1), p) == 0
            assert frac_vp(Fraction(1, p ** k), p) == -k
            assert frac_vp(Fraction(p ** k, 7 * p ** (k + 1)), p) == -1
            assert type(frac_vp(Fraction(p ** k, 7), p)) is int
    assert vp_at_least(Fraction(0), 3, 10 ** 9)
    assert vp_at_least(Fraction(-3 ** 5, 2), 3, 5)
    assert not vp_at_least(Fraction(3 ** 5, 2), 3, 6)


def test_bh_in_box_at_the_boundary():
    R = bhat_ring(4)
    H = R.scalar
    R3 = bhat_ring(3)
    for p, n_p in ((2, 4), (3, 5)):
        inside = R.make([H.make([Fraction(p ** n_p, 11)])])
        outside = R.make([H.make([Fraction(p ** (n_p - 1))])])
        assert bh_in_box(inside, p, n_p)
        assert not bh_in_box(outside, p, n_p)
        # the h-side of the box is the ring's own cut: h^3 is checked in
        # the ring cut at h^4 and is zero in the ring cut at h^3; t^2 lies
        # outside t_deg 1
        assert not bh_in_box(R.make([H.make([0, 0, 0, Fraction(1)])]),
                             p, n_p)
        far = R3.make([R3.scalar.make([0, 0, 0, Fraction(1)])])
        assert bh_in_box(far, p, n_p)
        assert bh_in_box(R.make([(), (), H.one]), p, n_p, t_deg=1)
        assert not bh_in_box(R.make([(), (), H.one]), p, n_p, t_deg=2)

import hashlib
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from prismlab import derham
from prismlab.derham import (
    GdRPoint, _series_coeffs, f_log,
    frob_power_identity, g_eta_identities, g_exp,
    generic_vector, id_minus_V, is_eigen, one_plus_p_x, sample_eigen,
    sample_gdr, v_geometric, witt_series_eval,
)
from prismlab.ringcore import (
    BoundExceeded, DomainError, ExactInt, ModP, NotIntegral, PolyQuotRing,
    _padic_profile, newton_inverse,
)
from prismlab.witt import (
    WittVector, frobenius, sample_f_kernel, scalar_mul, teichmuller,
    verschiebung, witt_op, witt_sub, zero_vector,
)


def fp_poly_ring(p, k):
    return PolyQuotRing(ModP(p, 1), (0,) * k + (1,), "a")


def test_zero_point_and_units():
    R = ModP(2, 4)
    z = GdRPoint(zero_vector(R, 2, 3), check=False)
    assert f_log(z).is_zero()
    assert g_exp(zero_vector(R, 2, 3)) == z
    assert one_plus_p_x(z.x).components[0] == 1


def test_membership_enforced():
    R = ModP(2, 4)
    with pytest.raises(DomainError):
        GdRPoint(WittVector(R, 2, [1, 1, 1]))


def test_sample_gdr_and_roundtrip():
    rng = random.Random(0)
    for p in (2, 3):
        for L in (2, 3, 4):
            for n_p in (4, 6):
                R = ModP(p, n_p)
                for _ in range(10):
                    a = sample_gdr(R, p, L, rng)
                    y = f_log(a)
                    assert is_eigen(y)
                    assert g_exp(y) == a


def test_sample_over_polynomial_ring_over_z_mod_p_to_the_n():
    # p x = value is divided coefficient by coefficient on the
    # representatives in Z/p^n[a]/(a^2), not only on bare Z/p^n ints
    R, p = PolyQuotRing(ModP(3, 3), (0, 0, 1), "a"), 3
    a = sample_gdr(R, p, 2, random.Random(1))
    assert a.x == WittVector(R, p, [R.from_int(6), R.from_int(6)])
    assert g_exp(f_log(a)) == a
    rng = random.Random(2)
    for _ in range(5):
        y = sample_eigen(R, p, 3, rng)
        assert f_log(g_exp(y)) == y


def test_de_rham_maps_need_a_p_adic_modulus():
    R = PolyQuotRing(ExactInt(), (0, 0, 1), "a")
    with pytest.raises(DomainError, match="no p-adic modulus"):
        sample_gdr(R, 3, 2, random.Random(0))
    with pytest.raises(DomainError, match="no p-adic modulus"):
        f_log(GdRPoint(zero_vector(R, 3, 2), check=False))


def test_roundtrip_other_direction():
    rng = random.Random(1)
    for p in (2, 3):
        R = ModP(p, 6)
        for _ in range(10):
            y = sample_eigen(R, p, 3, rng)
            assert is_eigen(y)
            assert f_log(g_exp(y)) == y


def test_f_log_zeroth_component_series():
    # over Z/16 at p=2 the series is x0 - x0^2 + 12 x0^3 - ... applied to
    # the 0-th component (4/3 = 12 mod 16 at the cubic term)
    R = ModP(2, 4)
    rng = random.Random(2)
    for _ in range(10):
        a = sample_gdr(R, 2, 4, rng)
        x0 = a.x.components[0]
        y0 = f_log(a).components[0]
        expected = 0
        # sum (-2)^(n-1)/n x0^n mod 16: n = 1..5 suffices since x0 in 2A
        coeffs = {1: 1, 2: -1, 3: 12, 4: -2, 5: 4}  # (-2)^(n-1)/n mod 16
        for n, c in coeffs.items():
            expected = (expected + c * pow(x0, n, 16)) % 16
        assert y0 == expected % 16


def test_f_log_is_group_hom():
    rng = random.Random(3)
    for p in (2, 3):
        R = ModP(p, 6)
        for _ in range(10):
            a = sample_gdr(R, p, 3, rng)
            b = sample_gdr(R, p, 3, rng)
            lhs = f_log(a.op(b))
            rhs = witt_op(f_log(a), f_log(b), "add")
            assert lhs == rhs


def test_g_exp_requires_certificate():
    R = ModP(2, 4)
    y = WittVector(R, 2, [1, 0, 0])  # Fy != py
    with pytest.raises(DomainError):
        g_exp(y)


def test_frob_power_identity():
    rng = random.Random(4)
    for p in (2, 3):
        R = ModP(p, 6)
        for _ in range(10):
            a = sample_gdr(R, p, 3, rng)
            assert frob_power_identity(a)["ok"]
    assert frob_power_identity(
        GdRPoint(zero_vector(ModP(3, 4), 3, 3), check=False))["ok"]


def test_id_minus_v():
    rng = random.Random(5)
    for p in (2, 3):
        R = ModP(p, 6)
        for _ in range(10):
            y = sample_eigen(R, p, 4, rng)
            z = id_minus_V(y)
            assert frobenius(z).is_zero()
            assert v_geometric(z) == y
    assert id_minus_V(zero_vector(ModP(2, 4), 2, 3)).is_zero()


def test_eigen_condition_is_kernel_in_char_p():
    # over an F_p-algebra, {Fy = py} = {Fy = 0}
    for p, k in ((2, 3), (3, 3)):
        R = fp_poly_ring(p, k)
        rng = random.Random(6)
        for _ in range(25):
            y = sample_f_kernel(R, p, 3, rng)
            assert frobenius(y).is_zero()
            assert is_eigen(y)
        # conversely, eigen implies kernel: components then satisfy y_i^p = 0
        # exhaustively over W_2 of F_2[a]/(a^2)
    R = fp_poly_ring(2, 2)
    elems = [R.make_ints(v) for v in itertools.product(range(2), repeat=2)]
    for comps in itertools.product(elems, repeat=2):
        y = WittVector(R, 2, comps)
        if is_eigen(y):
            assert frobenius(y).is_zero()


def test_g_eta_identities():
    rng = random.Random(7)
    for p in (2, 3):
        R = fp_poly_ring(p, 3)
        for _ in range(20):
            assert g_eta_identities(sample_f_kernel(R, p, 3, rng),
                                    sample_f_kernel(R, p, 3, rng))
            # also non-kernel vectors for the kernel-comparison clause
            assert g_eta_identities(
                WittVector(R, p, [R.rand(rng) for _ in range(3)]),
                sample_f_kernel(R, p, 3, rng))


def test_g_eta_projection_formula_symbolic():
    # V(1) . x = V(F x) as a polynomial identity in the coordinates
    for p, L in ((2, 3), (3, 2)):
        ring, x = generic_vector(p, L)
        v1 = verschiebung(teichmuller(ring, p, L, ring.one))
        lhs = witt_op(v1, x, "mul")
        rhs = WittVector(ring, p, (ring.zero,) + frobenius(x).components)
        assert lhs == rhs


def test_gdr_vs_qprism_law_shape():
    # the group law x1 + x2 + p x1 x2 via GdRPoint.op agrees with steps
    rng = random.Random(8)
    R = ModP(3, 4)
    for _ in range(5):
        a, b = sample_gdr(R, 3, 3, rng), sample_gdr(R, 3, 3, rng)
        direct = witt_op(witt_op(a.x, b.x, "add"),
                         scalar_mul(3, witt_op(a.x, b.x, "mul")), "add")
        assert a.op(b).x == direct


@pytest.mark.parametrize("p,sample", [(2, 8), (3, 81)])
def test_discrepancy_class_test_agrees_with_the_newton_inverse(
        monkeypatch, p, sample):
    # discrepancy_check tests (1 + V(point.x)) (1 + V(x)) = 1; the Newton
    # loop inverts 1 + V(point.x) and compares with 1 + V(x).  Each kernel
    # vector is paired with its own point and with its neighbour's, whose
    # class differs from its own unless only the last components differ
    R = fp_poly_ring(p, 3)
    elems = [R.make_ints(v) for v in itertools.product(range(p), repeat=3)]
    nilp = [c for c in elems if R.is_zero(R.pow(c, p))]
    xs = [WittVector(R, p, c) for c in itertools.product(nilp, repeat=3)]
    xs = random.Random(21).sample(xs, sample)
    one = teichmuller(R, p, 3, R.one)
    points = [g_exp(v_geometric(witt_sub(verschiebung(x), x))) for x in xs]
    seen = set()
    for i, x in enumerate(xs):
        for point in (points[i], points[i - 1]):
            monkeypatch.setattr(derham, "g_exp", lambda y, pt=point: pt)
            failures = derham.discrepancy_check(R, p, 3, [x])["failures"]
            inverse = newton_inverse(one + verschiebung(point.x), one, one,
                                     operator.mul, operator.sub, 2)
            agrees = inverse == one + verschiebung(x)
            assert (("class mismatch", repr(x)) not in failures) == agrees
            seen.add((point is points[i], agrees))
    assert seen == {(True, True), (False, True), (False, False)}


# --- the step-by-step definitions that the one-solve forms replaced, kept
# as oracles: one Witt operation, and one ghost solve, per step


def series_by_steps(coeff, x, bound, n_p):
    target = ModP(x.p, n_p + 4)
    acc = zero_vector(x.ring, x.p, x.L)
    power = x
    tail_zero = True
    for n in range(1, bound + 1):
        c = target.from_rational(Fraction(coeff(n)))
        if c is None:
            raise NotIntegral("coefficient is not p-integral")
        term = scalar_mul(c, power)
        acc = witt_op(acc, term, "add")
        if n >= bound - 1:
            tail_zero = tail_zero and term.is_zero()
        if n < bound:
            power = witt_op(power, x, "mul")
    if not tail_zero:
        raise BoundExceeded("series did not stabilize")
    return acc


def is_eigen_by_steps(y):
    return frobenius(y) == WittVector(y.ring, y.p,
                                      scalar_mul(y.p, y).components[:-1])


def v_geometric_by_steps(x):
    acc = zero_vector(x.ring, x.p, x.L)
    v = x
    for _ in range(x.L):
        acc = witt_op(acc, v, "add")
        v = verschiebung(v)
    return acc


def law_by_steps(x1, x2):
    return witt_op(witt_op(x1, x2, "add"),
                   scalar_mul(x1.p, witt_op(x1, x2, "mul")), "add")


def frob_power_h_by_steps(x):
    p = x.p
    acc = zero_vector(x.ring, p, x.L)
    power = x
    for i in range(1, p + 1):
        acc = witt_op(acc, scalar_mul(math.comb(p, i) * p ** (i - 1), power),
                      "add")
        if i < p:
            power = witt_op(power, x, "mul")
    return WittVector(x.ring, p, acc.components[:-1])


def outcome(fn, *args):
    try:
        return fn(*args)
    except (BoundExceeded, NotIntegral) as err:
        return type(err)


MODP_CELLS = [(p, L, n_p) for p in (2, 3) for L in (2, 3, 4) for n_p in (4, 6)]


def random_vector(ring, p, L, rng, scale=1):
    return WittVector(ring, p, [ring.mul_int(ring.rand(rng), scale)
                                for _ in range(L)])


@pytest.mark.parametrize("p,L,n_p", MODP_CELLS)
def test_series_matches_steps(p, L, n_p):
    rng = random.Random(p * 100 + L * 10 + n_p)
    R = ModP(p, n_p)
    ints = [rng.randrange(-50, 50) for _ in range(n_p + 2)]
    series = [lambda n: Fraction((-p) ** (n - 1), n),
              lambda n: Fraction(p ** (n - 1), math.factorial(n)),
              lambda n: ints[n - 1]]
    seen = set()
    for _ in range(12):
        x = random_vector(R, p, L, rng, rng.choice([1, p]))
        coeff = rng.choice(series)
        bound = rng.choice([1, 2, n_p, n_p + 2])
        got = outcome(witt_series_eval, coeff, x, bound)
        assert got == outcome(series_by_steps, coeff, x, bound, n_p)
        seen.add(got is BoundExceeded)
    assert seen == {False, True}  # sums and non-vanishing tails both ran
    a = sample_gdr(R, p, L, rng)
    assert f_log(a) == series_by_steps(
        lambda n: Fraction((-p) ** (n - 1), n), a.x, n_p + 2, n_p)


def test_series_tail_that_does_not_vanish_raises():
    R, p = ModP(3, 4), 3
    one = teichmuller(R, p, 3, R.one)
    with pytest.raises(BoundExceeded):
        witt_series_eval(lambda n: 1, one, 6)
    # each of the two tail terms is certified on its own
    x = WittVector(R, p, [3, 0, 0])  # x^n = 0 from n = 4 on
    for bound, zero_at in ((4, 3), (5, 5)):
        coeff = lambda n, z=zero_at: 0 if n == z else 1  # noqa: E731
        assert witt_series_eval(coeff, x, bound + 1) == series_by_steps(
            coeff, x, bound + 1, 4)
        with pytest.raises(BoundExceeded):
            witt_series_eval(coeff, one, bound)
        with pytest.raises(BoundExceeded):
            series_by_steps(coeff, one, bound, 4)
    with pytest.raises(NotIntegral, match="not p-integral"):
        witt_series_eval(lambda n: Fraction(1, 3), x, 6)


@pytest.mark.parametrize("p,L,n_p", MODP_CELLS)
def test_eigen_geometric_group_law_and_h_match_steps(p, L, n_p):
    rng = random.Random(p * 1000 + L * 10 + n_p)
    R = ModP(p, n_p)
    for _ in range(6):
        x = random_vector(R, p, L, rng)
        y = sample_eigen(R, p, L, rng)
        assert is_eigen(y) and is_eigen_by_steps(y)
        assert is_eigen(x) == is_eigen_by_steps(x)
        assert v_geometric(x) == v_geometric_by_steps(x)
        a, b = sample_gdr(R, p, L, rng), sample_gdr(R, p, L, rng)
        assert a.op(b).x == law_by_steps(a.x, b.x)
        assert GdRPoint(x, check=False).op(b).x == law_by_steps(x, b.x)
        rep = frob_power_identity(a)
        assert rep["ok"] and rep["h"] == frob_power_h_by_steps(a.x)
        assert frob_power_identity(GdRPoint(x, check=False))["h"] == \
            frob_power_h_by_steps(x)


@pytest.mark.parametrize("p", [2, 3])
def test_char_p_forms_match_steps(p):
    R = fp_poly_ring(p, 3)
    rng = random.Random(p)
    for _ in range(20):
        x = WittVector(R, p, [R.rand(rng) for _ in range(3)])
        k = sample_f_kernel(R, p, 3, rng)
        for v in (x, k):
            assert is_eigen(v) == is_eigen_by_steps(v)
            assert v_geometric(v) == v_geometric_by_steps(v)


def test_high_precision_round_trip():
    # p = 3, n_p = 40, L = 4: the series runs to 42 terms
    R, p, L = ModP(3, 40), 3, 4
    rng = random.Random(40)
    for _ in range(3):
        a = sample_gdr(R, p, L, rng)
        y = f_log(a)
        assert is_eigen(y) and g_exp(y) == a
        assert y == series_by_steps(lambda n: Fraction((-p) ** (n - 1), n),
                                    a.x, 42, 40)


# --- the samplers' digit loops as they were before the prefix solves: each
# digit read off a full-length vector padded with zeros


def solve_scalar_p_full_length(target, rng):
    ring, p, L = target.ring, target.p, target.L
    n_p = _padic_profile(ring)[1]
    comps = []
    for i in range(L):
        partial = WittVector(ring, p, comps + [ring.zero] * (L - i))
        resid = ring.sub(target.components[i],
                         scalar_mul(p, partial).components[i])
        div = ring.div_int_exact(resid, p)
        if div is None:
            return None
        comps.append(ring.add(div, ring.from_int(
            p ** (n_p - 1) * rng.randrange(p))))
    x = WittVector(ring, p, comps)
    return x if scalar_mul(p, x) == target else None


def sample_gdr_full_length(ring, p, L, rng):
    one = teichmuller(ring, p, L, ring.one)
    n_p = _padic_profile(ring)[1]
    for _ in range(64):
        u = ring.from_int(1 + p * rng.randrange(p ** (n_p - 1)))
        x = solve_scalar_p_full_length(
            witt_sub(teichmuller(ring, p, L, u), one), rng)
        if x is not None:
            return GdRPoint(x)
    raise BoundExceeded("no de Rham point found")


def sample_eigen_full_length(ring, p, L, rng):
    n_p = _padic_profile(ring)[1]
    for _ in range(64):
        comps = [ring.mul_int(ring.from_int(rng.randrange(p ** (n_p - 1))), p)]
        for i in range(L - 1):
            partial = WittVector(ring, p, comps + [ring.zero] * (L - 1 - i))
            resid = ring.sub(scalar_mul(p, partial).components[i],
                             frobenius(partial).components[i])
            div = ring.div_int_exact(resid, p)
            if div is None:
                break
            comps.append(ring.add(div, ring.from_int(
                p ** (n_p - 1) * rng.randrange(p))))
        else:
            y = WittVector(ring, p, comps)
            if is_eigen(y):
                return y
    raise BoundExceeded("no eigen point found")


@pytest.mark.parametrize("p,L,n_p", MODP_CELLS)
def test_prefix_samplers_match_the_full_length_digit_loops(p, L, n_p):
    # same components and the same rng state after each draw, seeds 0-19
    R = ModP(p, n_p)
    for seed in range(20):
        for sample, oracle in ((sample_gdr, sample_gdr_full_length),
                               (sample_eigen, sample_eigen_full_length)):
            rng, twin = random.Random(seed), random.Random(seed)
            got, want = sample(R, p, L, rng), oracle(R, p, L, twin)
            if isinstance(got, GdRPoint):
                got, want = got.x, want.x
            assert got.components == want.components
            assert rng.getrandbits(64) == twin.getrandbits(64)


# sha256 of 5 draws per cell and rng.random() after them, one digest per
# sampler, as the samplers drew them when each digit re-solved its prefix
SAMPLER_DIGESTS = {
    "sample_gdr":
        "520c8d6b0cd06222ccf820c8af3c9e304c5076c92a71b00443a8b621d426d620",
    "sample_eigen":
        "135d89e61567ab3b00c83cbfae9bc08270f08d0dadc7fa9b876bbdfa059ee3a2",
}


def sampler_cells():
    for p in (2, 3, 5, 7):
        for L in range(1, 5):
            for n_p in (2, 4, 6):
                yield "%d/%d/%d" % (p, L, n_p), ModP(p, n_p), p, L
    R = PolyQuotRing(ModP(3, 3), (0, 0, 1), "a")
    for L in range(1, 5):
        yield "3[a]/%d" % L, R, 3, L


@pytest.mark.parametrize("sample", [sample_gdr, sample_eigen],
                         ids=lambda f: f.__name__)
def test_sampler_draws_are_pinned(sample):
    # the same rng calls in the same order and the same vectors, over
    # Z/p^n for p in {2, 3, 5, 7}, L in 1..4, n_p in {2, 4, 6}, and over
    # Z/27[a]/(a^2); a seed per cell
    h = hashlib.sha256()
    for seed, (name, R, p, L) in enumerate(sampler_cells()):
        rng = random.Random(seed)
        for _ in range(5):
            try:
                got = sample(R, p, L, rng)
                out = (got.x if isinstance(got, GdRPoint) else got).components
            except BoundExceeded as err:
                out = repr(err)
            h.update(repr((name, out)).encode())
        h.update(repr(rng.random()).encode())
    assert h.hexdigest() == SAMPLER_DIGESTS[sample.__name__]


def test_f_log_and_g_exp_derive_their_coefficients_once():
    _series_coeffs.cache_clear()
    rng = random.Random(5)
    for p, n_p in ((2, 4), (3, 6)):
        R = ModP(p, n_p)
        for _ in range(3):
            a = sample_gdr(R, p, 3, rng)
            y = f_log(a)
            assert y == witt_series_eval(
                lambda n: Fraction((-p) ** (n - 1), n), a.x, n_p + 2)
            assert g_exp(y).x == witt_series_eval(
                lambda n: Fraction(p ** (n - 1), math.factorial(n)), y,
                n_p + 2)
    # one entry per (series, p, n_p, bound), every later call a hit
    info = _series_coeffs.cache_info()
    assert (info.misses, info.currsize) == (4, 4) and info.hits > 4


# --- the one-solve unit map and its solve count


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_unit_map_matches_one_plus_p_x(p):
    # GdRPoint.unit is one ghost solve of 1 + p g_n; one_plus_p_x adds [1]
    # to scalar_mul(p, x).  Random vectors are mostly not points
    rng = random.Random(p)
    points = 0
    for L in range(1, 5):
        for n_p in range(1, 7):
            R = ModP(p, n_p)
            xs = [random_vector(R, p, L, rng, rng.choice([1, p]))
                  for _ in range(3)]
            if n_p > 1 and L > 1:
                xs.append(sample_gdr(R, p, L, rng).x)
            for x in xs:
                unit = GdRPoint.unit(x)
                assert unit == one_plus_p_x(x)
                points += derham.is_teichmuller(unit)
    assert 0 < points < 4 * 6 * 3  # points and non-points both ran


def test_unit_map_refuses_a_q_for_the_de_rham_scalar():
    # s = p has no q: a q given to GdRPoint.unit must not be dropped
    R = ModP(3, 2)
    x = sample_gdr(R, 3, 2, random.Random(0)).x
    with pytest.raises(TypeError):
        GdRPoint.unit(x, R.one)


def count_solves(monkeypatch):
    from prismlab import witt
    calls = []

    def counted(vectors, combine, solve=witt.ghost_combine):
        calls.append(len(vectors))
        return solve(vectors, combine)
    for mod in (witt, derham):
        monkeypatch.setattr(mod, "ghost_combine", counted)
    return calls


@pytest.mark.parametrize("p,L,n_p", [(2, 4, 6), (3, 3, 4), (5, 4, 4)])
def test_a_draw_and_a_point_check_are_one_solve_each(monkeypatch, p, L, n_p):
    R, rng = ModP(p, n_p), random.Random(L)
    calls = count_solves(monkeypatch)
    a = sample_gdr(R, p, L, rng)
    assert calls == [1]
    calls.clear()
    assert GdRPoint(a.x) == a
    assert calls == [1]
    calls.clear()
    with pytest.raises(DomainError):
        GdRPoint(teichmuller(R, p, L, R.one))
    assert calls == [1]

import random

import pytest

from prismlab.fgl import (
    FGLHom, FormalGroupLaw, additive_law, deformation_family,
    f_pullback_h_law, h_law, multiplicative_law, n_series, phi_q_hom,
    rescale, scaling_map, specialize_deformation, verify_hom,
)
from prismlab.harness import SuiteConfig, run
from prismlab.ringcore import (
    DomainError, ExactInt, IdentityFailed, QPoly, TruncSeries, h_element,
)


def test_h_law_specializations():
    Z = ExactInt()
    assert h_law(Z, 0, 6).law == additive_law(Z, 6).law
    assert h_law(Z, 1, 6).law == multiplicative_law(Z, 6).law


def test_make_law_verifies_axioms():
    Z = ExactInt()
    good = TruncSeries(Z, ("z1", "z2"), {(1, 0): 1, (0, 1): 1, (1, 1): 1}, 6)
    FormalGroupLaw(good)
    bad = TruncSeries(Z, ("z1", "z2"), {(1, 0): 1, (0, 1): 1, (2, 0): 1}, 6)
    with pytest.raises(IdentityFailed) as err:
        FormalGroupLaw(bad)
    assert "unit" in str(err.value)
    # a law is a series in ("z1", "z2") and nothing else
    renamed = TruncSeries(Z, ("x", "y"), good.coeffs, 6)
    with pytest.raises(DomainError):
        FormalGroupLaw(renamed)


def test_builtin_laws_axioms_order8():
    P = QPoly()
    for law in (additive_law(P, 8), multiplicative_law(P, 8),
                h_law(P, h_element(P), 8), f_pullback_h_law(P, 3, 8)):
        assert law.law == FormalGroupLaw(law.law).law


def test_two_series():
    Z = ExactInt()
    F = h_law(Z, 5, 6)
    two = n_series(F, 2)
    # [2](z) = 2z + h z^2
    assert two.series == TruncSeries(Z, ("z",), {(1,): 2, (2,): 5}, 6)


def test_n_series_refuses_negative_n():
    # range(n) would give the zero series for n < 0, not [n](z)
    F = multiplicative_law(ExactInt(), 3)
    with pytest.raises(ValueError):
        n_series(F, -1)


def test_n_series_additivity():
    P = QPoly()
    F = h_law(P, h_element(P), 6)
    for m, n in ((1, 1), (2, 3), (0, 2), (3, 0)):
        lhs = n_series(F, m + n).series
        rhs = F.apply(n_series(F, m).series, n_series(F, n).series)
        assert lhs == rhs


def test_n_series_composition():
    P = QPoly()
    F = h_law(P, h_element(P), 6)
    for m, n in ((2, 2), (2, 3), (0, 3), (3, 0)):
        lhs = n_series(F, m * n).series
        rhs = n_series(F, m)(n_series(F, n).series)
        assert lhs == rhs


def test_p_series_height_bookkeeping():
    # [p] of the q-deformed law: mod p alone the z^p coefficient is
    # (q-1)^(p-1); that the coefficients below degree p die mod (p, q-1) is
    # the check fgl.p_series.height
    for p in (2, 3, 5):
        P = QPoly()
        sp = n_series(h_law(P, h_element(P), p + 2), p).series
        assert sp.coefficient((p,)) == P.pow(h_element(P), p - 1)


def test_rescale_multiplicative_gives_h_law():
    P = QPoly()
    h = h_element(P)
    assert rescale(multiplicative_law(P, 8), h).law == h_law(P, h, 8).law


def test_rescale_unit_and_zero():
    Z = ExactInt()
    F = multiplicative_law(Z, 8)
    assert rescale(F, 1).law == F.law
    assert rescale(F, 0).law == additive_law(Z, 8).law


def test_rescale_monoidal():
    Z = ExactInt()
    F = multiplicative_law(Z, 8)
    rng = random.Random(0)
    for _ in range(5):
        a, b = rng.randrange(-5, 6), rng.randrange(-5, 6)
        assert rescale(rescale(F, a), b).law == rescale(F, a * b).law


def test_scaling_map_intertwines():
    P = QPoly()
    h = h_element(P)
    F = multiplicative_law(P, 8)
    Fh = rescale(F, h)
    psi = scaling_map(Fh, F, h)
    assert verify_hom(psi)["ok"]


def test_deformation_family():
    # the fibres at a = 0 and a = 1 are the checks fgl.deformation.a0, .a1
    P = QPoly()
    h = h_element(P)
    famh = deformation_family(h_law(P, h, 6))
    # generic fibre: specializing a to a scalar c gives the (c h)-law
    assert specialize_deformation(famh, P.from_int(2)).law == h_law(P, P.mul_int(h, 2), 6).law


def test_fgl_checks_pass():
    # the harness checks the axioms of the built-in laws (the pullback law at
    # p = 2 and 3), the height bookkeeping of [p] at p = 2, 3, 5, rescaling
    # (the h-law, 20 trials of monoidality, the scaling map) and the
    # deformation's fibres at a = 0 and 1, each at order 8
    report, code = run(SuiteConfig(suite="fgl"))
    assert code == 0, [c for c in report["checks"] if c["status"] != "pass"]
    assert {c["id"] for c in report["checks"]} == {
        "fgl.axioms.additive", "fgl.axioms.multiplicative", "fgl.axioms.h_law",
        "fgl.axioms.pullback", "fgl.p_series.height.p2",
        "fgl.p_series.height.p3", "fgl.p_series.height.p5",
        "fgl.rescale.h_law", "fgl.rescale.monoidal", "fgl.rescale.psi_alpha",
        "fgl.deformation.a0", "fgl.deformation.a1"}


def test_phi_q_hom_passes():
    P = QPoly()
    f = phi_q_hom(P, 2, 8)
    assert verify_hom(f)["ok"]
    f = phi_q_hom(P, 3, 8)
    assert verify_hom(f)["ok"]


def test_identity_hom_passes():
    Z = ExactInt()
    F = multiplicative_law(Z, 8)
    z = TruncSeries.var(Z, ("z",), 8, "z")
    assert verify_hom(FGLHom(z, F, F, check=False))["ok"]


def test_hom_factors_through_rescaling():
    # a hom into the original law whose series vanishes mod alpha factors
    # through multiplication by alpha, by exact division of the series
    P = QPoly()
    h = h_element(P)
    F = multiplicative_law(P, 8)
    Fh = rescale(F, h)
    g = n_series(Fh, 2)
    f = FGLHom(g.series.map_coeffs(lambda c: P.mul(h, c)), Fh, F, check=False)
    assert verify_hom(f)["ok"]
    # divide the series by alpha = h coefficientwise, remainder must vanish
    divided = {}
    for e, c in f.series.coeffs.items():
        assert P.scalar.is_zero(c[0])
        divided[e] = c[1:]
    g_recovered = FGLHom(TruncSeries(P, ("z",), divided, 8), Fh, Fh)
    assert verify_hom(g_recovered)["ok"]
    assert g_recovered.series == g.series


@pytest.mark.parametrize("error, failing", [
    (IdentityFailed("unit axiom fails"), "fgl.axioms.additive"),
    (TypeError("a law builder broke"), "fgl.axioms.error")])
def test_axiom_suite_reports_broken_axioms_and_surfaces_bugs(
        monkeypatch, error, failing):
    # a broken axiom is a failed check of its law; any other exception is
    # a bug, reported as the suite's error check
    from prismlab import harness

    def law(series):
        raise error
    monkeypatch.setattr(harness, "FormalGroupLaw", law)
    report, code = run(SuiteConfig(suite="fgl.axioms"))
    bad = {c["id"]: c["detail"] for c in report["checks"]
           if c["status"] != "pass"}
    assert code == 1 and failing in bad and str(error) in bad[failing]
    assert ("fgl.axioms.error" in bad) == isinstance(error, TypeError)

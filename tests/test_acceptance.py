"""Acceptance criteria: one test per numbered criterion, one printed
pass/fail line each.  All tolerances are zero: every assertion is an exact
equality at the stated truncation.  A criterion is a named group of verify
suites (harness.CRITERIA); its test runs `verify --suite criteria.N`, which
runs the member suites once each and passes when all their checks pass."""
from prismlab.harness import SuiteConfig, run


def _run(num):
    report, code = run(SuiteConfig(suite="criteria.%d" % num))
    crit = report["checks"][-1]
    assert crit["id"] == "criteria.%d" % num
    print("[%s] criterion %d: %s" % (crit["status"].upper(), num,
                                      crit["detail"]))
    assert code == 0, "criterion %d failed (%s)" % (num, crit["detail"])
    return report


def test_criterion_01_witt_kernel():
    _run(1)


def test_criterion_02_derham_isomorphism():
    _run(2)


def test_criterion_03_char_p_discrepancy():
    report = _run(3)
    # every kernel vector over F_p[a]/(a^3): x_i with x_i^p = 0, 2^3 and 9^3
    details = {c["id"]: c["detail"] for c in report["checks"]}
    assert details["derham.discrepancy.p2"] == "exhaustive over 8 kernel vectors"
    assert details["derham.discrepancy.p3"] == "exhaustive over 729 kernel vectors"


def test_criterion_04_canonical_point():
    _run(4)


def test_criterion_05_q_exponential():
    _run(5)


def test_criterion_06_hopf_algebra():
    _run(6)


def test_criterion_07_eigen_embeddings():
    _run(7)


def test_criterion_08_pd_duality():
    _run(8)


def test_criterion_09_integer_valued():
    _run(9)


def test_criterion_10_equivariance():
    _run(10)


def test_criterion_11_hodge_tate():
    _run(11)


def test_criterion_12_group_laws():
    _run(12)

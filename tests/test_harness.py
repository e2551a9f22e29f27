import json
import os
import subprocess
import sys

import pytest

import prismlab
from prismlab import harness
from prismlab.harness import (
    CRITERIA, ConfigError, SuiteConfig, check_stream, list_suites, run,
    select_criteria, select_suites, strip_elapsed,
)


def fast_cfg(**kw):
    base = dict(trials=3, seed=11, n_p=4, n_q=4, n_z=6, L=3, N_big=8)
    base.update(kw)
    return SuiteConfig(**base)


def test_list_suites_contents():
    listing = list_suites()
    assert len(listing) >= 20
    assert "qprism.canonical_point — Prop p:formula for tilde x" in listing
    assert "pd_dual.log_sharp — Lemma l:factorization of log" in listing
    assert ("criteria.2 — Lemma l:G_dR=W^{F=p} — runs derham.log_exp, "
            "derham.frobenius_power") in listing


def test_select_by_prefix():
    assert len(select_suites("derham")) == 5
    assert len(select_suites("qprism.sigma")) == 1
    with pytest.raises(ConfigError):
        select_suites("nonsense")
    assert [s[0] for s in select_suites("criteria.6")] == [
        "qhopf.structure_constants", "qhopf.adams"]
    assert select_criteria("criteria") == list(range(1, 13))
    assert select_criteria("criteria.1") == [1]
    assert select_criteria("witt") == []


def test_criteria_members_are_registered_suites():
    ids = [sid for sid, _, _ in harness.SUITES]
    assert sorted(CRITERIA) == list(range(1, 13))
    for num, members in CRITERIA.items():
        assert members and len(set(members)) == len(members)
        assert set(members) <= set(ids), num


@pytest.fixture
def fake_suites(monkeypatch):
    """Replace every suite by one that records its call and adds one
    passing check, or fails/raises where the test says so."""
    calls: dict = {}
    behaviour: dict = {}

    def fake(sid):
        def suite(cfg, checks):
            calls[sid] = calls.get(sid, 0) + 1
            if behaviour.get(sid) == "raise":
                raise RuntimeError("boom")
            checks.append({"id": sid + ".x", "paper_ref": "-",
                           "status": "fail" if behaviour.get(sid) == "fail"
                           else "pass", "detail": ""})
        return suite

    monkeypatch.setattr(harness, "SUITES", [
        (sid, ref, fake(sid)) for sid, ref, _ in harness.SUITES])
    return calls, behaviour


def _criteria_status(report):
    return {c["id"]: c["status"] for c in report["checks"]
            if c["id"].startswith("criteria.")}


def test_failing_member_check_fails_only_its_criterion(fake_suites):
    _, behaviour = fake_suites
    behaviour["derham.discrepancy"] = "fail"
    report, code = run(SuiteConfig(suite="criteria"))
    assert code == 1
    status = _criteria_status(report)
    assert len(status) == 12
    assert [k for k, v in status.items() if v == "fail"] == ["criteria.3"]
    crit3 = next(c for c in report["checks"] if c["id"] == "criteria.3")
    assert crit3["detail"] == "failing: derham.discrepancy.x"


def test_raising_member_suite_fails_its_criterion(fake_suites):
    _, behaviour = fake_suites
    behaviour["qprism.hodge_tate"] = "raise"
    report, code = run(SuiteConfig(suite="criteria.11"))
    assert code == 1
    assert [c["id"] for c in report["checks"]] == [
        "qprism.hodge_tate.error", "criteria.11"]
    assert report["checks"][-1]["status"] == "fail"
    report, code = run(SuiteConfig(suite="criteria.12"))
    assert code == 0 and _criteria_status(report) == {"criteria.12": "pass"}


@pytest.mark.parametrize("suite", ["criteria", "all"])
def test_each_member_suite_runs_once(fake_suites, suite):
    calls, _ = fake_suites
    report, code = run(SuiteConfig(suite=suite))
    assert code == 0
    members = {sid for group in CRITERIA.values() for sid in group}
    expected = members if suite == "criteria" else {
        sid for sid, _, _ in harness.SUITES}
    assert calls == {sid: 1 for sid in expected}
    ids = [c["id"] for c in report["checks"]]
    assert ids[-12:] == ["criteria.%d" % n for n in range(1, 13)]
    assert len(ids) == len(expected) + 12


def test_series_compose_runs_at_least_one_trial(monkeypatch):
    from prismlab.ringcore import TruncSeries
    calls = []
    compose = TruncSeries.compose

    def counting(self, g):
        calls.append(g)
        return compose(self, g)

    monkeypatch.setattr(TruncSeries, "compose", counting)
    checks = harness.suite_ringcore_series(fast_cfg(trials=1), [])
    assert calls
    assert [c["status"] for c in checks] == ["pass"] * 3


def test_p_must_be_prime():
    with pytest.raises(ConfigError):
        run(fast_cfg(suite="fgl", p=4))


def test_run_exit_code_and_schema():
    report, code = run(fast_cfg(suite="fgl.deformation"))
    assert code == 0
    assert report["schema"] == "prismlab-report/1"
    assert report["failed"] == 0
    for c in report["checks"]:
        assert set(c) >= {"id", "paper_ref", "status", "detail", "elapsed"}


def test_determinism():
    r1, _ = run(fast_cfg(suite="intpoly.basis"))
    r2, _ = run(fast_cfg(suite="intpoly.basis"))
    assert json.dumps(strip_elapsed(r1)) == json.dumps(strip_elapsed(r2))


def test_check_streams_independent():
    a = check_stream(1, "x").randrange(1 << 30)
    b = check_stream(1, "y").randrange(1 << 30)
    c = check_stream(2, "x").randrange(1 << 30)
    assert len({a, b, c}) == 3
    assert check_stream(1, "x").randrange(1 << 30) == a


def run_cli(*args):
    # the child imports the same prismlab as this process, installed or not
    src = os.path.dirname(os.path.dirname(prismlab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "prismlab.harness", *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))


def test_cli_smoke():
    out = run_cli("--suite", "fgl.deformation", "--trials", "2",
                  "--format", "json")
    assert out.returncode == 0
    rep = json.loads(out.stdout)
    assert rep["failed"] == 0


def test_cli_bad_p():
    out = run_cli("--p", "1")
    assert out.returncode == 2
    assert "p must be prime" in out.stderr


@pytest.mark.parametrize("flag, value, field", [
    ("--padic-prec", "0", "n_p"), ("--q-prec", "0", "n_q"),
    ("--series-order", "-1", "n_z"), ("--witt-len", "0", "L"),
    ("--bigwitt", "0", "N_big"), ("--trials", "0", "trials"),
    ("--trials", "-3", "trials"),
])
def test_cli_rejects_invalid_config(flag, value, field):
    out = run_cli("--suite", "witt.ghost", flag, value)
    assert out.returncode == 2
    assert "error: %s must be >= 1" % field in out.stderr
    assert out.stdout == ""

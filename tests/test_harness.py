import hashlib
import itertools
import json
import os
import subprocess
import sys
import time

import pytest

import prismlab
from prismlab import harness
from prismlab.harness import (
    CRITERIA, ConfigError, SuiteConfig, check_stream, list_suites, plan, run,
    select_criteria, select_suites, strip_elapsed,
)
from prismlab.ringcore import ModP, PolyQuotRing


def fast_cfg(**kw):
    # precision fields stay None: each suite runs at its own values
    return SuiteConfig(**{"trials": 3, "seed": 11, **kw})


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
    ids = [sid for sid, _, _, _ in harness.SUITES]
    assert sorted(CRITERIA) == list(range(1, 13))
    for num, (ref, members) in CRITERIA.items():
        assert ref and members and len(set(members)) == len(members)
        assert set(members) <= set(ids), num


@pytest.fixture
def fake_suites(monkeypatch):
    """Replace every suite by one that records its call and adds one
    passing check, or fails/raises where the test says so."""
    calls: dict = {}
    behaviour: dict = {}

    def fake(sid):
        def suite(cfg, out):
            calls[sid] = calls.get(sid, 0) + 1
            if behaviour.get(sid) == "raise":
                raise RuntimeError("boom")
            out.check(sid + ".x", behaviour.get(sid) != "fail", ref="-")
        return suite

    monkeypatch.setattr(harness, "SUITES", [
        (sid, ref, fake(sid), params)
        for sid, ref, _, params in harness.SUITES])
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
    members = {sid for _, group in CRITERIA.values() for sid in group}
    expected = members if suite == "criteria" else {
        sid for sid, _, _, _ in harness.SUITES}
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
    report, _ = run(fast_cfg(suite="ringcore.series_arith", trials=1))
    assert calls
    assert [c["status"] for c in report["checks"]] == ["pass"] * 3


def test_trials_stop_at_first_failing_trial():
    calls = []

    def trial(rng):
        calls.append(rng.random())
        return len(calls) != 4          # index 3 fails

    out = harness.Recorder(fast_cfg(trials=10, seed=7), "ref")
    out.trials("x.check", 50, trial)
    assert len(calls) == 4
    [check] = out.checks
    assert check["status"] == "fail" and check["paper_ref"] == "ref"
    assert check["detail"] == "failed at trial index 3 of 10 trials, seed 7"
    # the trials drew from the check's own stream
    rng = check_stream(7, "x.check")
    assert calls == [rng.random() for _ in range(4)]


def test_trials_over_primes_share_one_stream():
    seen = []

    def trial(rng, p):
        seen.append((p, rng.random()))
        return p != 3 or len(seen) < 4

    out = harness.Recorder(fast_cfg(trials=2, seed=1), "ref")
    out.trials("x.check", 5, trial, "x", primes=(2, 3, 5), ref="own")
    rng = check_stream(1, "x")
    assert seen == [(p, rng.random()) for p in (2, 2, 3, 3)]
    [check] = out.checks
    assert check["paper_ref"] == "own"
    assert check["detail"] == "failed at p=3, trial index 1 of 2 trials, seed 1"


def test_trials_then_runs_after_passing_trials():
    out = harness.Recorder(fast_cfg(trials=None, seed=2), "ref")
    order = []
    out.trials("a", 3, lambda rng: order.append("t") or True,
               then=lambda rng: order.append("then") or True)
    out.trials("b", 3, lambda rng: True, then=lambda rng: False)
    out.trials("c", 3, lambda rng: False, then=lambda rng: order.append("x"))
    assert order == ["t", "t", "t", "then"]
    assert [(c["status"], c["detail"]) for c in out.checks] == [
        ("pass", ""), ("fail", "failed after 3 passing trials, seed 2"),
        ("fail", "failed at trial index 0 of 3 trials, seed 2")]


@pytest.mark.parametrize("sid, predicate", [
    ("witt.wf_kernel", "f_kernel_lemma"), ("pd_dual.mu_p", "mu_p_in_pd_hull"),
    ("pd_dual.gsharp", "gsharp_reduces")])
def test_library_checks_fail_at_a_named_trial(monkeypatch, sid, predicate):
    # the library judges one draw; Recorder.trials names the failing one
    calls = []
    real = getattr(harness, predicate)

    def fails_at_trial_2(*args):
        calls.append(args)
        return len(calls) != 3 and real(*args)

    monkeypatch.setattr(harness, predicate, fails_at_trial_2)
    report, code = run(SuiteConfig(suite=sid, p=2, trials=5, seed=9))
    [check] = report["checks"]
    assert code == 1 and check["status"] == "fail" and len(calls) == 3
    assert check["detail"] == "failed at trial index 2 of 5 trials, seed 9"


def test_elapsed_is_each_checks_own_interval(monkeypatch):
    now = [100.0]
    monkeypatch.setattr(harness.time, "monotonic", lambda: now[0])

    def timed(cfg, out):
        for cid, seconds in (("a", 1.5), ("b", 0.25), ("c", 2.0)):
            now[0] += seconds
            out.check(cid, True)

    monkeypatch.setattr(harness, "SUITES", [("t", "-", timed, {})])
    report, code = run(SuiteConfig(suite="t"))
    assert code == 0
    assert [c["elapsed"] for c in report["checks"]] == [1.5, 0.25, 2.0]


def test_suite_config_validates():
    # p = 5 is accepted; p = 4 and n_p = 0 are rejected, with exit code 2
    # through the CLI (test_cli_bad_p, test_cli_rejects_invalid_config)
    SuiteConfig(p=5).validate()
    assert run(fast_cfg(suite="fgl.deformation", p=5))[1] == 0
    for bad in (dict(p=4), dict(p=2, n_p=0)):
        with pytest.raises(ConfigError):
            SuiteConfig(**bad).validate()
        with pytest.raises(ConfigError):
            run(fast_cfg(suite="fgl.deformation", **bad))


def test_every_suite_registers_once():
    ids = [sid for sid, _, _, _ in harness.SUITES]
    assert len(ids) == len(set(ids)) == 43
    for sid, ref, fn, _ in harness.SUITES:
        assert fn.__name__.startswith("suite_") and ref
        assert getattr(harness, fn.__name__) is fn


def test_p_must_be_prime():
    with pytest.raises(ConfigError):
        run(fast_cfg(suite="fgl", p=4))


def test_run_exit_code_and_schema():
    report, code = run(fast_cfg(suite="fgl.deformation"))
    assert code == 0
    assert report["schema"] == "prismlab-report/2"
    assert report["failed"] == 0
    for c in report["checks"]:
        assert set(c) >= {"id", "paper_ref", "status", "detail", "params",
                          "elapsed"}
        assert c["params"] == {"n_z": 8}


# The values each suite runs with under the default config; the suites
# not listed read no precision field.
DEFAULT_PARAMS = {
    "ringcore.series_arith": {"n_z": 8},
    "ringcore.padic_log": {"n_p": 6},
    "witt.ghost": {"L": 4},
    "witt.universal": {"L": 4},
    "witt.frobenius": {"L": 4, "N_big": 12},
    "witt.joyal_lift": {"L": 3},
    "fgl.axioms": {"n_z": 8},
    "fgl.rescale": {"n_z": 8},
    "fgl.deformation": {"n_z": 8},
    "pd_dual.exact_sequence": {"n_p": 6},
    "cartier_witt.universal_pairing": {"n_z": 8},
    "cartier_witt.eigen": {"N_big": 12},
    "cartier_witt.psi": {"N_big": 12},
    "cartier_witt.m_series": {"n_z": 6},
    "derham.log_exp": {"L": (2, 3, 4), "n_p": (4, 6)},
    "derham.frobenius_power": {"n_p": 6, "L": 3},
    "derham.id_minus_v": {"n_p": 6, "L": 4},
    "qprism.group_law": {"n_p": 4, "n_q": 4},
    "qprism.sigma": {"n_p": 4, "n_q": 4},
    "qprism.q_exponential": {"n_p": 4, "n_q": 4},
    "qprism.canonical_point": {"n_p": 4, "n_q": 4},
    "qprism.q_log": {"n_q": 4, "n_p": 6},
    "qprism.zp_action": {"n_p": 6, "n_q": 6, "n_z": 6},
    "qprism.hodge_tate": {"n_p": 6, "n_z": 5},
}


def test_default_params_of_every_suite():
    got = {sid: cfg.precision() for sid, _, _, cfg in plan(SuiteConfig())}
    assert len(got) == 43
    assert {sid: v for sid, v in got.items() if v} == DEFAULT_PARAMS
    for p in (2, 3):
        [(_, _, _, cfg)] = plan(SuiteConfig(suite="qprism.q_log", p=p))
        assert cfg.precision() == {"n_q": 4, "n_p": 6}


def test_suites_run_with_their_params(monkeypatch):
    seen = {}

    def spy(sid):
        def suite(cfg, out):
            seen[sid] = {f: getattr(cfg, f) for f in harness.PRECISION}
            out.check(sid + ".x", True)
        return suite

    monkeypatch.setattr(harness, "SUITES", [
        (sid, ref, spy(sid), params)
        for sid, ref, _, params in harness.SUITES])
    report, _ = run(SuiteConfig(suite="qprism"))
    assert seen["qprism.q_log"] == dict(n_p=6, n_q=4, n_z=None, L=None,
                                        N_big=None)
    assert {c["id"]: c["params"] for c in report["checks"]}[
        "qprism.zp_action.x"] == {"n_p": 6, "n_q": 6, "n_z": 6}


@pytest.mark.parametrize("cfg, params", [
    (dict(suite="witt.ghost", L=2), {"L": 2}),
    (dict(suite="fgl.deformation", n_z=6), {"n_z": 6}),
    (dict(suite="derham.log_exp", L=3), {"L": (3,), "n_p": (4, 6)}),
    (dict(suite="derham.log_exp", p=3, L=4, n_p=40),
     {"L": (4,), "n_p": (40,)}),
    (dict(suite="qprism.q_log", p=3, n_p=4), {"n_q": 4, "n_p": 4}),
    (dict(suite="witt.universal", p=3, L=5), {"L": 5}),
    (dict(suite="qprism.hodge_tate", n_p=8), {"n_p": 8, "n_z": 5}),
])
def test_explicit_values_in_range_are_honoured(cfg, params):
    [(_, _, _, filled)] = plan(SuiteConfig(**cfg))
    assert filled.precision() == params


@pytest.mark.parametrize("cfg, reason", [
    (dict(suite="witt.ghost", L=5), "witt.ghost: L = 5 is outside its "
     "range [1, 4]"),
    (dict(suite="fgl", n_z=7), "fgl.axioms: n_z = 7 is outside its range "
     "[8, inf]"),
    # q_log loses 4 digits at p = 2, n_q = 4 and keeps 2
    (dict(suite="qprism.q_log", n_p=5), "qprism.q_log: n_p = 5 is outside "
     "its range [6, 6]"),
    (dict(suite="qprism.q_log", n_q=8), "qprism.q_log: n_q = 8 is outside "
     "its range [1, 4]"),
    (dict(suite="derham.log_exp", L=5), "derham.log_exp: L = 5 is outside "
     "its range [2, 4]"),
    (dict(suite="witt.universal", p=2, L=7), "witt.universal: L = 7 is "
     "outside its range: the add table for p=2, L=7"),
    (dict(suite="fgl.deformation", n_p=4), "n_p = 4 is read by no selected "
     "suite"),
    (dict(suite="all", p=5, L=4), "witt.joyal_lift: L = 4 is outside its "
     "range [1, 3]"),
    # additivity sees the (zeta-1) z1 z2 term of the law from order 2 on
    (dict(suite="qprism.hodge_tate", n_z=1), "qprism.hodge_tate: n_z = 1 is "
     "outside its range [2, inf]"),
    # at L = 1 the Teichmuller condition on 1 + px is empty: x is any
    # element of Z/p^n and g_exp's series need not converge
    (dict(suite="derham.log_exp", L=1), "derham.log_exp: L = 1 is outside "
     "its range [2, 4]"),
])
def test_plan_refuses(cfg, reason):
    with pytest.raises(ConfigError) as err:
        plan(SuiteConfig(**cfg))
    assert str(err.value).startswith(reason)


def test_determinism():
    r1, _ = run(fast_cfg(suite="intpoly.basis"))
    r2, _ = run(fast_cfg(suite="intpoly.basis"))
    assert json.dumps(strip_elapsed(r1)) == json.dumps(strip_elapsed(r2))


# sha256 of json.dumps(strip_elapsed(report), indent=2) for
# run(SuiteConfig(suite="all", trials=1, seed=0)).  It pins every check id
# and its order, status, detail, paper_ref and params, and the run's params.
GOLDEN_ALL_TRIALS1 = (
    "65c9a6ea9c5d1d259dd80482982b050dc696672813291700a55c8d13733afeb1")


def test_golden_report():
    report, code = run(SuiteConfig(suite="all", trials=1, seed=0))
    assert code == 0 and len(report["checks"]) == 130
    text = json.dumps(strip_elapsed(report), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_ALL_TRIALS1
    # each check is timed on its own: 729 kernel vectors take longer than 8
    elapsed = {c["id"]: c["elapsed"] for c in report["checks"]}
    assert elapsed["derham.discrepancy.p3"] > elapsed["derham.discrepancy.p2"]


@pytest.mark.parametrize("p,total", [(5, 15625), (7, 117649)])
def test_discrepancy_samples_its_kernel_vectors_from_p5(monkeypatch, p, total):
    # p^6 kernel vectors: from p = 5 on, cfg.count(729) of them drawn from
    # the check's own stream, which the detail names by its seed
    drawn = []
    check = harness.discrepancy_check

    def recording(ring, p_, L, xs):
        drawn.extend(x.components for x in xs)
        return check(ring, p_, L, xs)

    monkeypatch.setattr(harness, "discrepancy_check", recording)
    report, code = run(SuiteConfig(suite="derham.discrepancy", p=p, trials=3,
                                   seed=7))
    [c] = report["checks"]
    assert code == 0 and c["status"] == "pass"
    assert c["detail"] == "sampled 3 of %d kernel vectors, seed 7" % total
    R = PolyQuotRing(ModP(p, 1), (0, 0, 0, 1), "a")
    nilp = [R.make_ints(v) for v in itertools.product(range(p), repeat=3)
            if v[0] == 0]       # c^p = 0 in F_p[a]/(a^3): no constant term
    every = list(itertools.product(nilp, repeat=3))
    assert len(every) == total
    stream = check_stream(7, "derham.discrepancy.p%d" % p)
    assert drawn == stream.sample(every, 3)


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
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path))


def test_cli_smoke():
    out = run_cli("--suite", "fgl.deformation", "--trials", "2",
                  "--format", "json")
    assert out.returncode == 0
    rep = json.loads(out.stdout)
    assert rep["failed"] == 0


def test_main_called_twice_in_one_process_matches_separate_runs(tmp_path):
    # the parser is built once at import; no flag of the first call may
    # reach the second, whose omitted flags take their defaults
    calls = [("--suite", "fgl.deformation", "--trials", "2", "--seed", "5"),
             ("--suite", "intpoly.basis")]
    for i, args in enumerate(calls):
        path = tmp_path / ("%d.json" % i)
        argv = [*args, "--format", "json", "--out", str(path)]
        assert harness.main(argv) == 0
        alone = run_cli(*args, "--format", "json")
        assert alone.returncode == 0
        assert (strip_elapsed(json.loads(path.read_text()))
                == strip_elapsed(json.loads(alone.stdout)))


def test_cli_unwritable_out(tmp_path):
    path = tmp_path / "missing" / "x.json"
    out = run_cli("--suite", "fgl.deformation", "--out", str(path))
    assert out.returncode == 2
    assert out.stderr.startswith("error: ")
    assert "No such file or directory" in out.stderr
    assert out.stdout == "" and not path.exists()


def test_cli_refuses_an_infeasible_universal_table():
    start = time.monotonic()
    out = run_cli("--suite", "witt.universal", "--p", "7", "--trials", "1")
    assert time.monotonic() - start < 2
    assert out.returncode == 2 and out.stdout == ""
    for part in ("witt.universal", "p=7, L=4", "706814", "200000"):
        assert part in out.stderr


def test_witt_universal_honours_witt_len(monkeypatch):
    lengths = []

    def spy(a, b, op):
        lengths.append(a.L)
        return harness.witt_op(a, b, op)

    monkeypatch.setattr(harness, "witt_op_universal", spy)
    assert run(fast_cfg(suite="witt.universal", p=2, L=5, trials=2))[1] == 0
    assert lengths and set(lengths) == {5}


@pytest.mark.parametrize("args, reason", [
    (("--suite", "qprism.q_log", "--q-prec", "8"),
     "error: qprism.q_log: n_q = 8 is outside its range [1, 4]\n"),
    (("--suite", "witt.ghost", "--witt-len", "6"),
     "error: witt.ghost: L = 6 is outside its range [1, 4]\n"),
    (("--suite", "intpoly", "--bigwitt", "12"),
     "error: N_big = 12 is read by no selected suite\n"),
    # the third Frobenius of eigen_II needs N_big >= 9, and the composition
    # F_2 F_3 = F_6 of witt.frobenius_big needs N_big >= 6
    (("--suite", "cartier_witt.eigen", "--bigwitt", "8"),
     "error: cartier_witt.eigen: N_big = 8 is outside its range [9, inf]\n"),
    (("--suite", "witt.frobenius", "--bigwitt", "5"),
     "error: witt.frobenius: N_big = 5 is outside its range [6, inf]\n"),
    # eigencheck_II applies F_2 to psi_map's output, of order N_big // 2
    (("--suite", "cartier_witt.psi", "--bigwitt", "3"),
     "error: cartier_witt.psi: N_big = 3 is outside its range [4, inf]\n"),
    # over F_p sample_gdr's digit branches reach dead ends
    (("--suite", "derham.log_exp", "--padic-prec", "1", "--p", "5"),
     "error: derham.log_exp: n_p = 1 is outside its range [2, inf]\n"),
    (("--suite", "derham.frobenius_power", "--padic-prec", "1", "--p", "7"),
     "error: derham.frobenius_power: n_p = 1 is outside its range [2, 6]\n"),
])
def test_cli_refuses_a_value_no_suite_honours(args, reason):
    out = run_cli(*args)
    assert out.returncode == 2
    assert out.stdout == "" and out.stderr == reason


@pytest.mark.parametrize("cfg", [
    dict(suite="cartier_witt.psi", N_big=4),
    *(dict(suite=s, p=p, n_p=2) for s in ("derham.log_exp",
                                          "derham.frobenius_power")
      for p in (5, 7)),
])
def test_lowest_honoured_value_passes(cfg):
    assert run(fast_cfg(**cfg))[1] == 0


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

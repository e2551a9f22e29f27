import json
import os
import subprocess
import sys

import pytest

import prismlab
from prismlab.harness import (
    ConfigError, SuiteConfig, check_stream, list_suites, run, select_suites,
    strip_elapsed,
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


def test_select_by_prefix():
    assert len(select_suites("derham")) == 5
    assert len(select_suites("qprism.sigma")) == 1
    with pytest.raises(ConfigError):
        select_suites("nonsense")


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

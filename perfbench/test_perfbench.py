"""The benchmark's own tests: self time, the tail-percentile rule, seeded
inputs, failure accounting and the tracer's rebinding.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import os
import sys
from array import array

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import bench_round  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _columns(rows):
    """Span columns from (name id, start, end, parent, flag) rows."""
    cols = {c: array(spans.TYPECODES[c]) for c in spans.COLUMNS}
    for name, start, end, parent, flag in rows:
        for c, v in zip(spans.COLUMNS, (name, start, end, parent, 0, flag, 0)):
            cols[c].append(v)
    return cols


def test_self_time_on_synthetic_tree():
    # root [0, 100] with children a [10, 40] (itself parent of g [20, 30]),
    # b [50, 90] and c [80, 95]; b and c overlap on [80, 90], counted once
    cols = _columns([(0, 0, 100, -1, 0), (0, 10, 40, 0, 0),
                     (0, 20, 30, 1, 0), (0, 50, 90, 0, 0),
                     (0, 80, 95, 0, 0)])
    assert list(spans.self_times(cols)) == [25, 20, 10, 40, 15]


def test_self_time_ignores_span_order():
    # parents refer to indices: span 1 is the root, span 2 its child and
    # span 0 a grandchild
    cols = _columns([(0, 20, 30, 2, 0), (0, 0, 100, -1, 0),
                     (0, 10, 40, 1, 0)])
    assert list(spans.self_times(cols)) == [10, 70, 20]


def test_layer_metrics_from_spans():
    names = ["witt.witt_op", "ringcore.PolyQuotRing.mul", "derham.f_log"]
    cols = _columns([(2, 0, 1000, -1, spans.ERROR),
                     (0, 100, 600, 0, 0),
                     (1, 200, 300, 1, spans.Z_SCALARS),
                     (1, 300, 350, 1, spans.Q_SCALARS)])
    m = spans.layer_metrics(names, cols)
    assert m["witt.witt_op.calls"] == 1
    assert m["witt.witt_op.self_s"] == pytest.approx(350e-9)
    assert m["ringcore.polyquot_mul_z.calls"] == 1
    assert m["ringcore.polyquot_mul_q.self_s"] == pytest.approx(50e-9)
    assert m["derham.self_s"] == pytest.approx(500e-9)
    assert m["derham.errors"] == 1 and m["witt.errors"] == 0
    assert set(m) | {"harness.checks", "harness.checks_failed",
                     "trace_overhead"} == set(spans.metric_units())


def test_tail_percentile_needs_ten_beyond():
    with pytest.raises(run.BenchError):
        run.tail_percentile(range(1, 100))
    assert run.tail_percentile(range(1, 101)) == 90
    samples = list(range(1, 201))
    p90 = run.tail_percentile(samples)
    assert sum(1 for x in samples if x > p90) >= 10


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    a = workloads.make_inputs(workload, 7)
    assert a == workloads.make_inputs(workload, 7)
    assert a != workloads.make_inputs(workload, 8)
    # every round of a run draws its own inputs, the same on every run
    b = workloads.make_inputs(workload, 7, 1)
    assert b == workloads.make_inputs(workload, 7, 1) and b != a


def test_kernel_vectors_match_reference_counts():
    refs = workloads.load_references()
    for p in (2, 3):
        assert len(workloads.kernel_vectors(p)) == \
            refs["discrepancy"][str(p)]["count"]


def test_wrong_result_counts_in_fail_frac(tmp_path):
    from prismlab import witt
    tasks = [t for t in workloads.build_tasks(
        "witt_tables", workloads.make_inputs("witt_tables", 1), str(tmp_path))
        if t.group.endswith("/2/3")]
    outs = [t.run()[1] for t in tasks]
    outs[1] = witt.witt_universal("add", 2, 3)   # the wrong table
    oks, failures, _ = bench_round.certify("witt_tables", tasks, [True] * 4,
                                           outs, [None] * 4)
    assert oks == [True, False, True, True] and len(failures) == 1
    round_ = {"latencies_s": [1e-3] * 120, "wall_s": 0.12, "rss_mb": 1.0,
              "refs": [run.REF_S] * 121, "ok": oks + [True] * 116}
    assert run.end_to_end([round_], [0.1])["pass_frac"] == 1 - 1 / 120


def test_task_times_scale_with_local_reference_speed():
    # 120 tasks of 1 ms; the host runs at full speed for the first 60 and
    # at half speed for the rest, where tasks and reference times double
    half = [1.0] * 60 + [2.0] * 60
    round_ = {"latencies_s": [1e-3 * f for f in half], "rss_mb": 30.0,
              "refs": [run.REF_S * f for f in half + [2.0]],
              "ok": [True] * 120}
    round_["wall_s"] = sum(round_["latencies_s"])
    scaled = run.scaled_latencies(round_)
    # only tasks within REF_WINDOW of the change see both speeds
    assert scaled[:58] == pytest.approx([1e-3] * 58)
    assert scaled[62:] == pytest.approx([1e-3] * 58)
    m = run.end_to_end([round_], [0.3, 0.4, 0.6])
    assert m["task_p50_ms"] == pytest.approx(1.0)
    # set-up is scaled by the median of all the run's reference times, 2 ms
    assert m["setup_s"] == pytest.approx(0.2)
    measured = run.end_to_end([round_], [0.3, 0.4, 0.6], scaled=False)
    assert measured["setup_s"] == 0.4
    assert measured["wall_s"] == pytest.approx(0.18)
    assert measured["task_p90_ms"] == pytest.approx(2.0)


def test_long_task_scaled_by_reference_times_over_its_length():
    # a 50 ms task among 1 ms ones is scaled by the ~50 reference times on
    # each side, not by the slow three nearest to it
    lats = [1e-3] * 120
    lats[20] = 0.05
    refs = [run.REF_S * (3.0 if i in (19, 20, 21, 22) else 1.0)
            for i in range(121)]
    scaled = run.scaled_latencies({"latencies_s": lats, "refs": refs})
    assert scaled[20] == pytest.approx(0.05)


def test_tracer_rebinds_and_restores(tmp_path):
    from prismlab import derham, harness, ringcore, witt
    original = derham.witt_op
    suites = list(harness.SUITES)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert derham.witt_op is witt.witt_op and derham.witt_op is not original
        assert harness.SUITES != suites
        R = ringcore.ModP(2, 4)
        derham.one_plus_p_x(witt.WittVector(R, 2, [2, 4]))
    finally:
        tracer.uninstall()
    assert derham.witt_op is original and harness.SUITES == suites
    names = [tracer.names[i] for i in tracer.cols["name"]]
    assert names[:2] == ["ringcore.ModP", "ringcore.is_prime"]
    assert names[2] == "derham.one_plus_p_x"
    assert "witt.scalar_mul" in names and "witt.witt_op" in names
    assert tracer.cols["parent"][2] == -1
    assert all(p >= 2 for p in tracer.cols["parent"][3:])
    path = str(tmp_path / "spans")
    tracer.dump(path)
    assert spans.load(path) == (tracer.names, tracer.cols)

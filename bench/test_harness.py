"""Self-tests for the benchmark harness's pure parts.

    python3 -m pytest -q bench

They cover self-time arithmetic on synthetic nested spans, the metric-name
charset and BENCHMARK.json's agreement with what the harness prints, and the
base of failed_share, and that the XOR oracle's numpy reference tracks npde's
training for 200 epochs. No workload is run.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_self_time_subtracts_direct_children_only():
    # root [0,10] -> a [1,3], b [4,8] -> c [5,6]
    parent = np.array([-1, 0, 0, 2])
    start = np.array([0.0, 1.0, 4.0, 5.0])
    end = np.array([10.0, 3.0, 8.0, 6.0])
    assert spans.self_times(parent, start, end).tolist() == [4.0, 2.0, 3.0, 1.0]


def test_aggregate_sums_self_time_and_calls_per_name():
    names = ["outer", "inner"]
    name_id = np.array([0, 1, 1, 0])
    parent = np.array([-1, 0, 0, -1])
    start = np.array([0.0, 1.0, 3.0, 10.0])
    end = np.array([5.0, 2.0, 4.5, 11.0])
    agg = spans.aggregate(names, name_id, parent, start, end)
    assert agg["outer"][0] == 2 and agg["outer"][1] == pytest.approx(2.5 + 1.0)
    assert agg["inner"][0] == 2 and agg["inner"][1] == pytest.approx(2.5)


def test_tracer_records_nesting_and_counters_only_while_enabled():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1,
                        after=lambda counters, args, kwargs, result: counters.__setitem__(
                            "seen", counters["seen"] + result))
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4 and len(tracer.start) == 0
    tracer.enabled = True
    assert outer(1) == 4
    tracer.enabled = False
    name_id, parent, start, end = tracer.arrays()
    assert [tracer.names[i] for i in name_id] == ["outer", "inner"]
    assert parent.tolist() == [-1, 0]
    assert start[0] <= start[1] <= end[1] <= end[0]
    assert tracer.counters["seen"] == 2


def test_metric_names_use_the_allowed_charset():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.fullmatch(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
    assert not METRIC_NAME.fullmatch("bad name")
    assert not METRIC_NAME.fullmatch(".leading-dot")


def test_benchmark_json_matches_what_the_harness_prints():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    printed = set(spans.layer_metrics({}, {})) | {"trace.overhead_s", "trace.spans"}
    assert {m["name"] for m in SPEC["per_layer"]} == printed
    for m in SPEC["per_layer"]:
        assert m["unit"] == spans.unit(m["name"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def _worker_result(attempted, failed, wall, layers=None):
    res = {"attempted": attempted, "failed": failed, "wall_s": wall, "setup_s": 0.2,
           "cpu_s": wall, "peak_rss_mib": 40.0, "op_seconds": {}, "extra": {},
           "versions": {}, "checks": [{"name": "x", "passed": failed == 0}]}
    if layers is not None:
        res.update(layers=layers, spans=10)
    return res


def test_failed_share_counts_operations_of_every_run_including_traced():
    runs = [_worker_result(3, 0, 1.0), _worker_result(3, 1, 2.0)]
    traced = [_worker_result(3, 0, 2.5, layers=spans.layer_metrics({}, {}))]
    result, record = run.summarize(runs, traced, [0.1, 0.2, 0.3])
    assert (result["attempted"], result["failed"], result["correct"]) == (9, 1, False)
    assert record["failed_share"] == {"value": 1 / 9, "failed": 1, "attempted": 9}
    assert result["metrics"]["trace.overhead_s"]["value"] == pytest.approx(2.5 - 1.5)


def test_untraced_result_has_exactly_the_end_to_end_metrics():
    result, record = run.summarize([_worker_result(2, 0, 1.0)], [], [0.1, 0.3, 0.2])
    assert list(result["metrics"]) == list(run.END_TO_END_UNITS)
    assert result["metrics"]["setup_s"]["value"] == 0.2
    assert record["figures"]["setup_s"]["samples"] == 3
    assert result["correct"] and record["failed_share"]["value"] == 0.0


def test_install_wraps_every_binding_of_a_function():
    # run in a child so the wrapped package never leaks into this process
    code = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import spans, npde, npde.grid as g, npde.stencil as s, npde.solver as v, npde.train as t\n"
        "tracer = spans.Tracer(); spans.install(tracer)\n"
        "assert g.pad is s.pad is v.pad is t.pad is npde.pad\n"
        "assert g.pad.__wrapped__ is not g.pad\n"
        "tracer.enabled = True\n"
        "import numpy as np; v.step_explicit(np.ones(5), s.EllipticCoefficients(np.ones(5)),\n"
        "    g.make_grid(5, 1.0, 0.1, g.periodic()))\n"
        "names = [tracer.names[i] for i in tracer.arrays()[0]]\n"
        "assert names[0] == 'solver.step_explicit' and 'grid.pad' in names, names\n"
    ) % (str(BENCH), str(BENCH.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_xor_reference_matches_npde_training_on_a_stalling_seed():
    # seed 25 never reaches criterion 7's target; the oracle must not depend on it
    sys.path.insert(0, str(BENCH.parent / "src"))
    import workloads
    from npde import optim, train

    samples = [(x, np.array([y])) for x, y in zip(workloads.XOR_X, workloads.XOR_Y)]
    model = train.Pipeline([train.DenseLayer(2, 4, workloads.sigmoid_reaction(1.0)),
                            train.DenseLayer(4, 1, workloads.sigmoid_reaction(1.0))])
    report = train.train_supervised(model, train.Dataset(samples), optim.LossSpec(),
                                    train.OptimizerConfig("adam"), seed=25, max_epochs=200,
                                    target_loss=0.0)
    ref = workloads._xor_reference_curve(25, 200)
    assert np.max(np.abs(report.loss_curve - ref) / ref) <= workloads.XOR_CURVE_RTOL

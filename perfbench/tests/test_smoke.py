"""Smoke tests for the benchmark, run apart from the package's own tests.

    python3 -m pytest perfbench/tests -q

Each workload runs at a tiny size; the tests check that every metric is
printed with its unit, that no operation fails, and that the tracer nests
spans and restores the package when it is done.
"""
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics_printed_with_units(workload):
    lines, result = run_bench(workload, 0)
    printed = {line.split()[0]: line.split()[-1] for line in lines}
    for name, unit in run.END_TO_END:
        assert printed[name] == unit
        assert result["metrics"][name]["unit"] == unit
    assert "fail_ratio 0.0 1" in lines
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_traced_run_reports_every_per_layer_metric():
    lines, result = run_bench("cli-grid", 1)
    metrics = result["metrics"]
    assert set(metrics) == {name for name, _, _ in run.PER_LAYER}
    assert all(m["value"] is not None for m in metrics.values())
    wall = metrics["trace.wall_s"]["value"]
    assert 0 <= metrics["trace.remainder_s"]["value"] < wall
    assert metrics["dsl.parse_expression.calls"]["value"] > 0
    assert any(line.startswith("dominant self time:") for line in lines)


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        doc = json.load(f)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(run.PER_LAYER)


def test_tracer_nests_recursion_and_restores_the_package():
    import lspacecert.cli  # noqa: F401
    dsl = sys.modules["lspacecert.dsl"]
    mcg = sys.modules["lspacecert.mcg"]
    originals = (dsl.eval_expression, mcg.dehn_twist, lspacecert.certify)
    t = tracer.Tracer()
    with t.installed():
        assert dsl.eval_expression is not originals[0]
        dsl.curve_from_text("psi(T(c)^2(b2))", 2)
    assert (dsl.eval_expression, mcg.dehn_twist, lspacecert.certify) == originals

    spans = t.spans
    evals = [i for i, s in enumerate(spans) if s[0] == "dsl.eval_expression"]
    nested = [i for i in evals if spans[i][3] != -1 and spans[spans[i][3]][0] == "dsl.eval_expression"]
    assert len(evals) == 4 and len(nested) == 3
    for i, (_, start, end, parent, *_rest) in enumerate(spans):
        if parent != -1:
            assert spans[parent][1] <= start <= end <= spans[parent][2]
    total_self = sum(s[2] - s[1] - s[5] for s in spans)
    root_total = sum(s[2] - s[1] for s in spans if s[3] == -1)
    assert total_self == pytest.approx(root_total, rel=1e-9, abs=1e-9)


def test_missing_target_is_reported_absent(monkeypatch):
    import lspacecert.cli  # noqa: F401
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (("mcg", "_deleted", "count"),))
    extra = (("mcg._deleted.calls", "count", "lower"),)
    monkeypatch.setattr(run, "PER_LAYER", run.PER_LAYER + extra)
    t = tracer.Tracer()
    with t.installed():
        sys.modules["lspacecert.certify"].certify(2, 1)
    assert t.absent == ["mcg._deleted"]
    traced = {
        "trace": dict(t.summary(), wall_s=1.0),
        "latencies": [[0, 1.0, True]], "loop_s": 1.0, "ref_s": [0.003],
    }
    values = run.per_layer([traced], [traced])
    assert values["mcg._deleted.calls"] is None
    assert values["mcg.homology_action.calls"] == 1

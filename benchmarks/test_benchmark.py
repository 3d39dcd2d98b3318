"""Tests of the benchmark itself: inputs, tracing and report."""

import dataclasses
import json

import pytest

import run

run.use_source_tree()

import tracing  # noqa: E402
import workloads  # noqa: E402
from hapticbayes import bundled_library_path, load_library, load_scenario  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return load_library(bundled_library_path())


def test_volume_generator_is_byte_identical_for_a_seed(tmp_path, lib):
    a = workloads.write_volume_scenario(lib, 7, tmp_path / "a")
    b = workloads.write_volume_scenario(lib, 7, tmp_path / "b")
    c = workloads.write_volume_scenario(lib, 8, tmp_path / "c")
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    scenario = load_scenario(a, lib)
    assert scenario.grid.theta == 28_800 and scenario.grid.nz >= 8
    assert scenario.material_at(scenario.start) in (
        scenario.task.material_a, scenario.task.material_b)


def originals():
    return {(t.owner, t.attr): vars(t.owner)[t.attr] for t in tracing.TARGETS}


def test_tracer_restores_every_wrapped_attribute_after_an_error():
    before = originals()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            for (owner, attr), obj in before.items():
                assert vars(owner)[attr] is not obj
            raise RuntimeError("stop")
    assert originals() == before
    assert all(vars(owner)[attr] is obj for (owner, attr), obj in before.items())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_metric_name(tmp_path, workload):
    before = originals()
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, names, declared_names in (
            (False, list(run.END_TO_END),
             [m["name"] for m in declared["end_to_end"]]),
            (True, [t.span for t in tracing.TARGETS] + list(run.TRACE_RATIOS)
             + ["trace.us_per_touch", "tracing overhead", "accounted"],
             [m["name"] for m in declared["per_layer"]])):
        lines, result = run.run(workload, 3, 0.01, trace, out_dir=tmp_path,
                                smoke=True, probes=1)
        text = "\n".join(lines)
        for name in names:
            assert name in text, name
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == declared_names
        for value in result["metrics"].values():
            assert isinstance(value["value"], (int, float))
    assert all(vars(owner)[attr] is obj for (owner, attr), obj in before.items())


def test_checks_reject_a_tampered_trial(tmp_path, lib):
    w = workloads.setup("explore_plane", 0, tmp_path, workloads.SMOKE)
    out = w.ops[0]()
    assert w.check(0, out) == []
    rec = out.result
    for bad in (dataclasses.replace(rec, gamma=rec.gamma + 0.01),
                dataclasses.replace(rec, terminated_by="budget"
                                    if rec.terminated_by == "loop_closure"
                                    else "loop_closure"),
                dataclasses.replace(rec, revisit_count=rec.revisit_count + 1)):
        assert w.check(0, workloads.Outcome(bad, out.touches))

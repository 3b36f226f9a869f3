"""Self-checks of the benchmark harness itself.

    python3 -m pytest bench/test_bench.py -q

Each test uses the smallest item of a workload, so the file runs in
seconds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def cm():
    return run.load_cyclomod()


@pytest.fixture
def items(cm, tmp_path):
    """The cheapest item of each workload."""
    return [
        workloads.bool_gf2(cm, 3, str(tmp_path))[0],
        workloads.perm_q(cm, 3, str(tmp_path))[0],
        workloads.local_search(cm, 3, str(tmp_path))[0],
        workloads.minimize(cm, 3, str(tmp_path))[0],
    ]


def test_traced_and_untraced_outputs_are_byte_identical(cm, items):
    untraced = [item.run() for item in items]
    recorder = tracer.Recorder()
    inst = tracer.install(recorder)
    try:
        traced = [item.run() for item in items]
    finally:
        inst.remove()
    assert traced == untraced
    assert inst.absent == []
    totals = recorder.layer_totals()
    for layer in ("cli.main", "endo.commutant_basis", "modules.orbit_basis", "wfa.left_reduce"):
        assert totals[layer][2] > 0, layer


def test_traced_run_counts_repeat_and_outputs_match(items):
    tally = run.Tally()
    with speed.SpeedProbe() as probe:
        result = run.measure_traced(items, 0.0, tally, probe)
    assert (tally.failed, tally.attempted) == (0, 4 * len(items))
    assert len(result.counts) == 2 and result.counts[0] == result.counts[1]
    assert result.counts[0]["endo.commutant_basis.unknowns"] > 0
    metrics = run.per_layer(result)
    assert metrics["trace.count_mismatches"]["value"] == 0
    assert set(metrics) >= {f"{layer}.self_norm_s" for layer in run.TIMED_LAYERS}
    assert metrics["endo.commutant_basis.self_norm_s"]["value"] > 0


def test_every_binding_is_wrapped_and_restored(cm):
    original = cm.endo.commutant_basis
    recorder = tracer.Recorder()
    inst = tracer.install(recorder, layers=("endo.commutant_basis", "linalg.SpanSolver.add"))
    try:
        wrapped = cm.endo.commutant_basis
        assert wrapped is not original
        assert cm.decompose.commutant_basis is wrapped
        assert cm.commutant_basis is wrapped
        assert cm.linalg.SpanSolver.add.__wrapped__ is not None
    finally:
        inst.remove()
    assert cm.endo.commutant_basis is original
    assert cm.decompose.commutant_basis is original
    assert not hasattr(cm.linalg.SpanSolver.add, "__wrapped__")


def test_missing_layers_are_reported_absent(cm):
    layers = (
        "endo.find_splitting_element",
        "endo.no_such_function",
        "no_such_module.anything",
        "linalg.SpanSolver.no_such_method",
        "linalg.NoSuchClass.add",
    )
    recorder = tracer.Recorder()
    inst = tracer.install(recorder, layers=layers)
    try:
        assert inst.absent == list(layers[1:])
    finally:
        inst.remove()


def test_self_time_subtracts_child_spans():
    recorder = tracer.Recorder()

    def inner():
        sum(range(20000))

    traced_inner = recorder.wrap("inner", inner, None)

    def outer():
        traced_inner()
        traced_inner()

    recorder.wrap("outer", outer, None)()
    totals = recorder.layer_totals()
    (outer_name, start, end, parent, _job) = recorder.spans[0]
    assert (outer_name, parent) == ("outer", -1)
    assert [s[3] for s in recorder.spans[1:]] == [0, 0]
    assert totals["outer"][1] == pytest.approx(end - start)
    assert totals["outer"][0] == pytest.approx(end - start - totals["inner"][1])
    assert totals["inner"][2] == 2


def test_wrong_expected_signature_is_a_counted_failure(items):
    good = items[1]
    wrong = dataclasses.replace(good, name="wrong signature", expected=(6,))
    broken = dataclasses.replace(good, name="raises", run=lambda: 1 / 0)
    tally = run.Tally()
    with speed.SpeedProbe() as probe:
        result = run.run_pass([good, wrong, broken], tally, probe)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert "expected (6,)" in tally.errors[0] and "ZeroDivisionError" in tally.errors[1]
    assert result.leaves == len(good.expected)


def test_changed_output_bytes_are_a_counted_failure(items):
    item = items[3]
    tally = run.Tally()
    tally.reference[item.name] = item.run().replace("\n", " \n", 1)
    with speed.SpeedProbe() as probe:
        run.run_pass([item], tally, probe)
    assert tally.failed == 1 and "differ" in tally.errors[0]


def test_recheck_failure_is_counted(items):
    item = dataclasses.replace(items[2], recheck=lambda output: 1 / 0)
    tally = run.Tally()
    tally.reference[item.name] = "{}"
    run.recheck([item], tally)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_seed_changes_inputs_but_not_signatures(cm, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = workloads.perm_q(cm, 1, str(tmp_path / "a"))
    b = workloads.perm_q(cm, 2, str(tmp_path / "b"))
    assert [i.expected for i in a] == [i.expected for i in b]
    texts = [(tmp_path / d / "perm_1.json").read_text() for d in ("a", "b")]
    assert texts[0] != texts[1]


def test_without_cyclomod_the_run_fails_without_a_result(tmp_path):
    skip = shutil.ignore_patterns(".work", "__pycache__")
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=skip)
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "minimize", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_probe_time_is_excluded_and_normalized():
    with speed.SpeedProbe() as probe:
        # long enough to hold several samples, one every INTERVAL_S
        m = probe.measure(lambda: sum(i * i for i in range(2_000_000)))
    assert m.kernel_s and m.own_s < m.elapsed_s
    assert m.elapsed_s - m.own_s == pytest.approx(sum(m.kernel_s))
    speed_factor = sum(speed.NOMINAL_KERNEL_S / k for k in m.kernel_s) / len(m.kernel_s)
    assert m.norm_s == pytest.approx(m.own_s * speed_factor)


def test_generator_vector_with_a_leading_minus_is_passed_whole(cm, tmp_path):
    # at this seed the relabelled e - (12) vector starts with "-1"
    item = workloads.perm_q(cm, 304, str(tmp_path))[2]
    assert workloads.read_outcome(item, item.run()).leaves == 5


def test_recheck_compares_the_library_report_with_the_job_output(items):
    for item in items:
        output = item.run()
        item.recheck(output)
        if item.name.startswith("a+b-b"):
            continue  # minimize re-checks equivalence, not bytes
        with pytest.raises(workloads.JobError, match="job output"):
            item.recheck(output.replace("\n", " \n", 1))

"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import re
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

ax = run.load_package()
import layers  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _inputs(ops):
    """Canonical text of a pass's inputs."""
    return json.dumps([[op.kind, repr(op.args), op.facts] for op in ops], default=str)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name, tmp_path):
    wl = workloads.WORKLOADS[name](str(tmp_path), run.child_env())
    first = _inputs(wl.make_pass(7, 0))
    assert first == _inputs(wl.make_pass(7, 0))
    assert first != _inputs(wl.make_pass(8, 0))
    assert first != _inputs(wl.make_pass(7, 1))


def test_metric_names_are_well_formed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    snap = layers.Tracer().snapshot()
    names += list(layers.layer_metrics(snap))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert set(layers.layer_metrics(snap)) <= per_layer


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reduced_run_finishes_in_seconds(name):
    start = time.perf_counter()
    result, lines = run.measure(name, seed=3, seconds=0, trace=False, min_ops=0)
    assert time.perf_counter() - start < 60
    assert result["correct"] and result["failed"] == 0, lines
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_reduced_traced_run_matches_untraced_digest():
    result, lines = run.measure("calculus-verify", seed=3, seconds=0, trace=True)
    assert result["correct"], lines
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["oracle.tables"]["value"] > 0


def test_series_boxes_stay_under_the_cell_cap():
    slots = workloads.CHEAP_TABLES + workloads.SERIES_TABLES + workloads.HEAVY_TABLES
    pairs = [(dom, cod) for kind, dom, cod, _ in slots if kind != "fdeg"]
    pairs += [(dom, (m,)) for dom, cods in workloads.TRACE_SHAPES for m in cods]
    for dom, cod in pairs:
        assert layers.series_box_cells(dom, cod) <= workloads.SERIES_CELL_CAP, (dom, cod)


def test_yardstick_scales_times_by_the_samples_around_them():
    yardstick = run.Yardstick()
    yardstick.record(2.0)
    yardstick.add(1.0)
    yardstick.add(3.0)
    yardstick.record(4.0)
    yardstick.add(2.0)
    yardstick.record(1.0)
    scale = run.REFERENCE_MS
    assert yardstick.scaled == pytest.approx([scale / 3, scale, 2 * scale / 2.5])
    assert yardstick.pending == []


def test_wrapped_and_unwrapped_calls_agree():
    alpha = ax.make_partition([3, 2, 2, 1])
    targets = ax.make_targets(2, [(1, 2), (2, 1)])
    f = ax.FiniteMap(
        ax.AbelianShape((4, 2)),
        ax.AbelianShape((4,)),
        tuple(((x * x + y) % 4,) for x in range(4) for y in range(2)),
    )
    plain = (ax.zero_count_bound(alpha, targets), ax.functional_degree(f))
    original = ax.functional_degree
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert ax.functional_degree is not original
        assert ax.oracle.functional_degree is not original
        tracer.recording = True
        wrapped = (ax.zero_count_bound(alpha, targets), ax.functional_degree(f))
        tracer.recording = False
    finally:
        tracer.uninstall()
    assert wrapped == plain
    assert tracer.calls["bounds"] > 0 and tracer.calls["calculus.fdeg"] == 1
    assert tracer.counters["bounds.rows"] == len(alpha)
    assert ax.functional_degree is original and ax.oracle.functional_degree is original

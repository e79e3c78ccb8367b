"""Tests of the benchmark itself.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest -q bench``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import csvcheck
import run
import tracing
import workloads
from mpslam_bounds import cli
from mpslam_bounds.scenario import load_scenario, scenario_from_mapping

ROOT = Path(__file__).resolve().parents[1]


def _reference(name: str) -> str:
    return (run.REFERENCE_DIR / f"{name}.csv").read_text()


def _scale_cell(text: str, column: str, factor: float) -> str:
    lines = text.split("\n")
    index = lines[0].split(",").index(column)
    cells = lines[5].split(",")
    cells[index] = repr(float(cells[index]) * factor)
    lines[5] = ",".join(cells)
    return "\n".join(lines)


def test_reference_csv_passes():
    ref = _reference("desk-validate")
    assert csvcheck.check_call(0, ref, ref, True, None) is None
    assert csvcheck.check_call(0, ref, ref, True, ref) is None


@pytest.mark.parametrize(
    "column, factor, fails",
    [
        ("peb", 1 + 1e-10, True),
        ("meb_3", 1 - 1e-10, True),
        ("peb", 1 + 1e-13, False),
        ("rmse_pos", 1 + 1e-10, False),
        ("maperr_2", 1 + 1e-8, True),
    ],
)
def test_off_reference_value_fails(column, factor, fails):
    ref = _reference("desk-validate")
    reason = csvcheck.check_call(0, _scale_cell(ref, column, factor), ref, True, None)
    assert (reason is not None) == fails


def test_other_seed_checks_layout_finiteness_and_repeats():
    ref = _reference("desk-validate")
    other = _scale_cell(ref, "peb", 1.5)
    assert csvcheck.check_call(0, other, ref, False, None) is None
    assert csvcheck.check_call(0, other, ref, False, ref) is not None
    assert csvcheck.check_call(0, _scale_cell(ref, "rmse_vel", float("nan")), ref, False,
                               None) is not None
    assert csvcheck.check_call(0, "\n".join(ref.split("\n")[:-3]), ref, False, None) is not None
    assert csvcheck.check_call(3, ref, ref, True, None) == "exit code 3"


def test_run_with_off_reference_counts_every_call_failed(tmp_path, monkeypatch):
    ref = _reference("room8-bounds")
    (tmp_path / "room8-bounds.csv").write_text(_scale_cell(ref, "oeb", 1 + 1e-9))
    monkeypatch.setattr(run, "REFERENCE_DIR", tmp_path)
    record = run.measure(ROOT, "room8-bounds", run.REFERENCE_SEED, 0.0, False)
    result = record["result"]
    assert result["attempted"] == run.MIN_SAMPLES + 1
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False
    assert all("oeb" in reason for reason in record["failures"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pinned_reference_reproduces(name, tmp_path):
    argv = workloads.prepare(name, run.REFERENCE_SEED, ROOT, tmp_path)
    assert cli.main(argv) == 0
    out = Path(argv[argv.index("--out") + 1]).read_text()
    assert csvcheck.compare(out, _reference(name)) is None


def test_generator_is_deterministic_and_seeded():
    assert workloads.octagon_scenario(5, True) == workloads.octagon_scenario(5, True)
    assert workloads.octagon_room(5) != workloads.octagon_room(6)


@pytest.mark.parametrize("seed", range(0, 40, 3))
def test_generated_rooms_are_valid_with_fixed_work(seed):
    room = workloads.octagon_room(seed)
    workloads.check_room(room)
    dense = scenario_from_mapping(workloads.octagon_scenario(seed, False))
    sparse = scenario_from_mapping(workloads.octagon_scenario(seed, True))
    assert dense.order.size == 65 and dense.dim == 21
    visible = sum(
        int(sparse.visibility.flags(j, n).sum())
        for j in range(2) for n in range(1, sparse.n_steps + 1)
    )
    per_step = workloads.NUM_WALLS + 1
    expected = per_step * (
        2 * workloads.N_STEPS - workloads.ANCHOR_BLANK_STEPS - 2 * workloads.ALL_BLANK_STEPS
    )
    assert visible == expected


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda r: {"anchors": ((r.offsets[0] * r.normals[0][0],
                                 r.offsets[0] * r.normals[0][1]), r.anchors[1])},
         "anchor 1"),
        (lambda r: {"anchors": (r.anchors[0], (50.0, 50.0))}, "anchor 2"),
        (lambda r: {"end": (-40.0, 3.0)}, "agent"),
        (lambda r: {"start": r.anchors[0]}, "agent"),
    ],
)
def test_check_room_rejects_bad_geometry(change, message):
    room = workloads.octagon_room(0)
    bad = dataclasses.replace(room, **change(room))
    with pytest.raises(workloads.GeometryError, match=message):
        workloads.check_room(bad)


def test_summarize_computes_self_time_and_counts():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["pcrlb.run_recursion", 1.0, 6.0, 0],
        ["scenario.snapshot_fim", 2.0, 5.0, 1],
        ["geometry.path_geometry", 2.5, 3.0, 2],
        ["geometry.path_geometry", 3.0, 4.0, 2],
    ]
    m = tracing.summarize(spans, visible_triples=1, total_triples=4)
    assert m["cli.main.self_s"] == 5.0
    assert m["pcrlb.self_s"] == 2.0
    assert m["pcrlb.run_recursion.total_s"] == 5.0
    assert m["scenario.snapshot_fim.self_s"] == 1.5
    assert m["geometry.self_s"] == 1.5
    assert m["geometry.path_geometry.calls"] == 2
    assert m["geometry.resolves_per_visible"] == 2.0
    assert m["fim.visible_share"] == 0.25
    assert m["ekf.run_single.p50_s"] == 0.0
    assert set(m) == set(tracing.LAYER_METRICS)


def test_traced_room8_bounds_resolves_each_visible_path_twice(tmp_path):
    from mpslam_bounds import ekf, fim, scenario

    argv = workloads.prepare("room8-bounds", 1, ROOT, tmp_path)
    loaded = load_scenario(argv[1])
    original = fim.path_geometry
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        assert scenario.path_geometry is fim.path_geometry is not original
        assert ekf.global_jacobian is fim.global_jacobian
        assert cli.main(argv) == 0
    finally:
        tracing.uninstall(patches)
    assert fim.path_geometry is original
    visible = 2 * loaded.n_steps * loaded.order.size
    m = tracing.summarize(tracer.spans, visible, visible)
    assert m["geometry.resolves_per_visible"] == 2.0
    assert m["fim.global_jacobian.calls"] == 2 * loaded.n_steps
    assert m["ekf.ekf_update.calls"] == 0 and m["streams.normal.calls"] == 0
    assert tracer.spans[0][0] == "cli.main" and tracer.spans[0][3] == -1


def test_without_source_tree_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "room8-bounds", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        **tracing.LAYER_METRICS, "trace.overhead": "ratio"}

"""Self-tests of the benchmark, run from the root of a relent checkout:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import check
import clock
import run
import tracer
import workloads


@pytest.fixture
def work():
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.WORK.mkdir()
    yield run.WORK
    shutil.rmtree(run.WORK, ignore_errors=True)


def _reference(name, i):
    return (run.REFERENCE / f"{name}-{i}.csv").read_text(encoding="utf-8")


def _edit_cell(text, row, column, value):
    lines = text.splitlines()
    cells = lines[row + 1].split(",")
    cells[check.HEADER.index(column)] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_perturbed_reference_cell_is_counted():
    doc = workloads.configs("sweep_default", 0)[3]
    ref = _reference("sweep_default", 3)
    assert check.check(doc, ref, ref) == (0, [])
    fid = float(check.parse(ref)[5]["fidelity"])
    failed, messages = check.check(doc, _edit_cell(ref, 5, "fidelity", repr(fid + 1e-9)), ref)
    assert failed == 1 and "fidelity" in messages[0]
    # machine-to-machine drift of a few ulp is not a failure
    assert check.check(doc, _edit_cell(ref, 5, "fidelity", repr(fid + 5e-15)), ref)[0] == 0
    assert check.check(doc, _edit_cell(ref, 5, "fidelity", "nan"), ref)[0] == 1
    assert check.check(doc, None, ref)[0] == workloads.cell_count([doc])


def test_range_check_without_reference():
    doc = workloads.configs("sweep_default", 0)[3]
    ref = _reference("sweep_default", 3)
    assert check.check(doc, ref)[0] == 0
    assert check.check(doc, _edit_cell(ref, 2, "E", "1.5"))[0] == 1
    assert check.check(doc, _edit_cell(ref, 2, "qcorr", "0.5"))[0] == 1
    assert check.check(doc, _edit_cell(ref, 2, "beta", "0.5"))[0] == 1


def test_other_seed_moves_inputs_and_keeps_counts():
    for name in workloads.WORKLOADS:
        base, other = workloads.configs(name, 0), workloads.configs(name, 3)
        assert workloads.configs(name, 3) == other
        assert workloads.cell_count(other) == workloads.cell_count(base)
        for a, b in zip(base, other):
            assert b["betas"] != a["betas"] and b["delta"] != a["delta"]
            assert b["seed"] != a["seed"] and b.get("grid") == a.get("grid")
            assert b["betas"] == sorted(b["betas"])
            assert 0.0 <= b["betas"][0] and b["betas"][-1] <= workloads.BETA_RANGE[1]


def test_traced_counts_repeat_exactly(work):
    # At the commit that defined the benchmark these were 16,128 wigner_matrix,
    # 588 leggauss and 210 build_grid calls (bench/baseline.json).
    r = run.Run("sweep_default", workloads.DEFAULT_SEED)
    counts = []
    for _ in range(2):
        spans = r.one_pass(trace=True)[2]
        metrics = tracer.layer_metrics(spans)
        counts.append({k: v for k, v in metrics.items() if k.rsplit(".", 1)[1] in tracer.EXACT})
    assert counts[0] == counts[1]
    assert counts[0]["wavepacket.build_grid.calls"] > 0
    assert r.failed == 0 and r.attempted == 2 * r.cells


def test_unstolen_time_is_at_most_wall_time():
    mark = clock.start()
    sum(range(10**6))
    wall, unstolen = clock.stop(mark)
    assert 0.0 < unstolen <= wall


def test_benchmark_json_matches_what_run_reports():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.layer_metric_names()


def test_refuses_to_run_without_relent_sources(work):
    bare = work / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.HERE.parent / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "sweep_default",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""

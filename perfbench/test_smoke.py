"""Fast smoke test of the benchmark itself, on tiny inputs.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import layers
import reference
import run
import workloads
from relpose.config import RobustConfig
from relpose.posegraph import PoseEdge

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")


def tiny(name):
    if name == "stream-2k":
        w = workloads.StreamWorkload(0, frames=60)
    elif name == "offline-100":
        w = workloads.OfflineWorkload(0, frames=12)
    else:
        w = workloads.RobustWorkload(
            0, frames=40, robust=RobustConfig(n_clean=10, n_distract=(3,), trials=2))
    w.setup()
    return w


@pytest.fixture(scope="module")
def spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_end_to_end_metrics_named_with_units(name, spec):
    w = tiny(name)
    passes = [w.run_pass()]
    values, details = run.end_to_end(passes, [0.5])
    expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: unit for k, (_, unit) in values.items()} == expected
    for key, (value, _) in values.items():
        assert math.isfinite(value) and value > 0, key
    assert passes[0].attempted > 0 and passes[0].failed == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric(name, spec):
    w = tiny(name)
    values, passes = run.traced(w, 0.0)
    expected = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: unit for k, (_, unit) in values.items()} == expected
    assert all(p.failed == 0 for p in passes)
    assert values["trace.overhead"][0] > 0


def test_ms_per_frame_scales_each_block_to_a_quiet_core():
    def fake(*blocks):
        return workloads.PassResult(0.0, list(blocks), 4, [], [], 4, 0, 0.1)

    # The first pass ran on a core at half the quiet speed.
    passes = [fake((0.004, 0.5), (0.006, 0.5)), fake((0.001, 1.0), (0.004, 1.0))]
    assert run.scaled_ms_per_frame(passes) == pytest.approx(1e3 * 0.005 / 4)
    assert math.isnan(run.scaled_ms_per_frame(passes + [fake((0.001, 1.0))]))


def test_probe_reads_a_core_speed():
    for kind in sorted(reference.UNITS):
        speed = reference.Probe(kind)()
        assert 0.05 < speed < 5


def test_spec_lists_the_workloads(spec):
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_missing_hook_target_leaves_metrics_absent(monkeypatch):
    hooks = [h for h in layers.HOOKS if h[1] != "refine.eval"]
    hooks.append(("relpose.refine:_Renamed.objective_and_gradient", "refine.eval",
                  None, True))
    monkeypatch.setattr(layers, "HOOKS", tuple(hooks))
    values, _ = run.traced(tiny("offline-100"), 0.0)
    assert "refine.evals" not in values and "refine.eval_ms" not in values
    assert values["refine.iterations"][0] > 0


def test_counter_that_no_longer_fits_leaves_metrics_absent(monkeypatch):
    def stale(tracer, args, kwargs, result):
        return result.renamed_field

    hooks = [(t, n, stale if n == "refine.solve" else c, timed)
             for t, n, c, timed in layers.HOOKS]
    monkeypatch.setattr(layers, "HOOKS", tuple(hooks))
    values, passes = run.traced(tiny("offline-100"), 0.0)
    assert "refine.iterations" not in values and "refine.solve.self_ms" not in values
    assert values["refine.evals"][0] > 0
    assert all(p.failed == 0 for p in passes)


class NaNEdgeScene:
    """Delegates to a scene but plants one edge with a NaN translation."""

    def __init__(self, scene, at):
        self._scene = scene
        self.at = at

    def __getattr__(self, name):
        return getattr(self._scene, name)

    def emit_edges(self, sources, j):
        edges = self._scene.emit_edges(sources, j)
        if j == self.at:
            e = edges[0]
            edges[0] = PoseEdge(e.src, e.dst, e.rel_rotation,
                                np.full(3, np.nan), e.conf_rot, e.conf_trans)
        return edges


@pytest.mark.parametrize("name", ["stream-2k", "offline-100"])
def test_checks_fire_on_a_planted_nan_edge(name):
    w = tiny(name)
    scenes = getattr(w, "scenes", None)
    if scenes:
        scenes[0] = NaNEdgeScene(scenes[0], at=scenes[0].frame_ids[6])
    else:
        w.scene = NaNEdgeScene(w.scene, at=w.scene.frame_ids[6])
    result = w.run_pass()
    assert result.failed > 0
    assert math.isnan(result.rpe_t)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(SPEC_PATH, tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream-2k",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert out.returncode != 0
    assert '"correct"' not in out.stdout

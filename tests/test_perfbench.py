"""The benchmark's tracer wraps names that the program has and calls.

``perfbench/run.py --trace 1`` replaces module and class attributes of
geopgo by name. A renamed function would only show up there as failed
solves, so this test builds the tracer's replacements and runs a traced
solve in each mode.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from geopgo import cli, runtime

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # Program prepends src
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_replacements_name_existing_attributes(bench):
    reps = bench.Tracer().replacements(bench.Program(), bench.PhaseClock())
    assert reps
    for owner, name, wrapper in reps:
        assert callable(getattr(owner, name)), f"{owner!r} has no {name}"
        assert callable(wrapper)


@pytest.mark.parametrize("mode, spans", [
    ("reference", {"solver.solve", "solver.step", "solver.controls",
                   "solver.objective", "solver.integrate"}),
    ("distributed", {"runtime.run", "runtime.round", "runtime.collect",
                     "runtime.node_controls", "runtime.integrate",
                     "runtime.objective", "runtime.controls"}),
])
def test_traced_solve_calls_every_wrapped_layer(bench, monkeypatch, tmp_path,
                                                mode, spans):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"scenario": {"topology": "sphere", "n": 12}, "seed": 3,'
                   ' "noise": {"tau": 0.5, "kappa": 0.524, "seed": 3}}')
    data = tmp_path / "ds.json"
    assert cli.main(["generate", "--config", str(cfg), "--out", str(data)]) == 0
    tracer = bench.Tracer()
    for owner, name, wrapper in tracer.replacements(bench.Program(),
                                                    bench.PhaseClock()):
        monkeypatch.setattr(owner, name, wrapper)
    out = tmp_path / "run"
    argv = ["solve", "--dataset", str(data), "--init", "gps", "--seed", "3",
            "--mode", mode, "--out-dir", str(out), "--max-iters", "3",
            "--stop-tol", "1e-9"]
    assert cli.main(argv) == 0
    assert spans <= {s[1] for s in tracer.spans}
    if mode == "distributed":
        # the workers and the caller; the barrier action runs in a worker
        assert tracer.peak_threads <= runtime.AGENTS + 1


@pytest.mark.parametrize("workload", ["sphere50-ref", "sphere50-dist"])
def test_bench_output_checks_pass_on_a_small_graph(bench, tmp_path, workload):
    # Every benchmark solve is checked through the program's own loader,
    # reconciliation, CSV parser, objective, gauge alignment and pose
    # errors (Bench._check); a change to any of them that breaks a check
    # fails every solve of the benchmark.
    wl = bench.smoke_workload(bench.WORKLOADS[workload])
    manifest = bench.make_inputs(wl, 5, tmp_path / "inputs")
    b = bench.Bench(bench.Program(), wl, manifest, tmp_path)
    b.warm_up()
    b.solve(0)
    b.solve(0, traced=True)
    assert [r.traced for r in b.records] == [False, True]
    assert [(r.ok, r.reason) for r in b.records] == [(True, "")] * 2
    assert all(r.iterations == wl.iters for r in b.records)

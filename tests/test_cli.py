"""End-to-end checks of the command-line driver via main(argv)."""

import argparse
import json

import numpy as np
import pytest

from geopgo import cli, consistency, graph, runtime
from geopgo import io as gio
from geopgo.graph import Pose, RelativeMeasurement

G2O_ONE_WAY = """\
VERTEX_SE3:QUAT 0 0 0 0 0 0 0 1
VERTEX_SE3:QUAT 1 1 0 0 0 0 0 1
EDGE_SE3:QUAT 0 1 1 0 0 0 0 0 1 1 0 0 0 0 0 1 0 0 0 0 1 0 0 0 1 0 0 1 0 1
"""


def _write_config(path, n=8, seed=3, noise=True):
    cfg = {
        "scenario": {"topology": "sphere", "n": n},
        "seed": seed,
        "noise": ({"tau": 0.5, "kappa": 0.524, "seed": seed}
                  if noise else None),
    }
    path.write_text(json.dumps(cfg))
    return path


def test_generate_is_deterministic(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["generate", "--config", str(cfg), "--out", str(a)]) == 0
    assert cli.main(["generate", "--config", str(cfg), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    out = capsys.readouterr().out
    assert "wrote" in out


def test_generate_noise_free(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", noise=False)
    out = tmp_path / "ds.json"
    assert cli.main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    ds = gio.load_any(str(out))
    assert ds.noise is None
    assert ds.vertex_kind == "ground_truth"


def test_generate_g2o_writes_g2o_that_solves(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "ds.g2o"
    assert cli.main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().startswith("VERTEX_SE3:QUAT 0 ")
    # g2o drops the provenance, so the spanning-tree init is the one to use
    rc = cli.main(["solve", "--dataset", str(out), "--init", "tree",
                   "--out-dir", str(tmp_path / "run")])
    assert rc == 0


def test_generate_unknown_suffix_exits_one_and_writes_nothing(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "ds.txt"
    assert cli.main(["generate", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert str(out) in err and "format" in err


def _generate(tmp_path, **kw):
    cfg = _write_config(tmp_path / "cfg.json", **kw)
    ds = tmp_path / "ds.json"
    assert cli.main(["generate", "--config", str(cfg), "--out", str(ds)]) == 0
    return ds


def test_solve_outputs_and_summary(tmp_path):
    ds = _generate(tmp_path)
    out_dir = tmp_path / "run"
    rc = cli.main(["solve", "--dataset", str(ds), "--init", "gps",
                   "--seed", "3", "--out-dir", str(out_dir)])
    assert rc == 0
    assert (out_dir / "trajectory.csv").exists()
    assert (out_dir / "objective.csv").exists()
    summary = json.loads((out_dir / "summary.json").read_text())
    for key in ("dataset", "n", "directed_measurements", "init", "mode",
                "config", "enforced_pairwise_rotations", "iterations",
                "converged", "wall_clock_seconds", "final", "consistency"):
        assert key in summary
    assert summary["n"] == 8
    assert summary["converged"] is True
    assert summary["final"]["geodesic"] >= 0.0
    # objective.csv has one row per recorded objective plus a header
    lines = (out_dir / "objective.csv").read_text().splitlines()
    assert lines[0] == "iter,geodesic,chordal,max_control_norm"
    assert len(lines) == summary["iterations"] + 2


def test_distributed_mode_matches_reference(tmp_path):
    ds = _generate(tmp_path)
    ref_dir, dist_dir = tmp_path / "ref", tmp_path / "dist"
    base = ["solve", "--dataset", str(ds), "--init", "gps", "--seed", "3"]
    assert cli.main(base + ["--out-dir", str(ref_dir)]) == 0
    assert cli.main(base + ["--mode", "distributed",
                            "--out-dir", str(dist_dir)]) == 0
    ref = json.loads((ref_dir / "summary.json").read_text())
    dist = json.loads((dist_dir / "summary.json").read_text())
    assert dist["iterations"] == ref["iterations"]
    assert dist["converged"] == ref["converged"]
    assert dist["final"] == ref["final"]
    for name in ("trajectory.csv", "objective.csv"):
        assert (ref_dir / name).read_bytes() == (dist_dir / name).read_bytes()


def test_message_log_inside_a_fresh_out_dir(tmp_path):
    ds = _generate(tmp_path)
    out = tmp_path / "fresh"
    log = out / "messages.jsonl"
    rc = cli.main(["solve", "--dataset", str(ds), "--init", "gps",
                   "--seed", "3", "--mode", "distributed",
                   "--out-dir", str(out), "--message-log", str(log)])
    assert rc == 0
    for name in ("trajectory.csv", "objective.csv", "summary.json"):
        assert (out / name).is_file()
    summary = json.loads((out / "summary.json").read_text())
    rows = log.read_text().splitlines()
    assert summary["iterations"] > 0
    assert len(rows) == (summary["iterations"]
                         * summary["directed_measurements"])


def test_unwritable_message_log_fails_before_the_first_round(
        tmp_path, monkeypatch, capsys):
    ds = _generate(tmp_path, n=50)
    rounds = []
    compute_round = runtime.NodeWorker.compute_round

    def counted(self, round_no):
        rounds.append(round_no)
        return compute_round(self, round_no)

    monkeypatch.setattr(runtime.NodeWorker, "compute_round", counted)
    capsys.readouterr()
    log = tmp_path / "missing" / "messages.jsonl"
    rc = cli.main(["solve", "--dataset", str(ds), "--init", "gps",
                   "--seed", "3", "--mode", "distributed",
                   "--out-dir", str(tmp_path / "run"),
                   "--message-log", str(log), "--max-iters", "30",
                   "--stop-tol", "1e-12"])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and str(log) in err[0]
    assert rounds == []


@pytest.mark.parametrize("out_dir", ["fo/run", "run"])
def test_bad_message_log_leaves_no_out_dir(tmp_path, capsys, out_dir):
    # the out-dir (and its missing parents) are made for the log, then
    # removed again when the log cannot be created; tmp_path itself stays
    ds = _generate(tmp_path, n=50)
    capsys.readouterr()
    log = tmp_path / "fo" / "missing" / "m.jsonl"
    rc = cli.main(["solve", "--dataset", str(ds), "--init", "gps",
                   "--seed", "3", "--mode", "distributed",
                   "--out-dir", str(tmp_path / out_dir),
                   "--message-log", str(log)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and "--message-log" in err[0]
    assert str(log) in err[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json",
                                                          "ds.json"]


@pytest.mark.parametrize("command", ["solve", "info"])
def test_negative_cycles_exits_one(tmp_path, capsys, command):
    ds = _generate(tmp_path)
    capsys.readouterr()
    argv = [command, "--dataset", str(ds), "--cycles", "-5"]
    if command == "solve":
        argv += ["--out-dir", str(tmp_path / "run")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and "--cycles" in err[0]
    assert not (tmp_path / "run").exists()


def test_message_log_in_reference_mode_exits_one(tmp_path, capsys):
    ds = _generate(tmp_path)
    capsys.readouterr()
    out, log = tmp_path / "run", tmp_path / "messages.jsonl"
    rc = cli.main(["solve", "--dataset", str(ds), "--out-dir", str(out),
                   "--message-log", str(log)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and "--message-log" in err[0]
    assert not log.exists() and not out.exists()


def test_solve_json_flag_prints_summary(tmp_path, capsys):
    ds = _generate(tmp_path)
    capsys.readouterr()
    rc = cli.main(["solve", "--dataset", str(ds), "--out-dir",
                   str(tmp_path / "run"), "--json"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["mode"] == "reference"


def test_info_json(tmp_path, capsys):
    ds = _generate(tmp_path)
    capsys.readouterr()
    assert cli.main(["info", "--dataset", str(ds), "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    for key in ("dataset", "n", "directed_measurements", "undirected_edges",
                "degree", "algebraic_connectivity", "consistency",
                "in_basin_by_init"):
        assert key in info
    assert info["n"] == 8
    assert info["directed_measurements"] == 2 * info["undirected_edges"]
    assert set(info["in_basin_by_init"]) == {"identity", "tree", "gps"}


@pytest.mark.parametrize("command", ["solve", "info"])
def test_tree_init_composes_the_reconciled_measurements(
        tmp_path, monkeypatch, capsys, command):
    # the one-step init composes pairwise-consistent rotations: the graph
    # it is built on is the reconciled one that the solve runs on
    ds = _generate(tmp_path)
    raw = gio.load_any(str(ds)).graph
    want = consistency.enforce_pairwise_rotations(raw).edge_arrays.r_rel
    assert not np.array_equal(want, raw.edge_arrays.r_rel)
    seen = []
    real = cli.spanning_tree_init

    def spy(g, **kw):
        seen.append(g)
        return real(g, **kw)

    monkeypatch.setattr(cli, "spanning_tree_init", spy)
    argv = [command, "--dataset", str(ds)]
    if command == "solve":
        argv += ["--init", "tree", "--max-iters", "2",
                 "--out-dir", str(tmp_path / "run")]
    assert cli.main(argv) == 0
    assert len(seen) == 1
    assert np.array_equal(seen[0].edge_arrays.r_rel, want)


def test_reference_solve_transposes_the_reconciled_rotations_only(
        tmp_path, monkeypatch):
    # the kernel reads a transposed rotation stack; a solve makes it once,
    # for the reconciled graph it runs on, and never for the loaded one
    ds = _generate(tmp_path)
    made, graphs = [], []
    real_stack = graph._transposed_stack
    real_enforce = cli.enforce_pairwise_rotations

    def counted(r):
        made.append(r)
        return real_stack(r)

    def spy(g):
        graphs.append((g, real_enforce(g)))
        return graphs[-1][1]

    monkeypatch.setattr(graph, "_transposed_stack", counted)
    monkeypatch.setattr(cli, "enforce_pairwise_rotations", spy)
    assert cli.main(["solve", "--dataset", str(ds), "--max-iters", "3",
                     "--out-dir", str(tmp_path / "run")]) == 0
    [(loaded, reconciled)] = graphs
    assert len(made) == 1 and made[0] is reconciled.edge_arrays.r_rel
    assert "r_rel_t" not in vars(loaded.edge_arrays)


def _doubled_vertex_id(d):
    d["vertices"][5]["id"] = 2


def _measurement_without_q(d):
    del d["measurements"][4]["q"]


def _fewer_vertices_than_n(d):
    d["vertices"].pop()


def _scenario_with_unknown_field(d):
    d["scenario"]["bogus"] = 1


@pytest.mark.parametrize("corrupt, message", [
    (_doubled_vertex_id, "vertex id 2 declared twice"),
    (_measurement_without_q, "measurement 4"),
    (_fewer_vertices_than_n, "n is 8 but 7 vertices"),
    (_scenario_with_unknown_field, "malformed JSON dataset"),
], ids=["doubled-vertex-id", "measurement-without-q", "fewer-vertices-than-n",
        "scenario-with-unknown-field"])
def test_bad_json_dataset_fails_at_the_loader(tmp_path, capsys, corrupt,
                                              message):
    ds = _generate(tmp_path)
    d = json.loads(ds.read_text())
    corrupt(d)
    ds.write_text(json.dumps(d))
    with pytest.raises(ValueError, match=message):
        gio.load_any(ds)
    capsys.readouterr()
    rc = cli.main(["solve", "--dataset", str(ds), "--init", "gps",
                   "--out-dir", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("command", ["solve", "info", "convert"])
def test_number_too_large_for_a_float_names_its_row(tmp_path, capsys,
                                                    command):
    ds = _generate(tmp_path)
    d = json.loads(ds.read_text())
    d["measurements"][4]["t"] = [2 ** 1100, 0, 0]
    ds.write_text(json.dumps(d))
    argv = {"solve": ["solve", "--dataset", str(ds), "--init", "gps",
                      "--out-dir", str(tmp_path / "run")],
            "info": ["info", "--dataset", str(ds)],
            "convert": ["convert", "--in", str(ds),
                        "--out", str(tmp_path / "x.g2o")]}[command]
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: measurement 4: ")


@pytest.mark.parametrize("command", ["info", "convert"])
def test_negative_n_fails_at_decode(tmp_path, capsys, command):
    ds = tmp_path / "neg.json"
    ds.write_text(json.dumps({"n": -3, "measurements": []}))
    out = tmp_path / "out.json"
    argv = (["info", "--dataset", str(ds)] if command == "info" else
            ["convert", "--in", str(ds), "--out", str(out)])
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        "error: n must be a nonnegative integer, got -3\n")
    assert not out.exists()


@pytest.mark.parametrize("level", ["verbose", "", "10"])
def test_unknown_log_level_is_one_error_line(tmp_path, monkeypatch, capsys,
                                             level):
    ds = _generate(tmp_path)
    capsys.readouterr()
    monkeypatch.setenv("GEOPGO_LOG", level)
    assert cli.main(["info", "--dataset", str(ds)]) == 1
    assert capsys.readouterr().err == (
        f"error: GEOPGO_LOG: unknown level {level!r}; use DEBUG, INFO, "
        "WARNING, ERROR or CRITICAL\n")
    # a level name in any case is accepted
    monkeypatch.setenv("GEOPGO_LOG", "debug")
    assert cli.main(["info", "--dataset", str(ds)]) == 0


_INFO = " 1 0 0 0 0 0 1 0 0 0 0 1 0 0 0 1 0 0 1 0 1"


@pytest.mark.parametrize("suffix, name", [(".g2o", "vertex 1"),
                                          (".json", "measurement 0")])
def test_convert_rejects_a_quaternion_whose_norm_overflows(tmp_path, capsys,
                                                           suffix, name):
    # (1e200, 0, 0, 0) is a half turn about x whose squared norm
    # overflows; it used to be written back as the identity
    src = tmp_path / f"in{suffix}"
    if suffix == ".g2o":
        src.write_text("VERTEX_SE3:QUAT 0 0 0 0 0 0 0 1\n"
                       "VERTEX_SE3:QUAT 1 1 0 0 1e200 0 0 0\n"
                       f"EDGE_SE3:QUAT 0 1 1 0 0 1e200 0 0 0{_INFO}\n")
    else:
        src.write_text(json.dumps({"n": 2, "measurements": [
            {"src": 0, "dst": 1, "t": [1, 0, 0], "q": [1e200, 0, 0, 0]}]}))
    out = tmp_path / ("out.json" if suffix == ".g2o" else "out.g2o")
    assert cli.main(["convert", "--in", str(src), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {name}: quaternion norm is not finite\n")
    assert not out.exists()


def test_vertex_less_json_with_a_huge_n_converts_and_fails_cheaply(
        tmp_path, capsys, bounded_cost):
    n = 10 ** 12
    ds = tmp_path / "huge.json"
    ds.write_text(json.dumps({"n": n, "measurements": []}))
    out = tmp_path / "out.json"
    with bounded_cost(seconds=1.0, peak_bytes=10 << 20):
        assert cli.main(["convert", "--in", str(ds), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["n"] == n
    capsys.readouterr()
    with bounded_cost(seconds=1.0, peak_bytes=10 << 20):
        assert cli.main(["info", "--dataset", str(ds)]) == 1
    assert capsys.readouterr().err == (
        f"error: {n - 1} vertices unreachable from vertex 0 "
        "(first few: [1, 2, 3, 4, 5])\n")


def test_convert_symmetrizes_a_vertex_less_json_at_an_id_span_past_2_31(
        tmp_path, capsys):
    # the pair keys of these ids used to wrap in int64, and the inverse
    # of (2**31, 5) went missing
    ds = tmp_path / "wide.json"
    ds.write_text(json.dumps({"n": 2 ** 33, "measurements": [
        {"src": i, "dst": j, "t": [1, 0, 0], "q": [0, 0, 0, 1]}
        for i, j in [(0, 5), (2 ** 31, 5), (2 ** 33 - 1, 1)]]}))
    out = tmp_path / "out.json"
    assert cli.main(["convert", "--in", str(ds), "--out", str(out),
                     "--symmetrize"]) == 0
    assert "(6 measurements)" in capsys.readouterr().out
    rows = json.loads(out.read_text())["measurements"]
    assert [(m["src"], m["dst"]) for m in rows] == [
        (0, 5), (2 ** 31, 5), (2 ** 33 - 1, 1),
        (5, 0), (5, 2 ** 31), (1, 2 ** 33 - 1)]


def test_convert_round_trip(tmp_path):
    ds = _generate(tmp_path)
    g2o = tmp_path / "ds.g2o"
    back = tmp_path / "back.json"
    assert cli.main(["convert", "--in", str(ds), "--out", str(g2o)]) == 0
    assert cli.main(["convert", "--in", str(g2o), "--out", str(back)]) == 0
    orig = gio.load_any(str(ds))
    rt = gio.load_any(str(back))
    assert rt.graph.n == orig.graph.n
    assert rt.graph.directed_count == orig.graph.directed_count


def test_convert_keeps_directed_unless_symmetrized(tmp_path, capsys):
    src = tmp_path / "one.g2o"
    src.write_text(G2O_ONE_WAY)
    out = tmp_path / "one.json"
    assert cli.main(["convert", "--in", str(src), "--out", str(out)]) == 0
    assert "(1 measurements)" in capsys.readouterr().out
    sym = tmp_path / "two.json"
    assert cli.main(["convert", "--in", str(src), "--out", str(sym),
                     "--symmetrize"]) == 0
    assert "(2 measurements)" in capsys.readouterr().out


def test_missing_config_exits_one(tmp_path, capsys):
    rc = cli.main(["generate", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "x.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_bad_seed_type_exits_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": {"topology": "sphere", "n": 8},
                               "seed": "three"}))
    rc = cli.main(["generate", "--config", str(cfg),
                   "--out", str(tmp_path / "x.json")])
    assert rc == 1
    assert "seed" in capsys.readouterr().err


def test_bad_solver_flag_exits_one(tmp_path, capsys):
    ds = _generate(tmp_path)
    rc = cli.main(["solve", "--dataset", str(ds), "--stop-tol", "-1",
                   "--out-dir", str(tmp_path / "run")])
    assert rc == 1
    assert "stop_tol" in capsys.readouterr().err


@pytest.mark.parametrize("flag,field", [("--dt", "dt"),
                                        ("--stop-tol", "stop_tol")])
def test_nan_solver_flag_exits_one(tmp_path, capsys, flag, field):
    # NaN fails every comparison, so a `<= 0` check would let it through
    # and the solve would run to --max-iters
    ds = _generate(tmp_path)
    capsys.readouterr()
    rc = cli.main(["solve", "--dataset", str(ds), flag, "nan",
                   "--out-dir", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and field in err[0]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("scenario,seed,message", [
    ({"topology": "sphere", "n": 8.0}, 3,
     "at scenario: n must be an integer, got 8.0"),
    ({"topology": "circle", "n": 8, "circle_neighbors": 1.5}, 3,
     "at scenario: circle_neighbors must be an integer, got 1.5"),
    ({"topology": "grid", "grid_dims": [2, 2, 2.5]}, 3,
     "at scenario: grid_dims entry must be an integer, got 2.5"),
    ({"topology": "grid", "grid_dims": [2, True, 2]}, 3,
     "at scenario: grid_dims entry must be an integer, got True"),
    ({"topology": "sphere", "n": True}, 3,
     "at scenario: n must be an integer, got True"),
    ({"topology": "sphere", "n": 8}, True, "at seed: must be an integer"),
    ({"topology": "sphere", "n": 20, "sphere_target_undirected": 40.5}, 3,
     "at scenario: sphere_target_undirected must be an integer, got 40.5"),
], ids=["n-float", "circle-float", "grid-float", "grid-bool", "n-bool",
        "seed-bool", "sphere-target-float"])
def test_non_integer_config_field_exits_one(tmp_path, capsys, scenario,
                                            seed, message):
    # a float is not truncated and a bool is not taken as 0 or 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": scenario, "seed": seed}))
    out = tmp_path / "x.json"
    assert cli.main(["generate", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: config error {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("seed", [2.7, True], ids=["float", "bool"])
def test_non_integer_noise_seed_exits_one(tmp_path, capsys, seed):
    # the noise seed is not truncated to 2 or taken as 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": {"topology": "sphere", "n": 8},
        "noise": {"tau": 0.5, "kappa": 0.524, "seed": seed}}))
    out = tmp_path / "x.json"
    assert cli.main(["generate", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: config error at noise: seed must be an integer, got {seed!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--init", "gps"], ["solve", "--init", "tree"], ["info"]],
    ids=["solve-gps", "solve-tree", "info"])
def test_negative_seed_flag_exits_one(tmp_path, capsys, monkeypatch, argv):
    # rejected before the dataset is loaded, for every init alike
    ds = _generate(tmp_path)
    capsys.readouterr()

    def load_any(path):
        raise AssertionError("loaded before the flags were checked")

    monkeypatch.setattr(gio, "load_any", load_any)
    argv = argv + ["--dataset", str(ds), "--seed", "-2"]
    if argv[0] == "solve":
        argv += ["--out-dir", str(tmp_path / "run")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        "error: --seed must be nonnegative, got -2\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf", "-0.5"])
def test_bad_epsilon_exits_one(tmp_path, capsys, monkeypatch, epsilon):
    # a NaN margin made every init read as in the basin, and -inf too
    ds = _generate(tmp_path)
    capsys.readouterr()

    def load_any(path):
        raise AssertionError("loaded before the flags were checked")

    monkeypatch.setattr(gio, "load_any", load_any)
    assert cli.main(["info", "--dataset", str(ds),
                     f"--epsilon={epsilon}"]) == 1
    assert capsys.readouterr().err == (
        "error: --epsilon must be finite and nonnegative, "
        f"got {float(epsilon)}\n")


@pytest.mark.parametrize("config,message", [
    ({"seed": -1}, "at seed: must be nonnegative, got -1"),
    ({"noise": {"tau": 0.5, "kappa": 0.524, "seed": -5}},
     "at noise: seed must be nonnegative, got -5"),
    ({"noise": {"tau": 0.5, "kappa": 0.524}},
     "at noise: missing field 'seed'"),
    ({"noise": {"kappa": 0.524, "seed": 3}},
     "at noise: missing field 'tau'"),
], ids=["seed-negative", "noise-seed-negative", "noise-no-seed",
        "noise-no-tau"])
def test_bad_config_seed_names_its_field(tmp_path, capsys, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"scenario": {"topology": "sphere", "n": 8}, **config}))
    out = tmp_path / "x.json"
    assert cli.main(["generate", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: config error {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("config,message", [
    ({"noise": {"tau": float("nan"), "kappa": 0.524, "seed": 1}},
     "at noise: tau must be finite and nonnegative, got nan"),
    ({"noise": {"tau": 0.5, "kappa": float("inf"), "seed": 1}},
     "at noise: kappa must be finite and nonnegative, got inf"),
    ({"scenario": {"topology": "sphere", "n": 8, "radius": float("nan")}},
     "at scenario: radius must be finite and positive, got nan"),
    ({"scenario": {"topology": "grid", "grid_dims": [2, 2, 2],
                   "grid_spacing": float("inf")}},
     "at scenario: grid_spacing must be finite and positive, got inf"),
    ({"scenario": {"topology": "random", "n": 8,
                   "comm_radius": float("nan")}},
     "at scenario: comm_radius must be finite and positive, got nan"),
], ids=["tau-nan", "kappa-inf", "radius-nan", "grid-spacing-inf",
        "comm-radius-nan"])
def test_non_finite_config_scale_exits_one(tmp_path, capsys, config,
                                           message):
    # json writes NaN and Infinity, and json reads them back
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"scenario": {"topology": "sphere", "n": 8}, **config}))
    out = tmp_path / "x.json"
    assert cli.main(["generate", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: config error {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("config,message", [
    ({"scenario": {"topology": "sphere", "n": 10, "radius": True},
      "noise": {"tau": True, "kappa": "0.5", "seed": 1}},
     "at scenario: radius must be a number, got True"),
    ({"noise": {"tau": True, "kappa": 0.5, "seed": 1}},
     "at noise: tau must be a number, got True"),
    ({"noise": {"tau": 0.5, "kappa": "0.5", "seed": 1}},
     "at noise: kappa must be a number, got '0.5'"),
    ({"noise": {"tau": None, "kappa": 0.5, "seed": 1}},
     "at noise: tau must be a number, got None"),
    ({"scenario": {"topology": "grid", "grid_dims": [2, 2, 2],
                   "grid_spacing": "2"}},
     "at scenario: grid_spacing must be a number, got '2'"),
    ({"scenario": {"topology": "random", "n": 8, "comm_radius": False}},
     "at scenario: comm_radius must be a number, got False"),
    ({"scenario": {"topology": "sphere", "n": 8, "comm_radius": [2.0]}},
     "at scenario: comm_radius must be a number, got [2.0]"),
], ids=["radius-bool-and-noise", "tau-bool", "kappa-string", "tau-null",
        "grid-spacing-string", "comm-radius-bool", "unused-scale-list"])
def test_non_numeric_config_scale_exits_one(tmp_path, capsys, config,
                                            message):
    # a bool is not taken as 0 or 1 and a string is not parsed, so
    # nothing reaches the dataset
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"scenario": {"topology": "sphere", "n": 8}, **config}))
    out = tmp_path / "x.json"
    assert cli.main(["generate", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: config error {message}\n"
    assert not out.exists()


def test_integer_config_scales_are_written_as_before(tmp_path):
    # an integer tau or kappa is written as a float, an integer radius as
    # given
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": {"topology": "circle", "n": 6, "radius": 3},
        "noise": {"tau": 1, "kappa": 0, "seed": 2}}))
    out = tmp_path / "x.json"
    assert cli.main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    d = json.loads(out.read_text())
    assert d["noise"] == {"tau": 1.0, "kappa": 0.0, "seed": 2}
    assert type(d["noise"]["tau"]) is float
    assert d["scenario"]["radius"] == 3 and type(d["scenario"]["radius"]) is int


def _scenario_n_float(d):
    d["scenario"]["n"] = 8.0


def _noise_without_kappa(d):
    del d["noise"]["kappa"]


def _noise_tau_nan(d):
    d["noise"]["tau"] = float("nan")


def _noise_kappa_string(d):
    d["noise"]["kappa"] = "0.5"


def _seed_string(d):
    d["seed"] = "abc"


def _vertex_kind_int(d):
    d["vertex_kind"] = 5


@pytest.mark.parametrize("command", ["info", "convert"])
@pytest.mark.parametrize("corrupt, message", [
    (_scenario_n_float, "at scenario: n must be an integer, got 8.0"),
    (_noise_without_kappa, "at noise: missing field 'kappa'"),
    (_noise_tau_nan, "at noise: tau must be finite and nonnegative, got nan"),
    (_noise_kappa_string, "at noise: kappa must be a number, got '0.5'"),
    (_seed_string, "at seed: must be an integer"),
    (_vertex_kind_int, "at vertex_kind: must be a string or null"),
], ids=["scenario-n-float", "noise-without-kappa", "noise-tau-nan",
        "noise-kappa-string", "seed-string", "vertex-kind-int"])
def test_bad_dataset_provenance_names_its_section(tmp_path, capsys, corrupt,
                                                  message, command):
    ds = _generate(tmp_path)
    d = json.loads(ds.read_text())
    corrupt(d)
    ds.write_text(json.dumps(d))
    capsys.readouterr()
    argv = (["info", "--dataset", str(ds)] if command == "info" else
            ["convert", "--in", str(ds), "--out", str(tmp_path / "x.g2o")])
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: malformed JSON dataset {message}\n")


def _generate_from(tmp_path, capsys, config):
    cfg, out = tmp_path / "c.json", tmp_path / "g.json"
    cfg.write_text(json.dumps(config))
    out.unlink(missing_ok=True)
    rc = cli.main(["generate", "--config", str(cfg), "--out", str(out)])
    return rc, capsys.readouterr(), out.read_bytes() if out.exists() else None


def _read_provenance_of(tmp_path, d):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(d))
    try:
        stored = gio.read_dataset(path)
    except ValueError as exc:
        return str(exc)
    return stored.scenario, stored.noise, stored.seed


@pytest.mark.parametrize("field, value", [
    pytest.param(field, value, id=f"{field}-{json.dumps(value)}")
    for field, value in [*((f, v) for f in ("scenario", "noise")
                           for v in ({}, 0, False, [], "")),
                         ("seed", None), ("scenario", None)]])
def test_config_and_dataset_read_provenance_alike(tmp_path, capsys, field,
                                                  value):
    # one rule for a config and a JSON dataset: null is absent, and any
    # other value decodes or fails naming the field
    data = json.loads(_generate(tmp_path).read_text())
    config = json.loads((tmp_path / "cfg.json").read_text())
    capsys.readouterr()
    given = [{**d, field: value} for d in (config, data)]
    if value is None:
        absent = [{k: v for k, v in d.items() if k != field}
                  for d in (config, data)]
        assert (_generate_from(tmp_path, capsys, given[0])
                == _generate_from(tmp_path, capsys, absent[0]))
        assert (_read_provenance_of(tmp_path, given[1])
                == _read_provenance_of(tmp_path, absent[1]))
        return
    rc, printed, out = _generate_from(tmp_path, capsys, given[0])
    message = _read_provenance_of(tmp_path, given[1])
    assert message.startswith(f"malformed JSON dataset at {field}: ")
    assert (rc, out) == (1, None)
    assert printed.err == "error: config error " + message.removeprefix(
        "malformed JSON dataset ") + "\n"


@pytest.mark.parametrize("field, value", [
    ("scenario", [["topology", "sphere"], ["n", 8]]),
    ("noise", [["tau", 0.1], ["kappa", 0.05], ["seed", 1]]),
    ("noise", 0)], ids=["scenario-pairs", "noise-pairs", "noise-0"])
def test_a_section_that_is_not_an_object_fails(tmp_path, capsys, field,
                                               value):
    # a list of key-value pairs is not an object, in a config or a dataset
    data = json.loads(_generate(tmp_path).read_text())
    config = json.loads((tmp_path / "cfg.json").read_text())
    capsys.readouterr()
    rc, printed, out = _generate_from(tmp_path, capsys,
                                      {**config, field: value})
    assert (rc, out) == (1, None)
    assert printed.err == (
        f"error: config error at {field}: must be an object\n")
    assert _read_provenance_of(tmp_path, {**data, field: value}) == (
        f"malformed JSON dataset at {field}: must be an object")


def test_info_on_one_pose(tmp_path, capsys):
    path = tmp_path / "one.g2o"
    path.write_text("VERTEX_SE3:QUAT 0 0 0 0 0 0 0 1\n")
    assert cli.main(["info", "--dataset", str(path), "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["n"] == 1
    assert info["algebraic_connectivity"] == 0.0
    assert info["in_basin_by_init"]["gps"] is None
    assert cli.main(["info", "--dataset", str(path)]) == 0
    out = capsys.readouterr().out
    assert "algebraic connectivity: 0.000000" in out
    assert "gps: n/a (no ground truth)" in out


def test_parser_is_built_once(tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for _ in range(2):
        assert cli.main(["convert", "--in", str(tmp_path / "in.txt"),
                         "--out", str(tmp_path / "out.json")]) == 1
    # none when an earlier call in this process built it already
    assert built.count("geopgo") <= 1
    assert cli.build_parser() is cli.build_parser()


def test_convert_unknown_suffix_exits_one(tmp_path, capsys):
    src = tmp_path / "data.txt"
    src.write_text("")
    rc = cli.main(["convert", "--in", str(src),
                   "--out", str(tmp_path / "x.json")])
    assert rc == 1
    assert "format" in capsys.readouterr().err


G2O_HALF_TURN = """\
VERTEX_SE3:QUAT 0 0 0 0 0 0 0 1
VERTEX_SE3:QUAT 1 1 0 0 0 0 0 1
VERTEX_SE3:QUAT 2 2 0 0 0 0 0 1
EDGE_SE3:QUAT 0 1 1 0 0 0 0 1 0 1 0 0 0 0 0 1 0 0 0 0 1 0 0 0 1 0 0 1 0 1
EDGE_SE3:QUAT 1 2 1 0 0 0 0 0 1 1 0 0 0 0 0 1 0 0 0 0 1 0 0 0 1 0 0 1 0 1
"""


@pytest.mark.parametrize("command", ["info", "solve"])
def test_measured_half_turn_names_its_edge(tmp_path, capsys, command):
    # edge (0, 1) measures a turn of exactly pi, whose log is ambiguous
    path = tmp_path / "half_turn.g2o"
    path.write_text(G2O_HALF_TURN)
    argv = [command, "--dataset", str(path)]
    if command == "solve":
        argv += ["--init", "tree", "--out-dir", str(tmp_path / "run")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "edge (0, 1)" in err


def _solve_argv(ds, tmp_path, mode):
    argv = ["solve", "--dataset", str(ds), "--init", "gps", "--seed", "3",
            "--mode", mode, "--out-dir", str(tmp_path / "run"),
            "--max-iters", "4", "--stop-tol", "1e-9"]
    if mode == "distributed":
        argv += ["--message-log", str(tmp_path / "run" / "messages.jsonl")]
    return argv


@pytest.mark.parametrize("mode", ["reference", "distributed"])
def test_solve_builds_no_measurement_objects(tmp_path, monkeypatch, mode):
    # load, check, reconcile and solve all run on stacked edge arrays
    ds = _generate(tmp_path)
    built = []
    post_init = RelativeMeasurement.__post_init__

    def counted(self):
        built.append((self.src, self.dst))
        post_init(self)

    monkeypatch.setattr(RelativeMeasurement, "__post_init__", counted)
    assert cli.main(_solve_argv(ds, tmp_path, mode)) == 0
    assert built == []
    RelativeMeasurement(0, 1, np.zeros(3), np.eye(3))  # the counter counts
    assert built == [(0, 1)]


@pytest.mark.parametrize("init", ["gps", "tree", "identity"])
@pytest.mark.parametrize("mode", ["reference", "distributed"])
def test_solve_builds_no_poses(tmp_path, monkeypatch, mode, init):
    # the poses stay stacked from the loader to the writer
    ds = _generate(tmp_path)
    built = []
    post_init = Pose.__post_init__

    def counted(self):
        built.append(None)
        post_init(self)

    monkeypatch.setattr(Pose, "__post_init__", counted)
    argv = _solve_argv(ds, tmp_path, mode)
    argv[argv.index("--init") + 1] = init
    assert cli.main(argv) == 0
    assert built == []
    Pose.identity()  # the counter counts
    assert len(built) == 1


@pytest.mark.parametrize("mode", ["reference", "distributed"])
def test_solve_builds_the_graph_once(tmp_path, monkeypatch, mode):
    # the loader builds the graph; the reconciliation derives its arrays
    # with the repaired rotations and builds none, and nothing else does
    ds = _generate(tmp_path)
    calls = []
    for module in (gio, consistency):
        def counted(*args, _build=module.build_graph, _name=module.__name__,
                    **kwargs):
            calls.append(_name)
            return _build(*args, **kwargs)
        monkeypatch.setattr(module, "build_graph", counted)
    assert cli.main(_solve_argv(ds, tmp_path, mode)) == 0
    assert calls == ["geopgo.io"]

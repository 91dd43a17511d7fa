"""End-to-end checks of the command-line driver via main(argv)."""

import json

import numpy as np
import pytest

from geopgo import cli, consistency, runtime
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

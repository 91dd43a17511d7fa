"""File formats: g2o parsing and writing, CSV exports, JSON datasets."""

import gc
import io as pyio
import json
import math
import tracemalloc

import numpy as np
import pytest

from geopgo import cli
from geopgo import io as gio
from geopgo import so3, solver, synth
from geopgo.graph import DisconnectedGraphError, Pose

GARAGE_LINE = ("VERTEX_SE3:QUAT 0 -1.25 3.5 0.75 0 0 0 1")

TWO_VERTEX_ONE_EDGE = """\
# toy directed file with sparse external ids
VERTEX_SE3:QUAT 10 0 0 0 0 0 0 1
VERTEX_SE3:QUAT 20 1 0 0 0 0 0.3826834323650898 0.9238795325112867
EDGE_SE3:QUAT 10 20 1 0 0 0 0 0.3826834323650898 0.9238795325112867 \
1 0 0 0 0 0 1 0 0 0 0 1 0 0 0 1 0 0 1 0 1
"""


def _dataset(seed=0, noise=True):
    spec = synth.ScenarioSpec(topology="sphere", n=14)
    nm = synth.NoiseModel(tau=0.5, kappa=0.524, seed=seed) if noise else None
    poses, g = synth.generate_dataset(spec, nm, seed=seed)
    return gio.Dataset(graph=g, vertices=poses, vertex_kind="ground_truth",
                       scenario=spec, noise=nm, seed=seed)


def test_parse_single_identity_vertex():
    result = gio.parse_g2o(GARAGE_LINE)
    assert result.skipped_records == 0
    assert len(result.poses) == 1
    assert result.raw_measurement_count == 0
    assert result.id_map == {0: 0}
    assert np.array_equal(result.poses[0].t, [-1.25, 3.5, 0.75])
    assert np.allclose(result.poses[0].r, np.eye(3))


def test_parse_two_vertex_file_and_remap():
    result = gio.parse_g2o(TWO_VERTEX_ONE_EDGE)
    assert len(result.poses) == 2
    assert result.raw_measurement_count == 1
    # directed-only edge is symmetrized into the paired model
    assert result.graph.directed_count == 2
    # external sparse ids remapped to dense 0..n-1
    assert result.id_map == {10: 0, 20: 1}
    assert result.skipped_records == 0


def test_parse_accepts_streams_and_paths(tmp_path):
    p = tmp_path / "toy.g2o"
    p.write_text(TWO_VERTEX_ONE_EDGE)
    for source in (p, str(p), pyio.StringIO(TWO_VERTEX_ONE_EDGE)):
        result = gio.parse_g2o(source)
        assert len(result.poses) == 2


@pytest.mark.parametrize("name", ["LOOP.G2O", "loop.G2o"])
def test_parse_reads_a_path_string_of_any_suffix_case(tmp_path, name):
    # the suffix rule of read_dataset and load_any
    p = tmp_path / name
    p.write_text(TWO_VERTEX_ONE_EDGE)
    result = gio.parse_g2o(str(p))
    assert result.id_map == {10: 0, 20: 1}
    assert result.graph.directed_count == 2
    assert gio.load_any(p).graph.directed_count == 2


def test_parse_whitespace_insensitive():
    sloppy = TWO_VERTEX_ONE_EDGE.replace(" ", "   ") + "\n\n\n"
    result = gio.parse_g2o(sloppy)
    assert len(result.poses) == 2
    assert result.raw_measurement_count == 1


def test_parse_normalizes_quaternions():
    scaled = TWO_VERTEX_ONE_EDGE.replace(
        "0 0 0.3826834323650898 0.9238795325112867",
        "0 0 0.7653668647301796 1.8477590650225735")
    result = gio.parse_g2o(scaled)
    for p in result.poses:
        assert so3.is_rotation(p.r, tol=1e-9)
    for m in result.graph.measurements:
        assert so3.is_rotation(m.r_rel, tol=1e-9)


def test_parse_skips_unknown_records():
    text = TWO_VERTEX_ONE_EDGE + "VERTEX_SE2 5 0 0 0\nFIX 10\n"
    result = gio.parse_g2o(text)
    assert result.skipped_records == 2
    assert len(result.poses) == 2
    assert result.raw_measurement_count == 1


def test_parse_error_carries_line_and_token():
    bad = GARAGE_LINE.replace("3.5", "3.5x")
    with pytest.raises(gio.ParseError) as exc:
        gio.parse_g2o(bad)
    assert exc.value.line_no == 1
    assert exc.value.token == "3.5x"

    with pytest.raises(gio.ParseError) as exc:
        gio.parse_g2o("VERTEX_SE3:QUAT 0 1 2 3\n")
    assert "9 fields" in str(exc.value)

    with pytest.raises(gio.ParseError) as exc:
        gio.parse_g2o("EDGE_SE3:QUAT 0 1 0 0 0 0 0 0 1\n")
    assert "31 fields" in str(exc.value)


@pytest.mark.parametrize("token", ["nan", "inf"])
def test_parse_rejects_non_finite_numbers(token):
    bad = TWO_VERTEX_ONE_EDGE.replace("EDGE_SE3:QUAT 10 20 1 ",
                                      f"EDGE_SE3:QUAT 10 20 {token} ")
    with pytest.raises(gio.ParseError) as exc:
        gio.parse_g2o(bad)
    assert exc.value.line_no == 4
    assert exc.value.token == token


def test_json_rejects_non_finite_numbers(tmp_path):
    path = tmp_path / "ds.json"
    gio.save_dataset(path, _dataset(seed=1))
    for section, index, key, name in (("measurements", 3, "t", "measurement 3"),
                                      ("vertices", 1, "q", "vertex 1")):
        bad = json.loads(path.read_text())
        bad[section][index][key][1] = float("nan")
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match=name):
            gio.read_dataset(path)


def test_zero_quaternion_names_its_vertex_or_measurement():
    # the rotations are converted in one stacked call per kind of row;
    # the error still names the row, by g2o vertex id or edge index
    vertex = TWO_VERTEX_ONE_EDGE.replace(
        "VERTEX_SE3:QUAT 20 1 0 0 0 0 0.3826834323650898 0.9238795325112867",
        "VERTEX_SE3:QUAT 20 1 0 0 0 0 0 0")
    edge = TWO_VERTEX_ONE_EDGE.replace(
        "EDGE_SE3:QUAT 10 20 1 0 0 0 0 0.3826834323650898 0.9238795325112867",
        "EDGE_SE3:QUAT 10 20 1 0 0 0 0 0 0")
    assert vertex != TWO_VERTEX_ONE_EDGE and edge != TWO_VERTEX_ONE_EDGE
    with pytest.raises(ValueError, match="vertex 20: zero quaternion"):
        gio.parse_g2o(vertex)
    with pytest.raises(ValueError, match="measurement 0: zero quaternion"):
        gio.parse_g2o(edge)


_INFO = " 1 0 0 0 0 0 1 0 0 0 0 1 0 0 0 1 0 0 1 0 1"


def test_g2o_quaternion_norm_that_overflows_names_the_first_bad_row():
    # (1e200, 0, 0, 0) is a half turn about x whose squared norm
    # overflows: it is rejected, not read as the identity, and the error
    # names the first bad row in file order, not the zero one
    vertices = ("VERTEX_SE3:QUAT 10 0 0 0 0 0 0 1\n"
                "VERTEX_SE3:QUAT 30 0 0 0 1e200 0 0 0\n"
                "VERTEX_SE3:QUAT 20 0 0 0 0 0 0 0\n")
    with pytest.raises(ValueError,
                       match="^vertex 30: quaternion norm is not finite$"):
        gio.parse_g2o(vertices)
    edges = ("VERTEX_SE3:QUAT 10 0 0 0 0 0 0 1\n"
             "VERTEX_SE3:QUAT 20 0 0 0 0 0 0 1\n"
             "VERTEX_SE3:QUAT 30 0 0 0 0 0 0 1\n"
             f"EDGE_SE3:QUAT 20 10 1 0 0 0 0 0 1{_INFO}\n"
             f"EDGE_SE3:QUAT 10 20 1 0 0 1e200 0 0 0{_INFO}\n"
             f"EDGE_SE3:QUAT 20 30 1 0 0 0 0 0 0{_INFO}\n")
    with pytest.raises(ValueError,
                       match="^measurement 1: quaternion norm is not finite$"):
        gio.parse_g2o(edges)


@pytest.mark.parametrize("section, name", [("vertices", "vertex 3"),
                                           ("measurements", "measurement 3")])
def test_json_quaternion_norm_that_overflows_names_the_first_bad_row(
        tmp_path, section, name):
    path = tmp_path / "ds.json"
    gio.save_dataset(path, _dataset(seed=7))
    d = json.loads(path.read_text())
    d[section][3]["q"] = [1e200, 0.0, 0.0, 0.0]
    d[section][5]["q"] = [0.0, 0.0, 0.0, 0.0]
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError,
                       match=f"^{name}: quaternion norm is not finite$"):
        gio.read_dataset(path)


def test_vertex_less_json_costs_nothing_in_its_claimed_n(tmp_path,
                                                        bounded_cost):
    # a JSON dataset without vertices declares the ids 0..n-1; reading
    # it, checking its endpoints and rejecting its graph cost nothing in n
    n = 10 ** 12
    path = tmp_path / "huge.json"
    edge = {"src": 0, "dst": 7, "t": [1.0, 0.0, 0.0], "q": [0, 0, 0, 1]}
    path.write_text(json.dumps({"n": n, "measurements": [edge]}))
    with bounded_cost(seconds=1.0, peak_bytes=10 << 20):
        stored = gio.read_dataset(path)
    assert stored.n == len(stored.id_map) == n
    assert stored.id_map[7] == 7 and n - 1 in stored.id_map
    assert n not in stored.id_map and -1 not in stored.id_map
    with bounded_cost(seconds=1.0, peak_bytes=10 << 20):
        with pytest.raises(DisconnectedGraphError) as err:
            gio.load_any(path)
    assert str(err.value) == (f"{n - 2} vertices unreachable from vertex 0 "
                              "(first few: [1, 2, 3, 4, 5])")
    path.write_text(json.dumps({"n": n, "measurements": [
        edge, {**edge, "dst": n}]}))
    with bounded_cost(seconds=1.0, peak_bytes=10 << 20):
        with pytest.raises(gio.InconsistentVertexCountError,
                           match=rf"^measurement 1 \(0, {n}\) references"):
            gio.read_dataset(path)


def test_duplicate_vertex_rejected():
    text = GARAGE_LINE + "\n" + GARAGE_LINE
    with pytest.raises(gio.InconsistentVertexCountError):
        gio.parse_g2o(text)


def test_edge_with_undeclared_vertex_rejected():
    text = TWO_VERTEX_ONE_EDGE.replace("EDGE_SE3:QUAT 10 20",
                                       "EDGE_SE3:QUAT 10 99")
    with pytest.raises(gio.InconsistentVertexCountError):
        gio.parse_g2o(text)


def test_write_empty_and_single():
    assert gio.g2o_text([], []) == ""
    text = gio.g2o_text([Pose.identity()], [])
    lines = text.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("VERTEX_SE3:QUAT 0 ")


def test_g2o_round_trip_exact_structure():
    ds = _dataset(seed=2)
    text = gio.g2o_text(ds.vertices, ds.graph.measurements)
    result = gio.parse_g2o(text)
    assert result.graph.n == ds.graph.n
    assert result.graph.directed_count == ds.graph.directed_count
    worst = 0.0
    for a, b in zip(ds.graph.measurements, result.graph.measurements):
        assert (a.src, a.dst) == (b.src, b.dst)
        worst = max(worst,
                    float(np.max(np.abs(a.t_rel - b.t_rel))),
                    float(np.max(np.abs(a.r_rel - b.r_rel))))
    for p, q in zip(ds.vertices, result.poses):
        worst = max(worst, float(np.max(np.abs(p.t - q.t))),
                    float(np.max(np.abs(p.r - q.r))))
    assert worst < 1e-9


def test_trajectory_csv_identity_row():
    text = gio.export_trajectory_csv([Pose.identity()])
    lines = text.strip().splitlines()
    assert lines[0] == "id,tx,ty,tz,qx,qy,qz,qw"
    assert lines[1] == "0,0,0,0,0,0,0,1"


def test_trajectory_csv_round_trip():
    rng = np.random.default_rng(41)
    poses = [Pose(t=rng.normal(size=3), r=so3.random_rotation(rng))
             for _ in range(17)]
    text = gio.export_trajectory_csv(poses)
    assert len(text.strip().splitlines()) == 18
    back = gio.parse_trajectory_csv(text)
    assert len(back) == 17
    for a, b in zip(poses, back):
        assert a.t.tobytes() == b.t.tobytes()  # written at full precision
        assert np.max(np.abs(a.r - b.r)) < 1e-12
    with pytest.raises(ValueError):
        gio.parse_trajectory_csv("tx,ty\n1,2\n")


@pytest.mark.parametrize("row, line, reason", [
    ("1,nan,0,0,0,0,0,1", 4, "row id 1 and 7 finite numbers"),
    ("1,0,0,0,0,0,inf,1", 4, "row id 1 and 7 finite numbers"),
    ("7,0,0,0,0,0,0,1", 4, "row id 1 and 7 finite numbers"),
    ("x,0,0,0,0,0,0,1", 4, "row id 1 and 7 finite numbers"),
    ("1,0,0,0,0,0,0,1,9", 4, "row id 1 and 7 finite numbers"),
    ("1,0,0,0,0,0", 4, "row id 1 and 7 finite numbers"),
    ("1,0,0,0,0,0,0,0", 4, "zero quaternion"),
], ids=["nan", "inf", "id", "text-id", "ninth", "short", "zero-q"])
def test_trajectory_csv_names_the_bad_line(row, line, reason):
    # the blank line 3 is skipped but counted: the bad row is file line 4
    text = ("id,tx,ty,tz,qx,qy,qz,qw\n0,1,2,3,0,0,0,1\n\n"
            f"{row}\n2,0,0,0,0,0,0,1\n")
    with pytest.raises(ValueError, match=rf"^line {line}: .*{reason}"):
        gio.parse_trajectory_csv(text)


def test_trajectory_csv_names_the_first_bad_quaternion_line():
    # (1e200, 0, 0, 0) has a squared norm that overflows; the first bad
    # row in file order is named, not the one of smallest norm
    text = ("id,tx,ty,tz,qx,qy,qz,qw\n0,0,0,0,0,0,0,1\n"
            "1,0,0,0,1e200,0,0,0\n2,0,0,0,0,0,0,0\n")
    with pytest.raises(ValueError,
                       match="^line 3: quaternion norm is not finite$"):
        gio.parse_trajectory_csv(text)


def test_objective_csv():
    hist = [solver.ObjectiveValue(3.0, 4.0, 1.0, 2.0),
            solver.ObjectiveValue(1.5, 2.5, 0.5, 1.0)]
    text = gio.export_objective_csv(hist, [0.25])
    lines = text.strip().splitlines()
    assert lines[0] == "iter,geodesic,chordal,max_control_norm"
    assert lines[1] == "0,3,4,0.25"
    cells = lines[2].split(",")
    assert cells[:3] == ["1", "1.5", "2.5"]
    assert math.isnan(float(cells[3]))  # no norm recorded for the last entry


def test_json_dataset_round_trip(tmp_path):
    ds = _dataset(seed=3)
    path = tmp_path / "ds.json"
    gio.save_dataset(path, ds)
    back = gio.load_any(path)
    assert back.graph.n == ds.graph.n
    assert back.scenario == ds.scenario
    assert back.noise == ds.noise
    assert back.seed == ds.seed
    assert back.vertex_kind == "ground_truth"
    # translations are stored losslessly; rotations pass through a
    # quaternion encoding that costs a couple of ulps
    for a, b in zip(ds.graph.measurements, back.graph.measurements):
        assert (a.src, a.dst) == (b.src, b.dst)
        assert np.max(np.abs(a.t_rel - b.t_rel)) == 0.0
        assert np.max(np.abs(a.r_rel - b.r_rel)) < 1e-12
    for p, q in zip(ds.vertices, back.vertices):
        assert np.max(np.abs(p.t - q.t)) == 0.0
        assert np.max(np.abs(p.r - q.r)) < 1e-12


def test_json_dataset_without_provenance(tmp_path):
    ds = _dataset(seed=4)
    bare = gio.Dataset(graph=ds.graph)
    path = tmp_path / "bare.json"
    gio.save_dataset(path, bare)
    back = gio.load_any(path)
    assert back.vertices is None
    assert back.scenario is None
    assert back.noise is None
    assert back.seed is None
    assert back.graph.directed_count == ds.graph.directed_count


@pytest.mark.parametrize("field, value, message", [
    ("seed", "abc", "at seed: must be an integer"),
    ("seed", True, "at seed: must be an integer"),
    ("seed", 7.0, "at seed: must be an integer"),
    ("seed", -1, "at seed: must be nonnegative, got -1"),
    ("vertex_kind", 5, "at vertex_kind: must be a string or null"),
    ("vertex_kind", ["ground_truth"], "at vertex_kind: must be a string or null"),
], ids=["seed-string", "seed-bool", "seed-float", "seed-negative",
        "vertex-kind-int", "vertex-kind-list"])
def test_json_dataset_seed_and_vertex_kind_are_checked(tmp_path, field, value,
                                                       message):
    path = tmp_path / "ds.json"
    gio.save_dataset(path, _dataset(seed=6))
    d = json.loads(path.read_text())
    d[field] = value
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError) as err:
        gio.read_dataset(path)
    assert str(err.value) == f"malformed JSON dataset {message}"


def test_json_dataset_seed_may_be_null_or_absent(tmp_path):
    path = tmp_path / "ds.json"
    gio.save_dataset(path, _dataset(seed=6))
    d = json.loads(path.read_text())
    bare = {k: v for k, v in d.items() if k not in ("seed", "vertex_kind")}
    for edit in ({"seed": None, "vertex_kind": None}, {}):
        path.write_text(json.dumps({**bare, **edit}))
        back = gio.read_dataset(path)
        assert back.seed is None and back.vertex_kind is None
    path.write_text(json.dumps({**d, "seed": 0}))
    assert gio.read_dataset(path).seed == 0


@pytest.mark.parametrize("name, section, message", [
    ("scenario", {"topology": "sphere", "n": 8.0},
     "at scenario: n must be an integer, got 8.0"),
    ("scenario", {"topology": "sphere", "n": 8, "bogus": 1},
     "at scenario: .*unexpected keyword argument 'bogus'"),
    ("noise", {"tau": 0.5, "seed": 1}, "at noise: missing field 'kappa'"),
    ("noise", {"tau": float("nan"), "kappa": 0.5, "seed": 1},
     "at noise: tau must be finite and nonnegative, got nan"),
], ids=["n-float", "unknown-field", "no-kappa", "nan-tau"])
def test_read_section_names_the_section(name, section, message):
    with pytest.raises(ValueError, match=message):
        gio.read_provenance({name: section})


def test_load_any_dispatches_by_suffix(tmp_path):
    ds = _dataset(seed=5)
    jp = tmp_path / "a.json"
    gp = tmp_path / "b.g2o"
    gio.save_dataset(jp, ds)
    gp.write_text(gio.g2o_text(ds.vertices, ds.graph.measurements))
    via_json = gio.load_any(jp)
    via_g2o = gio.load_any(gp)
    assert via_json.graph.directed_count == via_g2o.graph.directed_count
    # both formats store t and q losslessly and decode them the same way
    for a, b in zip(via_json.graph.measurements, via_g2o.graph.measurements):
        assert (a.src, a.dst) == (b.src, b.dst)
        assert a.t_rel.tobytes() == b.t_rel.tobytes()
        assert a.r_rel.tobytes() == b.r_rel.tobytes()
    assert via_json.scenario is not None
    assert via_g2o.scenario is None  # g2o carries no provenance
    other = tmp_path / "c.txt"
    other.write_text(jp.read_text())
    with pytest.raises(ValueError, match="c.txt"):
        gio.load_any(other)


@pytest.mark.parametrize("spec", [
    dict(topology="sphere", n=np.int64(8)),
    dict(topology="sphere", n=np.int32(9), sphere_target_undirected=np.int64(20)),
    dict(topology="circle", n=np.int64(6), circle_neighbors=np.int16(2)),
], ids=["sphere", "sphere-target", "circle"])
def test_dataset_built_with_numpy_integers_saves_and_loads(tmp_path, spec):
    # the spec and the noise model accept numpy integers, so saving them
    # must not fail in the JSON encoder
    scenario = synth.ScenarioSpec(**spec)
    noise = synth.NoiseModel(seed=np.int64(3))
    poses, graph = synth.generate_dataset(scenario, noise, seed=5)
    path = tmp_path / "ds.json"
    gio.save_dataset(path, gio.Dataset(
        graph=graph, vertices=poses, vertex_kind="ground_truth",
        scenario=scenario, noise=noise, seed=5))
    back = gio.load_any(path)
    assert back.scenario == scenario and back.noise == noise
    assert back.graph.directed_count == graph.directed_count
    plain = synth.ScenarioSpec(**{k: v if isinstance(v, str) else int(v)
                                  for k, v in spec.items()})
    twin = tmp_path / "twin.json"
    gio.save_dataset(twin, gio.Dataset(
        graph=graph, vertices=poses, vertex_kind="ground_truth",
        scenario=plain, noise=synth.NoiseModel(seed=3), seed=5))
    assert path.read_bytes() == twin.read_bytes()


def test_dataset_built_with_numpy_scales_saves_and_loads(tmp_path):
    # numpy scalars in the scale fields are kept as Python numbers, so the
    # dataset saves, with the bytes of the same spec in plain numbers
    def save(path, radius, tau, kappa):
        scenario = synth.ScenarioSpec(topology="sphere", n=8, radius=radius)
        noise = synth.NoiseModel(tau=tau, kappa=kappa, seed=3)
        poses, graph = synth.generate_dataset(scenario, noise, seed=5)
        gio.save_dataset(path, gio.Dataset(
            graph=graph, vertices=poses, vertex_kind="ground_truth",
            scenario=scenario, noise=noise, seed=5))
        return path.read_bytes()

    got = save(tmp_path / "ds.json", np.float32(4.5), np.float32(0.25),
               np.int64(1))
    assert got == save(tmp_path / "twin.json", 4.5, 0.25, 1)
    assert gio.load_any(tmp_path / "ds.json").scenario.radius == 4.5
    radius = synth.ScenarioSpec(topology="sphere", n=8,
                                radius=np.int64(3)).radius
    assert radius == 3 and type(radius) is int


@pytest.fixture(scope="module")
def big_inputs(tmp_path_factory):
    """A JSON dataset with more than 2,000 directed edges and the g2o file
    that ``geopgo convert`` writes from it."""
    root = tmp_path_factory.mktemp("big")
    spec = synth.ScenarioSpec(topology="sphere", n=200)
    poses, graph = synth.generate_dataset(spec, synth.NoiseModel(seed=1), 1)
    assert graph.directed_count >= 2000
    jp, gp = root / "big.json", root / "big.g2o"
    gio.save_dataset(jp, gio.Dataset(graph=graph, vertices=poses,
                                     vertex_kind="ground_truth",
                                     scenario=spec, seed=1))
    assert cli.main(["convert", "--in", str(jp), "--out", str(gp)]) == 0
    return jp, gp


def _collections(read, enabled: bool) -> tuple[list[int], bool]:
    """The generations of the collections that ``read()`` runs, and
    whether the collector is enabled after it, starting from ``enabled``
    and an empty young generation."""
    runs = []

    def count(phase, info):
        if phase == "start":
            runs.append(info["generation"])

    was = gc.isenabled()
    gc.collect()
    (gc.enable if enabled else gc.disable)()
    gc.callbacks.append(count)
    try:
        read()
        return runs, gc.isenabled()
    finally:
        gc.callbacks.remove(count)
        (gc.enable if was else gc.disable)()


READERS = {
    "read_dataset-json": lambda jp, gp: gio.read_dataset(jp),
    "read_dataset-g2o": lambda jp, gp: gio.read_dataset(gp),
    "parse_g2o": lambda jp, gp: gio.parse_g2o(gp),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("reader", READERS)
def test_decode_runs_no_collection(big_inputs, capsys, reader, enabled):
    # the decoded tree holds no cycles and is dropped before the read
    # returns, so a collection over it would free nothing
    capsys.readouterr()
    runs, after = _collections(lambda: READERS[reader](*big_inputs), enabled)
    assert runs == []
    assert after is enabled


@pytest.mark.parametrize("suffix", ["json", "g2o"])
def test_the_inputs_are_large_enough_to_collect(big_inputs, suffix):
    # without the hold the same decode runs collections, so the test
    # above can fail
    path = big_inputs[0 if suffix == "json" else 1]
    bare = (gio._json_contents if suffix == "json"
            else gio._g2o_contents).__wrapped__
    runs, _ = _collections(lambda: bare(path.read_text()), True)
    assert len(runs) >= 3


def _broken_json(path):
    d = json.loads(path.read_text())
    d["measurements"][1999]["t"] = [0.0, "x", 0.0]
    return json.dumps(d)


def _broken_g2o(path):
    lines = path.read_text().splitlines()
    tokens = lines[-1].split()
    tokens[3] = "abc"  # the edge's x
    lines[-1] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("suffix,error,message", [
    ("json", ValueError, "measurement 1999"),
    ("g2o", gio.ParseError, "abc"),
], ids=["json", "g2o"])
def test_a_failing_decode_restores_the_collector(
        big_inputs, tmp_path, suffix, error, message, enabled):
    # only the state is checked: the traceback keeps the decoder's frame,
    # and with it the decoded tree, alive past the hold, so the first
    # young collection after it may scan the tree once
    src = big_inputs[0 if suffix == "json" else 1]
    path = tmp_path / f"broken.{suffix}"
    path.write_text((_broken_json if suffix == "json" else _broken_g2o)(src))

    def read():
        with pytest.raises(error, match=message):
            gio.read_dataset(path)

    assert _collections(read, enabled)[1] is enabled


def test_g2o_decode_peak_memory_is_a_few_times_the_file(big_inputs):
    # each line is converted as it is read and only its columns are kept:
    # the peak is about 4.2 times the file size, and a decode that keeps
    # every token of every line until the end reaches about 11.5 times
    path = big_inputs[1]
    tracemalloc.start()
    try:
        gio.read_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * path.stat().st_size

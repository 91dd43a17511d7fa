"""File formats: g2o text graphs, JSON datasets, CSV exports.

Both dataset formats are read through one path. Each format's decoder
only turns its syntax into vertex rows ``(id, t, q)`` and edge rows
``(src, dst, t, q)``; one assembly step checks those rows the same way
for both (unique vertex ids, every edge between declared vertices,
finite numbers, and a JSON ``n`` that matches its vertex list), remaps
the ids to dense ``0..n-1`` in ascending order and returns a
:class:`StoredDataset`: the file's contents as stored, directed and
unpaired. The format is chosen by the suffix, ``.g2o`` or ``.json``, for
reading and for writing alike.

The g2o dialect handled here is the SE(3) quaternion one: lines of

    VERTEX_SE3:QUAT id x y z qx qy qz qw
    EDGE_SE3:QUAT i j x y z qx qy qz qw  <21 upper-triangular info values>

Quaternions are scalar-last and are normalized on ingest. The information
values must be finite numbers but carry no weight in the solver. Unknown
record types are skipped and counted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from . import so3
from .graph import Pose, PoseGraph, RelativeMeasurement, build_graph
from .synth import NoiseModel, ScenarioSpec

_IDENTITY_INFO = tuple(
    1.0 if (i == j) else 0.0
    for i in range(6) for j in range(i, 6)
)

# g2o tag -> (record kind, number of ids, number of fields with the tag)
_G2O_RECORDS = {"VERTEX_SE3:QUAT": ("vertex", 1, 9),
                "EDGE_SE3:QUAT": ("edge", 2, 31)}


class ParseError(ValueError):
    """Malformed g2o content; carries the line number and offending token."""

    def __init__(self, line_no: int, token: str, reason: str) -> None:
        super().__init__(f"line {line_no}: {reason} (token {token!r})")
        self.line_no = line_no
        self.token = token


class InconsistentVertexCountError(ValueError):
    """Vertices and edges disagree: a doubled vertex id, an edge to an
    undeclared vertex, or a JSON ``n`` that differs from its vertex list."""


@dataclass
class StoredDataset:
    """A dataset file's contents as stored, over dense ids ``0..n-1``.

    ``measurements`` keep the file's directions and order, unpaired.
    ``vertices`` are the file's poses in dense-id order, None for a JSON
    dataset without vertices. ``id_map`` maps the file's vertex ids to
    dense ids; ``skipped_records`` counts unknown g2o records. The
    provenance fields are None for g2o.
    """

    format: str
    n: int
    vertices: list[Pose] | None
    measurements: list[RelativeMeasurement]
    id_map: dict[int, int]
    skipped_records: int = 0
    vertex_kind: str | None = None
    scenario: ScenarioSpec | None = None
    noise: NoiseModel | None = None
    seed: int | None = None


@dataclass
class G2oParseResult:
    poses: list[Pose]
    graph: PoseGraph
    id_map: dict[int, int]
    raw_measurement_count: int
    skipped_records: int


def _floats(tokens: Sequence[str], line_no: int) -> list[float]:
    out = []
    for tok in tokens:
        try:
            x = float(tok)
        except ValueError:
            raise ParseError(line_no, tok, "expected a number") from None
        if not math.isfinite(x):
            raise ParseError(line_no, tok, "expected a finite number")
        out.append(x)
    return out


def _ints(tokens: Sequence[str], line_no: int) -> list[int]:
    out = []
    for tok in tokens:
        try:
            out.append(int(tok))
        except ValueError:
            raise ParseError(line_no, tok, "expected an integer id") from None
    return out


def _checked(name: str, t, q) -> tuple[np.ndarray, np.ndarray]:
    """Checked translation and quaternion of one row, named in any error."""
    try:
        t = np.array(t, dtype=float)
        q = np.array(q, dtype=float)
        if (t.shape != (3,) or q.shape != (4,)
                or not all(map(math.isfinite, t.tolist() + q.tolist()))):
            raise ValueError("needs 3 finite numbers in t and 4 in q")
        return t, q
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name}: {exc}") from None


def _rotations(quats: list, name) -> np.ndarray:
    """The rotations of checked quaternions in one stacked conversion;
    ``name(k)`` names row ``k`` when it is a zero quaternion."""
    q = np.array(quats, dtype=float).reshape(-1, 4)
    try:
        return so3.quat_to_matrix(q)
    except ValueError as exc:
        k = int(np.argmin(so3.dot_rows(q, q)))  # the first zero row
        raise ValueError(f"{name(k)}: {exc}") from None


def _assemble(fmt: str, vertex_rows: list | None, edge_rows: list,
              n: int | None = None, **extra) -> StoredDataset:
    """Check the decoded rows of either format and remap ids densely.

    ``vertex_rows`` None (JSON without vertices) declares ids ``0..n-1``
    without poses; otherwise a given ``n`` must equal the row count.
    """
    if n is not None and type(n) is not int:
        raise ValueError(f"n must be an integer, got {n!r}")
    if vertex_rows is None:
        ids, poses = range(n), None
    else:
        by_id: dict[int, tuple] = {}
        for vid, t, q in vertex_rows:
            if type(vid) is not int:
                raise ValueError(f"vertex id {vid!r} is not an integer")
            if vid in by_id:
                raise InconsistentVertexCountError(
                    f"vertex id {vid} declared twice")
            by_id[vid] = _checked(f"vertex {vid}", t, q)
        declared = list(by_id)
        rotations = _rotations([q for _, q in by_id.values()],
                               lambda k: f"vertex {declared[k]}")
        by_id = {vid: Pose(t, r)
                 for (vid, (t, _)), r in zip(by_id.items(), rotations)}
        if n is not None and n != len(by_id):
            raise InconsistentVertexCountError(
                f"n is {n} but {len(by_id)} vertices are declared")
        ids = sorted(by_id)
        poses = [by_id[vid] for vid in ids]
    id_map = {ext: i for i, ext in enumerate(ids)}

    edges = []
    for k, (i, j, t, q) in enumerate(edge_rows):
        try:
            src, dst = id_map[i], id_map[j]
        except (KeyError, TypeError):
            raise InconsistentVertexCountError(
                f"measurement {k} ({i}, {j}) references an undeclared "
                "vertex") from None
        edges.append((src, dst, *_checked(f"measurement {k}", t, q)))
    rotations = _rotations([q for *_, q in edges],
                           lambda k: f"measurement {k}")
    measurements = [RelativeMeasurement(src, dst, t, r)
                    for (src, dst, t, _), r in zip(edges, rotations)]
    return StoredDataset(fmt, len(id_map), poses, measurements, id_map,
                         **extra)


def _g2o_contents(text: str) -> StoredDataset:
    rows: dict[str, list] = {"vertex": [], "edge": []}
    skipped = 0
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if tokens[0] not in _G2O_RECORDS:
            skipped += 1
            continue
        kind, n_ids, width = _G2O_RECORDS[tokens[0]]
        if len(tokens) != width:
            raise ParseError(line_no, tokens[0],
                             f"{kind} needs {width} fields, got {len(tokens)}")
        ids = _ints(tokens[1:1 + n_ids], line_no)
        # the 21 information values of an edge are checked, then dropped
        vals = _floats(tokens[1 + n_ids:], line_no)
        rows[kind].append((*ids, vals[0:3], vals[3:7]))
    return _assemble("g2o", rows["vertex"], rows["edge"],
                     skipped_records=skipped)


def _fields(obj, name: str, *keys: str) -> list:
    """The values of ``keys`` in one JSON object, or an error naming it."""
    try:
        return [obj[k] for k in keys]
    except (KeyError, TypeError):
        raise ValueError(f"{name} needs the fields {', '.join(keys)}") from None


def _json_contents(text: str) -> StoredDataset:
    d = json.loads(text)
    n, entries = _fields(d, "the dataset", "n", "measurements")
    try:
        edges = [_fields(m, f"measurement {k}", "src", "dst", "t", "q")
                 for k, m in enumerate(entries)]
        vertices = None
        if d.get("vertices") is not None:
            vertices = [_fields(v, f"vertex entry {k}", "id", "t", "q")
                        for k, v in enumerate(d["vertices"])]
        return _assemble(
            "json", vertices, edges, n,
            vertex_kind=d.get("vertex_kind"), seed=d.get("seed"),
            scenario=(ScenarioSpec.from_dict(d["scenario"])
                      if d.get("scenario") else None),
            noise=NoiseModel.from_dict(d["noise"]) if d.get("noise") else None)
    except (KeyError, TypeError) as exc:  # a list or section of the wrong shape
        raise ValueError(f"malformed JSON dataset: {exc!r}") from None


def _format(path: str | Path) -> str:
    """``"g2o"`` or ``"json"`` by the suffix of ``path``."""
    suffix = Path(path).suffix.lower()
    if suffix not in (".g2o", ".json"):
        raise ValueError(f"{path}: unknown dataset format {suffix!r}; "
                         "use a .g2o or .json file")
    return suffix[1:]


def read_dataset(path: str | Path) -> StoredDataset:
    """Read a ``.g2o`` or ``.json`` dataset file as stored.

    Raises:
        ParseError: malformed g2o line, naming the line and token.
        InconsistentVertexCountError: see the class.
        ValueError: an unknown suffix, or an entry that lacks a field or
            carries a malformed or non-finite number, named in the message.
    """
    decode = _g2o_contents if _format(path) == "g2o" else _json_contents
    return decode(Path(path).read_text())


def parse_g2o(source: str | Path | IO[str]) -> G2oParseResult:
    """Parse g2o content into poses and a paired measurement graph.

    ``source`` is a path, a ``.g2o`` path string, g2o text or a stream.
    Files typically carry one direction per edge; the missing direction
    is synthesized as the rigid inverse, so the result is pairwise
    consistent by construction wherever only one direction existed.

    Raises:
        ParseError: malformed line.
        InconsistentVertexCountError: see the class.
    """
    if isinstance(source, Path):
        text = source.read_text()
    elif isinstance(source, str) and "\n" not in source and source.endswith(".g2o"):
        text = Path(source).read_text()
    elif isinstance(source, str):
        text = source
    else:
        text = source.read()
    stored = _g2o_contents(text)
    graph = build_graph(stored.n, stored.measurements, symmetrize_missing=True)
    return G2oParseResult(
        poses=stored.vertices, graph=graph, id_map=stored.id_map,
        raw_measurement_count=len(stored.measurements),
        skipped_records=stored.skipped_records)


def _fmt(x: float) -> str:
    # integral values print bare (0 not 0.0); repr keeps the rest lossless
    x = float(x)
    if x.is_integer():
        return str(int(x))
    return repr(x)


def g2o_text(
    poses: Sequence[Pose], measurements: Iterable[RelativeMeasurement],
) -> str:
    """Render poses and a raw measurement list as g2o text.

    Measurements are written exactly as given, preserving directedness.
    Information matrices are written as identity.
    """
    lines = []
    for i, p in enumerate(poses):
        q = so3.matrix_to_quat(p.r)
        lines.append(" ".join(
            ["VERTEX_SE3:QUAT", str(i)]
            + [_fmt(v) for v in p.t] + [_fmt(v) for v in q]))
    info = [_fmt(v) for v in _IDENTITY_INFO]
    for m in measurements:
        q = so3.matrix_to_quat(m.r_rel)
        lines.append(" ".join(
            ["EDGE_SE3:QUAT", str(m.src), str(m.dst)]
            + [_fmt(v) for v in m.t_rel] + [_fmt(v) for v in q] + info))
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


def export_trajectory_csv(poses: Sequence[Pose]) -> str:
    """CSV of poses: ``id,tx,ty,tz,qx,qy,qz,qw`` at full double precision."""
    lines = ["id,tx,ty,tz,qx,qy,qz,qw"]
    for i, p in enumerate(poses):
        q = so3.matrix_to_quat(p.r)
        lines.append(",".join(
            [str(i)] + [_fmt(v) for v in p.t] + [_fmt(v) for v in q]))
    return "\n".join(lines) + "\n"


def parse_trajectory_csv(text: str) -> list[Pose]:
    """Inverse of :func:`export_trajectory_csv`."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "id,tx,ty,tz,qx,qy,qz,qw":
        raise ValueError("not a trajectory CSV (bad header)")
    poses = []
    for ln in lines[1:]:
        parts = ln.split(",")
        vals = [float(x) for x in parts[1:]]
        poses.append(Pose(np.array(vals[0:3]),
                          so3.quat_to_matrix(np.array(vals[3:7]))))
    return poses


def export_objective_csv(
    history: Sequence, control_norms: Sequence[float],
) -> str:
    """CSV of per-iteration objective values and the largest control norm."""
    lines = ["iter,geodesic,chordal,max_control_norm"]
    for k, obj in enumerate(history):
        norm = control_norms[k] if k < len(control_norms) else float("nan")
        lines.append(",".join(
            [str(k), _fmt(obj.geodesic), _fmt(obj.chordal), _fmt(norm)]))
    return "\n".join(lines) + "\n"


@dataclass
class Dataset:
    """A measurement graph plus optional provenance.

    ``vertices`` are ground-truth poses when ``vertex_kind`` is
    ``"ground_truth"``, or a stored estimate; None for graphs whose truth
    is unknown (e.g. parsed benchmark files). ``seed`` is the scenario
    placement seed; the noise model carries its own. ``id_map`` maps a
    g2o file's vertex ids to dense ids.
    """

    graph: PoseGraph
    vertices: list[Pose] | None = None
    vertex_kind: str | None = None
    scenario: ScenarioSpec | None = None
    noise: NoiseModel | None = None
    seed: int | None = None
    id_map: dict[int, int] = field(default_factory=dict)


def _json_pose(t: np.ndarray, r: np.ndarray) -> dict:
    return {"t": [float(v) for v in t],
            "q": [float(v) for v in so3.matrix_to_quat(r)]}


def _json_text(stored: StoredDataset) -> str:
    d = {
        "scenario": stored.scenario.to_dict() if stored.scenario else None,
        "seed": stored.seed,
        "noise": stored.noise.to_dict() if stored.noise else None,
        "vertex_kind": stored.vertex_kind,
        "vertices": None if stored.vertices is None else [
            {"id": i, **_json_pose(p.t, p.r)}
            for i, p in enumerate(stored.vertices)],
        "measurements": [
            {"src": m.src, "dst": m.dst, **_json_pose(m.t_rel, m.r_rel)}
            for m in stored.measurements],
        "n": stored.n,
    }
    return json.dumps(d, indent=1) + "\n"


def write_dataset(path: str | Path, stored: StoredDataset) -> None:
    """Write ``stored`` in the format of ``path``'s suffix, edges as given."""
    if _format(path) == "json":
        text = _json_text(stored)
    elif stored.vertices is None:
        raise ValueError(
            f"{path}: g2o output needs vertex poses, which the input lacks")
    else:
        text = g2o_text(stored.vertices, stored.measurements)
    Path(path).write_text(text)


def save_dataset(path: str | Path, ds: Dataset) -> None:
    """Write ``ds`` through :func:`write_dataset`, in the format of
    ``path``'s suffix; g2o keeps the poses and edges and drops the
    provenance. An unknown suffix raises before anything is written."""
    write_dataset(path, StoredDataset(
        _format(path), ds.graph.n, ds.vertices, list(ds.graph.measurements),
        ds.id_map, vertex_kind=ds.vertex_kind, scenario=ds.scenario,
        noise=ds.noise, seed=ds.seed))


def load_any(path: str | Path) -> Dataset:
    """Load a ``.g2o`` or ``.json`` dataset, pairing one-way edges.

    A g2o file's vertex poses are an estimate, not provenance, so its
    ``Dataset`` carries no vertices; its ``id_map`` is kept.
    """
    stored = read_dataset(path)
    graph = build_graph(stored.n, stored.measurements, symmetrize_missing=True)
    if stored.format == "g2o":
        return Dataset(graph=graph, id_map=stored.id_map)
    return Dataset(graph=graph, vertices=stored.vertices,
                   vertex_kind=stored.vertex_kind, scenario=stored.scenario,
                   noise=stored.noise, seed=stored.seed)

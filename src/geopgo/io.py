"""File formats: g2o text graphs, JSON datasets, CSV exports.

The g2o dialect handled here is the SE(3) quaternion one: lines of

    VERTEX_SE3:QUAT id x y z qx qy qz qw
    EDGE_SE3:QUAT i j x y z qx qy qz qw  <21 upper-triangular info values>

Quaternions are scalar-last and are normalized on ingest. The information
matrix is parsed and retained on records but carries no weight in the
solver. Unknown record types are skipped and counted. External vertex ids
are remapped to dense ``0..n-1`` in ascending order; the mapping is kept.
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


class ParseError(ValueError):
    """Malformed g2o content; carries the line number and offending token."""

    def __init__(self, line_no: int, token: str, reason: str) -> None:
        super().__init__(f"line {line_no}: {reason} (token {token!r})")
        self.line_no = line_no
        self.token = token


class InconsistentVertexCountError(ValueError):
    """An edge references a vertex id that has no VERTEX record."""


@dataclass(frozen=True)
class G2oRecord:
    """One parsed g2o line. ``ids`` has one entry for vertices, two for
    edges; ``info`` is the 21-value upper triangle for edges, None for
    vertices."""

    kind: str
    ids: tuple[int, ...]
    t: np.ndarray
    q: np.ndarray
    info: tuple[float, ...] | None = None


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


def read_g2o_records(source: str | Path | IO[str]) -> tuple[list[G2oRecord], int]:
    """Parse g2o text into records, returning (records, skipped_count)."""
    if isinstance(source, Path):
        text = source.read_text()
    elif isinstance(source, str) and "\n" not in source and source.endswith(".g2o"):
        text = Path(source).read_text()
    elif isinstance(source, str):
        text = source
    else:
        text = source.read()

    records: list[G2oRecord] = []
    skipped = 0
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        tag = tokens[0]
        if tag == "VERTEX_SE3:QUAT":
            if len(tokens) != 9:
                raise ParseError(line_no, tag,
                                 f"vertex needs 9 fields, got {len(tokens)}")
            (vid,) = _ints(tokens[1:2], line_no)
            vals = _floats(tokens[2:9], line_no)
            records.append(G2oRecord(
                kind=tag, ids=(vid,),
                t=np.array(vals[0:3]), q=np.array(vals[3:7])))
        elif tag == "EDGE_SE3:QUAT":
            if len(tokens) != 31:
                raise ParseError(line_no, tag,
                                 f"edge needs 31 fields, got {len(tokens)}")
            i, j = _ints(tokens[1:3], line_no)
            vals = _floats(tokens[3:31], line_no)
            records.append(G2oRecord(
                kind=tag, ids=(i, j),
                t=np.array(vals[0:3]), q=np.array(vals[3:7]),
                info=tuple(vals[7:28])))
        else:
            skipped += 1
    return records, skipped


def g2o_to_raw(
    source: str | Path | IO[str],
) -> tuple[list[Pose], list[RelativeMeasurement], dict[int, int], int]:
    """Read g2o into poses and directed measurements, without pairing.

    External vertex ids are remapped to dense ``0..n-1`` in ascending
    order. Returns ``(poses, measurements, id_map, skipped_count)``.
    """
    records, skipped = read_g2o_records(source)
    vertex_ids = [r.ids[0] for r in records if r.kind == "VERTEX_SE3:QUAT"]
    seen = set()
    for vid in vertex_ids:
        if vid in seen:
            raise InconsistentVertexCountError(
                f"vertex id {vid} declared twice")
        seen.add(vid)
    id_map = {ext: i for i, ext in enumerate(sorted(seen))}

    poses: list[Pose] = [Pose.identity()] * len(id_map)
    measurements: list[RelativeMeasurement] = []
    for r in records:
        if r.kind == "VERTEX_SE3:QUAT":
            poses[id_map[r.ids[0]]] = Pose(r.t, so3.quat_to_matrix(r.q))
        else:
            i, j = r.ids
            if i not in id_map or j not in id_map:
                raise InconsistentVertexCountError(
                    f"edge ({i}, {j}) references an undeclared vertex")
            measurements.append(RelativeMeasurement(
                id_map[i], id_map[j], r.t, so3.quat_to_matrix(r.q)))
    return poses, measurements, id_map, skipped


def parse_g2o(source: str | Path | IO[str]) -> G2oParseResult:
    """Parse a g2o file into poses and a paired measurement graph.

    Files typically carry one direction per edge; the missing direction
    is synthesized as the rigid inverse, so the result is pairwise
    consistent by construction wherever only one direction existed.

    Raises:
        ParseError: malformed line.
        InconsistentVertexCountError: an edge references an id with no
            vertex record, or a doubled vertex record.
    """
    poses, measurements, id_map, skipped = g2o_to_raw(source)
    graph = build_graph(len(id_map), measurements, symmetrize_missing=True)
    return G2oParseResult(
        poses=poses, graph=graph, id_map=id_map,
        raw_measurement_count=len(measurements), skipped_records=skipped)


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
    placement seed; the noise model carries its own.
    """

    graph: PoseGraph
    vertices: list[Pose] | None = None
    vertex_kind: str | None = None
    scenario: ScenarioSpec | None = None
    noise: NoiseModel | None = None
    seed: int | None = None
    id_map: dict[int, int] = field(default_factory=dict)


def raw_payload(
    n: int,
    vertices: Sequence[Pose] | None,
    measurements: Iterable[RelativeMeasurement],
    scenario: ScenarioSpec | None = None,
    noise: NoiseModel | None = None,
    vertex_kind: str | None = None,
    seed: int | None = None,
) -> dict:
    """JSON-serializable dict for a measurement set, preserving direction."""
    d: dict = {
        "scenario": scenario.to_dict() if scenario else None,
        "seed": seed,
        "noise": noise.to_dict() if noise else None,
        "vertex_kind": vertex_kind,
        "vertices": None,
        "measurements": [
            {
                "src": m.src,
                "dst": m.dst,
                "t": [float(v) for v in m.t_rel],
                "q": [float(v) for v in so3.matrix_to_quat(m.r_rel)],
            }
            for m in measurements
        ],
        "n": n,
    }
    if vertices is not None:
        d["vertices"] = [
            {
                "id": i,
                "t": [float(v) for v in p.t],
                "q": [float(v) for v in so3.matrix_to_quat(p.r)],
            }
            for i, p in enumerate(vertices)
        ]
    return d


def _finite_t_r(entry: dict, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Translation and rotation of one JSON entry with ``t`` and ``q``."""
    t = np.array(entry["t"], dtype=float)
    q = np.array(entry["q"], dtype=float)
    if not all(map(math.isfinite, t.tolist() + q.tolist())):
        raise ValueError(f"{name} has a non-finite t or q")
    return t, so3.quat_to_matrix(q)


def raw_from_dict(d: dict) -> tuple[
    int, list[Pose] | None, list[RelativeMeasurement],
    ScenarioSpec | None, NoiseModel | None, str | None, int | None,
]:
    """Inverse of :func:`raw_payload`; no graph pairing is applied.

    Raises:
        ValueError: a measurement or vertex carries a non-finite number;
            the message names the measurement index or the vertex id.
    """
    measurements = [
        RelativeMeasurement(
            int(m["src"]), int(m["dst"]), *_finite_t_r(m, f"measurement {k}"))
        for k, m in enumerate(d["measurements"])
    ]
    vertices = None
    if d.get("vertices") is not None:
        rows = sorted(d["vertices"], key=lambda v: int(v["id"]))
        vertices = [Pose(*_finite_t_r(v, f"vertex {int(v['id'])}"))
                    for v in rows]
    scenario = (ScenarioSpec.from_dict(d["scenario"])
                if d.get("scenario") else None)
    noise = NoiseModel.from_dict(d["noise"]) if d.get("noise") else None
    seed = d.get("seed")
    return (int(d["n"]), vertices, measurements, scenario, noise,
            d.get("vertex_kind"), seed)


def dataset_to_dict(ds: Dataset) -> dict:
    return raw_payload(ds.graph.n, ds.vertices, ds.graph.measurements,
                       ds.scenario, ds.noise, ds.vertex_kind, ds.seed)


def dataset_from_dict(d: dict) -> Dataset:
    (n, vertices, measurements, scenario, noise, vertex_kind,
     seed) = raw_from_dict(d)
    graph = build_graph(n, measurements, symmetrize_missing=True)
    return Dataset(graph=graph, vertices=vertices, vertex_kind=vertex_kind,
                   scenario=scenario, noise=noise, seed=seed)


def save_dataset(path: str | Path, ds: Dataset) -> None:
    Path(path).write_text(json.dumps(dataset_to_dict(ds), indent=1) + "\n")


def load_dataset(path: str | Path) -> Dataset:
    return dataset_from_dict(json.loads(Path(path).read_text()))


def load_any(path: str | Path) -> Dataset:
    """Load either a JSON dataset or a g2o file, by extension."""
    p = Path(path)
    if p.suffix == ".g2o":
        parsed = parse_g2o(p)
        return Dataset(graph=parsed.graph, vertices=None, vertex_kind=None,
                       id_map=parsed.id_map)
    return load_dataset(p)

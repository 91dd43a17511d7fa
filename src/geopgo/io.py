"""File formats: g2o text graphs, JSON datasets, CSV exports.

Both dataset formats are read through one path. Each format's decoder
only turns its syntax into columns: vertex ids, translations and
quaternions, and edge endpoints, translations and quaternions, one entry
per row in file order. One assembly step checks those columns the same
way for both (unique vertex ids, every edge between declared vertices,
finite numbers, and a JSON ``n`` that matches its vertex list), remaps
the ids to dense ``0..n-1`` in ascending order and returns a
:class:`StoredDataset`: the file's contents as stored, directed and
unpaired, its measurements as stacked :class:`MeasurementColumns`. Each
column has one converter: translations and quaternions are accepted
only as stacked arrays of finite numbers, and edge endpoints only as
integers (a JSON ``1.0`` or ``true`` is rejected, as in a vertex id)
found in the map from declared vertex ids. Only when a converter
fails are the rows looked at one by one, and that pass only names the
first bad row (in file order) in the error; it never accepts one. No
per-edge object is built. The format is chosen by the suffix,
``.g2o`` or ``.json``, for reading and for writing alike.

Each decoder runs with Python's cyclic garbage collector held
(:func:`_collector_held`). A decode allocates a tree of lists and dicts
(about 28,000 of them for an 800-pose JSON dataset) that has no
reference cycles and is dropped before the read returns, so reference
counting frees all of it; a collection over it would rescan that tree
and free nothing. The collector's state is restored when the decoder
returns or raises.

The g2o dialect handled here is the SE(3) quaternion one: lines of

    VERTEX_SE3:QUAT id x y z qx qy qz qw
    EDGE_SE3:QUAT i j x y z qx qy qz qw  <21 upper-triangular info values>

Quaternions are scalar-last and are normalized on ingest. The information
values must be finite numbers but carry no weight in the solver. Unknown
record types are skipped and counted.
"""

from __future__ import annotations

import functools
import gc
import json
import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from . import so3
from .graph import (MeasurementColumns, Pose, PoseGraph, PoseStack,
                    RelativeMeasurement, as_columns, as_stack, build_graph)
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

    ``measurements`` are stacked columns that keep the file's directions
    and order, unpaired. ``vertices`` are the file's poses in dense-id
    order, as a stack, or None for a JSON dataset without vertices.
    ``id_map`` maps the file's vertex ids to dense ids;
    ``skipped_records`` counts unknown g2o records. The provenance
    fields are None for g2o.
    """

    format: str
    n: int
    vertices: PoseStack | None
    measurements: MeasurementColumns
    id_map: dict[int, int]
    skipped_records: int = 0
    vertex_kind: str | None = None
    scenario: ScenarioSpec | None = None
    noise: NoiseModel | None = None
    seed: int | None = None


@dataclass
class G2oParseResult:
    poses: PoseStack
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


def _check_row(name: str, t, q) -> None:
    """Raise naming row ``name`` unless its ``t`` is 3 finite numbers
    and its ``q`` 4."""
    try:
        t = np.array(t, dtype=float)
        q = np.array(q, dtype=float)
        if (t.shape != (3,) or q.shape != (4,)
                or not all(map(math.isfinite, t.tolist() + q.tolist()))):
            raise ValueError("needs 3 finite numbers in t and 4 in q")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name}: {exc}") from None


def _stacked(rows: Sequence, width: int) -> np.ndarray:
    """``rows`` as one ``(len, width)`` array of finite numbers.

    An array (a g2o column) converts as a whole. JSON rows convert in
    one pass over their entries, once every row is a ``list`` of
    ``width`` entries: a string or an object of that length would
    otherwise pass as its characters or keys.

    Raises:
        TypeError, ValueError, OverflowError: a row is not ``width``
            finite numbers; which one is left to the per-row pass.
    """
    if isinstance(rows, np.ndarray):
        out = np.array(rows, dtype=float)
    else:
        n = len(rows)
        if set(map(type, rows)) - {list}:
            raise TypeError("a row is not a list")
        if (np.fromiter(map(len, rows), np.intp, n) != width).any():
            raise ValueError(f"a row is not {width} entries")
        out = np.fromiter(chain.from_iterable(rows), float,
                          width * n).reshape(n, width)
    if out.shape != (len(rows), width) or not np.isfinite(out).all():
        raise ValueError(f"a row is not {width} finite numbers")
    return out


def _rotations(q: np.ndarray, name) -> np.ndarray:
    """The rotations of checked quaternions in one stacked conversion;
    ``name(k)`` names row ``k`` when it is a zero quaternion."""
    try:
        return so3.quat_to_matrix(q)
    except ValueError as exc:
        k = int(np.argmin(so3.dot_rows(q, q)))  # the first zero row
        raise ValueError(f"{name(k)}: {exc}") from None


def _vertex_columns(ids: list, ts: Sequence, qs: Sequence,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Checked translations and quaternions of the vertex rows, in file
    order. A bad row fails as the first one in file order that has a
    non-integer id, a doubled id or a malformed ``t``/``q``."""
    try:
        if (not all(type(vid) is int for vid in ids)
                or len(set(ids)) < len(ids)):
            raise ValueError("vertex ids are not distinct integers")
        return _stacked(ts, 3), _stacked(qs, 4)
    except (TypeError, ValueError, OverflowError):
        seen: set[int] = set()
        for vid, t, q in zip(ids, ts, qs):
            if type(vid) is not int:
                raise ValueError(
                    f"vertex id {vid!r} is not an integer") from None
            if vid in seen:
                raise InconsistentVertexCountError(
                    f"vertex id {vid} declared twice") from None
            seen.add(vid)
            _check_row(f"vertex {vid}", t, q)
        raise


def _edge_columns(srcs: Sequence, dsts: Sequence, ts: Sequence,
                  qs: Sequence, id_map: dict) -> MeasurementColumns:
    """The edge rows as columns over dense ids; each endpoint must be an
    ``int`` and is looked up in ``id_map``. A bad row fails as the first
    one in file order with a non-integer or undeclared endpoint or a
    malformed ``t``/``q``; an endpoint is checked first."""
    try:
        if set(map(type, srcs)) - {int} or set(map(type, dsts)) - {int}:
            raise TypeError("an endpoint is not an integer")
        src, dst = (np.fromiter(map(id_map.__getitem__, ends), np.intp,
                                len(ends)) for ends in (srcs, dsts))
        t, q = _stacked(ts, 3), _stacked(qs, 4)
    except (KeyError, TypeError, ValueError, OverflowError):
        for k, (i, j, tk, qk) in enumerate(zip(srcs, dsts, ts, qs)):
            for end in (i, j):
                if type(end) is not int:
                    raise ValueError(f"measurement {k}: endpoint {end!r} "
                                     "is not an integer") from None
            if i not in id_map or j not in id_map:
                raise InconsistentVertexCountError(
                    f"measurement {k} ({i}, {j}) references an undeclared "
                    "vertex") from None
            _check_row(f"measurement {k}", tk, qk)
        raise
    return MeasurementColumns(src, dst, t,
                              _rotations(q, lambda k: f"measurement {k}"))


def _assemble(fmt: str, vertex_rows: tuple | None, edge_rows: tuple,
              n: int | None = None, **extra) -> StoredDataset:
    """Check the decoded columns of either format and remap ids densely.

    ``vertex_rows`` is ``(ids, ts, qs)`` and ``edge_rows`` ``(srcs,
    dsts, ts, qs)``: one entry per row, in file order. ``vertex_rows``
    None (JSON without vertices) declares ids ``0..n-1`` without poses;
    otherwise a given ``n`` must equal the row count. A given ``n`` is a
    nonnegative integer. Each column is accepted only by its stacked
    converter; only a failing one looks at single rows, to name the first
    bad row.
    """
    if n is not None and type(n) is not int:
        raise ValueError(f"n must be an integer, got {n!r}")
    if n is not None and n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n}")
    if vertex_rows is None:
        ids, poses = range(n), None
    else:
        declared = list(vertex_rows[0])
        t, q = _vertex_columns(declared, *vertex_rows[1:])
        r = _rotations(q, lambda k: f"vertex {declared[k]}")
        if n is not None and n != len(declared):
            raise InconsistentVertexCountError(
                f"n is {n} but {len(declared)} vertices are declared")
        order = sorted(range(len(declared)), key=declared.__getitem__)
        ids = [declared[k] for k in order]
        poses = PoseStack(t[order], r[order])
    id_map = {ext: i for i, ext in enumerate(ids)}
    return StoredDataset(fmt, len(id_map), poses,
                         _edge_columns(*edge_rows, id_map), id_map, **extra)


def _collector_held(decode):
    """``decode`` run with the cyclic garbage collector disabled.

    The collector is disabled only if it was enabled, and re-enabled in a
    ``finally`` only then, so the state found is the state left whether
    ``decode`` returns or raises. The hold spans the decoder's whole call,
    not just the parse: the decoded tree lives until the decoder returns,
    and a collection while it lives would rescan it. The tree holds no
    cycles, so reference counting frees it and the collector misses
    nothing.
    """
    @functools.wraps(decode)
    def held(text: str) -> StoredDataset:
        enabled = gc.isenabled()
        if enabled:
            gc.disable()
        try:
            return decode(text)
        finally:
            if enabled:
                gc.enable()
    return held


def _g2o_line_numbers(line_no: int, tokens: list[str]) -> None:
    """Check one record's ids and numbers, naming the line and token."""
    n_ids = _G2O_RECORDS[tokens[0]][1]
    _ints(tokens[1:1 + n_ids], line_no)
    _floats(tokens[1 + n_ids:], line_no)


def _g2o_columns(records: list[list[str]], tag: str,
                 ) -> tuple[list[list[int]], np.ndarray]:
    """The ids (one list per id field) and the numbers ``(len, fields)``
    of the ``tag`` records, converted in bulk.

    Raises:
        ValueError: a malformed or non-finite number.
    """
    _, n_ids, width = _G2O_RECORDS[tag]
    mine = [tokens for tokens in records if tokens[0] == tag]
    ids = list(map(int, chain.from_iterable(t[1:1 + n_ids] for t in mine)))
    vals = np.array(list(map(float, chain.from_iterable(
        t[1 + n_ids:] for t in mine))), dtype=float)
    if not np.isfinite(vals).all():
        raise ValueError("a non-finite number")
    return ([ids[c::n_ids] for c in range(n_ids)],
            vals.reshape(len(mine), width - 1 - n_ids))


@_collector_held
def _g2o_contents(text: str) -> StoredDataset:
    # tokens and line numbers in two lists, not a pair per record: freed
    # pairs go to the tuple free list without lowering the collector's
    # young count, so the first allocation after the hold would collect
    records, line_nos = [], []
    skipped = 0
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if tokens[0] not in _G2O_RECORDS:
            skipped += 1
            continue
        kind, _, width = _G2O_RECORDS[tokens[0]]
        if len(tokens) != width:
            # a bad number above fails first
            for earlier in zip(line_nos, records):
                _g2o_line_numbers(*earlier)
            raise ParseError(line_no, tokens[0],
                             f"{kind} needs {width} fields, got {len(tokens)}")
        records.append(tokens)
        line_nos.append(line_no)
    try:
        (vids,), v = _g2o_columns(records, "VERTEX_SE3:QUAT")
        (src, dst), e = _g2o_columns(records, "EDGE_SE3:QUAT")
    except ValueError:
        # name the first bad line and token
        for line in zip(line_nos, records):
            _g2o_line_numbers(*line)
        raise
    # the 21 information values of an edge are checked, then dropped
    return _assemble("g2o", (vids, v[:, 0:3], v[:, 3:7]),
                     (src, dst, e[:, 0:3], e[:, 3:7]),
                     skipped_records=skipped)


def _fields(obj, name: str, *keys: str) -> list:
    """The values of ``keys`` in one JSON object, or an error naming it."""
    try:
        return [obj[k] for k in keys]
    except (KeyError, TypeError):
        raise ValueError(f"{name} needs the fields {', '.join(keys)}") from None


def _json_columns(entries, kind: str, *keys: str) -> tuple[list, ...]:
    """One list per key of the JSON objects ``entries``; an object that
    lacks a key is named, as ``f"{kind} {k}"``, by :func:`_fields`."""
    try:
        return tuple([e[key] for e in entries] for key in keys)
    except (KeyError, TypeError):
        for k, e in enumerate(entries):
            _fields(e, f"{kind} {k}", *keys)
        raise


@_collector_held
def _json_contents(text: str) -> StoredDataset:
    d = json.loads(text)
    n, entries = _fields(d, "the dataset", "n", "measurements")
    try:
        edges = _json_columns(entries, "measurement", "src", "dst", "t", "q")
        vertices = None
        if d.get("vertices") is not None:
            vertices = _json_columns(d["vertices"], "vertex entry",
                                     "id", "t", "q")
        return _assemble("json", vertices, edges, n, **_provenance(d))
    except (KeyError, TypeError) as exc:  # a list or section of the wrong shape
        raise ValueError(f"malformed JSON dataset: {exc!r}") from None


def _decode_seed(seed) -> int:
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError("must be an integer")
    if seed < 0:
        raise ValueError(f"must be nonnegative, got {seed}")
    return seed


_DECODERS = {"scenario": ScenarioSpec.from_dict,
             "noise": NoiseModel.from_dict, "seed": _decode_seed}


def read_section(name: str, d) -> ScenarioSpec | NoiseModel | int:
    """The ``scenario`` or ``noise`` section or the ``seed`` ``d`` of a
    config or a dataset, decoded; a section is a JSON object, and a seed
    is an integer, not a bool, and nonnegative.

    Raises:
        ValueError: ``at <name>: <reason>``, naming a missing field.
    """
    decode = _DECODERS[name]
    if name != "seed" and not isinstance(d, dict):
        raise ValueError(f"at {name}: must be an object")
    try:
        return decode(d)
    except KeyError as exc:
        raise ValueError(f"at {name}: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"at {name}: {exc}") from None


def read_provenance(d: dict) -> dict:
    """The ``scenario``, ``noise`` and ``seed`` of a config or a JSON
    dataset, by :func:`read_section`. A null or absent field is None;
    any other value decodes or fails.

    Raises:
        ValueError: ``at <field>: <reason>``.
    """
    return {name: None if d.get(name) is None else read_section(name, d[name])
            for name in _DECODERS}


def _provenance(d: dict) -> dict:
    """A JSON dataset's ``vertex_kind`` and :func:`read_provenance`,
    each None when the dataset has none; an error names the field."""
    kind = d.get("vertex_kind")
    try:
        if kind is not None and not isinstance(kind, str):
            raise ValueError("at vertex_kind: must be a string or null")
        return dict(vertex_kind=kind, **read_provenance(d))
    except ValueError as exc:
        raise ValueError(f"malformed JSON dataset {exc}") from None


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

    ``source`` is a path, a path string whose suffix is ``.g2o`` in any
    case (as :func:`read_dataset` reads it), g2o text or a stream.
    Files typically carry one direction per edge; the missing direction
    is synthesized as the rigid inverse, so the result is pairwise
    consistent by construction wherever only one direction existed.

    Raises:
        ParseError: malformed line.
        InconsistentVertexCountError: see the class.
    """
    if isinstance(source, Path):
        text = source.read_text()
    elif (isinstance(source, str) and "\n" not in source
          and Path(source).suffix.lower() == ".g2o"):
        text = Path(source).read_text()
    elif isinstance(source, str):
        text = source
    else:
        text = source.read()
    stored = _g2o_contents(text)
    graph = build_graph(stored.n, stored.measurements)
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


def _pose_columns(poses: Sequence[Pose]) -> tuple[np.ndarray, np.ndarray]:
    """The translations ``(n, 3)`` and scalar-last quaternions ``(n, 4)``
    of ``poses``, read from their stack and converted in one call."""
    s = as_stack(poses)
    return s.t, so3.matrix_to_quat(s.r)


def _fmt_rows(*columns: np.ndarray) -> list[list[str]]:
    """Each row of the side-by-side ``columns`` as :func:`_fmt` strings."""
    return [[_fmt(v) for v in row]
            for row in np.concatenate(columns, axis=1).tolist()]


def g2o_text(
    poses: Sequence[Pose], measurements: Sequence[RelativeMeasurement],
) -> str:
    """Render poses and a raw measurement list as g2o text.

    Measurements are written exactly as given, preserving directedness.
    Information matrices are written as identity.
    """
    lines = [" ".join(["VERTEX_SE3:QUAT", str(i)] + row)
             for i, row in enumerate(_fmt_rows(*_pose_columns(poses)))]
    cols = as_columns(measurements)
    info = [_fmt(v) for v in _IDENTITY_INFO]
    for i, j, row in zip(cols.src.tolist(), cols.dst.tolist(), _fmt_rows(
            cols.t_rel, so3.matrix_to_quat(cols.r_rel))):
        lines.append(" ".join(["EDGE_SE3:QUAT", str(i), str(j)] + row + info))
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


def export_trajectory_csv(poses: Sequence[Pose]) -> str:
    """CSV of poses: ``id,tx,ty,tz,qx,qy,qz,qw`` at full double precision."""
    lines = ["id,tx,ty,tz,qx,qy,qz,qw"]
    lines += [",".join([str(i)] + row)
              for i, row in enumerate(_fmt_rows(*_pose_columns(poses)))]
    return "\n".join(lines) + "\n"


def parse_trajectory_csv(text: str) -> PoseStack:
    """Inverse of :func:`export_trajectory_csv`, as a stack. Each
    non-blank line past the header must be its 0-based row id and 7
    finite numbers; a ValueError names a bad line by its number."""
    lines = [(k, ln) for k, ln in enumerate(text.splitlines(), 1)
             if ln.strip()]
    if not lines or lines[0][1] != "id,tx,ty,tz,qx,qy,qz,qw":
        raise ValueError("not a trajectory CSV (bad header)")
    vals = []
    for row, (k, ln) in enumerate(lines[1:]):
        fields = ln.split(",")
        try:
            vals.append([float(x) for x in fields[1:]])
            good = len(fields) == 8 and int(fields[0]) == row
        except ValueError:
            good = False
        if not (good and all(map(math.isfinite, vals[-1]))):
            raise ValueError(f"line {k}: expected row id {row} and 7 "
                             f"finite numbers, got {ln!r}")
    vals = np.array(vals, dtype=float).reshape(-1, 7)
    return PoseStack(vals[:, 0:3].copy(), _rotations(
        vals[:, 3:7], lambda r: f"line {lines[r + 1][0]}"))


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
    vertices: PoseStack | None = None
    vertex_kind: str | None = None
    scenario: ScenarioSpec | None = None
    noise: NoiseModel | None = None
    seed: int | None = None
    id_map: dict[int, int] = field(default_factory=dict)


def _json_poses(t: np.ndarray, q: np.ndarray) -> list[dict]:
    """The ``{"t": ..., "q": ...}`` entries of stacked poses."""
    return [{"t": tk, "q": qk} for tk, qk in zip(t.tolist(), q.tolist())]


def _json_text(stored: StoredDataset) -> str:
    cols = stored.measurements
    vertices = None
    if stored.vertices is not None:
        vertices = [{"id": i, **pose} for i, pose in enumerate(
            _json_poses(*_pose_columns(stored.vertices)))]
    d = {
        "scenario": stored.scenario.to_dict() if stored.scenario else None,
        "seed": stored.seed,
        "noise": stored.noise.to_dict() if stored.noise else None,
        "vertex_kind": stored.vertex_kind,
        "vertices": vertices,
        "measurements": [
            {"src": i, "dst": j, **pose} for i, j, pose in zip(
                cols.src.tolist(), cols.dst.tolist(),
                _json_poses(cols.t_rel, so3.matrix_to_quat(cols.r_rel)))],
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
        _format(path), ds.graph.n, ds.vertices, ds.graph.measurements,
        ds.id_map, vertex_kind=ds.vertex_kind, scenario=ds.scenario,
        noise=ds.noise, seed=ds.seed))


def load_any(path: str | Path) -> Dataset:
    """Load a ``.g2o`` or ``.json`` dataset, pairing one-way edges.

    A g2o file's vertex poses are an estimate, not provenance, so its
    ``Dataset`` carries no vertices; its ``id_map`` is kept.
    """
    stored = read_dataset(path)
    graph = build_graph(stored.n, stored.measurements)
    if stored.format == "g2o":
        return Dataset(graph=graph, id_map=stored.id_map)
    return Dataset(graph=graph, vertices=stored.vertices,
                   vertex_kind=stored.vertex_kind, scenario=stored.scenario,
                   noise=stored.noise, seed=stored.seed)

"""The stacked set-up path against per-row oracles.

The loaders decode, check and remap measurements as stacked columns, and
``build_graph`` validates, pairs and sorts them as arrays, then checks
connectivity with ``bfs_tree``. The oracles below are the per-row forms
of the same steps (one ``_oracle_checked`` call and one
``RelativeMeasurement`` per row, a Python set per check, a ``deque``
search). On valid input the two must give the same bits; on malformed
input the same exception type and message; deep paths pin both on graphs
with thousands of levels.
"""

import json
import math
from collections import deque

import numpy as np
import pytest

from geopgo import graph
from geopgo import io as gio
from geopgo import so3
from geopgo.graph import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    DanglingVertexError,
    Pose,
    RelativeMeasurement,
    build_graph,
    reversed_measurement,
)

# -- oracles ---------------------------------------------------------------


def _oracle_rotations(quats, name):
    q = np.array(quats, dtype=float).reshape(-1, 4)
    try:
        return so3.quat_to_matrix(q)
    except ValueError as exc:
        k = int(np.argmin(so3.dot_rows(q, q)))
        raise ValueError(f"{name(k)}: {exc}") from None


def _oracle_checked(name, t, q):
    try:
        t = np.array(t, dtype=float)
        q = np.array(q, dtype=float)
        if (t.shape != (3,) or q.shape != (4,)
                or not all(map(math.isfinite, t.tolist() + q.tolist()))):
            raise ValueError("needs 3 finite numbers in t and 4 in q")
        return t, q
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name}: {exc}") from None


def _oracle_assemble(vertex_rows, edge_rows, n=None):
    """Per-row assembly: (n, poses, measurements, id_map)."""
    if n is not None and type(n) is not int:
        raise ValueError(f"n must be an integer, got {n!r}")
    if n is not None and n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n}")
    if vertex_rows is None:
        ids, poses = range(n), None
    else:
        by_id = {}
        for vid, t, q in vertex_rows:
            if type(vid) is not int:
                raise ValueError(f"vertex id {vid!r} is not an integer")
            if vid in by_id:
                raise gio.InconsistentVertexCountError(
                    f"vertex id {vid} declared twice")
            by_id[vid] = _oracle_checked(f"vertex {vid}", t, q)
        declared = list(by_id)
        rotations = _oracle_rotations([q for _, q in by_id.values()],
                                      lambda k: f"vertex {declared[k]}")
        by_id = {vid: Pose(t, r)
                 for (vid, (t, _)), r in zip(by_id.items(), rotations)}
        if n is not None and n != len(by_id):
            raise gio.InconsistentVertexCountError(
                f"n is {n} but {len(by_id)} vertices are declared")
        ids = sorted(by_id)
        poses = [by_id[vid] for vid in ids]
    id_map = {ext: i for i, ext in enumerate(ids)}
    edges = []
    for k, (i, j, t, q) in enumerate(edge_rows):
        for end in (i, j):
            if type(end) is not int:
                raise ValueError(
                    f"measurement {k}: endpoint {end!r} is not an integer")
        try:
            src, dst = id_map[i], id_map[j]
        except KeyError:
            raise gio.InconsistentVertexCountError(
                f"measurement {k} ({i}, {j}) references an undeclared "
                "vertex") from None
        edges.append((src, dst, *_oracle_checked(f"measurement {k}", t, q)))
    rotations = _oracle_rotations([q for *_, q in edges],
                                  lambda k: f"measurement {k}")
    measurements = [RelativeMeasurement(src, dst, t, r)
                    for (src, dst, t, _), r in zip(edges, rotations)]
    return len(id_map), poses, measurements, id_map


def _oracle_json(text):
    d = json.loads(text)
    n, entries = gio._fields(d, "the dataset", "n", "measurements")
    try:
        edges = [gio._fields(m, f"measurement {k}", "src", "dst", "t", "q")
                 for k, m in enumerate(entries)]
        vertices = None
        if d.get("vertices") is not None:
            vertices = [gio._fields(v, f"vertex entry {k}", "id", "t", "q")
                        for k, v in enumerate(d["vertices"])]
        return _oracle_assemble(vertices, edges, n)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed JSON dataset: {exc!r}") from None


# g2o tag -> (record kind, number of ids, number of fields with the tag)
_ORACLE_RECORDS = {"VERTEX_SE3:QUAT": ("vertex", 1, 9),
                   "EDGE_SE3:QUAT": ("edge", 2, 31)}


def _oracle_token(line_no, tok, is_id):
    """One g2o token as an ``int`` id or a finite ``float``."""
    if is_id:
        try:
            return int(tok)
        except ValueError:
            raise gio.ParseError(line_no, tok, "expected an integer id") from None
    try:
        x = float(tok)
    except ValueError:
        raise gio.ParseError(line_no, tok, "expected a number") from None
    if not math.isfinite(x):
        raise gio.ParseError(line_no, tok, "expected a finite number")
    return x


def _oracle_g2o(text):
    rows = {"vertex": [], "edge": []}
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if tokens[0] not in _ORACLE_RECORDS:
            continue
        kind, n_ids, width = _ORACLE_RECORDS[tokens[0]]
        if len(tokens) != width:
            raise gio.ParseError(
                line_no, tokens[0],
                f"{kind} needs {width} fields, got {len(tokens)}")
        values = [_oracle_token(line_no, tok, k < n_ids)
                  for k, tok in enumerate(tokens[1:])]
        ids, vals = values[:n_ids], values[n_ids:]
        rows[kind].append((*ids, vals[0:3], vals[3:7]))
    return _oracle_assemble(rows["vertex"], rows["edge"])


def _oracle_build(n, measurements):
    """Per-measurement validation and pairing (the inverse of each absent
    direction appended in input order), then the per-object freeze into
    edge arrays."""
    if n <= 0:
        raise ValueError(f"vertex count must be positive, got {n}")
    for m in measurements:
        if not (0 <= m.src < n) or not (0 <= m.dst < n):
            raise DanglingVertexError(
                f"measurement ({m.src}, {m.dst}) references a vertex "
                f"outside 0..{n - 1}")
        if m.src == m.dst:
            raise DanglingVertexError(f"self loop at vertex {m.src}")
    seen = set()
    for m in measurements:
        key = (m.src, m.dst)
        if key in seen:
            raise DuplicateEdgeError(f"directed pair {key} appears twice")
        seen.add(key)
    out = list(measurements)
    for m in measurements:
        if (m.dst, m.src) not in seen:
            out.append(reversed_measurement(m))
            seen.add((m.dst, m.src))
    measurements = out
    ordered = sorted(measurements, key=lambda m: (m.src, m.dst))
    nbrs = {i: [] for i in range(n)}
    for m in ordered:
        nbrs[m.src].append(m.dst)
    reached, queue = {0}, deque([0])
    while queue:
        for j in nbrs[queue.popleft()]:
            if j not in reached:
                reached.add(j)
                queue.append(j)
    if len(reached) != n:
        missing = sorted(set(range(n)) - reached)
        raise DisconnectedGraphError(
            f"{len(missing)} vertices unreachable from vertex 0 "
            f"(first few: {missing[:5]})")
    src = np.array([m.src for m in ordered], dtype=np.intp)
    dst = np.array([m.dst for m in ordered], dtype=np.intp)
    t_rel = np.array([m.t_rel for m in ordered], dtype=float).reshape(-1, 3)
    rev = np.lexsort((src, dst))
    offsets = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    deg = [len(nbrs[i]) for i in range(n)]
    # the node-sum bins: entry c of an edge's d and -m goes to its src's
    # bin 6 src + c, entry c of its w to bin 6 src + 3 + c
    bins = [6 * m.src + c for m in ordered
            for c in (0, 1, 2, 0, 1, 2, 3, 4, 5)]
    # the run plan: from where the last run ended, add one node at a time
    # while the run pads to at most EDGE_BLOCK slots (the first node
    # always)
    bounds, run_nbr, run_real = [0], [], []
    while bounds[-1] < n:
        lo = hi = bounds[-1]
        width = 0
        while hi < n:
            w = max(width, deg[hi])
            if hi > lo and w * (hi + 1 - lo) > graph.EDGE_BLOCK:
                break
            width, hi = w, hi + 1
        run_nbr.append(np.array(
            [[nbrs[i][p] if p < deg[i] else i for p in range(width)]
             for i in range(lo, hi)], dtype=np.intp).reshape(hi - lo, width))
        real = [k * width + p for k, i in enumerate(range(lo, hi))
                for p in range(deg[i])]
        run_real.append(None if len(real) == width * (hi - lo)
                        else np.array(real, dtype=np.intp))
        bounds.append(hi)
    return {
        "ids": np.arange(n), "src": src, "dst": dst,
        "r_rel": np.array([m.r_rel for m in ordered],
                          dtype=float).reshape(-1, 3, 3),
        "t_rel": t_rel, "offsets": offsets, "rev": rev,
        # a whole graph cuts no edge
        "cut": np.zeros(0, dtype=np.intp), "t_cut": np.zeros((0, 3)),
        "bins": np.array(bins, dtype=np.intp),
        "runs": (np.array(bounds, dtype=np.intp), run_nbr, run_real),
    }


# -- helpers ---------------------------------------------------------------


def _same_error(run, oracle):
    """Both raise the same type, message and attributes (a ParseError's
    line and token)."""
    with pytest.raises(Exception) as want:
        oracle()
    with pytest.raises(Exception) as got:
        run()
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    assert vars(got.value) == vars(want.value)


def _assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _assert_decoded_equal(stored, oracle):
    n, poses, measurements, id_map = oracle
    assert stored.n == n
    assert stored.id_map == id_map
    assert list(stored.id_map) == list(id_map)
    if poses is None:
        assert stored.vertices is None
    else:
        assert len(stored.vertices) == len(poses)
        for p, q in zip(stored.vertices, poses):
            _assert_bitwise(p.t, q.t)
            _assert_bitwise(p.r, q.r)
    _assert_columns_equal(stored.measurements, measurements)


def _assert_columns_equal(cols, measurements):
    assert len(cols) == len(measurements)
    _assert_bitwise(cols.src, np.array([m.src for m in measurements],
                                       dtype=np.intp))
    _assert_bitwise(cols.dst, np.array([m.dst for m in measurements],
                                       dtype=np.intp))
    _assert_bitwise(cols.t_rel, np.array([m.t_rel for m in measurements],
                                         dtype=float).reshape(-1, 3))
    _assert_bitwise(cols.r_rel, np.array([m.r_rel for m in measurements],
                                         dtype=float).reshape(-1, 3, 3))


def _assert_graph_equal(g, oracle):
    e = g.edge_arrays
    arrays = dict(vars(e))
    assert set(arrays) == set(oracle)
    bounds, nbr, real = oracle.pop("runs")
    runs = arrays["runs"]
    _assert_bitwise(runs.bounds, bounds)
    assert len(runs.nbr) == len(nbr) and len(runs.real) == len(real)
    for a, b in zip(runs.nbr, nbr):
        _assert_bitwise(a, b)
    for a, b in zip(runs.real, real):
        assert (a is None) == (b is None)
        if b is not None:
            _assert_bitwise(a, b)
    for name, value in oracle.items():
        _assert_bitwise(arrays[name], value)


def _random_dataset(rng, one_way=False):
    """A JSON dataset dict over sparse, shuffled vertex ids: a random
    tree plus chords, both directions of each edge unless ``one_way``
    drops some, rows in random order, quaternions not normalized."""
    n = int(rng.integers(1, 14))
    ids = rng.choice(1000, size=n, replace=False) - 300
    pairs = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    for _ in range(int(rng.integers(0, 2 * n))):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            pairs.add((int(min(a, b)), int(max(a, b))))
    directed = []
    for a, b in sorted(pairs):
        both = [(a, b), (b, a)]
        if one_way and rng.random() < 0.6:
            both = [both[int(rng.integers(0, 2))]]
        directed += both
    order = rng.permutation(len(directed))

    def row():
        scale = float(rng.choice([1.0, 1e-3, 7.5]))
        return {"t": (rng.normal(size=3) * 10).tolist(),
                "q": (rng.normal(size=4) * scale).tolist()}

    vertices = [{"id": int(ids[k]), **row()} for k in rng.permutation(n)]
    measurements = [{"src": int(ids[directed[k][0]]),
                     "dst": int(ids[directed[k][1]]), **row()}
                    for k in order]
    return {"n": n, "vertices": vertices, "measurements": measurements}


def _g2o(d):
    lines = ["# a comment", "FIX 0"]
    for v in d["vertices"]:
        lines.append(" ".join(["VERTEX_SE3:QUAT", str(v["id"])]
                              + [repr(x) for x in v["t"] + v["q"]]))
    info = " ".join(["1"] * 21)
    for m in d["measurements"]:
        lines.append(" ".join(["EDGE_SE3:QUAT", str(m["src"]), str(m["dst"])]
                              + [repr(x) for x in m["t"] + m["q"]]) + " "
                     + info)
    return "\n".join(lines) + "\n"


# -- valid input -------------------------------------------------------------


@pytest.mark.parametrize("one_way", [False, True], ids=["paired", "one-way"])
def test_decode_and_build_equal_the_per_row_oracles(one_way):
    rng = np.random.default_rng(91 + one_way)
    for _ in range(60):
        d = _random_dataset(rng, one_way)
        text = json.dumps(d)
        stored = gio._json_contents(text)
        want = _oracle_json(text)
        _assert_decoded_equal(stored, want)
        # both formats decode the same numbers the same way
        _assert_decoded_equal(gio._g2o_contents(_g2o(d)), _oracle_g2o(_g2o(d)))
        g = build_graph(stored.n, stored.measurements)
        _assert_graph_equal(g, _oracle_build(want[0], want[2]))
        # a list of objects is stacked once and builds the same graph
        again = build_graph(stored.n, list(stored.measurements))
        _assert_graph_equal(again, _oracle_build(want[0], want[2]))


def test_json_without_vertices_equals_the_oracle():
    d = _random_dataset(np.random.default_rng(5))
    remap = {v["id"]: k for k, v in
             enumerate(sorted(d["vertices"], key=lambda v: v["id"]))}
    for m in d["measurements"]:
        m["src"], m["dst"] = remap[m["src"]], remap[m["dst"]]
    del d["vertices"]
    text = json.dumps(d)
    _assert_decoded_equal(gio._json_contents(text), _oracle_json(text))


def _valid():
    d = _random_dataset(np.random.default_rng(17))
    while d["n"] < 6 or len(d["measurements"]) < 8:
        d = _random_dataset(np.random.default_rng(len(d["measurements"])))
    return d


# Inputs that the per-row loader accepts, some of them oddly: both paths
# must decode them to the same bits.
def _numeric_strings(d):
    d["measurements"][2]["t"] = [str(x) for x in d["measurements"][2]["t"]]
    d["vertices"][1]["q"] = ["0", "0", "0.5", "1"]


def _huge_vertex_ids(d):
    for k, v in enumerate(d["vertices"]):
        old = v["id"]
        v["id"] = 2 ** 70 + k
        for m in d["measurements"]:
            m["src"] = v["id"] if m["src"] == old else m["src"]
            m["dst"] = v["id"] if m["dst"] == old else m["dst"]


def _bool_edge_rows(d):
    d["measurements"][0]["t"] = [True, False, 1]


@pytest.mark.parametrize("change", [
    _numeric_strings, _huge_vertex_ids, _bool_edge_rows])
def test_odd_but_accepted_input_decodes_the_same(change):
    d = _valid()
    change(d)
    text = json.dumps(d)
    _assert_decoded_equal(gio._json_contents(text), _oracle_json(text))


# -- a seeded mutation sweep --------------------------------------------------

# Values that are odd in a numeric slot of a JSON dataset; json.dumps
# writes NaN as the bare token NaN, which json.loads reads back
PALETTE = {"1.0": 1.0, "true": True, "false": False, "null": None,
           '"7"': "7", "[1]": [1], "{}": {}, "2**70": 2 ** 70, "-1": -1,
           "0.5": 0.5, '"1e3"': "1e3", "NaN": math.nan}


def _slots(d):
    """The slots of ``d`` by kind, each as ``(section, row, key,
    entry)``; ``entry`` is None for a whole value."""
    return {
        "vertex id": [("vertices", k, "id", None)
                      for k in range(len(d["vertices"]))],
        "endpoint": [("measurements", k, key, None)
                     for k in range(len(d["measurements"]))
                     for key in ("src", "dst")],
        "t/q entry": [(section, k, key, c)
                      for section in ("vertices", "measurements")
                      for k, row in enumerate(d[section])
                      for key in ("t", "q") for c in range(len(row[key]))],
    }


def _sweep_base():
    """:func:`_valid` with four vertices renamed -1, 0, 1 and 2**70, so
    that palette values in an endpoint also name declared vertices."""
    d = _valid()
    rename = dict(zip([v["id"] for v in d["vertices"]], [-1, 0, 1, 2 ** 70]))
    for v in d["vertices"]:
        v["id"] = rename.get(v["id"], v["id"])
    for m in d["measurements"]:
        m["src"], m["dst"] = (rename.get(m["src"], m["src"]),
                              rename.get(m["dst"], m["dst"]))
    assert len({v["id"] for v in d["vertices"]}) == d["n"]
    return d


@pytest.mark.parametrize("name", PALETTE)
def test_single_value_replacements_decode_as_the_oracle(name):
    # the same 25 slots for every value: 6 vertex ids, 8 endpoints and
    # 11 t/q entries; 300 cases over the palette
    base = _sweep_base()
    slots, rng = _slots(base), np.random.default_rng(28)
    picked = [slots[kind][i] for kind, count in
              (("vertex id", 6), ("endpoint", 8), ("t/q entry", 11))
              for i in rng.choice(len(slots[kind]), count, replace=False)]
    for section, k, key, c in picked:
        d = json.loads(json.dumps(base))
        if c is None:
            d[section][k][key] = PALETTE[name]
        else:
            d[section][k][key][c] = PALETTE[name]
        text = json.dumps(d)
        try:
            want = _oracle_json(text)
        except Exception:
            _same_error(lambda: gio._json_contents(text),
                        lambda: _oracle_json(text))
        else:
            _assert_decoded_equal(gio._json_contents(text), want)


# -- malformed input ---------------------------------------------------------


def _set(section, k, key, value):
    def change(d):
        d[section][k][key] = value
    change.__name__ = f"{section}[{k}].{key}={value!r}"
    return change


def _bool_and_float_endpoints(d):
    # vertex 0 takes the id 1, which the edge rows then name as True
    # (True == 1) and as 1.0: an endpoint must be an integer, as an id is
    ids = {v["id"]: v["id"] if v["id"] != 1 else 10 ** 6
           for v in d["vertices"]}
    ids[d["vertices"][0]["id"]] = 1
    for v in d["vertices"]:
        v["id"] = ids[v["id"]]
    for m in d["measurements"]:
        m["src"], m["dst"] = ids[m["src"]], ids[m["dst"]]
        if m["src"] == 1:
            m["src"] = True
        if m["dst"] == 1:
            m["dst"] = 1.0


def _every_t_nested(d):
    for m in d["measurements"]:
        m["t"] = [m["t"]]


def _every_vertex_q_nested(d):
    for v in d["vertices"]:
        v["q"] = [v["q"]]


def _two_bad_rows_bad_t_first(d):
    d["measurements"][3]["t"] = [1.0, 2.0]
    d["measurements"][5]["src"] = 99999


def _two_bad_rows_bad_id_first(d):
    d["measurements"][1]["q"] = [0.0, 0.0, 1.0]
    d["measurements"][0]["dst"] = "x"


def _vertex_and_edge_errors(d):
    d["measurements"][0]["t"] = None
    d["vertices"][4]["t"] = [math.nan, 0.0, 0.0]


def _doubled_then_bad(d):
    d["vertices"][3]["id"] = d["vertices"][1]["id"]
    d["vertices"][2]["q"] = "abcd"


def _missing_field_late(d):
    del d["measurements"][6]["q"]
    d["measurements"][7]["t"] = "xyz"


def _measurements(value):
    def change(d):
        d["measurements"] = value
    change.__name__ = f"measurements={value!r}"
    return change


def _vertices_not_objects(d):
    d["vertices"] = [[0, [0, 0, 0], [0, 0, 0, 1]]]


def _n(value):
    def change(d):
        d["n"] = value
    change.__name__ = f"n={value!r}"
    return change


def _no_vertices_n(value):
    def change(d):
        del d["vertices"]
        d["n"] = value
    change.__name__ = f"no-vertices-n={value!r}"
    return change


def _zero_quats_twice(d):
    d["measurements"][4]["q"] = [0, 0, 0, 0]
    d["measurements"][2]["q"] = [0.0, -0.0, 0.0, 0.0]


MALFORMED = [
    _every_t_nested, _every_vertex_q_nested,
    _set("measurements", 3, "t", [[1.0, 2.0, 3.0]]),
    _set("measurements", 2, "t", ["1", "two", "3"]),
    _set("measurements", 2, "t", "123"),
    # a string or an object with as many entries as the row needs, which
    # float one by one: only the stacked pass's list guard rejects them
    _set("measurements", 2, "t", {"0": 1, "1": 2, "2": 3}),
    _set("measurements", 2, "q", "0001"),
    _set("vertices", 2, "t", "123"),
    _set("measurements", 5, "q", [1.0, 0.0, 0.0, 0.0, 0.0]),
    _set("measurements", 5, "q", {"x": 1}),
    _set("measurements", 1, "t", [math.nan, 0.0, 0.0]),
    _set("measurements", 1, "q", [0.0, math.inf, 0.0, 1.0]),
    _set("measurements", 4, "t", [2 ** 1100, 0, 0]),
    _set("measurements", 4, "q", [0, 0, 0, 0]),
    _set("vertices", 2, "q", [0, 0, 0, 0]),
    _set("vertices", 2, "t", [-math.inf, 0.0, 0.0]),
    _set("vertices", 3, "id", True),
    _set("vertices", 3, "id", 1.0),
    _set("vertices", 3, "id", "7"),
    _set("measurements", 3, "src", 99999),
    _set("measurements", 3, "dst", None),
    _set("measurements", 3, "src", [1]),
    _set("measurements", 3, "src", 0.5), _bool_and_float_endpoints,
    _two_bad_rows_bad_t_first, _two_bad_rows_bad_id_first,
    _vertex_and_edge_errors, _doubled_then_bad, _missing_field_late,
    _measurements(None), _measurements({"a": 1}), _measurements(3),
    _measurements("ab"), _vertices_not_objects,
    _n(5), _n("6"), _n(2.0), _no_vertices_n(None), _no_vertices_n(-2),
    _zero_quats_twice,
]


@pytest.mark.parametrize("change", MALFORMED, ids=lambda c: c.__name__)
def test_malformed_json_fails_as_the_oracle(change):
    d = _valid()
    change(d)
    text = json.dumps(d)
    _same_error(lambda: gio._json_contents(text), lambda: _oracle_json(text))


def _g2o_lines():
    """The lines of a valid g2o file, and the line index of the first
    vertex and of the first edge."""
    d = _valid()
    return _g2o(d).splitlines(), 2, 2 + d["n"]


def _token(kind, row, k, token):
    def change(lines, first):
        at = first[kind] + row
        tokens = lines[at].split()
        tokens[k] = token
        lines[at] = " ".join(tokens)
    change.__name__ = f"{kind}{row}[{k}]={token}"
    return change


def _width(kind, row, drop):
    def change(lines, first):
        at = first[kind] + row
        lines[at] = " ".join(lines[at].split()[:-drop])
    change.__name__ = f"{kind}{row}-width-{drop}"
    return change


def _both(*changes):
    def change(lines, first):
        for c in changes:
            c(lines, first)
    change.__name__ = "+".join(c.__name__ for c in changes)
    return change


def _zero_quaternion(kind, row):
    width = 1 + (1 if kind == "vertex" else 2) + 3
    return _both(*(_token(kind, row, width + c, "0") for c in range(4)))


def _doubled_vertex(lines, first):
    lines[first["vertex"] + 3] = lines[first["vertex"] + 1]


G2O_MALFORMED = [
    _token("vertex", 1, 3, "1.5x"), _token("vertex", 2, 1, "1.0"),
    _token("edge", 0, 2, "abc"), _token("edge", 0, 5, "nan"),
    _token("edge", 1, 30, "inf"), _token("vertex", 1, 5, "-inf"),
    _width("edge", 0, 1), _width("vertex", 2, 2),
    _both(_token("edge", 0, 5, "nan"), _width("edge", 2, 1)),
    _both(_width("edge", 0, 1), _token("edge", 2, 5, "zz")),
    _both(_token("edge", 2, 3, "q"), _token("vertex", 3, 4, "inf")),
    _token("edge", 3, 1, "-300000"),  # an edge to an undeclared vertex
    _zero_quaternion("vertex", 2), _zero_quaternion("edge", 1),
    _doubled_vertex,
]


@pytest.mark.parametrize("change", G2O_MALFORMED, ids=lambda c: c.__name__)
def test_malformed_g2o_fails_as_the_oracle(change):
    lines, vertex, edge = _g2o_lines()
    assert lines[vertex].startswith("VERTEX") and lines[edge].startswith("EDGE")
    change(lines, {"vertex": vertex, "edge": edge})
    text = "\n".join(lines) + "\n"
    _same_error(lambda: gio._g2o_contents(text), lambda: _oracle_g2o(text))


# -- a seeded g2o mutation sweep ---------------------------------------------

# Tokens that are odd in an id or number slot of a g2o line
G2O_PALETTE = ["1.5x", "nan", "inf", "-inf", "1e999", "0x1", "1_0", "+2",
               "-0", "1e3", "9" * 400]
# whole-line replacements
_REPLACED = {"comment": "# a note", "blank": "", "unknown": "FIX 0"}
G2O_CHANGES = G2O_PALETTE + ["drop", "add", *_REPLACED]


def _g2o_change(rng, tokens, change):
    """``tokens`` of a record line after one ``change``: a palette token
    at a random id, ``t``, ``q`` or information slot, a token dropped or
    added, or the whole line replaced."""
    if change in _REPLACED:
        return _REPLACED[change].split()
    tokens = list(tokens)
    if change == "drop":
        del tokens[rng.integers(len(tokens))]
    elif change == "add":
        tokens.insert(rng.integers(len(tokens) + 1), "0.5")
    else:
        n_ids = 1 if tokens[0].startswith("VERTEX") else 2
        bounds = {"id": (1, 1 + n_ids), "t": (1 + n_ids, 4 + n_ids),
                  "q": (4 + n_ids, 8 + n_ids), "info": (8 + n_ids, 31)}
        kinds = [k for k, (lo, hi) in bounds.items()
                 if lo < min(hi, len(tokens))]
        lo, hi = bounds[kinds[rng.integers(len(kinds))]]
        tokens[rng.integers(lo, min(hi, len(tokens)))] = change
    return tokens


@pytest.mark.parametrize("change", G2O_CHANGES,
                         ids=lambda c: c if len(c) < 10 else "400 digits")
def test_single_line_changes_decode_g2o_as_the_oracle(change):
    # 25 cases per change, 400 in all: the change on a random record
    # line, then in two of three cases a second change on the same line
    # (a token one) or on another line
    lines = _g2o(_sweep_base()).splitlines()
    records = [k for k, line in enumerate(lines)
               if line.startswith(("VERTEX", "EDGE"))]
    rng = np.random.default_rng(35 + G2O_CHANGES.index(change))
    for _ in range(25):
        changed = list(lines)
        at = int(rng.choice(records))
        changed[at] = " ".join(_g2o_change(rng, changed[at].split(), change))
        again = int(rng.integers(3))
        if again == 1 and change not in _REPLACED:
            second = G2O_CHANGES[rng.integers(len(G2O_PALETTE) + 2)]
        elif again:
            at = int(rng.choice([k for k in records if k != at]))
            second = G2O_CHANGES[rng.integers(len(G2O_CHANGES))]
        if again:
            changed[at] = " ".join(
                _g2o_change(rng, changed[at].split(), second))
        text = "\n".join(changed) + "\n"
        try:
            want = _oracle_g2o(text)
        except Exception:
            _same_error(lambda: gio._g2o_contents(text),
                        lambda: _oracle_g2o(text))
        else:
            _assert_decoded_equal(gio._g2o_contents(text), want)


def _m(i, j, angle=0.0):
    return RelativeMeasurement(i, j, [float(i), float(j), 1.0],
                               so3.exp_map([0.0, 0.0, angle]))


def _paired(*edges):
    out = []
    for i, j in edges:
        m = _m(i, j, 0.1 * (i + 2 * j))
        out += [m, reversed_measurement(m)]
    return out


GRAPH_MALFORMED = {
    "dangling": (3, _paired((0, 1), (1, 2)) + [_m(2, 5), _m(1, 1)]),
    "negative": (3, _paired((0, 1), (1, 2)) + [_m(-1, 2)]),
    "self-loop-first": (3, [_m(2, 2)] + _paired((0, 1)) + [_m(0, 7)]),
    "duplicate": (3, _paired((0, 1), (1, 2)) + [_m(1, 2), _m(0, 1)]),
    "duplicate-after-dangling": (3, [_m(0, 1), _m(0, 1), _m(0, 3)]),
    "disconnected": (6, _paired((0, 1), (2, 3), (4, 5), (1, 4))),
    "isolated-tail": (9, _paired((0, 1), (1, 2))),
    "no-edges": (3, []),
    "zero-vertices": (0, []),
    # deep: the search from pose 0 needs 1,499 levels to reach the cut
    "deep-path-cut": (3000, _paired(*((i, i + 1) for i in range(2999)
                                      if i != 1499))),
    "pose-0-isolated": (4, _paired((1, 2), (2, 3))),
}


def _one_way(ms):
    """``ms`` without each row whose reverse direction an earlier kept
    row holds; repeats stay."""
    kept = set()
    out = []
    for m in ms:
        if (m.dst, m.src) not in kept:
            out.append(m)
            kept.add((m.src, m.dst))
    return out


# paired=False feeds the rows one way, so that the build appends every
# reverse direction itself
@pytest.mark.parametrize("case", sorted(GRAPH_MALFORMED))
@pytest.mark.parametrize("paired", [False, True])
def test_malformed_graph_fails_as_the_oracle(case, paired):
    n, ms = GRAPH_MALFORMED[case]
    ms = ms if paired else _one_way(ms)
    _same_error(lambda: build_graph(n, ms), lambda: _oracle_build(n, ms))


@pytest.mark.parametrize("paired", [False, True])
def test_deep_path_builds_as_the_oracle(paired):
    n = 3000
    ms = _paired(*((i, i + 1) for i in range(n - 1)))
    ms = ms if paired else _one_way(ms)
    _assert_graph_equal(build_graph(n, ms), _oracle_build(n, ms))


def test_single_vertex_without_edges():
    g = build_graph(1, [])
    _assert_graph_equal(g, _oracle_build(1, []))
    assert g.directed_count == 0 and g.neighbors(0) == ()


# -- pairing: convert --symmetrize and build_graph ---------------------------


def _oracle_symmetrize(measurements):
    """The rows as given, then ``reversed_measurement`` of each row seen
    for the first time whose reverse direction the input lacks."""
    have = {(m.src, m.dst) for m in measurements}
    out, seen = list(measurements), set()
    for m in measurements:
        if (m.src, m.dst) not in seen and (m.dst, m.src) not in have:
            out.append(reversed_measurement(m))
        seen.add((m.src, m.dst))
    return out


def _random_columns(rng):
    """Up to 30 rows over a few ids, negative ones too, so that repeated
    pairs, self loops and empty input all occur."""
    count = int(rng.integers(0, 31))
    lo, hi = int(rng.integers(-3, 1)), int(rng.integers(1, 7))
    return graph.MeasurementColumns(
        rng.integers(lo, hi, size=count), rng.integers(lo, hi, size=count),
        rng.normal(size=(count, 3)) * 10,
        np.array([so3.random_rotation(rng) for _ in range(count)]
                 ).reshape(-1, 3, 3))


def test_symmetrize_equals_the_per_row_oracle():
    rng = np.random.default_rng(30)
    cases = [_random_columns(rng) for _ in range(300)]
    assert any(len(c) == 0 for c in cases)
    assert any((c.src == c.dst).any() for c in cases)
    for cols in cases:
        _assert_columns_equal(graph.symmetrize(cols),
                              _oracle_symmetrize(list(cols)))


def _assert_same_graph(a, b):
    e = b.edge_arrays
    _assert_graph_equal(a, {**vars(e), "runs": e.runs})
    assert a.tree == b.tree


def _one_way_dataset(d):
    """The dataset ``d`` with one direction of each edge: from the smaller
    id where the ids add up to an even number, else from the larger."""
    d["measurements"] = [m for m in d["measurements"]
                         if (m["src"] < m["dst"])
                         == ((m["src"] + m["dst"]) % 2 == 0)]
    return d


def test_loading_and_converting_pair_alike():
    # a one-way set builds the graph of its symmetrized columns, in the
    # decoded columns of JSON and of g2o text alike
    rng = np.random.default_rng(31)
    for _ in range(60):
        d = _one_way_dataset(_random_dataset(rng))
        for stored in (gio._json_contents(json.dumps(d)),
                       gio._g2o_contents(_g2o(d))):
            cols = stored.measurements
            paired = graph.symmetrize(cols)
            assert len(paired) == 2 * len(cols)
            _assert_same_graph(build_graph(stored.n, cols),
                               build_graph(stored.n, paired))

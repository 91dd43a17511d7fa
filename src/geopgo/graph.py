"""Pose-graph data model: vertices, paired relative measurements, topology.

Vertex ids are dense integers ``0..n-1``. Measurements are directed; the
graph stores both directions of every edge so each node can run on purely
local data. A measurement ``(i, j)`` expresses the pose of ``j`` in the
frame of ``i``. For stacked passes over the edge set, a graph freezes its
measurements into arrays once (:attr:`PoseGraph.edge_arrays`), which
cut into the local arrays of a block of contiguous poses
(:meth:`EdgeArrays.block`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class DisconnectedGraphError(ValueError):
    """The measurement set does not connect all vertices."""


class DuplicateEdgeError(ValueError):
    """The same directed pair appears more than once."""


class DanglingVertexError(ValueError):
    """A measurement references a vertex id outside ``0..n-1``."""


@dataclass(frozen=True)
class Pose:
    """A rigid pose: translation ``t`` in meters and rotation matrix ``r``."""

    t: np.ndarray
    r: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float).reshape(3))
        object.__setattr__(self, "r", np.asarray(self.r, dtype=float).reshape(3, 3))

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.zeros(3), np.eye(3))


def compose(a: Pose, b: Pose) -> Pose:
    """Pose of ``b`` expressed through ``a``: ``(a.t + a.r b.t, a.r b.r)``."""
    return Pose(a.t + a.r @ b.t, a.r @ b.r)


def inverse(p: Pose) -> Pose:
    """Rigid inverse: ``(-r.T t, r.T)``."""
    return Pose(-(p.r.T @ p.t), p.r.T)


@dataclass(frozen=True)
class RelativeMeasurement:
    """Measured pose of ``dst`` in the frame of ``src``."""

    src: int
    dst: int
    t_rel: np.ndarray
    r_rel: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "t_rel",
                           np.asarray(self.t_rel, dtype=float).reshape(3))
        object.__setattr__(self, "r_rel",
                           np.asarray(self.r_rel, dtype=float).reshape(3, 3))


def reversed_measurement(m: RelativeMeasurement) -> RelativeMeasurement:
    """Exact rigid inverse of a measurement, labeling the opposite direction."""
    return RelativeMeasurement(m.dst, m.src, -(m.r_rel.T @ m.t_rel), m.r_rel.T)


def symmetrize(
    measurements: list[RelativeMeasurement],
) -> list[RelativeMeasurement]:
    """Add the rigid inverse for every direction that is missing.

    Existing measurements are kept bit-for-bit, so applying this twice
    gives the same set as applying it once.
    """
    present = {(m.src, m.dst) for m in measurements}
    out = list(measurements)
    for m in measurements:
        if (m.dst, m.src) not in present:
            out.append(reversed_measurement(m))
            present.add((m.dst, m.src))
    return out


# Edges per stacked pass: bounds the (block, 3, 3) temporaries, and so the
# peak memory of a pass, whatever the size of the graph.
EDGE_BLOCK = 1024


def edge_blocks(count: int) -> list[slice]:
    """Slices covering ``range(count)`` in runs of at most EDGE_BLOCK."""
    return [slice(lo, min(lo + EDGE_BLOCK, count))
            for lo in range(0, count, EDGE_BLOCK)]


def sequential_sum(rows: np.ndarray) -> np.ndarray:
    """Sum along the first axis, left to right from zero.

    This is the association of a scalar ``total += row`` loop; ``np.sum``
    adds pairwise and may round differently.
    """
    rows = np.asarray(rows, dtype=float)
    start = np.zeros((1,) + rows.shape[1:])
    return np.add.accumulate(np.concatenate([start, rows]))[-1]


@dataclass(frozen=True)
class EdgeArrays:
    """The outgoing edges of a contiguous run of poses, as read-only
    stacked arrays; :attr:`PoseGraph.edge_arrays` is the run of all poses.

    ``ids`` maps each pose row the edges read to its global id: the own
    poses first, ascending, then the halo (the other poses the edges
    point to), ascending. Row ``k`` is the ``k``-th edge in ``(src,
    dst)`` order: ``src``/``dst`` ``(E,)`` index the pose rows,
    ``r_rel`` ``(E, 3, 3)`` and ``t_rel`` ``(E, 3)`` are its measurement
    and ``t_in`` ``(E, 3)`` the reverse edge's translation ``t_ji``. Own
    pose ``b``'s edges are rows ``offsets[b]:offsets[b + 1]``, by
    ascending ``dst`` id. Over the whole graph the pose rows are the ids
    and ``rev[k]`` is the row of edge ``k``'s reverse direction; a
    block has no ``rev``.
    """

    ids: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    r_rel: np.ndarray
    t_rel: np.ndarray
    t_in: np.ndarray
    offsets: np.ndarray
    rev: np.ndarray | None = None

    @property
    def size(self) -> int:
        """The number of own poses."""
        return len(self.offsets) - 1

    def name(self, k: int) -> str:
        return f"edge ({self.ids[self.src[k]]}, {self.ids[self.dst[k]]})"

    def block(self, lo: int, hi: int) -> "EdgeArrays":
        """The outgoing edges of poses ``lo..hi-1`` of the whole graph,
        indexed locally."""
        rows = slice(self.offsets[lo], self.offsets[hi])
        dst = self.dst[rows]
        read = np.zeros(self.size, dtype=bool)
        read[dst] = True
        read[lo:hi] = False
        halo = np.flatnonzero(read)
        local = np.empty(self.size, dtype=np.intp)
        local[lo:hi] = np.arange(hi - lo)
        local[halo] = np.arange(hi - lo, hi - lo + len(halo))
        return _frozen(EdgeArrays(
            ids=np.concatenate((np.arange(lo, hi), halo)),
            src=self.src[rows] - lo, dst=local[dst],
            r_rel=self.r_rel[rows], t_rel=self.t_rel[rows],
            t_in=self.t_in[rows],
            offsets=self.offsets[lo:hi + 1] - self.offsets[lo]))


def _frozen(arrays: EdgeArrays) -> EdgeArrays:
    for a in vars(arrays).values():
        if a is not None:
            a.flags.writeable = False
    return arrays


@dataclass(frozen=True)
class PoseGraph:
    """Validated, paired-directed measurement graph over ``n`` vertices.

    ``measurements`` is sorted by ``(src, dst)`` and contains both
    directions of every edge. ``neighbor_index`` maps each vertex to its
    ascending neighbor ids. Construct through :func:`build_graph`.
    """

    n: int
    measurements: tuple[RelativeMeasurement, ...]
    neighbor_index: dict[int, tuple[int, ...]] = field(repr=False)
    _by_edge: dict[tuple[int, int], RelativeMeasurement] = field(repr=False)

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self.neighbor_index[i]

    def measurement(self, src: int, dst: int) -> RelativeMeasurement:
        return self._by_edge[(src, dst)]

    def has_edge(self, src: int, dst: int) -> bool:
        return (src, dst) in self._by_edge

    @property
    def directed_count(self) -> int:
        return len(self.measurements)

    def undirected_edges(self) -> list[tuple[int, int]]:
        """Edge list with ``src < dst``, each undirected edge once."""
        return [(m.src, m.dst) for m in self.measurements if m.src < m.dst]

    @cached_property
    def edge_arrays(self) -> EdgeArrays:
        """The measurements as :class:`EdgeArrays`, built on first use."""
        ms = self.measurements
        src = np.array([m.src for m in ms], dtype=np.intp)
        dst = np.array([m.dst for m in ms], dtype=np.intp)
        t_rel = np.array([m.t_rel for m in ms], dtype=float).reshape(-1, 3)
        # sorting by (dst, src) lists the reverse of each (src, dst) row
        rev = np.lexsort((src, dst))
        return _frozen(EdgeArrays(
            ids=np.arange(self.n), src=src, dst=dst,
            r_rel=np.array([m.r_rel for m in ms], dtype=float).reshape(-1, 3, 3),
            t_rel=t_rel, t_in=t_rel[rev],
            offsets=np.concatenate(
                ([0], np.cumsum(np.bincount(src, minlength=self.n)))),
            rev=rev))


def build_graph(
    n: int,
    measurements: list[RelativeMeasurement],
    symmetrize_missing: bool = False,
) -> PoseGraph:
    """Validate measurements and assemble a :class:`PoseGraph`.

    Args:
        n: vertex count; ids must lie in ``0..n-1``.
        measurements: directed measurements. Unless ``symmetrize_missing``
            is set, every edge must already appear in both directions.
        symmetrize_missing: synthesize the rigid inverse for directions
            that are absent. Never done implicitly.

    Raises:
        DanglingVertexError: id out of range or a self loop.
        DuplicateEdgeError: repeated directed pair.
        DisconnectedGraphError: vertices unreachable from vertex 0, or a
            graph with no measurements and more than one vertex.
        ValueError: an unpaired direction when synthesis was not requested.
    """
    if n <= 0:
        raise ValueError(f"vertex count must be positive, got {n}")
    for m in measurements:
        if not (0 <= m.src < n) or not (0 <= m.dst < n):
            raise DanglingVertexError(
                f"measurement ({m.src}, {m.dst}) references a vertex "
                f"outside 0..{n - 1}")
        if m.src == m.dst:
            raise DanglingVertexError(f"self loop at vertex {m.src}")
    seen: set[tuple[int, int]] = set()
    for m in measurements:
        key = (m.src, m.dst)
        if key in seen:
            raise DuplicateEdgeError(f"directed pair {key} appears twice")
        seen.add(key)
    if symmetrize_missing:
        measurements = symmetrize(measurements)
        seen = {(m.src, m.dst) for m in measurements}
    else:
        for src, dst in seen:
            if (dst, src) not in seen:
                raise ValueError(
                    f"measurement ({src}, {dst}) has no reverse companion; "
                    "pass symmetrize_missing=True to synthesize it")

    ordered = tuple(sorted(measurements, key=lambda m: (m.src, m.dst)))
    nbrs: dict[int, list[int]] = {i: [] for i in range(n)}
    for m in ordered:
        nbrs[m.src].append(m.dst)
    neighbor_index = {i: tuple(sorted(set(v))) for i, v in nbrs.items()}

    # Connectivity over the undirected support.
    reached = {0}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j in neighbor_index[i]:
            if j not in reached:
                reached.add(j)
                queue.append(j)
    if len(reached) != n:
        missing = sorted(set(range(n)) - reached)
        raise DisconnectedGraphError(
            f"{len(missing)} vertices unreachable from vertex 0 "
            f"(first few: {missing[:5]})")

    by_edge = {(m.src, m.dst): m for m in ordered}
    return PoseGraph(n=n, measurements=ordered,
                     neighbor_index=neighbor_index, _by_edge=by_edge)


def laplacian(g: PoseGraph) -> np.ndarray:
    """Graph Laplacian: degree on the diagonal, -1 per undirected edge."""
    e = g.edge_arrays
    lap = np.zeros((g.n, g.n))
    lap[e.src, e.dst] = -1.0
    lap[np.diag_indices(g.n)] = np.diff(e.offsets)
    return lap


def max_degree(g: PoseGraph) -> int:
    return int(np.diff(g.edge_arrays.offsets).max())


def algebraic_connectivity(g: PoseGraph) -> float:
    """Second-smallest Laplacian eigenvalue; positive iff connected."""
    return float(np.linalg.eigvalsh(laplacian(g))[1])


def spanning_tree(g: PoseGraph, root: int = 0) -> dict[int, int]:
    """Breadth-first spanning tree from ``root``.

    Neighbors are explored in ascending id order, so ties always resolve
    to the lowest-id parent. Returns a parent map covering every vertex
    except the root.
    """
    if not (0 <= root < g.n):
        raise DanglingVertexError(f"root {root} outside 0..{g.n - 1}")
    parent: dict[int, int] = {}
    queue = deque([root])
    reached = {root}
    while queue:
        i = queue.popleft()
        for j in g.neighbors(i):
            if j not in reached:
                reached.add(j)
                parent[j] = i
                queue.append(j)
    return parent

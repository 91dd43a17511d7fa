"""Pose-graph data model: vertices, paired relative measurements, topology.

Vertex ids are dense integers ``0..n-1``. Measurements are directed; the
graph stores both directions of every edge so each node can run on purely
local data. A measurement ``(i, j)`` expresses the pose of ``j`` in the
frame of ``i``.

Measurements travel as stacked columns (:class:`MeasurementColumns`),
and :func:`build_graph` validates, pairs, sorts and connectivity-checks
them as arrays, with no per-edge objects. A graph is its arrays
(:attr:`PoseGraph.edge_arrays`), which cut into the local arrays of a
block of contiguous poses (:meth:`EdgeArrays.block`); measurement
objects, neighbor tuples and edge lists are derived from them on demand.
Poses travel the same way, as a :class:`PoseStack` of stacked
translations and rotations, from the loader to the writer.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

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


@dataclass(frozen=True, eq=False)
class PoseStack(Sequence):
    """Poses as stacked arrays: translations ``t`` ``(n, 3)`` and
    rotations ``r`` ``(n, 3, 3)``, row ``i`` belonging to pose ``i``.

    It reads as a sequence of :class:`Pose`, each built on demand from
    copies of its rows; a slice is a stack again.
    """

    t: np.ndarray
    r: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return PoseStack(self.t[k], self.r[k])
        return Pose(self.t[k].copy(), self.r[k].copy())


def as_stack(poses: Sequence[Pose]) -> PoseStack:
    """``poses`` as a :class:`PoseStack`, stacked once unless they
    already are."""
    if isinstance(poses, PoseStack):
        return poses
    return PoseStack(
        np.array([p.t for p in poses], dtype=float).reshape(-1, 3),
        np.array([p.r for p in poses], dtype=float).reshape(-1, 3, 3))


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


@dataclass(frozen=True, eq=False)
class MeasurementColumns(Sequence):
    """Directed measurements in a given order, as stacked columns.

    ``src``/``dst`` are ``(E,)`` ids, ``t_rel`` ``(E, 3)`` and ``r_rel``
    ``(E, 3, 3)``. It reads as a sequence of :class:`RelativeMeasurement`,
    each built on demand from its row; a slice is columns again.
    """

    src: np.ndarray
    dst: np.ndarray
    t_rel: np.ndarray
    r_rel: np.ndarray

    def __len__(self) -> int:
        return len(self.src)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return MeasurementColumns(self.src[k], self.dst[k],
                                      self.t_rel[k], self.r_rel[k])
        return RelativeMeasurement(int(self.src[k]), int(self.dst[k]),
                                   self.t_rel[k].copy(), self.r_rel[k].copy())

    def take(self, rows: np.ndarray) -> "MeasurementColumns":
        """The rows ``rows``, in that order."""
        return MeasurementColumns(self.src[rows], self.dst[rows],
                                  self.t_rel[rows], self.r_rel[rows])

    def inverted(self) -> "MeasurementColumns":
        """The exact rigid inverse of every row, labeling the opposite
        direction; row ``k`` equals :func:`reversed_measurement` of row
        ``k`` bit for bit."""
        # a view, as m.r_rel.T is: a contiguous copy rounds r.T @ t otherwise
        r_t = np.swapaxes(self.r_rel, -1, -2)
        return MeasurementColumns(self.dst, self.src,
                                  -(r_t @ self.t_rel[..., None])[..., 0],
                                  r_t.copy())


def as_columns(
    measurements: Sequence[RelativeMeasurement],
) -> MeasurementColumns:
    """``measurements`` as :class:`MeasurementColumns`, stacked once
    unless they already are."""
    if isinstance(measurements, MeasurementColumns):
        return measurements
    ms = list(measurements)
    return MeasurementColumns(
        np.array([m.src for m in ms], dtype=np.intp),
        np.array([m.dst for m in ms], dtype=np.intp),
        np.array([m.t_rel for m in ms], dtype=float).reshape(-1, 3),
        np.array([m.r_rel for m in ms], dtype=float).reshape(-1, 3, 3))


def _concat(a: MeasurementColumns, b: MeasurementColumns) -> MeasurementColumns:
    return MeasurementColumns(
        np.concatenate((a.src, b.src)), np.concatenate((a.dst, b.dst)),
        np.concatenate((a.t_rel, b.t_rel)), np.concatenate((a.r_rel, b.r_rel)))


def _pair_keys(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """One integer per directed pair, ascending in ``(src, dst)`` order;
    symmetric in its arguments' range, so ``_pair_keys(dst, src)`` keys
    the reverse directions on the same scale."""
    if not len(src):
        return np.zeros(0, dtype=np.intp)
    lo = min(src.min(), dst.min())
    span = max(src.max(), dst.max()) - lo + 1
    return (src - lo) * span + (dst - lo)


def _repeats(keys: np.ndarray) -> np.ndarray:
    """Mask of the rows whose key appeared in an earlier row."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    out = np.zeros(len(keys), dtype=bool)
    out[order[1:]] = ordered[1:] == ordered[:-1]
    return out


def _absent(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the ``keys`` that ``sorted_keys`` does not hold."""
    if not len(sorted_keys):
        return np.ones(len(keys), dtype=bool)
    at = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return sorted_keys[at] != keys


def symmetrize(
    measurements: Sequence[RelativeMeasurement],
) -> MeasurementColumns:
    """Add the rigid inverse for every direction that is missing.

    Existing measurements are kept bit-for-bit and in order; the inverses
    follow in the order of the rows they invert, one per missing
    direction. Applying this twice gives the same set as applying it once.
    """
    cols = as_columns(measurements)
    keys = _pair_keys(cols.src, cols.dst)
    missing = (_absent(_pair_keys(cols.dst, cols.src), np.sort(keys))
               & ~_repeats(keys))
    return _concat(cols, cols.take(np.flatnonzero(missing)).inverted())


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


class NodeSumPlan(NamedTuple):
    """Where the per-node sums read their terms, for one CSR edge layout
    (see ``solver._node_sums``).

    The terms are a flat ``(3E + 3, 3)`` stack: rows ``3k``, ``3k + 1``
    and ``3k + 2`` hold edge row ``k``'s translation terms ``d`` and
    ``-m`` and its rotation term ``w``, and the last three rows are
    zero. ``order`` lists the nodes by descending degree, ties by
    ascending index. It is cut into consecutive chunks of at most
    ``EDGE_BLOCK`` padded slots each (one node at least), a chunk's
    width ``W`` being the degree of its first node. For each chunk,
    ``nu`` holds a ``(2W, nodes)`` index whose column for node ``i``
    lists the rows of ``d`` and ``-m`` of its edges ``offsets[i] + p``,
    ``p`` ascending, and ``omega`` a ``(W, nodes)`` index of the rows
    of ``w``; past the node's degree both point to a zero row.
    """

    order: np.ndarray
    nu: tuple[np.ndarray, ...]
    omega: tuple[np.ndarray, ...]


def _node_sum_plan(offsets: np.ndarray) -> NodeSumPlan:
    """The :class:`NodeSumPlan` of the CSR layout ``offsets``."""
    deg = np.diff(offsets)
    order = np.argsort(-deg, kind="stable")
    pad = 3 * int(offsets[-1])  # the first of the three zero rows
    nu, omega = [], []
    lo = 0
    while lo < len(order):
        width = int(deg[order[lo]])  # the chunk's largest degree
        hi = min(len(order), lo + max(1, EDGE_BLOCK // max(width, 1)))
        nodes = order[lo:hi]
        p = np.arange(width)[:, None]
        d_rows = np.where(p < deg[nodes], 3 * (offsets[nodes] + p), pad)
        pairs = np.stack((d_rows, d_rows + 1), axis=1)  # d, then -m
        nu.append(pairs.reshape(2 * width, len(nodes)))
        omega.append(d_rows + 2)
        lo = hi
    return NodeSumPlan(order, tuple(nu), tuple(omega))


def _transposed_stack(r: np.ndarray) -> np.ndarray:
    """A C-contiguous copy of the transpose of each matrix of ``r``."""
    return np.ascontiguousarray(np.swapaxes(r, -1, -2))


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

    Two derived fields serve the solver's kernel pass, and both are made
    once, when the arrays are frozen: ``r_rel_t`` is ``r_rel`` with each
    matrix transposed, C-contiguous, because a stacked ``@`` with a
    transposed right operand takes a slow BLAS path; a block's is a view
    of the whole graph's (built when it is not given). ``plan`` is the
    :class:`NodeSumPlan` of ``offsets``, whose padded chunks each read at
    most ``EDGE_BLOCK`` term slots, so the node sums' temporaries are
    bounded as the kernel's are.
    """

    ids: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    r_rel: np.ndarray
    t_rel: np.ndarray
    t_in: np.ndarray
    offsets: np.ndarray
    rev: np.ndarray | None = None
    r_rel_t: np.ndarray | None = None
    plan: NodeSumPlan = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.r_rel_t is None:
            object.__setattr__(self, "r_rel_t", _transposed_stack(self.r_rel))
        object.__setattr__(self, "plan", _node_sum_plan(self.offsets))
        plan = self.plan
        for a in (*vars(self).values(), plan.order, *plan.nu, *plan.omega):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False

    @property
    def size(self) -> int:
        """The number of own poses."""
        return len(self.offsets) - 1

    def name(self, k: int) -> str:
        return f"edge ({self.ids[self.src[k]]}, {self.ids[self.dst[k]]})"

    def block(self, lo: int, hi: int) -> "EdgeArrays":
        """The outgoing edges of poses ``lo..hi-1`` of the whole graph,
        indexed locally; the measurement stacks are views of this one's."""
        rows = slice(self.offsets[lo], self.offsets[hi])
        dst = self.dst[rows]
        read = np.zeros(self.size, dtype=bool)
        read[dst] = True
        read[lo:hi] = False
        halo = np.flatnonzero(read)
        local = np.empty(self.size, dtype=np.intp)
        local[lo:hi] = np.arange(hi - lo)
        local[halo] = np.arange(hi - lo, hi - lo + len(halo))
        return EdgeArrays(
            ids=np.concatenate((np.arange(lo, hi), halo)),
            src=self.src[rows] - lo, dst=local[dst],
            r_rel=self.r_rel[rows], t_rel=self.t_rel[rows],
            t_in=self.t_in[rows],
            offsets=self.offsets[lo:hi + 1] - self.offsets[lo],
            r_rel_t=self.r_rel_t[rows])


@dataclass(frozen=True)
class PoseGraph:
    """Validated, paired-directed measurement graph over ``n`` vertices.

    The graph is its :class:`EdgeArrays`: both directions of every edge,
    sorted by ``(src, dst)``. Per-edge objects are derived from them on
    demand: :attr:`measurements` reads as a sequence of
    :class:`RelativeMeasurement`, and :meth:`neighbors` (ascending ids),
    :meth:`measurement`, :meth:`has_edge` and :meth:`undirected_edges`
    look rows up in the arrays. Construct through :func:`build_graph`.
    """

    n: int
    edge_arrays: EdgeArrays = field(repr=False)

    @property
    def measurements(self) -> MeasurementColumns:
        """The edges in ``(src, dst)`` order, as read-only columns."""
        e = self.edge_arrays
        return MeasurementColumns(e.src, e.dst, e.t_rel, e.r_rel)

    def neighbors(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < self.n:
            raise KeyError(i)
        e = self.edge_arrays
        return tuple(e.dst[e.offsets[i]:e.offsets[i + 1]].tolist())

    def edge_index(self, src: int, dst: int) -> int:
        """The row of edge ``(src, dst)`` in :attr:`edge_arrays`.

        Raises:
            KeyError: the graph has no such edge.
        """
        if 0 <= src < self.n:
            e = self.edge_arrays
            lo, hi = e.offsets[src], e.offsets[src + 1]
            k = lo + int(np.searchsorted(e.dst[lo:hi], dst))
            if k < hi and e.dst[k] == dst:
                return int(k)
        raise KeyError((src, dst))

    def edge_rows(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """The rows of the edges ``(src[k], dst[k])``, all of which the
        graph must have, by one ``searchsorted`` over the sorted rows."""
        e = self.edge_arrays
        return np.searchsorted(e.src * self.n + e.dst, src * self.n + dst)

    def measurement(self, src: int, dst: int) -> RelativeMeasurement:
        return self.measurements[self.edge_index(src, dst)]

    def has_edge(self, src: int, dst: int) -> bool:
        try:
            self.edge_index(src, dst)
        except KeyError:
            return False
        return True

    @property
    def directed_count(self) -> int:
        return len(self.edge_arrays.src)

    def undirected_edges(self) -> list[tuple[int, int]]:
        """Edge list with ``src < dst``, each undirected edge once."""
        e = self.edge_arrays
        fwd = e.src < e.dst
        return list(zip(e.src[fwd].tolist(), e.dst[fwd].tolist()))


def build_graph(
    n: int,
    measurements: Sequence[RelativeMeasurement],
    symmetrize_missing: bool = False,
) -> PoseGraph:
    """Validate measurements and assemble a :class:`PoseGraph`.

    Works on stacked columns: a list of measurements is stacked once, and
    :class:`MeasurementColumns` are used as given.

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
    Each error names the first offending measurement in input order.
    """
    if n <= 0:
        raise ValueError(f"vertex count must be positive, got {n}")
    cols = as_columns(measurements)
    src, dst = cols.src, cols.dst
    bad = (src < 0) | (src >= n) | (dst < 0) | (dst >= n) | (src == dst)
    if bad.any():
        k = int(np.argmax(bad))
        i, j = int(src[k]), int(dst[k])
        if i == j and 0 <= i < n:
            raise DanglingVertexError(f"self loop at vertex {i}")
        raise DanglingVertexError(
            f"measurement ({i}, {j}) references a vertex outside 0..{n - 1}")
    keys = _pair_keys(src, dst)
    repeated = _repeats(keys)
    if repeated.any():
        k = int(np.argmax(repeated))
        raise DuplicateEdgeError(
            f"directed pair {(int(src[k]), int(dst[k]))} appears twice")
    if symmetrize_missing:
        cols = symmetrize(cols)
    else:
        unpaired = _absent(_pair_keys(dst, src), np.sort(keys))
        if unpaired.any():
            k = int(np.argmax(unpaired))
            raise ValueError(
                f"measurement ({int(src[k])}, {int(dst[k])}) has no reverse "
                "companion; pass symmetrize_missing=True to synthesize it")

    order = np.argsort(_pair_keys(cols.src, cols.dst), kind="stable")
    src, dst = cols.src[order], cols.dst[order]
    offsets = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    _check_connected(n, src, dst)
    t_rel = cols.t_rel[order]
    # listing the edges by (dst, src) lists the reverse of each (src, dst) row
    rev = np.argsort(_pair_keys(dst, src), kind="stable")
    return PoseGraph(n=n, edge_arrays=EdgeArrays(
        ids=np.arange(n), src=src, dst=dst, r_rel=cols.r_rel[order],
        t_rel=t_rel, t_in=t_rel[rev], offsets=offsets, rev=rev))


def _check_connected(n: int, src: np.ndarray, dst: np.ndarray) -> None:
    """Check that every vertex reaches vertex 0 over the (paired) edges.

    Each vertex carries the lowest id it is known to reach, as stacked
    passes over the edge arrays: every round takes the lowest label
    across each edge, then jumps each label to its own label's label.
    The labels settle on each component's lowest id within a logarithmic
    number of rounds on paths and rings, where a breadth-first frontier
    needs one round per level.

    Raises:
        DisconnectedGraphError: naming the first few vertices not reached.
    """
    label = np.arange(n)
    while True:
        low = label.copy()
        np.minimum.at(low, src, label[dst])
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    if label.any():
        missing = np.flatnonzero(label)
        raise DisconnectedGraphError(
            f"{len(missing)} vertices unreachable from vertex 0 "
            f"(first few: {missing[:5].tolist()})")


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


def bfs_tree(g: PoseGraph, root: int = 0,
             ) -> tuple[list[int], list[int], list[int]]:
    """Breadth-first spanning tree from ``root``, as per-vertex lists.

    Neighbors are explored in ascending id order, so ties always resolve
    to the lowest-id parent. Returns the vertices in the order the
    search reaches them (the root first, then one level after another),
    each vertex's parent (-1 at the root) and its depth.
    """
    if not (0 <= root < g.n):
        raise DanglingVertexError(f"root {root} outside 0..{g.n - 1}")
    e = g.edge_arrays
    dst, offsets = e.dst.tolist(), e.offsets.tolist()
    parent = [-1] * g.n
    depth = [0] * g.n
    reached = [False] * g.n
    reached[root] = True
    order = [root]
    for i in order:  # the list is the queue: appended vertices come later
        for j in dst[offsets[i]:offsets[i + 1]]:
            if not reached[j]:
                reached[j] = True
                parent[j] = i
                depth[j] = depth[i] + 1
                order.append(j)
    return order, parent, depth


def spanning_tree(g: PoseGraph, root: int = 0) -> dict[int, int]:
    """The :func:`bfs_tree` from ``root`` as a parent map covering every
    vertex except the root, in the order the search reached them."""
    order, parent, _ = bfs_tree(g, root)
    return {j: parent[j] for j in order[1:]}

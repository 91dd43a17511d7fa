"""Pose-graph data model: vertices, paired relative measurements, topology.

Vertex ids are dense integers ``0..n-1``. Measurements are directed; the
graph stores both directions of every edge so each node can run on purely
local data. A measurement ``(i, j)`` expresses the pose of ``j`` in the
frame of ``i``.

Measurements travel as stacked columns (:class:`MeasurementColumns`),
and :func:`build_graph` validates, pairs and sorts them as arrays, with
no per-edge objects, then checks with the graph's one :func:`bfs_tree`
(:attr:`PoseGraph.tree`) that every pose is reached from pose 0. Every
built graph is paired: the exact inverse of each direction the input
lacks is appended, as :func:`symmetrize` appends it to a file's
columns, and both find the missing directions with one sort. A
graph is its arrays (:attr:`PoseGraph.edge_arrays`), which cut into the
local arrays of a block of contiguous poses (:meth:`EdgeArrays.block`);
measurement objects, neighbor tuples and edge lists are derived from
them on demand.
Poses travel the same way, as a :class:`PoseStack` of stacked
translations and rotations, from the loader to the writer.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
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
    the reverse directions on the same scale. Ids spanning more than
    2**31 values, whose keys would wrap in int64, are keyed by rank."""
    if not len(src):
        return np.zeros(0, dtype=np.intp)
    lo = min(src.min(), dst.min())
    span = max(src.max(), dst.max()) - lo + 1
    if span > 2 ** 31:
        ids, ranks = np.unique(np.concatenate((src, dst)), return_inverse=True)
        src, dst, lo, span = ranks[:len(src)], ranks[len(src):], 0, len(ids)
    return (src - lo) * span + (dst - lo)


def _pairing(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, ...]:
    """One stable sort of the pair keys of the rows ``(src, dst)`` and
    one search for each row's reverse direction among them.

    Returns the sorting ``order``, the keys in that order, the sorted
    place of each row's reverse key, and the mask of the rows whose
    reverse direction is absent. A self loop is its own reverse.
    """
    keys, back = _pair_keys(src, dst), _pair_keys(dst, src)
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    at = np.searchsorted(ordered, back)
    return order, ordered, at, ordered.take(at, mode="clip") != back


def symmetrize(
    measurements: Sequence[RelativeMeasurement],
) -> MeasurementColumns:
    """Add the rigid inverse for every direction that is missing.

    Existing measurements are kept bit-for-bit and in order, repeats and
    self loops included; the inverses follow in the order of the rows
    they invert, one per missing direction. Applying this twice gives
    the same set as applying it once.
    """
    cols = as_columns(measurements)
    order, ordered, _, missing = _pairing(cols.src, cols.dst)
    # of a repeated pair, only the first row may add an inverse
    missing[order[1:]] &= ordered[1:] != ordered[:-1]
    return _concat(cols, cols.take(np.flatnonzero(missing)).inverted())


# Edges (or padded edge slots) per stacked pass: bounds the (block, 3, 3)
# temporaries, and so the peak memory of a pass, whatever the size of the
# graph. It bounds the padded slots of a kernel run (RunPlan), the edges
# of a pairwise-rotation repair pass, and the cycles composed per block
# (and their operands gathered at once) of the cycle check.
EDGE_BLOCK = 2048


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


class RunPlan(NamedTuple):
    """Where the kernel makes its rotation products, node by node, for
    one CSR edge layout (see ``solver._block_terms``).

    The own poses are cut into runs of consecutive nodes: run ``k``
    holds nodes ``bounds[k]`` to ``bounds[k + 1] - 1``, and so the
    contiguous edge rows ``offsets[bounds[k]]:offsets[bounds[k + 1]]``.
    A run pads each of its ``m`` nodes to its largest degree ``W``:
    ``nbr[k]`` is an ``(m, W)`` index whose row for node ``i`` lists the
    pose rows of its edges' ``dst``, in row order, and then ``i`` itself
    in the padding slots. ``real[k]`` lists, ascending, the flat slots
    of the ``m * W`` that hold an edge, which are then in row order, or
    is None when no slot is padding. A run holds whole nodes, at most
    ``EDGE_BLOCK`` slots, or one node, and the kernel makes each run's
    terms as one slice of its pass.
    """

    bounds: np.ndarray
    nbr: tuple[np.ndarray, ...]
    real: tuple[np.ndarray | None, ...]


def _run_plan(offsets: np.ndarray, dst: np.ndarray) -> RunPlan:
    """The :class:`RunPlan` of the CSR layout ``offsets`` whose edges
    point at the pose rows ``dst``: each run is the longest one, from
    where the last ended, whose slots fit, and at least one node."""
    deg = np.diff(offsets)
    bounds, nbr, real = [0], [], []
    while bounds[-1] < len(deg):
        lo = bounds[-1]
        window = deg[lo:lo + EDGE_BLOCK]
        width = np.maximum.accumulate(window)
        slots = width * np.arange(1, len(window) + 1)  # ascending
        size = max(1, int(np.searchsorted(slots, EDGE_BLOCK, "right")))
        hi = lo + size
        p = np.arange(width[size - 1])
        pad = p >= window[:size, None]
        edges = dst.take(offsets[lo:hi, None] + p, mode="clip")
        nbr.append(np.where(pad, np.arange(lo, hi)[:, None], edges))
        real.append(np.flatnonzero(~pad) if pad.any() else None)
        bounds.append(hi)
    return RunPlan(np.array(bounds), tuple(nbr), tuple(real))


# the bin of each entry of an edge's (3, 3) terms (d, -m, w), relative
# to its node's first bin: d and -m add into the node's translation sum,
# w into its rotation sum
_TERM_BINS = np.array([0, 1, 2, 0, 1, 2, 3, 4, 5])


def _term_bins(src: np.ndarray) -> np.ndarray:
    """The ``bins`` of the edges that start at the pose rows ``src``."""
    return (6 * src[:, None] + _TERM_BINS).ravel()


# The widest run whose products R_i t_ij the kernel makes per edge row.
# A wider run makes them in one stacked matrix-vector product, which
# costs three BLAS calls per node against one per edge row; on ring-200
# (width 2) the stacked product made a pass about 5% slower.
NARROW_RUN = 3


def _padded_stacks(t: np.ndarray, offsets: np.ndarray,
                   runs: RunPlan) -> tuple[np.ndarray | None, ...]:
    """Per run of ``runs``, read-only, the ``(m, W, 3)`` stack of its
    edge rows of ``t``, each node's rows zero-padded to the run's width
    ``W`` (in the padding slots of ``runs.nbr``); None for a run of width
    at most :data:`NARROW_RUN`."""
    stacks = []
    for lo, hi, nbr, real in zip(runs.bounds, runs.bounds[1:], runs.nbr,
                                 runs.real):
        m, width = nbr.shape
        if width <= NARROW_RUN:
            stacks.append(None)
            continue
        pad = np.zeros((m * width, 3))
        pad[slice(None) if real is None else real] = t[offsets[lo]:offsets[hi]]
        pad = pad.reshape(m, width, 3)
        pad.flags.writeable = False
        stacks.append(pad)
    return tuple(stacks)


@dataclass(frozen=True)
class EdgeArrays:
    """The outgoing edges of a contiguous run of poses, as read-only
    stacked arrays; :attr:`PoseGraph.edge_arrays` is the run of all poses.

    ``ids`` maps each pose row the edges read to its global id: the own
    poses first, ascending, then the halo (the other poses the edges
    point to), ascending. Row ``k`` is the ``k``-th edge in ``(src,
    dst)`` order: ``src``/``dst`` ``(E,)`` index the pose rows, and
    ``r_rel`` ``(E, 3, 3)`` and ``t_rel`` ``(E, 3)`` are its
    measurement. Own pose ``b``'s edges are rows ``offsets[b]:offsets[b
    + 1]``, by ascending ``dst`` id. Over the whole graph the pose rows
    are the ids.

    ``cut`` lists, ascending, the ``C`` rows whose reverse edge starts
    outside the run: the rows whose ``dst`` is a halo pose. The whole
    graph has none. ``rev[k]`` is the row of edge ``k``'s reverse
    direction in the ``E + C`` rows ``[own rows; cut rows]``: an own row,
    or ``E + c`` when ``k`` is the ``c``-th cut row. ``t_cut`` ``(C, 3)``
    holds the cut rows' reverse translations ``t_ji``, the one
    measurement a run reads from outside its rows. :func:`build_graph`
    finds the whole graph's ``rev``, and :meth:`block` slices its own
    from it; the whole graph's ``t_cut`` is empty.

    Derived arrays serve the solver's kernel pass. Those derived from
    the layout are made when the arrays are frozen, ``cut`` always and
    ``bins`` and ``runs`` unless given, so a ``replace`` that keeps the
    layout may carry them over, as it may :attr:`PoseGraph.tree`.
    Nothing derived from the measurements may: the one such array,
    :attr:`t_rel_pad`, is made from ``t_rel`` on first read.
    ``bins`` ``(9E,)`` is where the node sums put each entry of the
    kernel's ``(E, 3, 3)`` per-edge terms ``(d, -m, w)``: entry ``c`` of
    edge ``k``'s ``d`` and ``-m`` goes to bin ``6 * src[k] + c`` and of
    its ``w`` to bin ``6 * src[k] + 3 + c``, so one ``np.bincount`` makes
    every node's sums. ``runs``
    is the :class:`RunPlan` of ``offsets`` and ``dst``, by which the
    kernel cuts its pass into runs of whole nodes, of at most
    ``EDGE_BLOCK`` slots each, and makes each run's rotation products at
    once, and each wide run's ``R_i t_ij`` from its :attr:`t_rel_pad`
    stack.
    """

    ids: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    r_rel: np.ndarray
    t_rel: np.ndarray
    t_cut: np.ndarray
    offsets: np.ndarray
    rev: np.ndarray
    bins: np.ndarray | None = field(default=None, repr=False)
    runs: RunPlan | None = field(default=None, repr=False)
    cut: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cut", np.flatnonzero(self.dst >= self.size))
        if self.bins is None:
            object.__setattr__(self, "bins", _term_bins(self.src))
        if self.runs is None:
            object.__setattr__(self, "runs", _run_plan(self.offsets, self.dst))
        runs = self.runs
        for a in (*vars(self).values(), runs.bounds, *runs.nbr, *runs.real):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False

    @cached_property
    def t_rel_pad(self) -> tuple[np.ndarray | None, ...]:
        """``t_rel`` per run of :attr:`runs`, as the run's nodes' rows
        zero-padded to its width ``W``, ``(m, W, 3)`` and read-only, for
        the kernel's one stacked ``R_i t_ij`` product per run; None for a
        run of width at most :data:`NARROW_RUN`, which makes its products
        per edge row."""
        return _padded_stacks(self.t_rel, self.offsets, self.runs)

    @property
    def size(self) -> int:
        """The number of own poses."""
        return len(self.offsets) - 1

    def name(self, k: int) -> str:
        return f"edge ({self.ids[self.src[k]]}, {self.ids[self.dst[k]]})"

    def block(self, lo: int, hi: int) -> "EdgeArrays":
        """The outgoing edges of poses ``lo..hi-1`` of the whole graph,
        indexed locally and cut from those rows alone: the halo is their
        distinct ``dst`` ids outside the block. The measurement stacks are
        views of this one's (its :attr:`t_rel_pad` is made from its own
        rows), and its ``rev`` is a slice of this one's:
        a row whose reverse lies outside the block's rows is a cut row."""
        a, b = self.offsets[lo], self.offsets[hi]
        dst = self.dst[a:b]
        out = (dst < lo) | (dst >= hi)
        far = dst[out]
        # the distinct far ends, ascending; np.unique would import
        # numpy.ma, about 1.7 MB of resident memory in a distributed solve
        halo = np.sort(far)
        halo = np.concatenate((halo[:1], halo[1:][halo[1:] != halo[:-1]]))
        local = dst - lo
        local[out] = hi - lo + np.searchsorted(halo, far)
        back = self.rev[a:b]
        cut = np.flatnonzero((back < a) | (back >= b))
        rev = back - a
        rev[cut] = np.arange(b - a, b - a + len(cut))
        return EdgeArrays(
            ids=np.concatenate((np.arange(lo, hi), halo)),
            src=self.src[a:b] - lo, dst=local,
            r_rel=self.r_rel[a:b], t_rel=self.t_rel[a:b],
            t_cut=self.t_rel[back[cut]],
            offsets=self.offsets[lo:hi + 1] - a, rev=rev)


@dataclass(frozen=True)
class PoseGraph:
    """Validated, paired-directed measurement graph over ``n`` vertices.

    The graph is its :class:`EdgeArrays`: both directions of every edge,
    sorted by ``(src, dst)``. Per-edge objects are derived from them on
    demand: :attr:`measurements` reads as a sequence of
    :class:`RelativeMeasurement`, and :meth:`neighbors` (ascending ids),
    :meth:`has_edge` and :meth:`undirected_edges` look rows up in the
    arrays. Construct through :func:`build_graph`.

    ``tree`` is the :func:`bfs_tree` from vertex 0, made once with the
    graph (a ``replace`` that keeps the layout keeps it), which the
    connectivity check, the cycle check and the tree init all read;
    :meth:`tree_from` gives it for any root.
    """

    n: int
    edge_arrays: EdgeArrays = field(repr=False)
    tree: tuple[tuple[int, ...], ...] | None = field(
        default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.tree is None:
            object.__setattr__(self, "tree", bfs_tree(self))

    def tree_from(self, root: int) -> tuple[tuple[int, ...], ...]:
        """The :func:`bfs_tree` from ``root``: the stored :attr:`tree`
        for vertex 0, a new search for any other root."""
        return self.tree if root == 0 else bfs_tree(self, root)

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
) -> PoseGraph:
    """Validate measurements and assemble a paired :class:`PoseGraph`.

    Works on stacked columns: a list of measurements is stacked once, and
    :class:`MeasurementColumns` are used as given. The rows are sorted
    once and their reverse directions looked up once, as
    :func:`symmetrize` does: the exact inverse of each absent direction
    is appended (and the grown columns sorted and searched again), and
    the places found are the reverse-edge index. Connectivity is checked
    last, on the assembled graph's :attr:`~PoseGraph.tree`, or first on
    the rows alone when they are fewer than ``n - 1``.

    Args:
        n: vertex count; ids must lie in ``0..n-1``.
        measurements: directed measurements, one or both directions of
            each edge.

    Raises:
        DanglingVertexError: id out of range or a self loop.
        DuplicateEdgeError: repeated directed pair.
        DisconnectedGraphError: vertices unreachable from vertex 0, or a
            graph with no measurements and more than one vertex.
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
    order, ordered, at, unpaired = _pairing(src, dst)
    repeated = ordered[1:] == ordered[:-1]
    if repeated.any():
        k = int(order[1:][repeated].min())  # the first row seen before
        raise DuplicateEdgeError(
            f"directed pair {(int(src[k]), int(dst[k]))} appears twice")
    if len(src) < n - 1:  # too few edges to connect n vertices
        raise _disconnected(n, src, dst)
    if unpaired.any():
        cols = _concat(cols, cols.take(np.flatnonzero(unpaired)).inverted())
        order, _, at, _ = _pairing(cols.src, cols.dst)
    src, dst = cols.src[order], cols.dst[order]
    offsets = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    rev = at[order]  # the sorted place of each sorted row's reverse
    g = PoseGraph(n=n, edge_arrays=EdgeArrays(
        ids=np.arange(n), src=src, dst=dst, r_rel=cols.r_rel[order],
        t_rel=cols.t_rel[order], t_cut=np.empty((0, 3)), offsets=offsets,
        rev=rev))
    if len(g.tree[0]) < n:
        raise _disconnected(n, src, dst)
    return g


def _disconnected(n: int, src: np.ndarray,
                  dst: np.ndarray) -> DisconnectedGraphError:
    """The error for the vertices that the rows ``(src, dst)``, either way
    round, do not reach from vertex 0, in time and memory of the rows."""
    adjacent: dict[int, list[int]] = {}
    for i, j in zip(src.tolist(), dst.tolist()):
        adjacent.setdefault(i, []).append(j)
        adjacent.setdefault(j, []).append(i)
    reached, todo = {0}, [0]
    for i in todo:  # the list is the queue, as in bfs_tree
        new = set(adjacent.get(i, ())) - reached
        reached |= new
        todo += new
    first = list(islice((i for i in range(1, n) if i not in reached), 5))
    return DisconnectedGraphError(
        f"{n - len(reached)} vertices unreachable from vertex 0 "
        f"(first few: {first})")


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
    """Second-smallest Laplacian eigenvalue; positive iff connected.

    A single pose has no second eigenvalue; it reads 0.0.
    """
    if g.n == 1:
        return 0.0
    return float(np.linalg.eigvalsh(laplacian(g))[1])


def bfs_tree(g: PoseGraph, root: int = 0,
             ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Breadth-first spanning tree from ``root``, as per-vertex tuples.

    Neighbors are explored in ascending id order, so ties always resolve
    to the lowest-id parent. Returns the vertices in the order the
    search reaches them (the root first, then one level after another),
    each vertex's parent (-1 at the root and at an unreached vertex) and
    its depth. :func:`build_graph` rejects a graph whose search from
    vertex 0 misses a vertex, so on a built graph it reaches them all.
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
    return tuple(order), tuple(parent), tuple(depth)


"""Measurement-consistency checks and repairs.

Three nested notions are checked, weakest to strongest:

* minimal: the directed sums of log-rotations and of translation
  measurements both vanish.
* pairwise: the two directions of every edge are rigid inverses of each
  other, i.e. ``r_ji == r_ij.T`` and ``t_ij == -r_ij @ t_ji``.
* global: composing measurements around every fundamental cycle returns
  the identity.

Pairwise rotation consistency can be enforced exactly by splitting each
edge's two-direction disagreement evenly between the directions; the
translation analogue is an averaging that the solver re-applies every
step with its current rotation estimates (``solver.node_controls``).

The pairwise and minimal checks are one stacked pass each, below the
peak memory that loading sets; the repair and the cycle check go in
slices of ``graph.EDGE_BLOCK``, where the peak would grow.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from itertools import chain

import numpy as np

from . import graph, so3
from .graph import PoseGraph, edge_blocks, sequential_sum

# No longer called here, since enforce_pairwise_rotations derives its
# arrays; the name stays because perfbench/run.py's tracer wraps it.
build_graph = graph.build_graph

# Largest pairwise defect, in radians and in meters, that still passes.
PAIRWISE_TOL = 1e-6


@dataclass
class ConsistencyReport:
    """Defect magnitudes per consistency notion; None where not evaluated.

    Rotation defects are radians, translation defects meters. All defects
    are nonnegative. Serializes cleanly to JSON via :meth:`to_json`.
    """

    pairwise_rot_max_defect: float | None = None
    pairwise_trans_max_defect: float | None = None
    pairwise_pass: bool | None = None
    minimal_rot_defect: float | None = None
    minimal_trans_defect: float | None = None
    global_checked: bool = False
    global_max_cycle_rot_defect: float | None = None
    global_max_cycle_trans_defect: float | None = None
    cycles_checked: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def check_pairwise(g: PoseGraph) -> ConsistencyReport:
    """Measure how far each edge's two directions are from rigid inverses.

    Rotation defect per edge is the angle of ``r_ij @ r_ji``; translation
    defect is ``norm(t_ij + r_ij @ t_ji)``. Both vanish exactly when the
    reverse direction equals the rigid inverse of the forward one; the
    check passes when neither exceeds :data:`PAIRWISE_TOL`.
    """
    e = g.edge_arrays
    k = np.flatnonzero(e.src < e.dst)
    r, back = e.r_rel[k], e.rev[k]
    angles = so3.rotation_angle(r @ e.r_rel[back])
    gaps = e.t_rel[k] + (r @ e.t_rel[back][..., None])[..., 0]
    rot_defect = float(angles.max(initial=0.0))
    trans_defect = float(np.sqrt(so3.dot_rows(gaps, gaps)).max(initial=0.0))
    return ConsistencyReport(
        pairwise_rot_max_defect=rot_defect,
        pairwise_trans_max_defect=trans_defect,
        pairwise_pass=(rot_defect <= PAIRWISE_TOL
                       and trans_defect <= PAIRWISE_TOL),
    )


def check_minimal(g: PoseGraph) -> ConsistencyReport:
    """Norms of the directed sums of log-rotations and translations.

    Raises:
        so3.AngleAtPiError: a measured rotation is a half turn, whose log
            is ambiguous; the message names the edge.
    """
    e = g.edge_arrays
    logs = so3.named_log_map(
        e.r_rel, lambda k: f"measured rotation on {e.name(k)}")
    return ConsistencyReport(
        minimal_rot_defect=float(np.linalg.norm(sequential_sum(logs))),
        minimal_trans_defect=float(np.linalg.norm(sequential_sum(e.t_rel))),
    )


def check_global(
    g: PoseGraph,
    cycle_basis_limit: int | None = None,
) -> ConsistencyReport:
    """Compose measurements around fundamental cycles of the graph's
    BFS tree (:attr:`PoseGraph.tree`, from vertex 0).

    Every undirected edge outside the spanning tree closes exactly one
    cycle: tree path from one endpoint to the other, then the edge back.
    A consistent graph composes to the identity on each. ``cycle_basis_limit``
    caps how many cycles are evaluated (ascending edge order); the report
    records how many actually were.

    Raises:
        ValueError: a negative ``cycle_basis_limit``.
    """
    if cycle_basis_limit is not None and cycle_basis_limit < 0:
        raise ValueError("cycle_basis_limit must be nonnegative, got "
                         f"{cycle_basis_limit}")
    e = g.edge_arrays
    _, parent, depth = g.tree
    # a tree edge joins a vertex to its parent
    par = np.array(parent)
    loose = np.flatnonzero((e.src < e.dst) & (par[e.dst] != e.src)
                           & (par[e.src] != e.dst))[:cycle_basis_limit]
    walks = _cycle_walks(g, loose, parent, depth)

    # The cycles are composed in lockstep, a block of them per stacked
    # step. Each walk is right-aligned behind identity steps (row E of
    # the padded arrays), so each cycle's arithmetic is its own walk's.
    t_rel = np.concatenate((e.t_rel, np.zeros((1, 3))))[..., None]
    r_rel = np.concatenate((e.r_rel, np.eye(3)[None]))
    rot_defect = 0.0
    trans_defect = 0.0
    for block in edge_blocks(len(walks)):
        part = walks[block]
        rows = _aligned_rows(part, len(e.src))
        # each run of steps gathers its operands at once; at most
        # 16 * EDGE_BLOCK of them, to bound that memory on long cycles
        span = max(1, 16 * graph.EDGE_BLOCK // len(part))
        acc_t = np.zeros((len(part), 3, 1))
        acc_r = np.broadcast_to(np.eye(3), (len(part), 3, 3))
        for lo in range(0, len(rows), span):
            steps = rows[lo:lo + span]
            for t, r in zip(t_rel[steps], r_rel[steps]):
                acc_t = acc_t + acc_r @ t
                acc_r = acc_r @ r
        acc_t = acc_t[..., 0]
        rot_defect = max(rot_defect, float(so3.rotation_angle(acc_r).max()))
        trans_defect = max(trans_defect, float(
            np.sqrt(so3.dot_rows(acc_t, acc_t)).max()))
    return ConsistencyReport(
        global_checked=True,
        global_max_cycle_rot_defect=rot_defect,
        global_max_cycle_trans_defect=trans_defect,
        cycles_checked=len(walks),
    )


def _cycle_walks(g: PoseGraph, loose: np.ndarray, parent: tuple[int, ...],
                 depth: tuple[int, ...]) -> list[list[int]]:
    """The edge rows of each fundamental cycle, one per non-tree edge
    row ``(u, v)`` of ``loose``: the tree path from ``u`` up to the
    lowest common ancestor and down to ``v``, then the edge ``(v, u)``.

    The two ends climb their parent pointers, the deeper one first, then
    both together until they meet. ``parent`` and ``depth`` are those of
    the graph's :attr:`~geopgo.graph.PoseGraph.tree`.
    """
    if not len(loose):
        return []
    e = g.edge_arrays
    par = np.array(parent)
    kids = np.flatnonzero(par >= 0)
    down = np.zeros(g.n, dtype=np.intp)
    down[kids] = g.edge_rows(par[kids], kids)  # the rows (parent, kid)
    up = e.rev[down].tolist()  # the rows (kid, parent); the root's is unused
    down = down.tolist()
    walks = []
    for u, v, back in zip(e.src[loose].tolist(), e.dst[loose].tolist(),
                          e.rev[loose].tolist()):
        climb, descent = [], []  # u's side, and v's from v upward
        while depth[u] > depth[v]:
            climb.append(up[u])
            u = parent[u]
        while depth[v] > depth[u]:
            descent.append(down[v])
            v = parent[v]
        while u != v:
            climb.append(up[u])
            u = parent[u]
            descent.append(down[v])
            v = parent[v]
        descent.reverse()
        climb += descent
        climb.append(back)
        walks.append(climb)
    return walks


def _aligned_rows(walks: list[list[int]], pad: int) -> np.ndarray:
    """The ``(L, C)`` step matrix of ``C`` walks of edge rows: column
    ``c`` ends with walk ``c``, ``L`` being the longest walk, and the
    rows above it are ``pad``. Built from one flat concatenation of the
    walks; one ``searchsorted`` finds each entry's walk."""
    lengths = np.fromiter(map(len, walks), dtype=np.intp, count=len(walks))
    ends = np.cumsum(lengths)
    flat = np.fromiter(chain.from_iterable(walks), dtype=np.intp,
                       count=int(ends[-1]))
    at = np.arange(len(flat))
    col = np.searchsorted(ends, at, side="right")
    rows = np.full((int(lengths.max()), len(walks)), pad, dtype=np.intp)
    rows[at - ends[col] + len(rows), col] = flat
    return rows


def full_report(
    g: PoseGraph, cycle_basis_limit: int | None = None,
) -> ConsistencyReport:
    """Run all three checks and merge their fields into one report."""
    # later reports win, so the global check's global_checked and
    # cycles_checked replace the others' defaults (vars: asdict deep-copies)
    return ConsistencyReport(**{
        name: value
        for rep in (check_pairwise(g), check_minimal(g),
                    check_global(g, cycle_basis_limit))
        for name, value in vars(rep).items() if value is not None})


def paired_rotation_correction(
    r_fwd: np.ndarray, r_rev: np.ndarray,
) -> np.ndarray:
    """One direction's exact pairwise-rotation repair, for one edge or a
    stack of edges.

    Returns ``r_fwd @ exp(0.5 * log(r_fwd.T @ r_rev.T))``. Applying this
    to both directions (swapping the roles) yields rotations that are
    transposes of one another up to rounding: in exact arithmetic the two
    corrections conjugate onto the same half-angle rotation, and in
    floating point they differ by a few ulps (see
    :func:`enforce_pairwise_rotations`).
    """
    r_fwd = np.asarray(r_fwd, dtype=float)
    half = 0.5 * so3.log_map(np.swapaxes(r_fwd, -1, -2)
                             @ np.swapaxes(np.asarray(r_rev, dtype=float), -1, -2))
    return r_fwd @ so3.exp_map(half)


def enforce_pairwise_rotations(g: PoseGraph) -> PoseGraph:
    """Split each edge's rotation disagreement evenly between directions.

    Runs once, up front. Translations are untouched. The repaired
    directions are transposes of each other up to rounding, not bit for
    bit: the largest entry of ``|r_ji - r_ij.T|`` after the repair
    measured 1.35e-14 on an 800-pose sphere (8,704 directed
    measurements), 1.4e-15 on a 50-pose sphere and 1.7e-15 on a 200-pose
    ring. A second application changes entries by rounding only (at most
    6.7e-15 on the same 800-pose sphere).

    Raises:
        so3.AngleAtPiError: if an edge's two directions disagree by a
            rotation whose angle reaches pi, where the even split is
            ambiguous; the message names the edge, and the index is its
            row in the graph's edge arrays.
    """
    e = g.edge_arrays
    repaired = np.empty(e.r_rel.shape)
    # sliced: unsliced, it raised a sphere-800 solve's peak RSS by 0.5 MB
    for sl in edge_blocks(len(repaired)):
        try:
            repaired[sl] = paired_rotation_correction(e.r_rel[sl],
                                                      e.r_rel[e.rev[sl]])
        except so3.AngleAtPiError as exc:
            k = sl.start + exc.index[0]
            raise so3.AngleAtPiError(
                f"directions of {e.name(k)} disagree at pi: {exc}",
                (k,)) from None
    # only r_rel changes: the rows stay valid, sorted and paired, so rev,
    # bins, runs and the tree, which depend on the layout only, are kept,
    # and the arrays derive the rest (r_rel_t) from the new rotations
    return replace(g, edge_arrays=replace(e, r_rel=repaired))


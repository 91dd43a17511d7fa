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
translation analogue is an averaging that solvers re-apply every step
with their current rotation estimates.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import so3
from .graph import (MeasurementColumns, PoseGraph, build_graph, edge_blocks,
                    sequential_sum, spanning_tree)


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


def check_pairwise(
    g: PoseGraph,
    rot_tol: float = 1e-6,
    trans_tol: float = 1e-6,
) -> ConsistencyReport:
    """Measure how far each edge's two directions are from rigid inverses.

    Rotation defect per edge is the angle of ``r_ij @ r_ji``; translation
    defect is ``norm(t_ij + r_ij @ t_ji)``. Both vanish exactly when the
    reverse direction equals the rigid inverse of the forward one.
    """
    e = g.edge_arrays
    fwd = np.flatnonzero(e.src < e.dst)
    rot_defect = 0.0
    trans_defect = 0.0
    for sl in edge_blocks(len(fwd)):
        k = fwd[sl]
        r, back = e.r_rel[k], e.rev[k]
        angles = so3.rotation_angle(r @ e.r_rel[back])
        gaps = e.t_rel[k] + (r @ e.t_rel[back][..., None])[..., 0]
        rot_defect = max(rot_defect, float(angles.max()))
        trans_defect = max(trans_defect,
                           float(np.sqrt(so3.dot_rows(gaps, gaps)).max()))
    return ConsistencyReport(
        pairwise_rot_max_defect=rot_defect,
        pairwise_trans_max_defect=trans_defect,
        pairwise_pass=(rot_defect <= rot_tol and trans_defect <= trans_tol),
    )


def check_minimal(g: PoseGraph) -> ConsistencyReport:
    """Norms of the directed sums of log-rotations and translations.

    Raises:
        so3.AngleAtPiError: a measured rotation is a half turn, whose log
            is ambiguous; the message names the edge.
    """
    e = g.edge_arrays
    logs = np.empty(e.t_rel.shape)
    for sl in edge_blocks(len(logs)):
        logs[sl] = so3.named_log_map(
            e.r_rel[sl], lambda k: f"measured rotation on {e.name(k)}",
            sl.start)
    return ConsistencyReport(
        minimal_rot_defect=float(np.linalg.norm(sequential_sum(logs))),
        minimal_trans_defect=float(np.linalg.norm(sequential_sum(e.t_rel))),
    )


def check_global(
    g: PoseGraph,
    cycle_basis_limit: int | None = None,
) -> ConsistencyReport:
    """Compose measurements around fundamental cycles of a BFS tree.

    Every undirected edge outside the spanning tree closes exactly one
    cycle: tree path from one endpoint to the other, then the edge back.
    A consistent graph composes to the identity on each. ``cycle_basis_limit``
    caps how many cycles are evaluated (ascending edge order); the report
    records how many actually were.
    """
    parent = spanning_tree(g, root=0)
    tree_edges = {(min(c, p), max(c, p)) for c, p in parent.items()}

    def path_to_root(v: int) -> list[int]:
        path = [v]
        while path[-1] in parent:
            path.append(parent[path[-1]])
        return path

    walks = []
    for u, v in g.undirected_edges():
        if (u, v) in tree_edges:
            continue
        if cycle_basis_limit is not None and len(walks) >= cycle_basis_limit:
            break
        up, vp = path_to_root(u), path_to_root(v)
        shared = set(up) & set(vp)
        anc = next(x for x in up if x in shared)
        walk = up[: up.index(anc) + 1] + list(reversed(vp[: vp.index(anc)]))
        walk.append(u)  # close through the non-tree edge (v, u)
        walks.append(walk)

    # The cycles are composed in lockstep, a block of them per stacked
    # step. Each walk is right-aligned behind identity steps (row E of
    # the padded arrays), so each cycle's arithmetic is its own walk's.
    e = g.edge_arrays
    pair_keys = e.src * g.n + e.dst  # ascending, as the rows are sorted
    t_rel = np.concatenate((e.t_rel, np.zeros((1, 3))))[..., None]
    r_rel = np.concatenate((e.r_rel, np.eye(3)[None]))
    rot_defect = 0.0
    trans_defect = 0.0
    for block in edge_blocks(len(walks)):
        part = walks[block]
        length = max(len(w) for w in part) - 1
        keys = np.full((len(part), length), -1, dtype=np.intp)
        for c, walk in enumerate(part):
            keys[c, length - len(walk) + 1:] = [
                a * g.n + b for a, b in zip(walk[:-1], walk[1:])]
        rows = np.where(keys < 0, len(e.src), np.searchsorted(pair_keys, keys))
        acc_t = np.zeros((len(part), 3, 1))
        acc_r = np.broadcast_to(np.eye(3), (len(part), 3, 3))
        for step in rows.T:
            acc_t = acc_t + acc_r @ t_rel[step]
            acc_r = acc_r @ r_rel[step]
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


def full_report(
    g: PoseGraph,
    rot_tol: float = 1e-6,
    trans_tol: float = 1e-6,
    cycle_basis_limit: int | None = None,
) -> ConsistencyReport:
    """Run all three checks and merge their fields into one report."""
    pw = check_pairwise(g, rot_tol, trans_tol)
    mn = check_minimal(g)
    gl = check_global(g, cycle_basis_limit)
    return ConsistencyReport(
        pairwise_rot_max_defect=pw.pairwise_rot_max_defect,
        pairwise_trans_max_defect=pw.pairwise_trans_max_defect,
        pairwise_pass=pw.pairwise_pass,
        minimal_rot_defect=mn.minimal_rot_defect,
        minimal_trans_defect=mn.minimal_trans_defect,
        global_checked=gl.global_checked,
        global_max_cycle_rot_defect=gl.global_max_cycle_rot_defect,
        global_max_cycle_trans_defect=gl.global_max_cycle_trans_defect,
        cycles_checked=gl.cycles_checked,
    )


def paired_rotation_correction(
    r_fwd: np.ndarray, r_rev: np.ndarray,
) -> np.ndarray:
    """One direction's exact pairwise-rotation repair, for one edge or a
    stack of edges.

    Returns ``r_fwd @ exp(0.5 * log(r_fwd.T @ r_rev.T))``. Applying this
    to both directions (swapping the roles) yields rotations that are
    exact transposes of one another: the two corrections conjugate onto
    the same half-angle rotation.
    """
    r_fwd = np.asarray(r_fwd, dtype=float)
    half = 0.5 * so3.log_map(np.swapaxes(r_fwd, -1, -2)
                             @ np.swapaxes(np.asarray(r_rev, dtype=float), -1, -2))
    return r_fwd @ so3.exp_map(half)


def enforce_pairwise_rotations(g: PoseGraph) -> PoseGraph:
    """Split each edge's rotation disagreement evenly between directions.

    Runs once, up front. Translations are untouched. The result is exact:
    post-repair ``r_ij @ r_ji`` has zero angle to machine precision, and
    a second application is the identity on already-consistent input.

    Raises:
        so3.AngleAtPiError: if an edge's two directions disagree by a
            rotation whose angle reaches pi, where the even split is
            ambiguous; the message names the edge.
    """
    e = g.edge_arrays
    repaired = np.empty(e.r_rel.shape)
    for sl in edge_blocks(len(repaired)):
        try:
            repaired[sl] = paired_rotation_correction(e.r_rel[sl],
                                                      e.r_rel[e.rev[sl]])
        except so3.AngleAtPiError as exc:
            raise so3.AngleAtPiError(
                f"directions of {e.name(sl.start + exc.index[0])} "
                f"disagree at pi: {exc}", exc.index) from None
    return build_graph(g.n, MeasurementColumns(e.src, e.dst, e.t_rel, repaired))


def averaged_translation(
    t_ij: np.ndarray, t_ji: np.ndarray, r_ij_est: np.ndarray,
) -> np.ndarray:
    """Average an edge's two translation measurements in one frame.

    ``r_ij_est`` carries frame ``j`` vectors into frame ``i``; solvers
    pass their current estimate ``R_i.T @ R_j``. The reverse measurement
    enters negated because the two directions point opposite ways. For
    any inputs, the pair of averages built this way satisfies
    ``t'_ij + r_ij_est @ t'_ji == 0`` identically. Takes one edge, or a
    stack of edges with ``(..., 3)`` vectors and ``(..., 3, 3)`` rotations.
    """
    t_ji = np.asarray(t_ji, dtype=float)
    return 0.5 * (np.asarray(t_ij, dtype=float)
                  - (np.asarray(r_ij_est, dtype=float) @ t_ji[..., None])[..., 0])

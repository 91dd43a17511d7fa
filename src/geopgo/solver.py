"""Reference solver: synchronous consensus flow on poses.

Each node applies feedback assembled only from its own estimate, its
neighbors' estimates, and the measurements on its incident edges:

* translation velocity: consensus difference minus the rotated
  translation measurement (three variants, see ``TRANSLATION_MODES``);
* rotation velocity: sum of logs of the per-edge rotation residuals
  ``R_i.T @ R_j @ r_ij.T``, applied in the body frame.

Both are integrated with a shared explicit step ``dt``. All nodes update
simultaneously from the previous iterate, so a distributed execution with
a synchronization barrier reproduces this solver exactly, bit for bit.

The per-edge terms are computed by one stacked kernel over the outgoing
edges of any contiguous block of poses (the whole graph, or one
distributed worker's block), in slices of ``graph.EDGE_BLOCK`` edges,
and each node sums its edges in ascending order. Only
operations that give the same bits per row whatever the stack size are
used: stacked ``@``, elementwise ufuncs, :func:`so3.dot_rows` for dot
products and :func:`graph.sequential_sum` for totals; no ``einsum`` or
``reduceat``. Where numpy's own reduction is cheaper to spell out, the
pass spells out numpy's order: a chordal row of 9 squares is added as
``((q0+q1)+(q2+q3))+((q4+q5)+(q6+q7))+q8`` (:func:`_sum_squares9`), as
``np.sum`` adds it, and ``so3`` adds a trace as ``((0 + r00) + r11) +
r22``, as ``np.trace`` does. The pass keeps its memory traffic low
without changing that arithmetic: both operands of every stacked ``@``
are C-contiguous (the poses are transposed once per pass, the
measurements once per graph), pose rows are gathered with ``take``, and
the node sums read the graph's :class:`~geopgo.graph.NodeSumPlan`: one
padded, position-major gather per family and chunk of nodes, summed
left to right from ``+0.0`` by one ``np.add.reduce`` along the position
axis (:func:`_node_sums`).

One kernel pass per state gives both the velocity pairs and the
per-edge objective rows (:func:`node_controls` with ``rows``), so a
solve makes one pass per iteration. The solve state, the result and
its trajectory are stacked poses (:class:`~geopgo.graph.PoseStack`), so
a solve builds no :class:`~geopgo.graph.Pose`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import so3
from .consistency import averaged_translation
from .graph import (EdgeArrays, NodeSumPlan, Pose, PoseGraph, PoseStack,
                    as_stack, compose, edge_blocks, inverse, max_degree,
                    sequential_sum)

TRANSLATION_MODES = ("per_step_averaged", "online_averaged", "raw")


class StepSizeUnstableError(ValueError):
    """dt is large enough to make the translation consensus diverge."""


class StepSizeUnstableWarning(UserWarning):
    """dt is within a factor of two of the provable divergence threshold."""


@dataclass
class SolverConfig:
    dt: float = 0.05
    stop_tol: float = 1e-2
    max_iters: int = 20000
    translation_mode: str = "per_step_averaged"
    record_trajectory: bool = False

    def __post_init__(self) -> None:
        if self.translation_mode not in TRANSLATION_MODES:
            raise ValueError(
                f"unknown translation mode {self.translation_mode!r}; "
                f"expected one of {TRANSLATION_MODES}")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.stop_tol <= 0:
            raise ValueError("stop_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class ObjectiveValue:
    """Objective decomposition at one state.

    ``geodesic`` is the full objective with squared log-residual rotation
    terms; ``chordal`` swaps those for squared Frobenius residuals. Both
    include ``translation_only``. ``rotation_only`` is the geodesic
    rotation part alone, which is twice the descent certificate that the
    rotation flow decreases.
    """

    geodesic: float
    chordal: float
    rotation_only: float
    translation_only: float


class SolverState:
    """One iterate of the flow.

    ``estimates`` is a Pose sequence or a stack, kept as a
    :class:`~geopgo.graph.PoseStack`. ``controls`` is the per-node
    velocity pair at this state, as ``(n, 3)`` arrays, once computed;
    :func:`step` computes it when it is None. ``rows`` is the state's
    ``(3, E)`` objective rows (see :func:`node_controls`) from the same
    kernel pass, or None.
    """

    def __init__(self, estimates: Sequence[Pose],
                 controls: tuple[np.ndarray, np.ndarray] | None = None,
                 rows: np.ndarray | None = None) -> None:
        self.estimates = as_stack(estimates)
        self.controls = controls
        self.rows = rows


@dataclass
class SolveResult:
    """Outcome of a solve. Entry ``k`` of each history belongs to state
    ``k`` (0 is the initial state); ``trajectory`` holds every state when
    the config records it. The states are stacks."""

    estimates: PoseStack
    objective_history: list[ObjectiveValue]
    iterations: int
    converged: bool
    control_norm_history: list[float]
    trajectory: list[PoseStack] | None = None


def _mv(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stacked matrix-vector products ``a[k] @ v[k]``."""
    return (a @ v[..., None])[..., 0]


def _residual_logs(resid: np.ndarray, block: EdgeArrays, start: int) -> np.ndarray:
    """``so3.log_map`` of the stacked residuals of ``block``'s edge rows
    from ``start``; an error names the edge that left the chart."""
    return so3.named_log_map(
        resid, lambda k: f"rotation residual on {block.name(k)}", start)


def _node_sums(terms: np.ndarray, plan: NodeSumPlan
               ) -> tuple[np.ndarray, np.ndarray]:
    """Velocity pairs of the nodes whose edges are the CSR rows of
    ``plan``'s layout, from their per-edge ``terms``, a ``(E + 1, 3,
    3)`` stack whose row ``k`` is ``(d, -m, w)`` of edge row ``k`` and
    whose last row is zero (see :class:`~geopgo.graph.NodeSumPlan`).

    Each node adds its edges' terms in row order starting from zero, as
    ``(nu + d) + (-m)`` and ``omega + w``: the association of a per-edge
    loop (``x - m`` is the same IEEE operation as ``x + (-m)``), so the
    result does not depend on how many nodes are summed at once. For
    each chunk of the plan, one ``take`` per family gathers the terms
    position-major, padded with zero rows, and one ``np.add.reduce``
    from ``+0.0`` along the position axis adds them left to right. An
    accumulator that starts at ``+0.0`` never becomes ``-0.0``, so the
    padding adds nothing. The sums are then put back in node order.
    """
    flat = terms.reshape(-1, 3)
    nu = np.empty((len(plan.order), 3))
    omega = np.empty((len(plan.order), 3))
    lo = 0
    for nu_rows, omega_rows in zip(plan.nu, plan.omega):
        hi = lo + nu_rows.shape[1]
        np.add.reduce(flat.take(nu_rows, 0), 0, initial=0.0, out=nu[lo:hi])
        np.add.reduce(flat.take(omega_rows, 0), 0, initial=0.0,
                      out=omega[lo:hi])
        lo = hi
    out_nu, out_omega = np.empty_like(nu), np.empty_like(omega)
    out_nu[plan.order], out_omega[plan.order] = nu, omega
    return out_nu, out_omega


def _sum_squares9(c: np.ndarray) -> np.ndarray:
    """``np.sum(c * c, axis=-1)`` of ``c`` ``(N, 9)``, bit for bit, from
    elementwise adds in numpy's pairwise order for 9 values,
    ``((q0+q1)+(q2+q3))+((q4+q5)+(q6+q7))+q8``. (numpy adds that to
    +0.0, which changes no sum of squares: none is -0.0.)"""
    q = c * c
    return (((q[:, 0] + q[:, 1]) + (q[:, 2] + q[:, 3]))
            + ((q[:, 4] + q[:, 5]) + (q[:, 6] + q[:, 7]))) + q[:, 8]


def _block_terms(r, t, block: EdgeArrays, mode=None):
    """Per-edge terms of ``block``'s directed edges ``(i, j)``, one slice
    of at most ``graph.EDGE_BLOCK`` edges at a time.

    ``r`` and ``t`` are the stacked poses that ``block.src`` and
    ``block.dst`` index. Yields each slice and its terms: ``rrel = R_i.T
    @ R_j``, the rotation residual ``rrel @ r_ij.T`` and, for a
    translation ``mode``, the consensus difference ``d = t_j - t_i``,
    the term ``m`` that a node's velocity subtracts and the objective's
    ``R_i @ t_ij`` (mode ``"raw"``'s ``m``); these three are None
    without a mode.

    Every product is a stacked ``@``, which equals the per-edge product
    bit for bit, so any slice of the edges gives the same rows. Both
    operands of each product are C-contiguous: the pass transposes the
    poses once into one stack and reads the transposed measurements of
    ``block.r_rel_t``, and every pose row is gathered with ``take``.
    """
    rt = np.ascontiguousarray(np.swapaxes(r, -1, -2))
    for sl in edge_blocks(len(block.src)):
        src, dst = block.src[sl], block.dst[sl]
        rj = r.take(dst, 0)
        rrel = rt.take(src, 0) @ rj
        resid = rrel @ block.r_rel_t[sl]
        if mode is None:
            yield sl, (rrel, resid, None, None, None)
            continue
        ri = r.take(src, 0)
        d = t.take(dst, 0) - t.take(src, 0)
        t_rel, t_in = block.t_rel[sl], block.t_in[sl]
        raw = _mv(ri, t_rel)
        if mode == "raw":
            m = raw
        elif mode == "per_step_averaged":
            m = _mv(ri, averaged_translation(t_rel, t_in, rrel))
        else:  # online_averaged: adding 0.5 (R_j t_ji - R_i t_ij) is
            # subtracting its exact negation
            m = 0.5 * (raw - _mv(rj, t_in))
        yield sl, (rrel, resid, d, m, raw)


def node_controls(
    r: np.ndarray, t: np.ndarray, block: EdgeArrays, translation_mode: str,
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Velocity pairs ``(nu, omega)`` of a block's own poses, ``(m, 3)``.

    ``r`` ``(p, 3, 3)`` and ``t`` ``(p, 3)`` are the poses the block
    reads, in the order of ``block.ids``. This is the per-node update
    from local data only: the reference solver runs it over the whole
    graph (:func:`all_controls`) and each distributed worker over its own
    block. Every kernel row and every node's sum is independent of the
    block it runs in, so the rows equal the reference solver's bit for
    bit, which is what makes the trajectories identical.

    ``rows``, when given, is a ``(3, E)`` array over the block's edges
    that the same pass fills with each edge's objective terms: the
    squared translation residual ``|t_j - t_i - R_i t_ij|^2``, the
    squared residual log (geodesic) and the squared Frobenius residual
    ``|R_i.T R_j - r_ij|^2`` (chordal). They do not depend on the
    translation mode, and :func:`evaluate_objective` sums them.

    Raises:
        so3.AngleAtPiError: an edge's rotation residual left the log
            chart; the message names the edge ``(i, j)`` by global ids
            and the index is the edge's row in the block.
    """
    terms = np.empty((len(block.src) + 1, 3, 3))  # see _node_sums
    terms[-1] = 0.0
    for sl, (rrel, resid, d, m, raw) in _block_terms(
            r, t, block, translation_mode):
        w = _residual_logs(resid, block, sl.start)
        terms[sl, 0] = d
        np.negative(m, out=terms[sl, 1])
        terms[sl, 2] = w
        if rows is not None:
            _fill_rows(rows, sl, block, rrel, w, d, raw)
    return _node_sums(terms, block.plan)


def _fill_rows(rows: np.ndarray, sl: slice, block: EdgeArrays,
               rrel: np.ndarray, w: np.ndarray, d: np.ndarray,
               raw: np.ndarray) -> None:
    """The objective rows ``rows[:, sl]`` of ``block``'s edge slice
    ``sl`` from its :func:`_block_terms` and residual logs ``w``:
    ``|d - R_i t_ij|^2``, ``|w|^2`` and ``|rrel - r_ij|_F^2``."""
    err = d - raw
    rows[0, sl] = so3.dot_rows(err, err)
    rows[1, sl] = so3.dot_rows(w, w)
    rows[2, sl] = _sum_squares9((rrel - block.r_rel[sl]).reshape(-1, 9))


def objective_rows(r: np.ndarray, t: np.ndarray,
                   block: EdgeArrays) -> np.ndarray:
    """The ``(3, E)`` objective rows of a block's edges, as
    :func:`node_controls` fills them, from a pass that makes no
    controls: no terms stack and no node sums.

    Raises:
        so3.AngleAtPiError: as :func:`node_controls`.
    """
    rows = np.empty((3, len(block.src)))
    for sl, (rrel, resid, d, _, raw) in _block_terms(r, t, block, "raw"):
        _fill_rows(rows, sl, block, rrel,
                   _residual_logs(resid, block, sl.start), d, raw)
    return rows


def all_controls(
    estimates: Sequence[Pose], g: PoseGraph,
    translation_mode: str, rows: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked ``(n, 3)`` velocity arrays for every node, ascending id:
    :func:`node_controls` over the whole graph, which also fills the
    objective ``rows`` ``(3, E)`` when they are given.

    Raises:
        so3.AngleAtPiError: an edge's rotation residual left the log
            chart; the message names the edge ``(i, j)``.
    """
    s = as_stack(estimates)
    return node_controls(s.r, s.t, g.edge_arrays, translation_mode, rows)


def integrate_pose(t: np.ndarray, r: np.ndarray, nu: np.ndarray,
                   omega: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Explicit update ``(t, r)`` of stacked poses ``(m, 3)``/``(m, 3, 3)``
    (or of one pose); re-projects each rotation that drifted.

    The reference :func:`step` and each distributed worker call it; each
    row equals the update of that pose alone bit for bit.
    """
    return t + dt * nu, so3.renormalize(r @ so3.exp_map(dt * omega))


def _check_step_size(g: PoseGraph, dt: float) -> None:
    s = dt * max_degree(g)
    if s >= 2.0:
        raise StepSizeUnstableError(
            f"dt * max_degree = {s:.3f} >= 2; translation consensus would "
            "diverge on this graph")
    if s >= 1.0:
        warnings.warn(
            f"dt * max_degree = {s:.3f} >= 1; within a factor of two of "
            "the divergence threshold", StepSizeUnstableWarning, stacklevel=4)


def evaluate_objective(estimates: Sequence[Pose], g: PoseGraph,
                       rows: np.ndarray | None = None) -> ObjectiveValue:
    """Objective over all directed measurements, in ``(src, dst)`` order.

    ``rows`` are the state's ``(3, E)`` objective rows when a kernel
    pass has already made them (:func:`node_controls`); ``estimates``
    is then not read. Otherwise :func:`objective_rows` makes them.
    The per-edge terms are summed left to right in that order, so two
    evaluations of the same state are bitwise equal wherever they run.
    """
    if rows is None:
        s = as_stack(estimates)
        rows = objective_rows(s.r, s.t, g.edge_arrays)
    trans_total, rot_total, chord_total = sequential_sum(rows.T).tolist()
    return ObjectiveValue(
        geodesic=trans_total + rot_total,
        chordal=trans_total + chord_total,
        rotation_only=rot_total,
        translation_only=trans_total,
    )


def evaluate_lyapunov(estimates: Sequence[Pose], g: PoseGraph) -> float:
    """Half the summed squared rotation residual logs (descent certificate)."""
    return 0.5 * evaluate_objective(estimates, g).rotation_only


def desired_offsets(estimates: Sequence[Pose], g: PoseGraph) -> np.ndarray:
    """Per-node measurement offset: row ``i`` is ``sum_j R_i @ t_ij``,
    summed in ascending neighbor order.

    Subtracting these from the plain consensus term gives the raw-mode
    translation velocity in stacked form.
    """
    b = g.edge_arrays
    s = as_stack(estimates)
    terms = np.zeros((len(b.src) + 1, 3, 3))
    for sl, (*_, raw) in _block_terms(s.r, s.t, b, "raw"):
        terms[sl, 2] = raw
    # the rotation sum of _node_sums adds each node's rows from zero in
    # ascending neighbor order, as the per-node loop ``delta[i] += ...``
    return _node_sums(terms, b.plan)[1]


def in_basin(estimates: Sequence[Pose], g: PoseGraph, epsilon: float = 0.01) -> bool:
    """True when every directed rotation residual angle is at most
    ``pi/2 - epsilon``."""
    bound = np.pi / 2.0 - epsilon
    s = as_stack(estimates)
    return not any(np.any(so3.rotation_angle(resid) > bound)
                   for _, (_, resid, *_) in _block_terms(s.r, s.t,
                                                         g.edge_arrays))


def max_control_norm(nu: np.ndarray, omega: np.ndarray) -> float:
    """Largest per-node velocity norm across both control families.

    Each norm is ``sqrt(add.reduce(x * x, axis=1))``, what
    ``np.linalg.norm(x, axis=1)`` computes, without its Python wrapper.
    """
    nu_norms = np.sqrt(np.add.reduce(nu * nu, 1))
    omega_norms = np.sqrt(np.add.reduce(omega * omega, 1))
    return float(max(nu_norms.max(initial=0.0), omega_norms.max(initial=0.0)))


def step(state: SolverState, g: PoseGraph, config: SolverConfig) -> SolverState:
    """One synchronous iteration: integrate every pose with the controls
    of the previous state, then make one kernel pass at the new state.

    Returns the new state, carrying its own controls for the next step
    and its objective rows.
    """
    nu, omega = (state.controls if state.controls is not None else
                 all_controls(state.estimates, g, config.translation_mode))
    s = state.estimates
    new = PoseStack(*integrate_pose(s.t, s.r, nu, omega, config.dt))
    rows = np.empty((3, g.directed_count))
    return SolverState(new, all_controls(new, g, config.translation_mode,
                                         rows), rows)


class Driver:
    """Stop rule, histories and result of one solve, for any executor.

    An executor calls :meth:`start` with the initial estimates. Unless
    that returns True (a fixed point: every initial control is exactly
    zero), it advances one synchronous round at a time and hands
    :meth:`record` each round's new state as a
    :class:`~geopgo.graph.PoseStack`, the
    ``(n, 3)`` velocity arrays the round used and the ``(3, E)``
    objective rows of the new state (see :func:`node_controls`), until
    that returns True. :meth:`result` then builds the
    :class:`SolveResult` from the velocity pair at the final state; the
    states stay stacks.

    ``objective`` sums the objective rows of one state and defaults to
    :func:`evaluate_objective`; an executor may pass its own binding of
    it, so that per-layer timings attribute the summation to it.
    """

    def __init__(self, g: PoseGraph, config: SolverConfig,
                 objective=None) -> None:
        self.g = g
        self.config = config
        self.objective = (evaluate_objective if objective is None
                          else objective)

    def start(self, init: Sequence[Pose]) -> bool:
        """Check the inputs, record state 0, and report a fixed point.

        One kernel pass at ``init`` gives its objective and its velocity
        pair, which is kept in ``initial_controls``; the state is kept
        as a :class:`~geopgo.graph.PoseStack` in ``state``.
        """
        g, config = self.g, self.config
        self.state = as_stack(init)
        if len(self.state) != g.n:
            raise ValueError(
                f"expected {g.n} initial poses, got {len(self.state)}")
        _check_step_size(g, config.dt)
        rows = np.empty((3, g.directed_count))
        self.initial_controls = all_controls(self.state, g,
                                             config.translation_mode, rows)
        self.history = [self.objective(self.state, g, rows)]
        self.norms: list[float] = []
        self.trajectory = [self.state] if config.record_trajectory else None
        self.iterations = 0
        nu, omega = self.initial_controls
        self.converged = not np.any(nu) and not np.any(omega)
        return self.converged

    def record(self, state: PoseStack, nu: np.ndarray, omega: np.ndarray,
               rows: np.ndarray) -> bool:
        """Record one round; True when the solve should stop.

        Stops when the geodesic objective changed by less than
        ``stop_tol`` in this round, or after ``max_iters`` rounds.
        """
        self.state = state
        self.norms.append(max_control_norm(nu, omega))
        obj = self.objective(state, self.g, rows)
        if self.trajectory is not None:
            self.trajectory.append(state)
        self.iterations += 1
        self.converged = (abs(obj.geodesic - self.history[-1].geodesic)
                          < self.config.stop_tol)
        self.history.append(obj)
        return self.converged or self.iterations >= self.config.max_iters

    def result(self, controls: tuple[np.ndarray, np.ndarray]) -> SolveResult:
        """The solve's result; ``controls`` is the velocity pair at the
        final state."""
        return SolveResult(self.state, self.history, self.iterations,
                           self.converged,
                           self.norms + [max_control_norm(*controls)],
                           self.trajectory)


def solve(
    g: PoseGraph, init: Sequence[Pose], config: SolverConfig | None = None,
) -> SolveResult:
    """Iterate the flow to convergence, one :func:`step` per round.

    Stops when the geodesic objective changes by less than
    ``config.stop_tol`` between consecutive iterations, or immediately
    when the initial controls are exactly zero (a fixed point). Hitting
    ``max_iters`` is reported through ``converged=False``, not an error.

    Raises:
        so3.AngleAtPiError: an edge's rotation residual left the log
            chart; the message starts with ``iteration k:``, ``k`` being
            the state whose pass failed (0 is the initial state), and
            names the edge.
    """
    if config is None:
        config = SolverConfig()
    driver = Driver(g, config)
    k = 0  # the state of the latest kernel pass
    try:
        stop = driver.start(init)
        state = SolverState(driver.state, driver.initial_controls)
        while not stop:
            k += 1
            nu, omega = state.controls
            state = step(state, g, config)
            stop = driver.record(state.estimates, nu, omega, state.rows)
    except so3.AngleAtPiError as exc:
        raise so3.AngleAtPiError(f"iteration {k}: {exc}", exc.index) from None
    return driver.result(state.controls)


def align_gauge(
    estimates: Sequence[Pose], reference: Sequence[Pose], anchor: int = 0,
) -> list[Pose]:
    """Left-multiply all estimates by the rigid transform that carries
    ``estimates[anchor]`` onto ``reference[anchor]``.

    The objective is invariant under this (all residuals are built from
    pose differences), so it is pure reporting convenience.
    """
    t = compose(reference[anchor], inverse(estimates[anchor]))
    return [compose(t, p) for p in estimates]


def pose_errors(
    estimates: Sequence[Pose], reference: Sequence[Pose],
) -> tuple[float, float]:
    """Max translation distance (m) and rotation angle (rad) to a reference."""
    et = max(float(np.linalg.norm(e.t - r.t))
             for e, r in zip(estimates, reference))
    er = max(so3.rotation_angle(e.r.T @ r.r)
             for e, r in zip(estimates, reference))
    return et, er

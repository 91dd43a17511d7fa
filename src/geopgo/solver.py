"""Reference solver: synchronous consensus flow on poses.

Each node applies feedback assembled only from its own estimate, its
neighbors' estimates, and the measurements on its incident edges:

* translation velocity: consensus difference minus the rotated
  translation measurement, averaged over the edge's two directions or
  raw (see ``TRANSLATION_MODES``: the two averaged names are one map);
* rotation velocity: sum of logs of the per-edge rotation residuals
  ``R_i.T @ R_j @ r_ij.T``, applied in the body frame.

Both are integrated with a shared explicit step ``dt``. All nodes update
simultaneously from the previous iterate, so a distributed execution with
a synchronization barrier reproduces this solver exactly, bit for bit.

The per-edge terms are computed by one stacked kernel over the outgoing
edges of any contiguous block of poses (the whole graph, or one
distributed worker's block), one run of whole nodes at a time
(:class:`~geopgo.graph.RunPlan`: at most ``graph.EDGE_BLOCK`` padded
edge slots per run), and each node sums its edges in ascending order.
A run makes every rotation product of its nodes in one stacked product,
``(m, 3W, 3) @ (m, 3, 3)``, which gives the transposes ``R_j.T R_i`` of
the ``R_i.T R_j``, and the pass stays with the transposes: the residual
is made as its transpose ``r_ij R_j.T R_i`` and its log as the negated
log of that. The pass makes one stacked matrix-vector product per edge
row, ``R_i t_ij``; the averaged translation term reads the ``R_j t_ji``
of an edge from its reverse row, and a block makes it from the halo
pose and :attr:`~geopgo.graph.EdgeArrays.t_cut` for an edge whose
reverse starts outside the block (:attr:`~geopgo.graph.EdgeArrays.cut`).
Only operations that give the same bits per row whatever the stack
size are used: stacked ``@``, elementwise ufuncs, :func:`so3.dot_rows`
(one ``np.vecdot``) for dot products and left-to-right
``np.add.accumulate`` for the objective totals; no ``einsum`` or
``reduceat``. Where numpy's own reduction is cheaper to spell out, the
pass spells out numpy's order: a chordal row of 9 squares is added as
``((q0+q1)+(q2+q3))+((q4+q5)+(q6+q7))+q8`` (:func:`_sum_squares9`, in
the entry order of the untransposed matrices), as ``np.sum`` adds it,
a control norm's 3 squares as ``(q0+q1)+q2`` (:func:`max_control_norm`),
as ``add.reduce`` adds them, and ``so3`` adds a trace as ``((0 + r00) +
r11) + r22``, as ``np.trace`` does. The node sums are one
``np.bincount`` per pass over
:attr:`~geopgo.graph.EdgeArrays.bins`, which adds in input order, so
each node adds its terms in edge-row order from ``+0.0``, as a per-edge
loop does (:func:`_node_sums`). The pass keeps its memory traffic low
without changing that arithmetic: both operands of every stacked ``@``
are C-contiguous (the poses are transposed once per pass, and a run's
own poses are one slice of them), and pose rows are gathered with
``take``.

One kernel pass per state gives both the velocity pairs and the
per-edge objective rows (:func:`node_controls` with ``rows``), so a
solve makes one pass per iteration. :func:`node_controls` is the
kernel's one entry point: :func:`evaluate_objective` of a state whose
rows no pass has made runs it too. The solve state, the result and its
trajectory are stacked poses (:class:`~geopgo.graph.PoseStack`), so a
solve builds no :class:`~geopgo.graph.Pose`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import so3
from .graph import (EdgeArrays, Pose, PoseGraph, PoseStack, as_stack,
                    max_degree)

TRANSLATION_MODES = ("per_step_averaged", "online_averaged", "raw")


class StepSizeUnstableError(ValueError):
    """dt is large enough to make the translation consensus diverge."""


class StepSizeUnstableWarning(UserWarning):
    """``dt * max_degree`` is in ``[1, 2)``, where the translation
    consensus may already diverge (see :func:`_check_step_size`)."""


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
        if not self.dt > 0:  # written so that NaN fails too
            raise ValueError("dt must be positive")
        if not self.stop_tol > 0:
            raise ValueError("stop_tol must be positive")
        if not self.max_iters >= 1:
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


def _residual_logs(resid_t: np.ndarray, block: EdgeArrays,
                   start: int) -> np.ndarray:
    """``so3.log_map`` of the rotation residuals of ``block``'s edge rows
    from ``start``, from their transposes ``resid_t``: the log of a
    transpose is the exact negation of the log (a zero entry may change
    sign, which no node sum and no square sees). An error names the edge
    that left the chart."""
    w = so3.named_log_map(
        resid_t, lambda k: f"rotation residual on {block.name(k)}", start)
    return np.negative(w, out=w)


def _node_sums(terms: np.ndarray, block: EdgeArrays
               ) -> tuple[np.ndarray, np.ndarray]:
    """Velocity pairs ``(nu, omega)`` of ``block``'s own poses from the
    per-edge ``terms``, an ``(E, 3, 3)`` stack whose row ``k`` is ``(d,
    -m, w)`` of edge row ``k``.

    One ``np.bincount`` over ``block.bins`` adds each weight into its
    zero-initialised bin in input order, so each node adds its edges'
    terms in row order from ``+0.0``, as ``(nu + d) + (-m)`` and ``omega
    + w``: the association of a per-edge loop (``x - m`` is the same IEEE
    operation as ``x + (-m)``), so the result does not depend on how
    many nodes are summed at once. A sum from ``+0.0`` never becomes
    ``-0.0``, so a node of no edges reads ``+0.0``.
    """
    size = block.size
    sums = np.bincount(block.bins, terms.reshape(-1), 6 * size)
    # numpy returns integer zeros for a bincount of no weights
    sums = sums.astype(float, copy=False).reshape(size, 2, 3)
    return sums[:, 0], sums[:, 1]


# the entries of a flat (9,) row of a matrix's transpose, in row-major
# order: entry (a, b) of r.T is entry (b, a) of r
_TRANSPOSED = (0, 3, 6, 1, 4, 7, 2, 5, 8)


def _sum_squares9(c: np.ndarray, order=range(9)) -> np.ndarray:
    """``np.sum(c[:, order] * c[:, order], axis=-1)`` of ``c`` ``(N, 9)``,
    bit for bit, from elementwise adds in numpy's pairwise order for 9
    values, ``((q0+q1)+(q2+q3))+((q4+q5)+(q6+q7))+q8``. (numpy adds that
    to +0.0, which changes no sum of squares: none is -0.0.) With
    ``order`` :data:`_TRANSPOSED` it is the sum over the transposes of
    the rows of ``c`` read as 3x3 matrices."""
    sq = c * c
    q = [sq[:, k] for k in order]
    return (((q[0] + q[1]) + (q[2] + q[3]))
            + ((q[4] + q[5]) + (q[6] + q[7]))) + q[8]


def _block_terms(r, t, block: EdgeArrays):
    """Per-edge terms of ``block``'s directed edges ``(i, j)``, one run
    of whole nodes at a time (``block.runs``: at most
    ``graph.EDGE_BLOCK`` padded slots per run).

    ``r`` and ``t`` are the stacked poses that ``block.src`` and
    ``block.dst`` index. Yields each run's edge rows, as a slice, and
    their terms: the transposes ``R_j.T @ R_i`` of ``rrel = R_i.T @
    R_j``, the transposes ``r_ij @ R_j.T @ R_i`` of the rotation
    residuals ``rrel @ r_ij.T``, the consensus difference ``d = t_j -
    t_i`` and ``R_i @ t_ij``, the run's one stacked matrix-vector
    product.

    A run makes all its ``R_j.T @ R_i`` in one stacked product, ``(m,
    3W, 3) @ (m, 3, 3)``: node ``i``'s left operand stacks the
    transposed rotations of its ``W`` padded neighbors, and block ``k``
    of the result is the ``k``-th neighbor's product; the padding slots,
    which hold ``R_i.T @ R_i``, are dropped. Each block, and each
    residual ``r_ij @ (R_j.T @ R_i)``, is the transpose of the per-edge
    product bit for bit, since BLAS adds the same three products in the
    same order, so any cut of the nodes into runs gives the same rows.
    Both operands of each product are C-contiguous: the pass transposes
    the poses once into one stack for the left operands, a run's own
    rotations are one slice of ``r``, and every other pose row is
    gathered with ``take``.
    """
    rt = np.ascontiguousarray(np.swapaxes(r, -1, -2))
    runs = block.runs
    for lo, hi, nbr, real in zip(runs.bounds, runs.bounds[1:], runs.nbr,
                                 runs.real):
        m, width = nbr.shape
        blocks = (rt.take(nbr, 0).reshape(m, 3 * width, 3)
                  @ r[lo:hi]).reshape(-1, 3, 3)
        rrel_t = blocks if real is None else blocks.take(real, 0)
        sl = slice(block.offsets[lo], block.offsets[hi])
        src, dst = block.src[sl], block.dst[sl]
        d = t.take(dst, 0) - t.take(src, 0)
        yield sl, (rrel_t, block.r_rel[sl] @ rrel_t, d,
                   _mv(r.take(src, 0), block.t_rel[sl]))


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

    Each edge's translation term ``m``, which its node's velocity
    subtracts from ``d = t_j - t_i``, is ``R_i t_ij`` in mode ``"raw"``
    and the average over the edge's two directions, ``0.5 * (R_i t_ij -
    R_j t_ji)``, in both averaged modes. ``R_j t_ji`` is the reverse
    edge's ``R_i t_ij``, read through ``block.rev``; for a cut edge,
    whose reverse starts at a halo pose, the pass makes it from that
    pose and the edge's ``block.t_cut`` row. So a pass makes one stacked
    product per edge row and one per cut row.

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
    count, cut = len(block.src), block.cut
    terms = np.empty((count, 3, 3))  # see _node_sums
    raw = np.empty((count + len(cut), 3))  # R_i t_ij: own rows, cut rows
    for sl, (rrel_t, resid_t, d, raw_sl) in _block_terms(r, t, block):
        w = _residual_logs(resid_t, block, sl.start)
        terms[sl, 0] = d
        terms[sl, 2] = w
        raw[sl] = raw_sl
        if rows is not None:
            # the chordal entries are those of the transposes rrel_t -
            # r_ij.T, added in the row-major order of rrel - r_ij
            err = d - raw_sl
            rows[0, sl] = so3.dot_rows(err, err)
            rows[1, sl] = so3.dot_rows(w, w)
            rows[2, sl] = _sum_squares9(
                (rrel_t - block.r_rel_t[sl]).reshape(-1, 9), _TRANSPOSED)
    if translation_mode == "raw":
        np.negative(raw[:count], out=terms[:, 1])
    else:
        if len(cut):
            raw[count:] = _mv(r.take(block.dst[cut], 0), block.t_cut)
        # adding 0.5 (R_j t_ji - R_i t_ij) is subtracting its exact negation
        m = raw[:count] - raw.take(block.rev, 0)
        m *= 0.5
        np.negative(m, out=terms[:, 1])
    return _node_sums(terms, block)


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
    """Raise at ``dt * max_degree >= 2`` and warn at ``>= 1``. The
    consensus is stable iff ``dt * lambda_max(L) < 2``, and ``lambda_max
    <= 2 * max_degree``, with equality on even rings: there the warning
    band already diverges. A ``lambda_max`` guard is ROADMAP item 3."""
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
    is then not read. Otherwise one ``"raw"`` kernel pass over the whole
    graph makes them, and its controls are dropped. The per-edge terms
    are summed left to right in that order, so two evaluations of the
    same state are bitwise equal wherever they run: one
    ``np.add.accumulate`` along each row's contiguous axis, whose last
    column is :func:`graph.sequential_sum` of ``rows.T`` bit for bit,
    since no row entry is ``-0.0`` (each is a sum of squares) and so
    the first one added to ``+0.0`` is itself. No edges give zeros.
    """
    if rows is None:
        s = as_stack(estimates)
        rows = np.empty((3, g.directed_count))
        node_controls(s.r, s.t, g.edge_arrays, "raw", rows)
    trans_total, rot_total, chord_total = (
        np.add.accumulate(rows, axis=1)[:, -1].tolist() if rows.size
        else [0.0, 0.0, 0.0])
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
    terms = np.zeros((len(b.src), 3, 3))
    for sl, (*_, raw) in _block_terms(s.r, s.t, b):
        terms[sl, 2] = raw
    # the rotation sum of _node_sums adds each node's rows from zero in
    # ascending neighbor order, as the per-node loop ``delta[i] += ...``
    return _node_sums(terms, b)[1]


def in_basin(estimates: Sequence[Pose], g: PoseGraph, epsilon: float = 0.01) -> bool:
    """True when every directed rotation residual angle is at most
    ``pi/2 - epsilon``. (A transpose has the same angle.)"""
    bound = np.pi / 2.0 - epsilon
    s = as_stack(estimates)
    return not any(np.any(so3.rotation_angle(resid_t) > bound)
                   for _, (_, resid_t, *_) in _block_terms(s.r, s.t,
                                                           g.edge_arrays))


def max_control_norm(nu: np.ndarray, omega: np.ndarray) -> float:
    """Largest per-node velocity norm across both control families.

    Each row's squares are added as ``(q0 + q1) + q2``, the order of
    ``add.reduce(x * x, axis=1)`` and so of ``np.linalg.norm(x,
    axis=1)``, and one ``sqrt`` is taken of the larger family maximum:
    ``sqrt`` is monotone and correctly rounded, so that is the largest
    row norm. A NaN in either family gives NaN (``np.maximum``, where
    Python's ``max`` would keep its first argument).
    """
    return float(np.sqrt(np.maximum(_max_sum_squares3(nu),
                                    _max_sum_squares3(omega))))


def _max_sum_squares3(x: np.ndarray) -> np.ndarray:
    """Largest ``(q0 + q1) + q2`` over the rows of ``x * x`` ``(n, 3)``;
    ``0.0`` when ``n`` is 0."""
    sq = x * x
    return ((sq[:, 0] + sq[:, 1]) + sq[:, 2]).max(initial=0.0)


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
) -> PoseStack:
    """Left-multiply all estimates by the rigid transform that carries
    ``estimates[anchor]`` onto ``reference[anchor]``.

    The objective is invariant under this (all residuals are built from
    pose differences), so it is pure reporting convenience. The
    transform is composed once, as ``compose(reference[anchor],
    inverse(estimates[anchor]))``, then applied to every pose in one
    stacked pass.
    """
    s, ref = as_stack(estimates), as_stack(reference)
    r_inv = s.r[anchor].T
    r = ref.r[anchor] @ r_inv
    t = ref.t[anchor] + ref.r[anchor] @ -(r_inv @ s.t[anchor])
    return PoseStack(t + (r @ s.t[..., None])[..., 0], r @ s.r)


def pose_errors(
    estimates: Sequence[Pose], reference: Sequence[Pose],
) -> tuple[float, float]:
    """Max translation distance (m) and rotation angle (rad) to a reference."""
    s, ref = as_stack(estimates), as_stack(reference)
    d = s.t - ref.t
    et = float(np.sqrt(so3.dot_rows(d, d)).max())
    er = float(so3.rotation_angle(np.swapaxes(s.r, -1, -2) @ ref.r).max())
    return et, er

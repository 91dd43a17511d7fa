"""Distributed execution: a few block workers, cut-edge messages only.

The poses are split into ``k = min(n, AGENTS)`` contiguous blocks, one
worker thread each. A worker never sees the graph object. It holds its
own poses and its halo as stacked arrays (the halo is the neighbor poses
its edges read across cut edges, the edges whose two poses belong to
different workers), the measurements on its own poses' outgoing edges
(a :class:`~geopgo.graph.EdgeArrays`), the velocity pairs of its own
poses at their current state (seeded from the driver's initial
controls), and one inbound queue per neighboring worker. A round
mirrors ``solver.step``:

1. integrate the worker's own poses with the velocity pairs it carries;
2. send each neighboring worker one message with the rows of its own
   poses that worker reads, and receive one message from each
   neighboring worker for this round into the halo;
3. make one kernel pass over those arrays only, which gives the velocity
   pairs at the new state (carried to the next round) and the objective
   rows of the block's edges;
4. wait at the round barrier.

The barrier's action runs in the last worker to arrive while the others
are parked. It runs no kernel pass: it joins every worker's own rows,
the velocity pairs the round used and the objective rows, and hands the
round to the solver's :class:`~geopgo.solver.Driver`, which owns the
stop rule and the histories (it sums the objective across all edges, a
privilege of simulation rather than something a deployed robot could
do). The blocks are contiguous runs of the ``(src, dst)`` edge order,
so the joined rows are the reference pass's rows in its order and sum
to the same bits. This module is thus only an executor plugged into
that driver.

Because updates are simultaneous and every row of the solver's stacked
edge kernel and every node's sum is independent of the block it runs in,
the resulting trajectory is bitwise identical to ``solver.solve`` on the
same inputs, whatever ``k``.
"""

from __future__ import annotations

import itertools
import queue
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import so3
from .graph import EdgeArrays, Pose, PoseGraph, PoseStack, as_stack
from .solver import (Driver, SolveResult, SolverConfig, all_controls,
                     evaluate_objective, integrate_pose, node_controls)

# Worker threads per run; with the caller's thread a run has at most
# AGENTS + 1 live threads, whatever the graph size. Under the GIL more
# workers do not compute in parallel, they only hand the interpreter to
# each other; 2 is the count the benchmark measured.
AGENTS = 2


class DeadlockError(RuntimeError):
    """A worker waited past the wall-clock bound; indicates a harness bug."""


def worker_count(n: int) -> int:
    """Workers for ``n`` poses: :data:`AGENTS`, never more than the poses."""
    return min(n, AGENTS)


@dataclass(frozen=True)
class RoundMessage:
    """One round's poses from worker ``sender``: the stacked rows that
    the receiving worker reads, in the order of its halo."""

    sender: int
    round: int
    t: np.ndarray
    r: np.ndarray


def _write_message_log(path, blocks: list[EdgeArrays], rounds: int) -> None:
    """Write every read of a neighbor's pose: one row per directed edge
    per round, for ``rounds`` rounds of the workers of ``blocks``.

    A row is derived from the worker's edge list, which is exactly what
    its kernel reads each round, not observed on the queues: a cut-edge
    read and a read of a pose the worker holds itself log alike, and one
    :class:`RoundMessage` carries the rows of many. The rows of one
    worker's round are a fixed block, its edges in ``(receiver,
    sender)`` order, each line ``json.dumps`` of its row. The block's
    text is formatted once, from ids read with one ``tolist``, as a list
    of pieces split where the round number goes, so a worker-round is
    one ``str(round).join(pieces)``. Every worker runs every round, and
    the blocks are contiguous and ascending, so writing the rounds in
    order and each round's blocks in worker order gives ``(round,
    receiver, sender)`` order, one worker-round at a time: the file is
    never held in memory whole.
    """
    lead = '{"round": '
    block_pieces = []
    for b in blocks:
        ids = b.ids.tolist()
        pieces = [lead] + [
            f', "sender": {ids[j]}, "receiver": {ids[i]}}}\n{lead}'
            for i, j in zip(b.src.tolist(), b.dst.tolist())]
        pieces[-1] = pieces[-1][:-len(lead)]  # no row follows the last
        block_pieces.append(pieces)
    with open(path, "w") as fh:
        for round_no in map(str, range(rounds)):
            for pieces in block_pieces:
                fh.write(round_no.join(pieces))


@dataclass(eq=False)
class NodeWorker:
    """Block worker: owns the poses ``block.ids[:block.size]`` and holds
    only local state.

    ``r``/``t`` are the stacked poses the worker reads, in the order of
    ``block.ids``: its own rows first, then its halo. ``nu``/``omega``
    ``(m, 3)`` are the velocity pairs of its own poses at their current
    state, and ``rows`` ``(3, E)`` the objective rows of its edges at
    that state, once a round has made them. ``outboxes[c]`` is the
    queue to worker ``c`` and the rows of its own poses that ``c``
    reads; ``inboxes[c]`` is the queue from worker ``c`` and the slice
    of the halo that ``c``'s rows fill. The barrier action reads the
    worker's own rows and objective rows once per round, only while
    every worker is parked at the barrier.
    """

    index: int
    block: EdgeArrays
    r: np.ndarray
    t: np.ndarray
    nu: np.ndarray
    omega: np.ndarray
    inboxes: dict[int, tuple[queue.Queue, slice]]
    outboxes: dict[int, tuple[queue.Queue, np.ndarray]]
    config: SolverConfig
    timeout: float
    rows: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.rows = np.empty((3, len(self.block.src)))

    def broadcast(self, round_no: int) -> None:
        for box, rows in self.outboxes.values():
            box.put(RoundMessage(sender=self.index, round=round_no,
                                 t=self.t[rows], r=self.r[rows]))

    def collect(self, round_no: int) -> None:
        """Read one message from each neighboring worker into the halo."""
        for c, (box, rows) in self.inboxes.items():
            try:
                msg = box.get(timeout=self.timeout)
            except queue.Empty:
                raise DeadlockError(
                    f"worker {self.index} timed out waiting for worker {c} "
                    f"in round {round_no}") from None
            if msg.sender != c or msg.round != round_no:
                raise DeadlockError(
                    f"worker {self.index} got a message from worker "
                    f"{msg.sender} for round {msg.round}, expected worker "
                    f"{c} round {round_no}")
            self.t[rows], self.r[rows] = msg.t, msg.r

    def compute_round(self, round_no: int) -> tuple[np.ndarray, np.ndarray]:
        """Advance this block one round: integrate, trade halo rows, then
        one kernel pass at the new state. Returns the velocity pairs the
        round integrated with."""
        b, m = self.block, self.block.size
        nu, omega = self.nu, self.omega
        self.t[:m], self.r[:m] = integrate_pose(
            self.t[:m], self.r[:m], nu, omega, self.config.dt)
        self.broadcast(round_no)
        self.collect(round_no)
        try:
            self.nu, self.omega = node_controls(
                self.r, self.t, b, self.config.translation_mode, self.rows)
        except so3.AngleAtPiError as exc:
            raise _at_node(exc, b, f"round {round_no}") from None
        return nu, omega


def _at_node(exc: so3.AngleAtPiError, block: EdgeArrays,
             when: str) -> so3.AngleAtPiError:
    """``exc``, raised on ``block``'s edge row ``exc.index[0]``, renamed
    from the node that owns the edge: ``node i, <when>: neighbor j:``."""
    k = exc.index[0]
    return so3.AngleAtPiError(
        f"node {block.ids[block.src[k]]}, {when}: neighbor "
        f"{block.ids[block.dst[k]]}: {exc}", exc.index)


def block_workers(
    g: PoseGraph, init: Sequence[Pose],
    controls: tuple[np.ndarray, np.ndarray], k: int, config: SolverConfig,
    timeout: float,
) -> list[NodeWorker]:
    """``k`` workers, worker ``b`` owning poses ``b*n//k`` to
    ``(b+1)*n//k - 1``, with one queue for each ordered pair of workers
    that share a cut edge. ``controls`` is the ``(n, 3)`` velocity pair
    at ``init``; each worker carries its own rows of it into round 0.
    A block is cut from its own edge rows; its halo ascends, so the rows
    that worker ``c`` fills are the halo's slice between ``c``'s bounds."""
    e = g.edge_arrays
    bounds = [b * g.n // k for b in range(k + 1)]
    blocks = [e.block(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    inboxes: list[dict] = [{} for _ in blocks]
    outboxes: list[dict] = [{} for _ in blocks]
    for b, blk in enumerate(blocks):
        halo = blk.ids[blk.size:]
        cuts = (blk.size + np.searchsorted(halo, bounds)).tolist()
        for c in np.flatnonzero(np.diff(cuts)).tolist():
            rows = slice(cuts[c], cuts[c + 1])
            box: queue.Queue = queue.Queue()
            inboxes[b][c] = (box, rows)
            outboxes[c][b] = (box, blk.ids[rows] - bounds[c])
    s = as_stack(init)
    nu, omega = controls
    return [NodeWorker(b, blk, s.r[blk.ids], s.t[blk.ids], nu[lo:hi],
                       omega[lo:hi], inboxes[b], outboxes[b], config, timeout)
            for b, (blk, lo, hi) in enumerate(zip(blocks, bounds,
                                                  bounds[1:]))]


def run_distributed(
    g: PoseGraph,
    init: Sequence[Pose],
    config: SolverConfig | None = None,
    deadlock_timeout: float = 30.0,
    message_log_path=None,
) -> SolveResult:
    """Execute the flow with :func:`worker_count` block workers and a
    round barrier.

    The caller should have applied pairwise rotation enforcement first,
    mirroring the reference pipeline. The solver's
    :class:`~geopgo.solver.Driver`, shared with ``solver.solve``, checks
    the inputs and the step size, short-circuits a fixed point, applies
    the stop rule and keeps the histories; this function runs the rounds.

    Raises:
        StepSizeUnstableError: ``dt * max_degree >= 2``.
        so3.AngleAtPiError: an edge's rotation residual left the log
            chart; the message names the node, the round (or the
            initial state) and the neighbor, then the edge.
        DeadlockError: a worker waited past ``deadlock_timeout`` for a
            neighboring worker or at the barrier. The first error any
            worker hits is raised as soon as it is recorded.
        OSError: ``message_log_path`` cannot be written; it is created
            (or truncated) before any other work, so this comes first.
    """
    if config is None:
        config = SolverConfig()
    if message_log_path is not None:
        open(message_log_path, "w").close()  # fail before any round
    driver = Driver(g, config, objective=evaluate_objective)
    try:
        fixed_point = driver.start(init)
    except so3.AngleAtPiError as exc:
        raise _at_node(exc, g.edge_arrays, "initial state") from None
    if fixed_point:  # no round ran: the log stays empty
        return driver.result(driver.initial_controls)

    workers = block_workers(g, driver.state, driver.initial_controls,
                            worker_count(g.n), config, deadlock_timeout)
    controls: list = [None] * len(workers)  # each worker's (nu, omega)

    errors: list[BaseException] = []
    over = threading.Event()  # set on the last round or the first error

    def fail(exc: BaseException) -> None:
        errors.append(exc)
        over.set()

    def end_round() -> None:
        # The barrier action runs in the last worker to arrive while the
        # others are parked, so every worker's rows are this round's.
        try:
            t = np.concatenate([w.t[:w.block.size] for w in workers])
            r = np.concatenate([w.r[:w.block.size] for w in workers])
            nu, omega = (np.concatenate(c) for c in zip(*controls))
            rows = np.concatenate([w.rows for w in workers], axis=1)
            if driver.record(PoseStack(t, r), nu, omega, rows):
                over.set()
        except BaseException as exc:
            # Recorded before the barrier breaks, so the workers it
            # releases see it and it is the error raised.
            fail(exc)
            raise

    barrier = threading.Barrier(len(workers), action=end_round)

    def work(w: NodeWorker) -> None:
        try:
            for round_no in itertools.count():
                controls[w.index] = w.compute_round(round_no)
                try:
                    barrier.wait(timeout=deadlock_timeout)
                except threading.BrokenBarrierError:
                    if errors:
                        return  # another worker already failed
                    raise DeadlockError(
                        f"worker {w.index} broke the round barrier") from None
                if over.is_set():
                    return
        except BaseException as exc:  # noqa: BLE001 - surfaced to caller
            fail(exc)
            barrier.abort()

    threads = [threading.Thread(target=work, args=(w,), daemon=True)
               for w in workers]
    for th in threads:
        th.start()
    over.wait()
    if errors:
        barrier.abort()
        raise errors[0]
    for th in threads:
        th.join()  # each returns right after the last barrier

    if message_log_path is not None:
        _write_message_log(message_log_path, [w.block for w in workers],
                           driver.iterations)
    return driver.result(
        all_controls(driver.state, g, config.translation_mode))

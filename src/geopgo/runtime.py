"""Distributed execution: one worker thread per pose, neighbor-only messages.

Workers never see the graph object. Each holds its own id, its current
pose, the measurements on its incident edges, and one inbound queue per
neighbor. A round is: broadcast the current pose to all neighbors,
receive one message per neighbor for this round, compute the velocity
pair from those values only, integrate. A barrier separates rounds; its
action has one recorder thread hand the round's snapshots and
velocities to the solver's :class:`~geopgo.solver.Driver`, which owns
the stop rule and the histories (it aggregates the objective across the
snapshots, a privilege of simulation rather than something a deployed
node could do). This module is thus only an executor plugged into that
driver.

Because updates are simultaneous, neighbor sums run in ascending id
order, and the per-node arithmetic is the reference solver's stacked
edge kernel run on each node's own edges, the resulting trajectory is
bitwise identical to ``solver.solve`` on the same inputs.
"""

from __future__ import annotations

import itertools
import json
import queue
import threading
from dataclasses import dataclass, field

import numpy as np

from . import so3
from .graph import Pose, PoseGraph
from .solver import (Driver, SolveResult, SolverConfig, all_controls,
                     evaluate_objective, integrate_pose, local_views,
                     node_controls)


class DeadlockError(RuntimeError):
    """A worker waited past the wall-clock bound; indicates a harness bug."""


@dataclass(frozen=True)
class RoundMessage:
    sender: int
    round: int
    t: np.ndarray
    r: np.ndarray


@dataclass
class _MessageLog:
    """Thread-safe send log; one JSONL row per message."""

    lock: threading.Lock = field(default_factory=threading.Lock)
    rows: list[dict] = field(default_factory=list)

    def record(self, round_no: int, sender: int, receiver: int) -> None:
        with self.lock:
            self.rows.append(
                {"round": round_no, "sender": sender, "receiver": receiver})

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for row in self.rows:
                fh.write(json.dumps(row) + "\n")


class NodeWorker:
    """Per-pose worker holding only local state.

    ``outboxes``/``inboxes`` are the channels to and from each neighbor;
    the worker owns its pose exclusively. Once per round its pose and the
    velocity pair it used go into its slot of the shared snapshot list
    and its row of the shared velocity arrays, which the recorder reads
    only while all workers sit at the barrier.
    """

    def __init__(
        self,
        node_id: int,
        pose: Pose,
        neighbors: tuple[int, ...],
        r_out: dict[int, np.ndarray],
        t_out: dict[int, np.ndarray],
        t_in: dict[int, np.ndarray],
        inboxes: dict[int, "queue.Queue[RoundMessage]"],
        outboxes: dict[int, "queue.Queue[RoundMessage]"],
        config: SolverConfig,
        timeout: float,
        log: _MessageLog | None,
    ) -> None:
        self.id = node_id
        self.pose = pose
        self.neighbors = neighbors
        self.r_out = r_out
        self.t_out = t_out
        self.t_in = t_in
        self.inboxes = inboxes
        self.outboxes = outboxes
        self.config = config
        self.timeout = timeout
        self.log = log

    def broadcast(self, round_no: int) -> None:
        for j in self.neighbors:
            if self.log is not None:
                self.log.record(round_no, self.id, j)
            self.outboxes[j].put(RoundMessage(
                sender=self.id, round=round_no, t=self.pose.t, r=self.pose.r))

    def collect(self, round_no: int) -> dict[int, Pose]:
        received: dict[int, Pose] = {}
        for j in self.neighbors:
            try:
                msg = self.inboxes[j].get(timeout=self.timeout)
            except queue.Empty:
                raise DeadlockError(
                    f"worker {self.id} timed out waiting for neighbor {j} "
                    f"in round {round_no}") from None
            if msg.sender != j or msg.round != round_no:
                raise DeadlockError(
                    f"worker {self.id} got message from {msg.sender} for "
                    f"round {msg.round}, expected {j} round {round_no}")
            received[j] = Pose(msg.t, msg.r)
        return received

    def compute_round(self, round_no: int) -> tuple[np.ndarray, np.ndarray]:
        """Advance this pose one round; returns the velocity pair used."""
        self.broadcast(round_no)
        neighbor_poses = self.collect(round_no)
        try:
            nu, omega = node_controls(
                self.pose, self.neighbors, neighbor_poses,
                self.r_out, self.t_out, self.t_in,
                self.config.translation_mode)
        except so3.AngleAtPiError as exc:
            raise so3.AngleAtPiError(
                f"node {self.id}, round {round_no}: {exc}", exc.index) from None
        self.pose = integrate_pose(self.pose, nu, omega, self.config.dt)
        return nu, omega


def run_distributed(
    g: PoseGraph,
    init: list[Pose],
    config: SolverConfig | None = None,
    deadlock_timeout: float = 30.0,
    message_log_path=None,
) -> SolveResult:
    """Execute the flow with one thread per pose and a round barrier.

    The caller should have applied pairwise rotation enforcement first,
    mirroring the reference pipeline. The solver's
    :class:`~geopgo.solver.Driver`, shared with ``solver.solve``, checks
    the inputs and the step size, short-circuits a fixed point, applies
    the stop rule and keeps the histories; this function runs the rounds.

    Raises:
        StepSizeUnstableError: ``dt * max_degree >= 2``.
        DeadlockError: a worker waited past ``deadlock_timeout`` for a
            neighbor or at the barrier. The first error any worker hits
            is raised as soon as it is recorded.
    """
    if config is None:
        config = SolverConfig()
    driver = Driver(g, config, objective=evaluate_objective)
    log = _MessageLog() if message_log_path is not None else None
    if driver.start(init):
        if log is not None:
            log.dump(message_log_path)  # no round ran: an empty log
        return driver.result(driver.initial_controls)

    channels: dict[tuple[int, int], queue.Queue] = {
        (m.src, m.dst): queue.Queue() for m in g.measurements
    }
    snapshots: list[Pose] = list(init)
    nu_rows = np.zeros((g.n, 3))
    omega_rows = np.zeros((g.n, 3))
    workers: list[NodeWorker] = []
    for i in range(g.n):
        r_out, t_out, t_in = local_views(g, i)
        workers.append(NodeWorker(
            node_id=i,
            pose=init[i],
            neighbors=g.neighbors(i),
            r_out=r_out, t_out=t_out, t_in=t_in,
            inboxes={j: channels[(j, i)] for j in g.neighbors(i)},
            outboxes={j: channels[(i, j)] for j in g.neighbors(i)},
            config=config,
            timeout=deadlock_timeout,
            log=log,
        ))

    errors: list[BaseException] = []
    over = threading.Event()  # set on the last round or the first error

    def fail(exc: BaseException) -> None:
        errors.append(exc)
        over.set()

    requests: queue.Queue = queue.Queue()  # a round to record, or None
    recorded = threading.Semaphore(0)

    def record_rounds() -> None:
        # One thread records every round, so the driver's stacked
        # temporaries stay in one malloc arena instead of growing the
        # arena of each worker that happens to reach the barrier last.
        while requests.get() is not None:
            try:
                if driver.record(snapshots, nu_rows, omega_rows):
                    over.set()
            except BaseException as exc:  # noqa: BLE001 - surfaced to caller
                fail(exc)
            recorded.release()

    def end_round() -> None:
        # The barrier action: every worker is parked until it returns.
        requests.put(True)
        recorded.acquire()
        if errors:
            # Recorded before the barrier breaks, so the workers it
            # releases see it and it is the error raised.
            raise errors[0]

    barrier = threading.Barrier(g.n, action=end_round)

    def work(w: NodeWorker) -> None:
        try:
            for round_no in itertools.count():
                nu_rows[w.id], omega_rows[w.id] = w.compute_round(round_no)
                snapshots[w.id] = w.pose
                try:
                    barrier.wait(timeout=deadlock_timeout)
                except threading.BrokenBarrierError:
                    if errors:
                        return  # another worker already failed
                    raise DeadlockError(
                        f"worker {w.id} broke the round barrier") from None
                if over.is_set():
                    return
        except BaseException as exc:  # noqa: BLE001 - surfaced to caller
            fail(exc)
            barrier.abort()

    recorder = threading.Thread(target=record_rounds, daemon=True)
    threads = [threading.Thread(target=work, args=(w,), daemon=True)
               for w in workers]
    for th in [recorder] + threads:
        th.start()
    over.wait()
    requests.put(None)  # after any round still to record
    if errors:
        barrier.abort()
        raise errors[0]
    for th in [recorder] + threads:
        th.join()  # each returns right after the last barrier

    if log is not None:
        log.dump(message_log_path)
    return driver.result(
        all_controls(driver.estimates, g, config.translation_mode))

"""Threaded block execution must reproduce the reference solver exactly."""

import dataclasses
import json
import sys
import threading
import time

import numpy as np
import pytest

from geopgo import consistency, runtime, so3, solver, synth
from geopgo.graph import (Pose, PoseStack, RelativeMeasurement, build_graph,
                          reversed_measurement)


def _instance(n=10, seed=0, kappa=0.524, tau=0.5):
    spec = synth.ScenarioSpec(topology="sphere", n=n)
    noise = synth.NoiseModel(tau=tau, kappa=kappa, seed=seed)
    truth, g = synth.generate_dataset(spec, noise, seed=seed)
    g = consistency.enforce_pairwise_rotations(g)
    init = synth.gps_init(truth, tau, kappa, seed=seed)
    return truth, g, init


def _assert_bitwise_equal_poses(a, b):
    for p, q in zip(a, b):
        assert np.array_equal(p.t, q.t)
        assert np.array_equal(p.r, q.r)


def test_two_node_bitwise_trajectory():
    fwd = RelativeMeasurement(0, 1, np.array([0.3, -0.2, 0.5]),
                              np.eye(3))
    g = build_graph(2, [fwd, reversed_measurement(fwd)])
    init = [Pose(t=np.array([1.0, 2.0, 3.0]), r=np.eye(3)),
            Pose(t=np.array([-1.0, 0.0, 1.0]), r=np.eye(3))]
    cfg = solver.SolverConfig(stop_tol=1e-10, record_trajectory=True)
    ref = solver.solve(g, init, cfg)
    dist = runtime.run_distributed(g, init, cfg)
    assert dist.iterations == ref.iterations
    assert dist.converged == ref.converged
    assert len(dist.trajectory) == len(ref.trajectory)
    for ra, rb in zip(ref.trajectory, dist.trajectory):
        _assert_bitwise_equal_poses(ra, rb)


@pytest.mark.parametrize("mode", ["per_step_averaged", "online_averaged", "raw"])
def test_distributed_matches_reference_all_modes(mode):
    truth, g, init = _instance(n=10, seed=3)
    cfg = solver.SolverConfig(translation_mode=mode, record_trajectory=True,
                              max_iters=200)
    ref = solver.solve(g, init, cfg)
    dist = runtime.run_distributed(g, init, cfg)
    assert dist.iterations == ref.iterations
    assert dist.converged == ref.converged
    for ra, rb in zip(ref.trajectory, dist.trajectory):
        _assert_bitwise_equal_poses(ra, rb)
    for oa, ob in zip(ref.objective_history, dist.objective_history):
        assert oa.geodesic == ob.geodesic
        assert oa.chordal == ob.chordal


def test_bitwise_under_frequent_thread_switches(monkeypatch):
    # 8 workers switching threads every 10 us: a round recorded before
    # every worker integrated its rows, or a worker running ahead of the
    # record, breaks the equality
    monkeypatch.setattr(runtime, "AGENTS", 8)
    truth, g, init = _instance(n=30, seed=6)
    cfg = solver.SolverConfig(max_iters=8, stop_tol=1e-12,
                              record_trajectory=True)
    ref = solver.solve(g, init, cfg)
    old = sys.getswitchinterval()
    threads_before = threading.active_count()
    sys.setswitchinterval(1e-5)
    try:
        start = time.monotonic()
        dist = runtime.run_distributed(g, init, cfg, deadlock_timeout=10.0)
        assert time.monotonic() - start < 60.0
    finally:
        sys.setswitchinterval(old)
    assert dist.iterations == ref.iterations == 8
    for ra, rb in zip(ref.trajectory, dist.trajectory):
        _assert_bitwise_equal_poses(ra, rb)
    assert dist.objective_history == ref.objective_history
    # the workers have all returned
    assert threading.active_count() == threads_before


def test_message_counts_and_locality(tmp_path):
    truth, g, init = _instance(n=8, seed=4)
    log_path = tmp_path / "messages.jsonl"
    dist = runtime.run_distributed(g, init, message_log_path=str(log_path))
    rows = [json.loads(ln) for ln in log_path.read_text().splitlines()]
    assert len(rows) == dist.iterations * g.directed_count
    # locality: every logged read follows a directed measurement edge
    for row in rows:
        assert g.has_edge(row["sender"], row["receiver"])
    # every round logs exactly one read per directed edge
    per_round = {}
    for row in rows:
        per_round.setdefault(row["round"], []).append(
            (row["sender"], row["receiver"]))
    for round_no, sends in per_round.items():
        assert sorted(sends) == sorted((m.src, m.dst) for m in g.measurements)


def _fixed_point():
    # exactly-representable truth: every initial control is exactly zero
    fwd = RelativeMeasurement(0, 1, np.array([1.0, 0.0, 0.0]), np.eye(3))
    g = build_graph(2, [fwd, reversed_measurement(fwd)])
    return g, [Pose(t=np.zeros(3), r=np.eye(3)),
               Pose(t=np.array([1.0, 0.0, 0.0]), r=np.eye(3))]


def test_fixed_point_short_circuit(tmp_path):
    # no worker threads needed at all
    g, init = _fixed_point()
    log_path = tmp_path / "messages.jsonl"
    log_path.write_text("a previous run's rows\n")
    dist = runtime.run_distributed(g, init, message_log_path=str(log_path))
    assert dist.iterations == 0
    assert dist.converged
    _assert_bitwise_equal_poses(dist.estimates, init)
    # the log exists and is empty, so an audit reads zero messages
    assert log_path.read_bytes() == b""


def _bits(*values):
    return [np.float64(v).tobytes() for v in values]


@pytest.mark.parametrize("fixed_point", [False, True],
                         ids=["sphere", "fixed_point"])
@pytest.mark.parametrize("k", [None, 1, 2, 3],
                         ids=["reference", "k1", "k2", "k3"])
def test_each_record_is_made_from_its_own_state(monkeypatch, k, fixed_point):
    # entry j of both histories belongs to state j: its control norm is
    # the largest norm of the controls at that state and its objective
    # that state's objective, bit for bit, state 0 and the last included
    if fixed_point:
        g, init = _fixed_point()
    else:
        _, g, init = _instance(n=12, seed=6)
    cfg = solver.SolverConfig(max_iters=6, stop_tol=1e-12,
                              record_trajectory=True)
    if k is None:
        res = solver.solve(g, init, cfg)
    else:
        monkeypatch.setattr(runtime, "AGENTS", k)
        res = runtime.run_distributed(g, init, cfg)
    assert res.iterations == (0 if fixed_point else 6)
    states = res.trajectory
    assert (len(states) == len(res.objective_history)
            == len(res.control_norm_history) == res.iterations + 1)
    for state, obj, norm in zip(states, res.objective_history,
                                res.control_norm_history):
        controls = solver.all_controls(state, g, cfg.translation_mode)
        assert _bits(norm) == _bits(solver.max_control_norm(*controls))
        assert (_bits(*dataclasses.astuple(obj)) == _bits(
            *dataclasses.astuple(solver.evaluate_objective(state, g))))


@pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_deadlock_timeout_fails_before_any_work(tmp_path, timeout):
    _, g, init = _instance(n=50, seed=4)
    log_path = tmp_path / "messages.jsonl"
    threads_before = threading.active_count()
    with pytest.raises(ValueError, match="deadlock_timeout"):
        runtime.run_distributed(g, init, deadlock_timeout=timeout,
                                message_log_path=str(log_path))
    assert not log_path.exists()
    assert threading.active_count() == threads_before


def test_max_iters_stops_unconverged():
    truth, g, init = _instance(n=8, seed=5)
    cfg = solver.SolverConfig(max_iters=2)
    dist = runtime.run_distributed(g, init, cfg)
    assert dist.iterations == 2
    assert not dist.converged
    ref = solver.solve(g, init, cfg)
    _assert_bitwise_equal_poses(dist.estimates, ref.estimates)


def test_stalled_worker_raises_deadlock_promptly(monkeypatch):
    # the worker owning node 0 stalls in round 1; the other workers time
    # out at the barrier and the first error surfaces without waiting
    # for the stalled thread
    truth, g, init = _instance(n=8, seed=4)
    release = threading.Event()
    rounds = []
    real = runtime.node_controls

    def stalling(r, t, block, *args):
        if block.ids[0] == 0:
            if rounds:
                release.wait(10.0)
            rounds.append(None)
        return real(r, t, block, *args)

    monkeypatch.setattr(runtime, "node_controls", stalling)
    start = time.monotonic()
    try:
        with pytest.raises(runtime.DeadlockError):
            runtime.run_distributed(g, init, deadlock_timeout=0.2)
        assert time.monotonic() - start < 5.0
    finally:
        release.set()


def test_error_in_the_barrier_action_is_the_error_raised(monkeypatch):
    # the driver evaluates the objective in the barrier action; an error
    # there is recorded before the barrier breaks, so the workers that
    # the break releases return quietly and it is the error raised
    truth, g, init = _instance(n=8, seed=4)
    calls = []
    real = runtime.evaluate_objective

    def failing(*args):
        calls.append(None)
        if len(calls) == 3:  # the initial state, round 0, round 1
            raise ValueError("objective failed")
        return real(*args)

    monkeypatch.setattr(runtime, "evaluate_objective", failing)
    threads_before = threading.active_count()
    cfg = solver.SolverConfig(max_iters=10, stop_tol=1e-12)
    start = time.monotonic()
    with pytest.raises(ValueError, match="objective failed"):
        runtime.run_distributed(g, init, cfg, deadlock_timeout=10.0)
    assert time.monotonic() - start < 5.0
    # the caller does not join the workers on an error; they return
    # right after the barrier breaks
    while (threading.active_count() > threads_before
           and time.monotonic() - start < 5.0):
        time.sleep(0.01)
    assert threading.active_count() == threads_before


def _two_workers(timeout):
    fwd = RelativeMeasurement(0, 1, np.zeros(3), np.eye(3))
    g = build_graph(2, [fwd, reversed_measurement(fwd)])
    zero = np.zeros((2, 3))
    return runtime.block_workers(g, [Pose.identity()] * 2, (zero, zero), 2,
                                 solver.SolverConfig(), timeout)


def test_collect_times_out_as_deadlock():
    w, _ = _two_workers(timeout=0.05)
    with pytest.raises(runtime.DeadlockError, match="timed out"):
        w.collect(round_no=0)


def test_collect_rejects_wrong_round():
    w, _ = _two_workers(timeout=0.05)
    inbox, _ = w.inboxes[1]
    inbox.put(runtime.RoundMessage(sender=1, round=7, t=np.zeros((1, 3)),
                                   r=np.eye(3)[None]))
    with pytest.raises(runtime.DeadlockError, match="round"):
        w.collect(round_no=0)


@pytest.mark.parametrize("k", [1, 2, 3, 7, 8])
def test_any_worker_count_matches_reference(monkeypatch, k):
    truth, g, init = _instance(n=50, seed=8)
    cfg = solver.SolverConfig(max_iters=6, stop_tol=1e-12,
                              record_trajectory=True)
    ref = solver.solve(g, init, cfg)
    monkeypatch.setattr(runtime, "AGENTS", k)
    assert runtime.worker_count(g.n) == k
    dist = runtime.run_distributed(g, init, cfg)
    assert dist.iterations == ref.iterations == 6
    for ra, rb in zip(ref.trajectory, dist.trajectory):
        _assert_bitwise_equal_poses(ra, rb)
    assert dist.objective_history == ref.objective_history
    assert dist.control_norm_history == ref.control_norm_history


def test_worker_count_rule():
    assert runtime.worker_count(50) == runtime.AGENTS == 2
    assert runtime.worker_count(1) == 1  # never more than the poses


def test_live_threads_stay_bounded_on_a_large_ring(monkeypatch):
    # 200 poses: one thread per pose would be 200 threads; the block
    # runtime has at most AGENTS workers and the caller
    spec = synth.ScenarioSpec(topology="circle", n=200)
    noise = synth.NoiseModel(tau=0.5, kappa=0.524, seed=9)
    truth, g = synth.generate_dataset(spec, noise, seed=9)
    g = consistency.enforce_pairwise_rotations(g)
    init = synth.gps_init(truth, 0.5, 0.524, seed=9)
    live = []
    real = runtime.evaluate_objective

    def sampled(*args):
        # the driver evaluates the objective in the barrier action,
        # while every worker is alive at the barrier
        live.append(threading.active_count())
        return real(*args)

    monkeypatch.setattr(runtime, "evaluate_objective", sampled)
    cfg = solver.SolverConfig(max_iters=4, stop_tol=1e-12)
    dist = runtime.run_distributed(g, init, cfg)
    assert dist.iterations == 4
    assert len(live) == 5  # the initial state and four rounds
    assert max(live) <= runtime.AGENTS + 1


def test_message_log_is_deterministic(tmp_path, monkeypatch):
    truth, g, init = _instance(n=30, seed=10)
    monkeypatch.setattr(runtime, "AGENTS", 3)
    cfg = solver.SolverConfig(max_iters=5, stop_tol=1e-12)
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for path in paths:
        runtime.run_distributed(g, init, cfg, message_log_path=str(path))
    text = paths[0].read_bytes()
    assert text == paths[1].read_bytes()
    lines = text.decode().splitlines()
    rows = [json.loads(ln) for ln in lines]
    assert [json.dumps(row) for row in rows] == lines
    keys = [(row["round"], row["receiver"], row["sender"]) for row in rows]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys) == 5 * g.directed_count


def _template_log(blocks, rounds):
    """The log's former dump, kept as an oracle of its bytes: one
    ``%(round)d`` template per worker, filled once per worker-round in
    ``(round, worker)`` order."""
    templates = ["".join(
        f'{{"round": %(round)d, "sender": {b.ids[j]}, '
        f'"receiver": {b.ids[i]}}}\n' for i, j in zip(b.src, b.dst))
        for b in blocks]
    return "".join(t % {"round": r} for r in range(rounds) for t in templates)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_message_log_bytes_equal_both_oracles(tmp_path, monkeypatch, k):
    truth, g, init = _instance(n=20, seed=11)
    monkeypatch.setattr(runtime, "AGENTS", k)
    cfg = solver.SolverConfig(max_iters=12, stop_tol=1e-12)
    got = tmp_path / "join.jsonl"
    res = runtime.run_distributed(g, init, cfg, message_log_path=str(got))
    assert res.iterations == 12  # so round numbers reach two digits
    # per row json.dumps in (round, receiver, sender) order
    e = g.edge_arrays
    want = "".join(
        json.dumps({"round": r, "sender": int(j), "receiver": int(i)}) + "\n"
        for r in range(12) for i, j in zip(e.src, e.dst))
    assert got.read_bytes() == want.encode()
    # the same run, its log written from the same blocks by the oracle
    def write_template(path, blocks, rounds):
        assert len(blocks) == k and rounds == 12
        with open(path, "w") as fh:
            fh.write(_template_log(blocks, rounds))

    monkeypatch.setattr(runtime, "_write_message_log", write_template)
    old = tmp_path / "template.jsonl"
    runtime.run_distributed(g, init, cfg, message_log_path=str(old))
    assert got.read_bytes() == old.read_bytes()


def test_wrong_init_length():
    truth, g, init = _instance(n=8, seed=7)
    with pytest.raises(ValueError):
        runtime.run_distributed(g, init[:-1])


# -- blocks cut from their own rows ----------------------------------------


def _oracle_block(e, lo, hi):
    # the construction EdgeArrays.block replaced: a read mask and a
    # local-index map the size of the whole graph
    a, b = e.offsets[lo], e.offsets[hi]
    dst = e.dst[a:b]
    read = np.zeros(e.size, dtype=bool)
    read[dst] = True
    read[lo:hi] = False
    halo = np.flatnonzero(read)
    local = np.empty(e.size, dtype=np.intp)
    local[lo:hi] = np.arange(hi - lo)
    local[halo] = np.arange(hi - lo, hi - lo + len(halo))
    back = e.rev[a:b]
    cut = np.flatnonzero((back < a) | (back >= b))
    rev = back - a
    rev[cut] = np.arange(b - a, b - a + len(cut))
    return {"ids": np.concatenate((np.arange(lo, hi), halo)),
            "src": e.src[a:b] - lo, "dst": local[dst], "rev": rev,
            "cut": cut, "t_cut": e.t_rel[back[cut]],
            "offsets": e.offsets[lo:hi + 1] - a}


def _oracle_boxes(blocks, bounds):
    # the construction block_workers replaced: an n-long pose-to-worker
    # owner array; per worker, each neighbor's halo slice and the rows
    # of its own poses that each neighbor reads
    k = len(blocks)
    owner = np.repeat(np.arange(k), np.diff(bounds))
    inboxes = [{} for _ in blocks]
    outboxes = [{} for _ in blocks]
    for b, blk in enumerate(blocks):
        halo = blk.ids[blk.size:]
        for c in np.flatnonzero(np.bincount(owner[halo], minlength=k)):
            c = int(c)
            rows = np.flatnonzero(owner[halo] == c)
            inboxes[b][c] = slice(blk.size + rows[0], blk.size + rows[-1] + 1)
            outboxes[c][b] = halo[rows] - bounds[c]
    return inboxes, outboxes


def _hub():
    # pose 200 of 520 sees every other pose (degree 519), the rest form
    # a path: the hub of tests/test_kernel.py
    n = 520
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(min(i, 200), max(i, 200)) for i in range(n) if abs(i - 200) > 1]
    rng = np.random.default_rng(4)
    truth = PoseStack(rng.normal(size=(n, 3)),
                      so3.exp_map(rng.normal(size=(n, 3))))
    return build_graph(n, synth.exact_measurements(truth, edges))


def _block_graph(name):
    if name == "hub":
        return _hub()
    if name == "two":
        fwd = RelativeMeasurement(0, 1, np.array([0.3, -0.2, 0.5]), np.eye(3))
        return build_graph(2, [fwd, reversed_measurement(fwd)])
    spec = {"sphere": synth.ScenarioSpec(topology="sphere", n=50),
            "ring": synth.ScenarioSpec(topology="circle", n=30),
            "grid": synth.ScenarioSpec(topology="grid",
                                       grid_dims=(4, 3, 2))}[name]
    return synth.generate_dataset(spec, synth.NoiseModel(seed=11), seed=11)[1]


BLOCK_GRAPHS = ["sphere", "ring", "grid", "hub", "two"]


def _assert_same_block(got, want):
    for name, value in want.items():
        have = getattr(got, name)
        assert have.dtype == value.dtype, name
        assert np.array_equal(have, value), name


@pytest.mark.parametrize("name", BLOCK_GRAPHS)
def test_blocks_equal_the_mask_and_map_construction(name):
    g = _block_graph(name)
    e, n = g.edge_arrays, g.n
    rng = np.random.default_rng(len(name))
    spans = [(0, n), (0, 0), (n, n), (n // 2, n // 2), (0, 1), (n - 1, n)]
    spans += [tuple(sorted(rng.integers(0, n + 1, size=2).tolist()))
              for _ in range(20)]
    for lo, hi in spans:
        b = e.block(lo, hi)
        _assert_same_block(b, _oracle_block(e, lo, hi))
        if (lo, hi) == (0, n):  # the whole graph: no halo, no cut rows
            assert b.ids.size == n and b.cut.size == 0


@pytest.mark.parametrize("name", BLOCK_GRAPHS)
@pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
def test_worker_boxes_equal_the_owner_construction(name, k):
    g = _block_graph(name)
    zero = np.zeros((g.n, 3))
    workers = runtime.block_workers(g, [Pose.identity()] * g.n, (zero, zero),
                                    k, solver.SolverConfig(), 1.0)
    bounds = [b * g.n // k for b in range(k + 1)]
    for w, lo, hi in zip(workers, bounds, bounds[1:]):
        _assert_same_block(w.block, _oracle_block(g.edge_arrays, lo, hi))
    inboxes, outboxes = _oracle_boxes([w.block for w in workers], bounds)
    for b, w in enumerate(workers):
        assert list(w.inboxes) == list(inboxes[b])
        assert [rows for _, rows in w.inboxes.values()] == list(
            inboxes[b].values())
        assert list(w.outboxes) == list(outboxes[b])
        for c, (box, rows) in w.outboxes.items():
            assert rows.dtype == outboxes[b][c].dtype
            assert np.array_equal(rows, outboxes[b][c])
            # the queue worker b sends on is the one worker c reads
            assert workers[c].inboxes[b][0] is box

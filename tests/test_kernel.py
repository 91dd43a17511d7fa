"""The stacked edge kernel against the per-edge loops it replaced.

``_loop_node_controls`` and ``_loop_objective`` are the scalar loops the
solver used before its per-edge terms were stacked: one so3 call per
edge, summed in ascending neighbor order. The kernel keeps their
arithmetic, so every comparison with them is bitwise (``==``), not a
tolerance. The loop's chordal term is the kernel's angle form, ``8
sin^2(theta / 2)``; the tests against the Frobenius definition of the
chordal residual bound the difference instead.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from geopgo import consistency, graph, runtime, so3, solver, synth
from geopgo.graph import (MeasurementColumns, Pose, RelativeMeasurement,
                          build_graph, reversed_measurement)


def _loop_node_controls(own, neighbors, neighbor_poses, r_out, t_out, t_back,
                        translation_mode):
    nu = np.zeros(3)
    omega = np.zeros(3)
    for j in neighbors:
        pj = neighbor_poses[j]
        rrel = own.r.T @ pj.r
        omega = omega + so3.log_map(rrel @ r_out[j].T)
        if translation_mode == "raw":
            nu = nu + (pj.t - own.t) - own.r @ t_out[j]
        else:  # both averaged modes are the one map
            nu = nu + (pj.t - own.t) + 0.5 * (pj.r @ t_back[j] - own.r @ t_out[j])
    return nu, omega


def _loop_objective(estimates, g):
    trans = rot = chord = 0.0
    for m in g.measurements:
        pi, pj = estimates[m.src], estimates[m.dst]
        rrel = pi.r.T @ pj.r
        w = so3.log_map(rrel @ m.r_rel.T)
        rot += float(w @ w)
        # |rrel - r_ij|^2 from the residual angle: 8 sin^2(theta / 2)
        h = np.sin(0.5 * np.sqrt(w @ w))
        chord += float(8.0 * (h * h))
        e = pj.t - pi.t - pi.r @ m.t_rel
        trans += float(e @ e)
    return solver.ObjectiveValue(geodesic=trans + rot, chordal=trans + chord,
                                 rotation_only=rot, translation_only=trans)


def _local(estimates, g, i):
    # one node's dicts, the form the scalar loop takes
    nbrs = g.neighbors(i)
    ms = [g.measurements[g.edge_index(i, j)] for j in nbrs]
    return (estimates[i], nbrs, {j: estimates[j] for j in nbrs},
            {j: m.r_rel for j, m in zip(nbrs, ms)},
            {j: m.t_rel for j, m in zip(nbrs, ms)},
            {j: g.measurements[g.edge_index(j, i)].t_rel for j in nbrs})


def _block_controls(estimates, g, lo, hi, mode):
    # node_controls on the block of poses lo..hi-1, fed only the poses
    # that block reads
    block = g.edge_arrays.block(lo, hi)
    read = [estimates[i] for i in block.ids]
    r = np.array([p.r for p in read])
    t = np.array([p.t for p in read])
    return solver.node_controls(r, t, block, mode)


# sphere: irregular degrees; circle: all degree 2; grid: degrees 3 to 6
INSTANCES = [("sphere", 40, 1), ("sphere", 90, 2), ("circle", 12, 3),
             ("grid", None, 4)]


def _instance(topology, n, seed):
    if topology == "grid":
        spec = synth.ScenarioSpec(topology="grid", grid_dims=(3, 2, 2))
    else:
        spec = synth.ScenarioSpec(topology=topology, n=n)
    noise = synth.NoiseModel(tau=0.5, kappa=0.524, seed=seed)
    truth, g = synth.generate_dataset(spec, noise, seed=seed)
    g = consistency.enforce_pairwise_rotations(g)
    return g, synth.gps_init(truth, 0.5, 0.524, seed=seed)


@pytest.fixture(params=sorted({7, 1024, graph.EDGE_BLOCK}),
                ids=lambda b: f"block{b}")
def block(request, monkeypatch):
    # a small block makes every graph here span several runs
    monkeypatch.setattr(graph, "EDGE_BLOCK", request.param)
    return request.param


@pytest.mark.parametrize("mode", solver.TRANSLATION_MODES)
@pytest.mark.parametrize("inst", INSTANCES, ids=lambda x: f"{x[0]}{x[1] or ''}")
def test_controls_equal_the_loop_bitwise(inst, mode, block):
    g, est = _instance(*inst)
    want = [_loop_node_controls(*_local(est, g, i), mode) for i in range(g.n)]
    want_nu = np.array([w[0] for w in want])
    want_omega = np.array([w[1] for w in want])
    nu, omega = solver.all_controls(est, g, mode)
    assert np.array_equal(nu, want_nu)
    assert np.array_equal(omega, want_omega)
    # every node as a block of one, then contiguous blocks of 3 and of
    # about a third of the graph
    for size in (1, 3, -(-g.n // 3)):
        for lo in range(0, g.n, size):
            hi = min(lo + size, g.n)
            got_nu, got_omega = _block_controls(est, g, lo, hi, mode)
            assert np.array_equal(got_nu, want_nu[lo:hi])
            assert np.array_equal(got_omega, want_omega[lo:hi])


def _worker_blocks(g, k):
    # the blocks runtime.block_workers cuts for k workers
    bounds = [b * g.n // k for b in range(k + 1)]
    return [g.edge_arrays.block(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


@pytest.mark.parametrize("inst", INSTANCES, ids=lambda x: f"{x[0]}{x[1] or ''}")
def test_reverse_products_from_other_slices_equal_the_loop(inst, monkeypatch):
    # with runs of at most 7 edges an edge's reverse row, whose R_i t_ij
    # the averaged term reads, mostly lies in another run, or in another
    # worker's block, where the worker makes it from the halo pose
    monkeypatch.setattr(graph, "EDGE_BLOCK", 7)
    g, est = _instance(*inst)
    e = g.edge_arrays
    assert np.any(e.rev // 7 != np.arange(len(e.rev)) // 7)
    mode = "per_step_averaged"
    want = [_loop_node_controls(*_local(est, g, i), mode) for i in range(g.n)]
    want_nu = np.array([w[0] for w in want])
    want_omega = np.array([w[1] for w in want])
    s = solver.as_stack(est)
    for k in (1, 2, 3):
        blocks = _worker_blocks(g, k)
        assert k == 1 or all(len(b.cut) for b in blocks)
        got = [solver.node_controls(s.r[b.ids], s.t[b.ids], b, mode)
               for b in blocks]
        assert np.array_equal(np.concatenate([nu for nu, _ in got]), want_nu)
        assert np.array_equal(np.concatenate([om for _, om in got]),
                              want_omega)


def test_averaged_modes_are_one_map():
    # the two averaged names run the same arithmetic: every state, every
    # objective and every control norm of a solve are the same bytes
    g, est = _instance("sphere", 40, 13)
    runs = [solver.solve(g, est, solver.SolverConfig(
        max_iters=8, stop_tol=1e-12, translation_mode=mode,
        record_trajectory=True))
        for mode in ("per_step_averaged", "online_averaged")]
    a, b = runs
    assert a.iterations == b.iterations == 8
    assert a.objective_history == b.objective_history
    assert a.control_norm_history == b.control_norm_history
    for x, y in zip(a.trajectory, b.trajectory):
        assert x.t.tobytes() == y.t.tobytes()
        assert x.r.tobytes() == y.r.tobytes()


@pytest.mark.parametrize("inst", INSTANCES, ids=lambda x: f"{x[0]}{x[1] or ''}")
def test_objective_equals_the_loop_bitwise(inst, block):
    g, est = _instance(*inst)
    got = solver.evaluate_objective(est, g)
    assert got == _loop_objective(est, g)
    for value in vars(got).values():
        assert type(value) is float  # summary.json serializes these


@pytest.mark.parametrize("mode", solver.TRANSLATION_MODES)
def test_batched_step_equals_integrate_pose(mode):
    g, est = _instance("sphere", 40, 5)
    cfg = solver.SolverConfig(translation_mode=mode)
    nu, omega = solver.all_controls(est, g, mode)
    stepped = solver.step(solver.SolverState(est, (nu, omega)), g, cfg)
    for i, p in enumerate(stepped.estimates):
        # one pose alone, unstacked
        want_t, want_r = solver.integrate_pose(est[i].t, est[i].r, nu[i],
                                               omega[i], cfg.dt)
        assert np.array_equal(p.t, want_t)
        assert np.array_equal(p.r, want_r)


def _graph_with_residual_at_pi():
    # path 0 - 1 - 2; edge (1, 2) measures a half turn the estimates lack
    half_turn = np.diag([1.0, -1.0, -1.0])
    ms = [RelativeMeasurement(0, 1, np.zeros(3), np.eye(3)),
          RelativeMeasurement(1, 2, np.zeros(3), half_turn)]
    g = build_graph(3, ms + [reversed_measurement(m) for m in ms])
    return g, [Pose.identity()] * 3


def test_all_controls_names_the_edge_at_pi():
    g, est = _graph_with_residual_at_pi()
    with pytest.raises(so3.AngleAtPiError, match=r"edge \(1, 2\)"):
        solver.all_controls(est, g, "per_step_averaged")


def test_node_controls_names_the_edge_at_pi():
    g, est = _graph_with_residual_at_pi()
    with pytest.raises(so3.AngleAtPiError, match=r"edge \(2, 1\)") as info:
        _block_controls(est, g, 2, 3, "per_step_averaged")
    assert info.value.index == (0,)  # the row in the block
    # node 0's only edge is fine
    _block_controls(est, g, 0, 1, "per_step_averaged")


def test_solve_names_the_iteration_at_pi():
    g, est = _graph_with_residual_at_pi()
    with pytest.raises(so3.AngleAtPiError,
                       match=r"^iteration 0: .*edge \(1, 2\)") as info:
        solver.solve(g, est)
    assert info.value.index == (g.edge_index(1, 2),)


def test_solve_names_a_later_iteration(monkeypatch):
    # the pass of state 3 fails: a graph of one run makes one
    # _residual_logs call per pass, and state k's pass is the (k + 1)-th
    g, est = _instance("sphere", 12, 7)
    assert len(g.edge_arrays.runs.nbr) == 1  # one run
    real = solver._residual_logs
    calls = []

    def failing(resid, block, start):
        calls.append(None)
        if len(calls) == 4:
            raise so3.AngleAtPiError("edge (0, 1): at pi", (5,))
        return real(resid, block, start)

    monkeypatch.setattr(solver, "_residual_logs", failing)
    with pytest.raises(so3.AngleAtPiError,
                       match=r"^iteration 3: edge \(0, 1\)") as info:
        solver.solve(g, est, solver.SolverConfig(max_iters=10,
                                                 stop_tol=1e-12))
    assert info.value.index == (5,)


def test_worker_names_its_node_and_round_at_pi():
    g, est = _graph_with_residual_at_pi()
    # one worker per node, seeded with zero controls so that round 0
    # integrates nothing and evaluates the half-turn state; worker 1
    # sends its round-0 rows first
    zero = np.zeros((g.n, 3))
    workers = runtime.block_workers(g, est, (zero, zero), 3,
                                    solver.SolverConfig(), timeout=1.0)
    workers[1].broadcast(0)
    with pytest.raises(so3.AngleAtPiError, match="node 2, round 0: .*neighbor 1"):
        workers[2].compute_round(0)


def test_distributed_names_the_node_at_pi_in_the_initial_state():
    # the initial pass runs before any worker; its error still names the
    # node and the neighbor, as a worker's round does
    g, est = _graph_with_residual_at_pi()
    with pytest.raises(so3.AngleAtPiError,
                       match=r"^node 1, initial state: neighbor 2: "
                             r"rotation residual on edge \(1, 2\): ") as info:
        runtime.run_distributed(g, est)
    assert info.value.index == (g.edge_index(1, 2),)


def test_log_map_calls_do_not_grow_with_the_edge_count(monkeypatch):
    # The kernel calls log_map once per run, not once per edge: two
    # graphs of one run each make the same number of calls.
    real = so3.log_map
    calls = []

    def counted(r):
        calls.append(np.shape(r))
        return real(r)

    monkeypatch.setattr(so3, "log_map", counted)
    iters = 6
    counts = {}
    for n in (12, 60):
        g, est = _instance("sphere", n, 7)
        assert len(g.edge_arrays.runs.nbr) == 1  # one run
        calls.clear()
        res = solver.solve(g, est, solver.SolverConfig(max_iters=iters,
                                                       stop_tol=1e-12))
        assert res.iterations == iters
        counts[n] = len(calls)
    # one kernel pass per state
    assert counts[12] == counts[60] == iters + 1


@pytest.mark.parametrize("workers", [None, 1, 2, 3],
                         ids=["reference", "k1", "k2", "k3"])
def test_one_kernel_pass_per_state(monkeypatch, workers):
    # A graph of one run makes one log_map call per pass. The reference
    # solve makes one pass per state: the initial one and one per
    # iteration. Each distributed round makes one pass per worker, and
    # the run adds the initial pass and the final controls.
    real = so3.log_map
    calls = []

    def counted(r):
        calls.append(None)
        return real(r)

    g, est = _instance("sphere", 50, 11)
    assert len(g.edge_arrays.runs.nbr) == 1  # one run
    monkeypatch.setattr(so3, "log_map", counted)
    iters = 7
    cfg = solver.SolverConfig(max_iters=iters, stop_tol=1e-12)
    if workers is None:
        res = solver.solve(g, est, cfg)
        want = iters + 1
    else:
        monkeypatch.setattr(runtime, "AGENTS", workers)
        res = runtime.run_distributed(g, est, cfg)
        want = iters * workers + 2
    assert res.iterations == iters
    assert len(calls) == want


def _count_products_per_row(monkeypatch, inst, workers, narrow):
    # A pass makes one stacked matrix-vector product per edge row, R_i
    # t_ij, of each run of width at most graph.NARROW_RUN (narrow: every
    # run of inst), and one per cut row, whose reverse starts at a halo
    # pose; a wider run makes its rows' products at once
    # (test_one_batched_rotation_product_per_run). A run adds them up
    # per state as test_one_kernel_pass_per_state counts the passes.
    real = solver._mv
    rows = []

    def counted(a, v):
        rows.append(len(a))
        return real(a, v)

    g, est = _instance(*inst)
    widths = [nbr.shape[1] for nbr in g.edge_arrays.runs.nbr]
    assert (max(widths) <= graph.NARROW_RUN) == narrow
    assert narrow or min(widths) > graph.NARROW_RUN
    s = solver.as_stack(est)
    monkeypatch.setattr(solver, "_mv", counted)
    solver.all_controls(est, g, "per_step_averaged")
    whole = g.directed_count if narrow else 0
    assert sum(rows) == whole
    per_round = whole
    if workers is not None:
        per_round = 0
        for b in _worker_blocks(g, workers):
            halo = set(b.ids[b.size:].tolist())
            cut = sum(j in halo for j in b.ids[b.dst].tolist())
            own = len(b.src) if narrow else 0
            rows.clear()
            solver.node_controls(s.r[b.ids], s.t[b.ids], b,
                                 "per_step_averaged")
            assert sum(rows) == own + cut
            per_round += own + cut
    iters = 7
    cfg = solver.SolverConfig(max_iters=iters, stop_tol=1e-12)
    rows.clear()
    if workers is None:
        solver.solve(g, est, cfg)
        assert sum(rows) == (iters + 1) * per_round
    else:
        monkeypatch.setattr(runtime, "AGENTS", workers)
        runtime.run_distributed(g, est, cfg)
        # the initial pass and the final controls run on the whole graph
        assert sum(rows) == iters * per_round + 2 * whole


@pytest.mark.parametrize("workers", [None, 1, 2, 3],
                         ids=["reference", "k1", "k2", "k3"])
def test_one_stacked_product_per_edge_row(monkeypatch, workers):
    # a ring's runs are 2 wide: E rows over the whole graph, E_b + C_b
    # over a worker's block
    _count_products_per_row(monkeypatch, ("circle", 40, 11), workers, True)


@pytest.mark.parametrize("workers", [None, 1, 2, 3],
                         ids=["reference", "k1", "k2", "k3"])
def test_wide_runs_make_one_product_per_cut_row(monkeypatch, workers):
    # a sphere's runs are all wide: no row over the whole graph, C_b over
    # a worker's block
    _count_products_per_row(monkeypatch, ("sphere", 50, 11), workers, False)


@pytest.mark.parametrize("mode", solver.TRANSLATION_MODES)
def test_fused_objective_rows_equal_evaluate_objective(mode):
    # the history comes from the rows of each state's control pass;
    # evaluating every recorded state on its own gives the same bits
    g, est = _instance("sphere", 40, 12)
    cfg = solver.SolverConfig(max_iters=6, stop_tol=1e-12,
                              translation_mode=mode, record_trajectory=True)
    res = solver.solve(g, est, cfg)
    assert len(res.trajectory) == len(res.objective_history) == 7
    for state, obj in zip(res.trajectory, res.objective_history):
        assert obj == solver.evaluate_objective(state, g)
        assert obj == _loop_objective(state, g)


def _control_pass_rows(r, t, block):
    # the rows of a full "raw" control pass, whose controls are dropped
    rows = np.empty((3, len(block.src)))
    solver.node_controls(r, t, block, "raw", rows)
    return rows


@pytest.mark.parametrize("inst", INSTANCES, ids=lambda x: f"{x[0]}{x[1] or ''}")
def test_objective_rows_equal_the_control_pass_rows(inst, block):
    # each block's pass fills the whole graph's rows at the block's edge
    # rows, and the objective of a state with no rows makes the same
    g, est = _instance(*inst)
    rng = np.random.default_rng(len(inst[0]) + (inst[1] or 0))
    s = solver.as_stack(est)
    r, t = s.r, s.t
    states = [(r, t)]
    for _ in range(3):  # random states around the initial guess
        turn = so3.exp_map(rng.normal(scale=0.3, size=(g.n, 3)))
        states.append((so3.renormalize(r @ turn),
                       t + rng.normal(scale=2.0, size=t.shape)))
    e = g.edge_arrays
    for r, t in states:
        want = _control_pass_rows(r, t, e)
        for lo in range(0, g.n, 5):
            hi = min(lo + 5, g.n)
            b = e.block(lo, hi)
            got = _control_pass_rows(r[b.ids], t[b.ids], b)
            w = want[:, e.offsets[lo]:e.offsets[hi]]
            assert np.array_equal(got, w)
            assert np.array_equal(np.signbit(got), np.signbit(w))
        assert (solver.evaluate_objective(solver.PoseStack(t=t, r=r), g)
                == solver.evaluate_objective(None, g, want))


def _frobenius_rows(r, e):
    # |R_i.T R_j - r_ij|^2 of every edge row, the chordal definition
    diff = np.swapaxes(r[e.src], -1, -2) @ r[e.dst] - e.r_rel
    return np.sum(diff * diff, axis=(1, 2))


def test_chordal_rows_equal_the_frobenius_definition():
    # the kernel makes each chordal entry from the residual angle, as
    # 8 sin^2(theta / 2); on a path of Haar-random poses whose measured
    # rotations leave residual angles of 0 and 1e-12 to 3.1, it must
    # equal the Frobenius definition within 1e-13 * sqrt(frob)
    rng = np.random.default_rng(37)
    count = 20000
    q = rng.normal(size=(count + 1, 4))
    r = so3.quat_to_matrix(q / np.linalg.norm(q, axis=1, keepdims=True))
    angle = 10.0 ** rng.uniform(-12, np.log10(3.1), count)
    angle[::50] = 0.0
    axis = rng.normal(size=(count, 3))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    turn = so3.exp_map(angle[:, None] * axis)
    r_rel = np.swapaxes(r[:-1], -1, -2) @ r[1:] @ np.swapaxes(turn, -1, -2)
    ids = np.arange(count)
    g = build_graph(count + 1, MeasurementColumns(ids, ids + 1,
                                                  np.zeros((count, 3)), r_rel))
    e = g.edge_arrays
    rows = np.empty((3, g.directed_count))
    solver.node_controls(r, np.zeros((count + 1, 3)), e, "raw", rows)
    frob = _frobenius_rows(r, e)
    assert np.all(np.abs(rows[2] - frob) <= 1e-13 * np.sqrt(frob))
    assert (frob == 0.0).any() and frob.max() > 3.9


def test_chordal_total_equals_a_frobenius_loop():
    # a noisy sphere-50 state's chordal total against the translation
    # total plus the Frobenius squares, one edge at a time
    g, est = _instance("sphere", 50, 1)
    got = solver.evaluate_objective(est, g)
    chord = 0.0
    for m in g.measurements:
        d = est[m.src].r.T @ est[m.dst].r - m.r_rel
        chord += float(np.sum(d * d))
    want = got.translation_only + chord
    assert chord > 1.0
    assert abs(got.chordal - want) <= 1e-13 * want


def test_objective_rows_have_no_negative_zero():
    # evaluate_objective adds each row to +0.0, which keeps a first -0.0
    # only if no row entry is -0.0: not at an exact graph's true poses,
    # where many residuals are zero, nor at a noisy state, on the whole
    # graph or on the blocks of 2 and 3 workers
    spec = synth.ScenarioSpec(topology="sphere", n=50)
    truth, exact = synth.generate_dataset(
        spec, synth.NoiseModel(tau=0.0, kappa=0.0, seed=3), seed=3)
    noisy, est = _instance("sphere", 50, 3)
    for g, state in ((exact, truth), (noisy, est)):
        s = solver.as_stack(state)
        rows = _control_pass_rows(s.r, s.t, g.edge_arrays)
        assert not np.signbit(rows).any()
        if g is exact:
            assert (rows == 0.0).any()
        for k in (2, 3):
            for b in _worker_blocks(g, k):
                got = _control_pass_rows(s.r[b.ids], s.t[b.ids], b)
                assert not np.signbit(got).any()


def test_objective_names_the_edge_at_pi():
    g, est = _graph_with_residual_at_pi()
    with pytest.raises(so3.AngleAtPiError, match=r"edge \(1, 2\)"):
        solver.evaluate_objective(est, g)


def _accumulated_node_sums(w, d, m, offsets):
    # the per-degree np.add.accumulate form of solver._node_sums: each
    # degree's nodes as (nodes, 2k+1, 3) term arrays, m negated, summed
    # from zero along the terms
    deg = np.diff(offsets)
    nu = np.zeros((len(deg), 3))
    omega = np.zeros((len(deg), 3))
    for k in np.flatnonzero(np.bincount(deg)[1:]) + 1:  # degrees in use
        nodes = np.flatnonzero(deg == k)
        rows = offsets[nodes, None] + np.arange(k)
        steps = np.zeros((len(nodes), 2 * k + 1, 3))
        steps[:, 1::2] = d[rows]
        steps[:, 2::2] = -m[rows]
        nu[nodes] = np.add.accumulate(steps, axis=1, out=steps)[:, -1]
        turns = np.zeros((len(nodes), k + 1, 3))
        turns[:, 1:] = w[rows]
        omega[nodes] = np.add.accumulate(turns, axis=1, out=turns)[:, -1]
    return nu, omega


def _edge_terms(rng, count):
    # w, d, m over `count` edges: normal values, +0.0 and -0.0 entries,
    # and rows where m repeats d or w's next row negates it, so that
    # sums cancel to a zero
    w, d, m = rng.normal(size=(3, count, 3))
    for x in (w, d, m):
        pick = rng.random(x.shape)
        x[pick < 0.15] = 0.0
        x[(pick >= 0.15) & (pick < 0.3)] = -0.0
    same = rng.random(count) < 0.2
    m[same] = d[same]
    flip = np.flatnonzero(rng.random(max(count - 1, 0)) < 0.2)
    w[flip + 1] = -w[flip]
    return w, d, m


def _assert_node_sums_equal_the_accumulate_form(rng, block):
    w, d, m = _edge_terms(rng, int(block.offsets[-1]))
    got = solver._node_sums(np.stack((d, -m, w), axis=1), block)
    want = _accumulated_node_sums(w, d, m, block.offsets)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


def test_node_sums_equal_the_accumulate_form():
    rng = np.random.default_rng(41)
    ring, _ = _instance("circle", 12, 3)
    assert set(np.diff(ring.edge_arrays.offsets)) == {2}
    # every block of a graph with irregular degrees
    g, _ = _instance("sphere", 40, 3)
    assert len(set(np.diff(g.edge_arrays.offsets))) > 2
    blocks = [build_graph(1, []).edge_arrays, ring.edge_arrays] + [
        g.edge_arrays.block(lo, min(lo + size, g.n))
        for size in range(1, g.n + 1) for lo in range(0, g.n, size)]
    # degree layouts with nodes of no edges, as bins alone
    for _ in range(100):
        deg = rng.integers(0, 16, size=int(rng.integers(1, 40)))
        src = np.repeat(np.arange(len(deg)), deg)
        blocks.append(SimpleNamespace(
            offsets=np.concatenate(([0], np.cumsum(deg))), size=len(deg),
            bins=graph._term_bins(src)))
    for block in blocks:
        _assert_node_sums_equal_the_accumulate_form(rng, block)


@pytest.mark.parametrize("workers", [None, 1, 2, 3],
                         ids=["reference", "k1", "k2", "k3"])
def test_plan_and_transposed_stack_are_built_once(monkeypatch, workers):
    # over building the graph and a 10-iteration solve: one bins array,
    # one run plan and one set of padded stacks per EdgeArrays (the
    # graph's, then each worker's block); a block makes its stacks from
    # its own rows, on its first kernel pass
    g0, est = _instance("sphere", 50, 11)
    built = {"bins": 0, "runs": 0, "padded": 0}

    def counted(name, real):
        def wrapper(*args):
            built[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(graph, "_term_bins", counted("bins", graph._term_bins))
    monkeypatch.setattr(graph, "_run_plan", counted("runs", graph._run_plan))
    monkeypatch.setattr(graph, "_padded_stacks",
                        counted("padded", graph._padded_stacks))
    blocks = []
    real_workers = runtime.block_workers

    def recorded(*args, **kw):
        out = real_workers(*args, **kw)
        blocks.extend(w.block for w in out)
        return out

    monkeypatch.setattr(runtime, "block_workers", recorded)
    g = build_graph(g0.n, g0.measurements)
    cfg = solver.SolverConfig(max_iters=10, stop_tol=1e-12)
    if workers is None:
        res = solver.solve(g, est, cfg)
    else:
        monkeypatch.setattr(runtime, "AGENTS", workers)
        res = runtime.run_distributed(g, est, cfg)
    assert res.iterations == 10
    assert len(blocks) == (workers or 0)
    assert built == {"bins": 1 + len(blocks), "runs": 1 + len(blocks),
                     "padded": 1 + len(blocks)}
    for e in (g.edge_arrays, *blocks):
        _assert_padded(e)
    # read, not made again
    assert built["padded"] == 1 + len(blocks)


def test_reconciled_graph_keeps_the_plans():
    # pairwise reconciliation changes the measured rotations only, so the
    # layout's bins, run plan and reverse index carry over
    _, g = synth.generate_dataset(synth.ScenarioSpec(topology="sphere", n=40),
                                  synth.NoiseModel(seed=1), seed=1)
    e = consistency.enforce_pairwise_rotations(g).edge_arrays
    assert e.bins is g.edge_arrays.bins and e.runs is g.edge_arrays.runs
    assert e.rev is g.edge_arrays.rev


def _kernel_rows(est, g):
    # the objective and, per translation mode, the controls and their
    # objective rows, as bytes
    s = graph.as_stack(est)
    out = [solver.evaluate_objective(est, g)]
    for mode in solver.TRANSLATION_MODES:
        rows = np.empty((3, g.directed_count))
        nu, omega = solver.node_controls(s.r, s.t, g.edge_arrays, mode, rows)
        out += [nu.tobytes(), omega.tobytes(), rows.tobytes()]
    return out


def test_replacing_the_rotations_leaves_no_stale_transposes():
    # after a kernel pass has read the reconciled graph, a replace of
    # r_rel must pass exactly as a fresh build of the same columns
    spec = synth.ScenarioSpec(topology="sphere", n=20)
    truth, raw = synth.generate_dataset(spec, synth.NoiseModel(seed=1), seed=1)
    g = consistency.enforce_pairwise_rotations(raw)
    est = synth.gps_init(truth, 0.5, 0.524, 1)
    e = g.edge_arrays
    before = _kernel_rows(est, g)
    swapped = replace(g, edge_arrays=replace(e, r_rel=raw.edge_arrays.r_rel))
    fresh = build_graph(g.n, MeasurementColumns(e.src, e.dst, e.t_rel,
                                                raw.edge_arrays.r_rel))
    got = _kernel_rows(est, swapped)
    assert got == _kernel_rows(est, fresh)
    assert got[0].chordal != before[0].chordal


def _assert_padded(e):
    # each run wider than graph.NARROW_RUN has a read-only stack of its
    # own nodes' t_rel rows, each node's rows then +0.0 up to the width
    runs = e.runs
    assert len(e.t_rel_pad) == len(runs.nbr)
    for lo, nbr, pad in zip(runs.bounds, runs.nbr, e.t_rel_pad):
        m, width = nbr.shape
        if width <= graph.NARROW_RUN:
            assert pad is None
            continue
        assert pad.shape == (m, width, 3) and pad.flags.c_contiguous
        assert not pad.flags.writeable
        for i in range(m):
            a, b = e.offsets[lo + i], e.offsets[lo + i + 1]
            assert pad[i, :b - a].tobytes() == e.t_rel[a:b].tobytes()
            assert pad[i, b - a:].tobytes() == np.zeros((width - b + a,
                                                         3)).tobytes()


def test_replacing_the_translations_leaves_no_stale_padded_stacks(block):
    # the padded stacks derive from t_rel: after a kernel pass has read
    # the graph's, a replace of t_rel must not keep them, and each block
    # makes its own from its own rows
    spec = synth.ScenarioSpec(topology="sphere", n=20)
    truth, g = synth.generate_dataset(spec, synth.NoiseModel(seed=1), seed=1)
    _, other = synth.generate_dataset(spec, synth.NoiseModel(seed=2), seed=1)
    est = synth.gps_init(truth, 0.5, 0.524, 1)
    e, t_rel = g.edge_arrays, other.edge_arrays.t_rel
    assert np.array_equal(other.edge_arrays.dst, e.dst)
    before = _kernel_rows(est, g)
    assert any(pad is not None for pad in e.t_rel_pad)
    swapped = replace(g, edge_arrays=replace(e, t_rel=t_rel))
    fresh = build_graph(g.n, MeasurementColumns(e.src, e.dst, t_rel, e.r_rel))
    got = _kernel_rows(est, swapped)
    assert got == _kernel_rows(est, fresh)
    assert got[0].translation_only != before[0].translation_only
    with pytest.raises(TypeError):
        replace(e, t_rel_pad=e.t_rel_pad)
    for k in (1, 2, 3):
        for b in [swapped.edge_arrays, *_worker_blocks(swapped, k)]:
            _assert_padded(b)


# -- irregular degrees -----------------------------------------------------


def _irregular(name):
    # A hub: pose 200 of 520 sees every other pose (degree 519), and the
    # rest form a path. A chain: a path of 400 poses that revisits
    # earlier poses every 37 steps, three of its closures landing on one
    # pose. A grid of 8 x 6 x 4 poses, degrees 3 to 6. A sphere of 40
    # poses joined to a ring of 30 (poses 40 to 69, degree 2), whose
    # chords give pose 50 degree 4 and poses 60 and 65 degree 3.
    rng = np.random.default_rng(len(name))
    if name == "grid":
        spec = synth.ScenarioSpec(topology="grid", grid_dims=(8, 6, 4))
        truth, topology = synth.generate_ground_truth(spec, seed=3)
    else:
        n = {"hub": 520, "chain": 400, "sphere+ring": 70}[name]
        path = [(i, i + 1) for i in range(n - 1)]
        if name == "hub":
            edges = path + [(min(i, 200), max(i, 200)) for i in range(n)
                            if abs(i - 200) > 1]
        elif name == "chain":
            edges = path + [(i - 150, i) for i in range(150, n, 37)]
            edges += [(10, j) for j in (90, 170, 250)]
        else:
            sphere = synth.generate_ground_truth(
                synth.ScenarioSpec(topology="sphere", n=40), seed=6)[1]
            edges = sphere.undirected_edges() + path[39:]
            edges += [(1, 69), (50, 60), (50, 65)]
        truth = graph.PoseStack(rng.normal(scale=5.0, size=(n, 3)),
                                so3.exp_map(rng.normal(size=(n, 3))))
        topology = build_graph(n, synth.exact_measurements(truth, edges))
    noise = synth.NoiseModel(tau=0.5, kappa=0.524, seed=5)
    g = consistency.enforce_pairwise_rotations(
        synth.corrupt_measurements(truth, topology, noise))
    return g, synth.gps_init(truth, 0.5, 0.524, seed=5)


@pytest.mark.parametrize("name", ["hub", "chain", "grid"])
@pytest.mark.parametrize("mode", ["per_step_averaged", "raw"])
def test_irregular_degrees_equal_the_loop_bitwise(name, mode, block):
    g, est = _irregular(name)
    deg = np.diff(g.edge_arrays.offsets)
    assert name != "hub" or deg.max() >= 500
    want = [_loop_node_controls(*_local(est, g, i), mode) for i in range(g.n)]
    want_nu = np.array([w[0] for w in want])
    want_omega = np.array([w[1] for w in want])
    nu, omega = solver.all_controls(est, g, mode)
    assert np.array_equal(nu, want_nu)
    assert np.array_equal(omega, want_omega)
    s = solver.as_stack(est)
    for k in (1, 2, 3):
        got = [solver.node_controls(s.r[b.ids], s.t[b.ids], b, mode)
               for b in _worker_blocks(g, k)]
        assert np.array_equal(np.concatenate([nu for nu, _ in got]), want_nu)
        assert np.array_equal(np.concatenate([om for _, om in got]),
                              want_omega)
    assert solver.evaluate_objective(est, g) == _loop_objective(est, g)


@pytest.mark.parametrize("bound", [7, 64])
def test_narrow_and_wide_runs_equal_the_loop_bitwise(monkeypatch, bound):
    # runs of width at most graph.NARROW_RUN make R_i t_ij per edge row
    # and wider ones per run; together, over the whole graph and over
    # the blocks of 2 and 3 workers, they give the loop's controls and
    # objective
    monkeypatch.setattr(graph, "EDGE_BLOCK", bound)
    g, est = _irregular("sphere+ring")
    widths = {nbr.shape[1] for nbr in g.edge_arrays.runs.nbr}
    assert min(widths) <= graph.NARROW_RUN < max(widths)
    assert {2, 3, 4} <= widths or bound != 7
    want_objective = _loop_objective(est, g)
    s = solver.as_stack(est)
    for mode in solver.TRANSLATION_MODES:
        want = [_loop_node_controls(*_local(est, g, i), mode)
                for i in range(g.n)]
        for k in (None, 2, 3):
            blocks = ([g.edge_arrays] if k is None
                      else _worker_blocks(g, k))
            rows = [np.empty((3, len(b.src))) for b in blocks]
            got = [solver.node_controls(s.r[b.ids], s.t[b.ids], b, mode, rw)
                   for b, rw in zip(blocks, rows)]
            for c in (0, 1):
                assert np.array_equal(np.concatenate([x[c] for x in got]),
                                      np.array([w[c] for w in want]))
            assert solver.evaluate_objective(
                None, g, np.concatenate(rows, axis=1)) == want_objective


def _assert_run_plan(offsets, dst, runs, bound):
    # runs cover the nodes in order, each whole; a run of more than one
    # node pads to at most `bound` slots, and the next node would pass
    # it; each slot reads the row of its edge's dst, or of its own node
    # where it pads
    deg = np.diff(offsets)
    bounds = runs.bounds.tolist()
    assert bounds[0] == 0 and bounds[-1] == len(deg)
    assert len(runs.nbr) == len(runs.real) == len(bounds) - 1
    for lo, hi, nbr, real in zip(bounds, bounds[1:], runs.nbr, runs.real):
        assert hi > lo
        width = int(deg[lo:hi].max())
        assert nbr.shape == (hi - lo, width)
        assert hi - lo == 1 or nbr.size <= bound
        if hi < len(deg):
            assert max(width, deg[hi]) * (hi + 1 - lo) > bound
        flat = nbr.ravel()
        slot = np.arange(nbr.size)
        mask = slot % width < np.repeat(deg[lo:hi], width)
        assert (real is None) == mask.all()
        assert np.array_equal(slot[mask], slot if real is None else real)
        assert np.array_equal(flat[mask], dst[offsets[lo]:offsets[hi]])
        assert np.array_equal(flat[~mask],
                              np.repeat(np.arange(lo, hi), width)[~mask])


def test_run_plans_hold_whole_nodes_within_the_bounds(monkeypatch):
    # a chain of low degree with a few loop-closure poses is one run
    chain = _irregular("chain")[0].edge_arrays
    assert len(chain.src) == 818 and np.diff(chain.offsets).max() == 5
    assert [nbr.size for nbr in chain.runs.nbr] == [2000]
    rng = np.random.default_rng(43)
    layouts = []
    for name in ("hub", "chain", "grid"):
        e = _irregular(name)[0].edge_arrays
        layouts += [(e.offsets, e.dst)]
        layouts += [(b.offsets, b.dst) for k in (2, 3)
                    for b in _worker_blocks(_irregular(name)[0], k)]
    for _ in range(60):
        deg = rng.integers(1, 40, size=int(rng.integers(1, 60)))
        deg[rng.random(len(deg)) < 0.05] = 300  # a few hubs
        offsets = np.concatenate(([0], np.cumsum(deg)))
        layouts.append((offsets, rng.integers(0, 500, size=offsets[-1])))
    for bound in (1, 7, 30, 1024, graph.EDGE_BLOCK):
        monkeypatch.setattr(graph, "EDGE_BLOCK", bound)
        for offsets, dst in layouts:
            _assert_run_plan(offsets, dst, graph._run_plan(offsets, dst),
                             bound)
    one = build_graph(1, []).edge_arrays.runs
    assert one.bounds.tolist() == [0, 1] and one.nbr[0].shape == (1, 0)


class _Recorded(np.ndarray):
    """Poses that record the operand shapes of every stacked product
    that reads them."""

    products: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        args = [np.asarray(x) for x in inputs]
        if ufunc is np.matmul:
            _Recorded.products.append(tuple(a.shape for a in args))
        out = kwargs.get("out")
        if out is not None:
            kwargs["out"] = tuple(np.asarray(x) for x in out)
        return getattr(ufunc, method)(*args, **kwargs)


@pytest.mark.parametrize("name", ["hub", "chain"])
@pytest.mark.parametrize("workers", [None, 2], ids=["graph", "k2"])
def test_one_batched_rotation_product_per_run(name, workers, block):
    # Every product of two rotation stacks that the pass makes from the
    # poses is a run's (m, 3W, 3) @ (m, 3, 3): none is made per edge.
    # The other products that read the poses are the matrix-vector
    # products R_i t_ij: one (m, 1, W, 3) @ (m, 3, 3, 1) for each run
    # wider than graph.NARROW_RUN, one (3, 3) @ (3, 1) per edge row of a
    # narrower run, and one per cut row. The hub's path nodes make runs
    # of width 3 and its hub a run of width 519; the chain's runs are 2
    # to 5 wide, or, at the largest bound, one run of width 5.
    g, est = _irregular(name)
    s = solver.as_stack(est)
    blocks = [g.edge_arrays] if workers is None else _worker_blocks(g, workers)
    widths = set()
    for b in blocks:
        _Recorded.products = []
        solver.node_controls(s.r[b.ids].view(_Recorded), s.t[b.ids], b,
                             "per_step_averaged")
        runs = b.runs
        want = [((nbr.shape[0], 3 * nbr.shape[1], 3), (nbr.shape[0], 3, 3))
                for nbr in runs.nbr]
        rotations = [p for p in _Recorded.products if p[1][-1] == 3]
        assert rotations == want
        vectors = [p for p in _Recorded.products if p[1][-1] == 1]
        want = []
        for lo, hi, nbr in zip(runs.bounds, runs.bounds[1:], runs.nbr):
            m, width = nbr.shape
            widths.add(width)
            rows = int(b.offsets[hi] - b.offsets[lo])
            want.append(((rows, 3, 3), (rows, 3, 1))
                        if width <= graph.NARROW_RUN
                        else ((m, 1, width, 3), (m, 3, 3, 1)))
        if len(b.cut):
            want.append(((len(b.cut), 3, 3), (len(b.cut), 3, 1)))
        assert vectors == want
        assert len(rotations) + len(vectors) == len(_Recorded.products)
    assert max(widths) > graph.NARROW_RUN
    assert name == "chain" or min(widths) <= graph.NARROW_RUN

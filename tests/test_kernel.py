"""The stacked edge kernel against the per-edge loops it replaced.

``_loop_node_controls`` and ``_loop_objective`` are the scalar loops the
solver used before its per-edge terms were stacked: one so3 call per
edge, summed in ascending neighbor order. The kernel keeps their
arithmetic, so every comparison here is bitwise (``==``), not a
tolerance.
"""

import numpy as np
import pytest

from geopgo import consistency, graph, runtime, so3, solver, synth
from geopgo.graph import Pose, RelativeMeasurement, build_graph, reversed_measurement


def _loop_node_controls(own, neighbors, neighbor_poses, r_out, t_out, t_in,
                        translation_mode):
    nu = np.zeros(3)
    omega = np.zeros(3)
    for j in neighbors:
        pj = neighbor_poses[j]
        rrel = own.r.T @ pj.r
        omega = omega + so3.log_map(rrel @ r_out[j].T)
        if translation_mode == "raw":
            nu = nu + (pj.t - own.t) - own.r @ t_out[j]
        elif translation_mode == "per_step_averaged":
            t_avg = consistency.averaged_translation(t_out[j], t_in[j], rrel)
            nu = nu + (pj.t - own.t) - own.r @ t_avg
        else:  # online_averaged
            nu = nu + (pj.t - own.t) + 0.5 * (pj.r @ t_in[j] - own.r @ t_out[j])
    return nu, omega


def _loop_objective(estimates, g):
    trans = rot = chord = 0.0
    for m in g.measurements:
        pi, pj = estimates[m.src], estimates[m.dst]
        rrel = pi.r.T @ pj.r
        w = so3.log_map(rrel @ m.r_rel.T)
        rot += float(w @ w)
        d = rrel - m.r_rel
        chord += float(np.sum(d * d))
        e = pj.t - pi.t - pi.r @ m.t_rel
        trans += float(e @ e)
    return solver.ObjectiveValue(geodesic=trans + rot, chordal=trans + chord,
                                 rotation_only=rot, translation_only=trans)


def _local(estimates, g, i):
    # one node's dicts, the form the scalar loop takes
    nbrs = g.neighbors(i)
    ms = [g.measurement(i, j) for j in nbrs]
    return (estimates[i], nbrs, {j: estimates[j] for j in nbrs},
            {j: m.r_rel for j, m in zip(nbrs, ms)},
            {j: m.t_rel for j, m in zip(nbrs, ms)},
            {j: g.measurement(j, i).t_rel for j in nbrs})


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


@pytest.fixture(params=[7, graph.EDGE_BLOCK], ids=["block7", "block1024"])
def block(request, monkeypatch):
    # a small block makes every graph here span several blocks
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
    # the pass of state 3 fails: below one edge block a pass makes one
    # _residual_logs call, and state k's pass is the (k + 1)-th
    g, est = _instance("sphere", 12, 7)
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
    # The kernel calls log_map once per block of edges, not once per
    # edge: two graphs below one block make the same number of calls.
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
        assert g.directed_count <= graph.EDGE_BLOCK
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
    # Below one edge block a pass makes one log_map call. The reference
    # solve makes one pass per state: the initial one and one per
    # iteration. Each distributed round makes one pass per worker, and
    # the run adds the initial pass and the final controls.
    real = so3.log_map
    calls = []

    def counted(r):
        calls.append(None)
        return real(r)

    g, est = _instance("sphere", 50, 11)
    assert g.directed_count <= graph.EDGE_BLOCK
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
    # the objective-only path before objective_rows: a full "raw"
    # control pass that fills the rows and discards the controls
    rows = np.empty((3, len(block.src)))
    solver.node_controls(r, t, block, "raw", rows)
    return rows


@pytest.mark.parametrize("inst", INSTANCES, ids=lambda x: f"{x[0]}{x[1] or ''}")
def test_objective_rows_equal_the_control_pass_rows(inst, block, monkeypatch):
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
    blocks = [e] + [e.block(lo, min(lo + 5, g.n)) for lo in range(0, g.n, 5)]
    want = [[_control_pass_rows(r[b.ids], t[b.ids], b) for b in blocks]
            for r, t in states]

    def no_node_sums(*args):
        raise AssertionError("objective_rows made the node sums")

    monkeypatch.setattr(solver, "_node_sums", no_node_sums)
    for (r, t), rows in zip(states, want):
        for b, w in zip(blocks, rows):
            got = solver.objective_rows(r[b.ids], t[b.ids], b)
            assert np.array_equal(got, w)
            assert np.array_equal(np.signbit(got), np.signbit(w))
        assert (solver.evaluate_objective(solver.PoseStack(t=t, r=r), g)
                == solver.evaluate_objective(None, g, rows[0]))


def test_objective_names_the_edge_at_pi():
    g, est = _graph_with_residual_at_pi()
    with pytest.raises(so3.AngleAtPiError, match=r"edge \(1, 2\)"):
        solver.evaluate_objective(est, g)


def _accumulated_node_sums(w, d, m, offsets):
    # the per-degree np.add.accumulate form of solver._node_sums that the
    # node-sum plan replaced: each degree's nodes as padded (nodes, 2k+1, 3)
    # term arrays, m negated, summed from zero along the terms
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


def _assert_node_sums_equal_the_accumulate_form(rng, offsets, plan):
    w, d, m = _edge_terms(rng, int(offsets[-1]))
    terms = np.zeros((len(w) + 1, 3, 3))
    terms[:-1, 0], terms[:-1, 1], terms[:-1, 2] = d, -m, w
    got = solver._node_sums(terms, plan)
    want = _accumulated_node_sums(w, d, m, offsets)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


def test_node_sum_plan_equals_the_accumulate_form(monkeypatch):
    rng = np.random.default_rng(41)
    ring, _ = _instance("circle", 12, 3)
    assert set(np.diff(ring.edge_arrays.offsets)) == {2}
    # every block of a graph with irregular degrees
    g, _ = _instance("sphere", 40, 3)
    assert len(set(np.diff(g.edge_arrays.offsets))) > 2
    arrays = [build_graph(1, []).edge_arrays, ring.edge_arrays] + [
        g.edge_arrays.block(lo, min(lo + size, g.n))
        for size in range(1, g.n + 1) for lo in range(0, g.n, size)]
    layouts = [(e.offsets, e.plan) for e in arrays]
    for _ in range(100):
        deg = rng.integers(0, 16, size=int(rng.integers(1, 40)))
        offsets = np.concatenate(([0], np.cumsum(deg)))
        layouts.append((offsets, graph._node_sum_plan(offsets)))
    # plans cut into chunks of one node each, or of a few nodes; a chunk
    # of more than one node pads to at most EDGE_BLOCK slots
    for bound in (1, 7, 30):
        monkeypatch.setattr(graph, "EDGE_BLOCK", bound)
        for offsets, _ in layouts[:40]:
            plan = graph._node_sum_plan(offsets)
            nodes = [rows.shape[1] for rows in plan.omega]
            assert sum(nodes) == len(offsets) - 1
            for nu_rows, omega_rows in zip(plan.nu, plan.omega):
                width, count = omega_rows.shape
                assert nu_rows.shape == (2 * width, count)
                assert omega_rows.shape[1] == 1 or omega_rows.size <= bound
            layouts.append((offsets, plan))
    for offsets, plan in layouts:
        _assert_node_sums_equal_the_accumulate_form(rng, offsets, plan)


@pytest.mark.parametrize("workers", [None, 1, 2, 3],
                         ids=["reference", "k1", "k2", "k3"])
def test_plan_and_transposed_stack_are_built_once(monkeypatch, workers):
    # over building the graph and a 10-iteration solve: one plan per
    # EdgeArrays (the graph's, then each worker's block), and one
    # transposed stack, the graph's, of which each block holds a view
    g0, est = _instance("sphere", 50, 11)
    built = {"plan": 0, "transposed": 0}

    def counted(name, real):
        def wrapper(*args):
            built[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(graph, "_node_sum_plan",
                        counted("plan", graph._node_sum_plan))
    monkeypatch.setattr(graph, "_transposed_stack",
                        counted("transposed", graph._transposed_stack))
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
    assert built == {"plan": 1 + len(blocks), "transposed": 1}
    whole = g.edge_arrays.r_rel_t
    assert whole.flags.c_contiguous and not whole.flags.writeable
    assert np.array_equal(whole, np.swapaxes(g.edge_arrays.r_rel, -1, -2))
    for b in blocks:
        assert np.shares_memory(b.r_rel_t, whole)
        assert not b.r_rel_t.flags.writeable
        assert np.array_equal(b.r_rel_t, np.swapaxes(b.r_rel, -1, -2))

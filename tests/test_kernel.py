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

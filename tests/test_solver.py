"""Reference solver: controls, integration, descent, stopping, gauge."""

import numpy as np
import pytest

from geopgo import consistency, runtime, so3, solver, synth
from geopgo.graph import (
    Pose,
    PoseStack,
    RelativeMeasurement,
    build_graph,
    compose,
    inverse,
    laplacian,
    reversed_measurement,
)


def _rz(theta):
    return so3.exp_map(np.array([0.0, 0.0, theta]))


def _pair(i, j, t, r):
    fwd = RelativeMeasurement(src=i, dst=j,
                              t_rel=np.asarray(t, dtype=float), r_rel=r)
    return [fwd, reversed_measurement(fwd)]


def _consistent_instance(topology="sphere", n=16, seed=0):
    if topology == "grid":
        spec = synth.ScenarioSpec(topology="grid", grid_dims=(2, 2, 2))
    else:
        spec = synth.ScenarioSpec(topology=topology, n=n)
    return synth.generate_dataset(spec, None, seed=seed)


def _enforced_noisy(n=16, seed=0, kappa=0.524, tau=0.5):
    spec = synth.ScenarioSpec(topology="sphere", n=n)
    noise = synth.NoiseModel(tau=tau, kappa=kappa, seed=seed)
    truth, g = synth.generate_dataset(spec, noise, seed=seed)
    return truth, consistency.enforce_pairwise_rotations(g)


def _perturbed(truth, seed, t_scale=0.2, r_scale=0.2):
    rng = np.random.default_rng(seed)
    return [Pose(p.t + t_scale * rng.normal(size=3),
                 p.r @ so3.exp_map(r_scale * rng.normal(size=3)))
            for p in truth]


def _omega(i, est, g):
    return solver.all_controls(est, g, "raw")[1][i]


def _nu(i, est, g, mode):
    return solver.all_controls(est, g, mode)[0][i]


def test_rotation_control_zero_at_truth():
    truth, g = _consistent_instance()
    for i in range(g.n):
        assert np.linalg.norm(_omega(i, truth, g)) < 1e-12


def test_rotation_control_single_neighbor():
    ms = _pair(0, 1, [0.0, 0.0, 0.0], _rz(-0.3))
    g = build_graph(2, ms)
    est = [Pose.identity(), Pose.identity()]
    # residual log(I . I . Rz(-0.3)^T) = (0, 0, 0.3)
    assert np.allclose(_omega(0, est, g), [0.0, 0.0, 0.3],
                       atol=1e-12)


def test_rotation_control_opposing_neighbors_cancel():
    ms = _pair(0, 1, [0.0, 0.0, 0.0], _rz(0.3)) + \
         _pair(0, 2, [0.0, 0.0, 0.0], _rz(-0.3)) + \
         _pair(1, 2, [0.0, 0.0, 0.0], np.eye(3))
    g = build_graph(3, ms)
    est = [Pose.identity()] * 3
    assert np.linalg.norm(_omega(0, est, g)) < 1e-12


def test_translation_control_zero_at_truth():
    truth, g = _consistent_instance()
    for mode in solver.TRANSLATION_MODES:
        for i in range(g.n):
            assert np.linalg.norm(
                _nu(i, truth, g, mode)) < 1e-10


def test_translation_control_plain_consensus():
    ms = _pair(0, 1, [0.0, 0.0, 0.0], np.eye(3))
    g = build_graph(2, ms)
    est = [Pose(t=np.array([1.0, 0.0, 0.0]), r=np.eye(3)), Pose.identity()]
    for mode in solver.TRANSLATION_MODES:
        assert np.allclose(_nu(0, est, g, mode),
                           [-1.0, 0.0, 0.0])


def test_translation_modes_agree_when_consistent_and_aligned():
    # per_step averaging is exact when the estimate-relative rotation
    # equals the measured one; set estimates to the ground truth so
    # R_i^T R_j = measured relative rotation on every edge
    truth, g = _consistent_instance(seed=3)
    est = [Pose(t=p.t + 0.5 * np.sin(i * np.ones(3)), r=p.r)
           for i, p in enumerate(truth)]
    for i in range(g.n):
        raw = _nu(i, est, g, "raw")
        per_step = _nu(i, est, g, "per_step_averaged")
        online = _nu(i, est, g, "online_averaged")
        assert np.linalg.norm(raw - per_step) < 1e-10
        assert np.linalg.norm(raw - online) < 1e-10


def test_online_mode_matches_consistency_helper(averaged_translation):
    # folding the averaging into the sum equals averaging each edge with
    # the current rotations first, then the plain consensus feedback
    truth, g = _enforced_noisy(seed=9)
    est = _perturbed(truth, 91)
    online, _ = solver.all_controls(est, g, "online_averaged")
    for i in range(g.n):
        want = np.zeros(3)
        for j in g.neighbors(i):
            t_avg = averaged_translation(
                g.measurements[g.edge_index(i, j)].t_rel,
                g.measurements[g.edge_index(j, i)].t_rel,
                est[i].r.T @ est[j].r)
            want = want + (est[j].t - est[i].t) - est[i].r @ t_avg
        assert np.linalg.norm(online[i] - want) < 1e-12


def test_step_fixed_point():
    truth, g = _consistent_instance()
    state = solver.SolverState(estimates=list(truth))
    cfg = solver.SolverConfig()
    nxt = solver.step(state, g, cfg)
    for p0, p1 in zip(truth, nxt.estimates):
        assert np.allclose(p0.t, p1.t, atol=1e-12)
        assert np.allclose(p0.r, p1.r, atol=1e-12)


def test_step_two_node_contraction():
    # zero measurements: pure consensus; gap contracts by (1 - 2 dt) each step
    ms = _pair(0, 1, [0.0, 0.0, 0.0], np.eye(3))
    g = build_graph(2, ms)
    est = [Pose(t=np.array([1.0, 0.0, 0.0]), r=np.eye(3)), Pose.identity()]
    cfg = solver.SolverConfig(dt=0.05)
    state = solver.SolverState(estimates=est)
    for k in range(1, 30):
        state = solver.step(state, g, cfg)
        gap = state.estimates[0].t[0] - state.estimates[1].t[0]
        assert abs(gap - (1.0 - 2 * cfg.dt) ** k) < 1e-12
    mid = 0.5 * (state.estimates[0].t + state.estimates[1].t)
    assert np.allclose(mid, [0.5, 0.0, 0.0], atol=1e-12)


def test_step_is_jacobi_not_gauss_seidel():
    # both nodes must move using the other's PREVIOUS position
    ms = _pair(0, 1, [0.0, 0.0, 0.0], np.eye(3))
    g = build_graph(2, ms)
    est = [Pose(t=np.array([1.0, 0.0, 0.0]), r=np.eye(3)), Pose.identity()]
    state = solver.SolverState(estimates=est)
    nxt = solver.step(state, g, solver.SolverConfig(dt=0.1))
    assert np.allclose(nxt.estimates[0].t, [0.9, 0.0, 0.0])
    assert np.allclose(nxt.estimates[1].t, [0.1, 0.0, 0.0])


def test_geodesic_descends_every_step():
    truth, g = _consistent_instance(seed=4)
    init = _perturbed(truth, 44)
    res = solver.solve(g, init, solver.SolverConfig(stop_tol=1e-10))
    geos = [o.geodesic for o in res.objective_history]
    assert len(geos) >= 3
    for a, b in zip(geos, geos[1:]):
        assert b <= a + 1e-9


def test_solve_converges_at_truth_without_stepping():
    # exactly representable truth (identity rotations, integer offsets)
    # gives exactly zero controls, the iter-0 short-circuit case
    truth = [Pose(t=np.array([float(i), 0.0, 0.0]), r=np.eye(3))
             for i in range(3)]
    ms = _pair(0, 1, [1.0, 0.0, 0.0], np.eye(3)) + \
         _pair(1, 2, [1.0, 0.0, 0.0], np.eye(3))
    g = build_graph(3, ms)
    res = solver.solve(g, truth)
    assert res.iterations == 0
    assert res.converged
    assert res.objective_history[0].geodesic == 0.0


def test_solve_at_random_truth_converges_immediately():
    # float crumbs keep the controls from being exactly zero, so one
    # step runs; the objective must stay at rounding level throughout
    truth, g = _consistent_instance()
    res = solver.solve(g, truth)
    assert res.converged
    assert res.iterations <= 1
    assert res.objective_history[-1].geodesic < 1e-18


def test_solve_recovers_truth_up_to_gauge():
    truth, g = _consistent_instance(topology="grid")
    init = _perturbed(truth, 7, t_scale=0.3, r_scale=0.15)
    res = solver.solve(g, init, solver.SolverConfig(stop_tol=1e-13,
                                                    max_iters=5000))
    assert res.converged
    aligned = solver.align_gauge(res.estimates, truth)
    dt_err, dr_err = solver.pose_errors(aligned, truth)
    assert dt_err < 1e-6
    assert dr_err < 1e-6


def test_solve_history_length_matches_iterations():
    truth, g = _consistent_instance(seed=5)
    init = _perturbed(truth, 55)
    res = solver.solve(g, init, solver.SolverConfig(stop_tol=1e-6))
    assert len(res.objective_history) == res.iterations + 1
    assert len(res.control_norm_history) == res.iterations + 1


def test_solve_max_iters_not_an_error():
    truth, g = _enforced_noisy(seed=2)
    init = synth.gps_init(truth, 0.5, 0.524, seed=2)
    res = solver.solve(g, init, solver.SolverConfig(max_iters=3))
    assert not res.converged
    assert res.iterations == 3


def test_evaluate_objective_zero_at_truth():
    truth, g = _consistent_instance()
    obj = solver.evaluate_objective(truth, g)
    assert obj.geodesic < 1e-18
    assert obj.chordal < 1e-18
    assert obj.rotation_only < 1e-18
    assert obj.translation_only < 1e-18


def test_evaluate_objective_closed_forms():
    theta = 0.4
    est = [Pose(t=np.zeros(3), r=np.eye(3)),
           Pose(t=np.array([1.0, 0.0, 0.0]), r=_rz(theta))]
    # translations measured exactly in each node's own frame, rotation
    # measurements left at identity so each direction has residual theta
    t01 = est[0].r.T @ (est[1].t - est[0].t)
    t10 = est[1].r.T @ (est[0].t - est[1].t)
    ms = [RelativeMeasurement(src=0, dst=1, t_rel=t01, r_rel=np.eye(3)),
          RelativeMeasurement(src=1, dst=0, t_rel=t10, r_rel=np.eye(3))]
    g = build_graph(2, ms)
    obj = solver.evaluate_objective(est, g)
    assert obj.translation_only < 1e-25
    assert abs(obj.rotation_only - 2 * theta ** 2) < 1e-12
    chord = 8 * np.sin(theta / 2) ** 2
    assert abs((obj.chordal - obj.translation_only) - 2 * chord) < 1e-12
    assert abs(obj.geodesic - obj.rotation_only) < 1e-12


def test_objective_ratio_approaches_one_when_rotation_subdominant():
    # both objectives share the translation term; the rotation terms
    # differ by a factor near 2 at small angle, so the ratio tends to 1
    # only along paths where rotation residuals shrink faster
    truth, g = _consistent_instance(seed=6)
    rng = np.random.default_rng(66)
    ratios = []
    for s in (0.3, 0.1, 0.03, 0.01):
        est = [Pose(p.t + s * rng.normal(size=3),
                    p.r @ so3.exp_map(s ** 2 * rng.normal(size=3)))
               for p in truth]
        obj = solver.evaluate_objective(est, g)
        assert obj.chordal >= 0.0
        ratios.append(obj.chordal / obj.geodesic)
    assert abs(ratios[-1] - 1.0) < 0.01
    assert abs(ratios[-1] - 1.0) <= abs(ratios[0] - 1.0)


def test_lyapunov_is_half_rotation_term():
    truth, g = _enforced_noisy(seed=8)
    est = _perturbed(truth, 88)
    obj = solver.evaluate_objective(est, g)
    v = solver.evaluate_lyapunov(est, g)
    assert abs(v - 0.5 * obj.rotation_only) < 1e-12
    clean_truth, clean_g = _consistent_instance()
    assert solver.evaluate_lyapunov(clean_truth, clean_g) < 1e-18


def test_lyapunov_rate_identity_small_instance():
    truth, g = _enforced_noisy(n=10, seed=14)
    est = _perturbed(truth, 140, t_scale=0.1, r_scale=0.1)
    h = 1e-5

    def v_along_flow(tau):
        _, omega = solver.all_controls(est, g, "per_step_averaged")
        moved = [Pose(p.t, p.r @ so3.exp_map(tau * w))
                 for p, w in zip(est, omega)]
        return solver.evaluate_lyapunov(moved, g)

    _, omega = solver.all_controls(est, g, "per_step_averaged")
    fd = (v_along_flow(h) - v_along_flow(-h)) / (2 * h)
    analytic = -2.0 * float(np.sum(omega * omega))
    assert abs(fd - analytic) < 1e-4 * abs(analytic)


def test_in_basin():
    truth, g = _consistent_instance()
    assert solver.in_basin(truth, g, epsilon=0.01)
    # push one estimate to put a residual exactly at pi/2
    ms = _pair(0, 1, [0.0, 0.0, 0.0], np.eye(3))
    g2 = build_graph(2, ms)
    est = [Pose.identity(), Pose(t=np.zeros(3), r=_rz(np.pi / 2))]
    assert not solver.in_basin(est, g2, epsilon=0.01)


def _max_control(estimates, g):
    return solver.max_control_norm(
        *solver.all_controls(estimates, g, "per_step_averaged"))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_max_control_norm_shows_a_non_finite_control_in_either_family(bad):
    # Python's max kept its first argument against a NaN, which hid a NaN
    # rotation control behind a finite translation one
    finite = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    odd = np.array([[0.0, 0.5, 0.0], [bad, 0.0, 0.0]])
    want = np.abs(bad)  # NaN or +inf
    for nu, omega in ((finite, odd), (odd, finite), (odd, odd)):
        got = solver.max_control_norm(nu, omega)
        assert type(got) is float
        assert got == want or (np.isnan(got) and np.isnan(want))


def test_is_equilibrium():
    truth, g = _consistent_instance()
    assert _max_control(truth, g) <= 1e-9
    noisy_truth, noisy_g = _enforced_noisy(seed=11)
    assert not _max_control(noisy_truth, noisy_g) <= 1e-3
    init = synth.gps_init(noisy_truth, 0.5, 0.524, seed=11)
    # stop_tol 1e-4 drives the residual controls below the 1e-3 gate
    res = solver.solve(noisy_g, init, solver.SolverConfig(stop_tol=1e-4))
    assert res.converged
    assert _max_control(res.estimates, noisy_g) <= 1e-3


def test_align_gauge():
    truth, g = _consistent_instance(seed=12)
    # apply one rigid transform to every pose; alignment must undo it
    rig = Pose(t=np.array([3.0, -1.0, 2.0]), r=so3.random_rotation(121))
    moved = [compose(rig, p) for p in truth]
    back = solver.align_gauge(moved, truth)
    for a, b in zip(back, truth):
        assert np.allclose(a.t, b.t, atol=1e-9)
        assert np.allclose(a.r, b.r, atol=1e-9)
    # already anchored input comes back unchanged
    same = solver.align_gauge(truth, truth)
    for a, b in zip(same, truth):
        assert np.allclose(a.t, b.t, atol=1e-12)


def _loop_align_gauge(estimates, reference, anchor=0):
    # the per-pose form: one composed transform, then one Pose per pose
    t = compose(reference[anchor], inverse(estimates[anchor]))
    return [compose(t, p) for p in estimates]


def _loop_pose_errors(estimates, reference):
    et = max(float(np.linalg.norm(e.t - r.t))
             for e, r in zip(estimates, reference))
    er = max(so3.rotation_angle(e.r.T @ r.r)
             for e, r in zip(estimates, reference))
    return et, er


@pytest.mark.parametrize("spec", [
    synth.ScenarioSpec(topology="sphere", n=60),
    synth.ScenarioSpec(topology="circle", n=200, radius=30.0),
    synth.ScenarioSpec(topology="random", n=25),
], ids=["sphere-60", "circle-200", "random-25"])
@pytest.mark.parametrize("anchor", [0, 1, -1])
def test_gauge_tools_equal_the_per_pose_loops_bitwise(spec, anchor):
    truth, _ = synth.generate_ground_truth(spec, seed=spec.n)
    est = synth.gps_init(truth, 0.5, 0.524, seed=3)
    anchor %= spec.n
    aligned = solver.align_gauge(est, truth, anchor)
    oracle = _loop_align_gauge(est, truth, anchor)
    assert isinstance(aligned, PoseStack)
    assert np.array_equal(aligned.t, [p.t for p in oracle])
    assert np.array_equal(aligned.r, [p.r for p in oracle])
    # a Pose list goes in as a stack does
    listed = solver.align_gauge(list(est), list(truth), anchor)
    assert np.array_equal(listed.t, aligned.t)
    assert np.array_equal(listed.r, aligned.r)
    errors = solver.pose_errors(aligned, truth)
    assert errors == _loop_pose_errors(oracle, truth)
    assert all(type(e) is float for e in errors)


def test_objective_gauge_invariance():
    truth, g = _enforced_noisy(seed=13)
    est = _perturbed(truth, 130)
    before = solver.evaluate_objective(est, g)
    rig = Pose(t=np.array([-5.0, 2.0, 7.0]), r=so3.random_rotation(131))
    after = solver.evaluate_objective([compose(rig, p) for p in est], g)
    assert abs(before.geodesic - after.geodesic) < 1e-9
    assert abs(before.chordal - after.chordal) < 1e-9


@pytest.mark.parametrize("run", [solver.solve, runtime.run_distributed],
                         ids=["reference", "distributed"])
def test_step_size_guards(run):
    # path graph, max degree 2
    ms = _pair(0, 1, [0.0, 0.0, 0.0], np.eye(3)) + \
         _pair(1, 2, [0.0, 0.0, 0.0], np.eye(3))
    g = build_graph(3, ms)
    est = [Pose.identity()] * 3
    with pytest.raises(solver.StepSizeUnstableError):
        run(g, est, solver.SolverConfig(dt=1.0))
    with pytest.warns(solver.StepSizeUnstableWarning):
        run(g, est, solver.SolverConfig(dt=0.5))


def test_stacked_translation_oracle_small():
    # raw-mode translation step is the matrix iteration
    # t <- t - dt (L (x) I3) t - dt delta
    truth, g = _consistent_instance(topology="circle", n=8, seed=15)
    est = _perturbed(truth, 150)
    dt = 0.05
    nu, _ = solver.all_controls(est, g, "raw")
    stepped = np.array([p.t + dt * v for p, v in zip(est, nu)])
    t = np.concatenate([p.t for p in est])
    delta = solver.desired_offsets(est, g).reshape(-1)
    ell = np.kron(laplacian(g), np.eye(3))
    want = t - dt * (ell @ t) - dt * delta
    assert np.max(np.abs(stepped.reshape(-1) - want)) < 1e-12


def test_desired_offsets_equal_the_per_node_loop():
    # the per-node dict-lookup loop the stacked form replaced
    for topology, n, seed in (("sphere", 40, 16), ("circle", 9, 17),
                              ("grid", None, 18)):
        truth, g = _consistent_instance(topology, n, seed)
        est = _perturbed(truth, seed, r_scale=1.0)
        want = np.zeros((g.n, 3))
        for i in range(g.n):
            for j in g.neighbors(i):
                want[i] += est[i].r @ g.measurements[g.edge_index(i, j)].t_rel
        got = solver.desired_offsets(est, g)
        assert got.shape == (g.n, 3)
        assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("run", [solver.solve, runtime.run_distributed],
                         ids=["reference", "distributed"])
def test_hot_loop_builds_no_poses(monkeypatch, run):
    # the state, the result and its trajectory stay stacked: no Pose is
    # built, not even for the result
    truth, g = _enforced_noisy(n=30, seed=19)
    init = _perturbed(truth, 190)
    built = []
    real = Pose.__post_init__

    def counted(self):
        built.append(None)
        real(self)

    monkeypatch.setattr(Pose, "__post_init__", counted)
    res = run(g, init, solver.SolverConfig(max_iters=8, stop_tol=1e-12,
                                           record_trajectory=True))
    assert res.iterations == 8
    assert built == []


def test_zero_measurement_consensus_two_nodes():
    ms = _pair(0, 1, [0.0, 0.0, 0.0], np.eye(3))
    g = build_graph(2, ms)
    init = [Pose(t=np.array([2.0, 0.0, -4.0]), r=np.eye(3)),
            Pose(t=np.array([0.0, 6.0, 2.0]), r=np.eye(3))]
    avg = 0.5 * (init[0].t + init[1].t)
    res = solver.solve(g, init, solver.SolverConfig(stop_tol=1e-14,
                                                    max_iters=2000))
    for p in res.estimates:
        assert np.linalg.norm(p.t - avg) < 1e-6
        assert np.array_equal(p.r, np.eye(3))


def test_config_validation():
    with pytest.raises(ValueError):
        solver.SolverConfig(dt=0.0)
    with pytest.raises(ValueError):
        solver.SolverConfig(stop_tol=-1.0)
    with pytest.raises(ValueError):
        solver.SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        solver.SolverConfig(translation_mode="bogus")


def test_solve_wrong_init_length():
    _, g = _consistent_instance()
    with pytest.raises(ValueError):
        solver.solve(g, [Pose.identity()])

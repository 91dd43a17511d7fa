"""Dataset generation: topologies, noise model, initializations."""

import json

import numpy as np
import pytest

from geopgo import consistency, io as gio, so3, solver, synth
from geopgo.graph import DisconnectedGraphError  # noqa: F401  (api surface)
from geopgo.graph import Pose


def test_scenario_spec_validation():
    with pytest.raises(ValueError):
        synth.ScenarioSpec(topology="torus", n=5)
    with pytest.raises(ValueError):
        synth.ScenarioSpec(topology="circle", n=1)
    with pytest.raises(ValueError):
        synth.ScenarioSpec(topology="sphere", n=10, radius=-1.0)
    with pytest.raises(ValueError):
        synth.ScenarioSpec(topology="grid")  # needs grid_dims
    spec = synth.ScenarioSpec(topology="grid", grid_dims=(3, 3, 3))
    assert spec.n == 27


def test_noise_model_validation_and_round_trip():
    with pytest.raises(ValueError):
        synth.NoiseModel(tau=-0.1)
    nm = synth.NoiseModel(tau=0.5, kappa=0.524, seed=9)
    assert synth.NoiseModel.from_dict(nm.to_dict()) == nm
    spec = synth.ScenarioSpec(topology="circle", n=6, circle_neighbors=2)
    assert synth.ScenarioSpec.from_dict(spec.to_dict()) == spec


def test_determinism_byte_for_byte(tmp_path):
    spec = synth.ScenarioSpec(topology="sphere", n=30)
    noise = synth.NoiseModel(tau=0.5, kappa=0.524, seed=3)
    paths = []
    for k in range(2):
        poses, g = synth.generate_dataset(spec, noise, seed=3)
        ds = gio.Dataset(graph=g, vertices=poses, vertex_kind="ground_truth",
                         scenario=spec, noise=noise, seed=3)
        p = tmp_path / f"ds{k}.json"
        gio.save_dataset(p, ds)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_seeds_change_output():
    # sphere positions are a fixed layout; the seed shows in the rotations
    spec = synth.ScenarioSpec(topology="sphere", n=12)
    a, _ = synth.generate_ground_truth(spec, seed=1)
    b, _ = synth.generate_ground_truth(spec, seed=2)
    assert np.allclose(a[0].t, b[0].t)
    assert not np.allclose(a[0].r, b[0].r)


def test_circle_ring_n4():
    spec = synth.ScenarioSpec(topology="circle", n=4, radius=1.0)
    poses, g = synth.generate_ground_truth(spec, seed=0)
    for p in poses:
        assert abs(np.linalg.norm(p.t[:2]) - 1.0) < 1e-12
        assert p.t[2] == 0.0
    assert set(g.undirected_edges()) == {(0, 1), (1, 2), (2, 3), (0, 3)}


def test_grid_27_counts():
    spec = synth.ScenarioSpec(topology="grid", grid_dims=(3, 3, 3))
    poses, g = synth.generate_ground_truth(spec, seed=0)
    assert len(poses) == 27
    assert g.n == 27
    assert g.directed_count == 108


def test_grid_lattice_adjacency():
    spec = synth.ScenarioSpec(topology="grid", grid_dims=(2, 3, 2),
                              grid_spacing=1.5)
    poses, g = synth.generate_ground_truth(spec, seed=1)
    for u, v in g.undirected_edges():
        d = np.linalg.norm(poses[u].t - poses[v].t)
        assert abs(d - 1.5) < 1e-12  # lattice edges join nearest sites only


def test_circle_25_acceptance_count():
    spec = synth.ScenarioSpec(topology="circle", n=25, circle_neighbors=6)
    _, g = synth.generate_ground_truth(spec, seed=0)
    assert g.directed_count == 300


def test_sphere_50_acceptance_count():
    spec = synth.ScenarioSpec(topology="sphere", n=50)
    poses, g = synth.generate_ground_truth(spec, seed=0)
    assert g.directed_count == 544
    radius = spec.radius
    for p in poses:
        assert abs(np.linalg.norm(p.t) - radius) < 1e-9


def test_sphere_explicit_target():
    spec = synth.ScenarioSpec(topology="sphere", n=20,
                              sphere_target_undirected=40)
    _, g = synth.generate_ground_truth(spec, seed=0)
    assert g.directed_count == 80


def test_random_topology_connected_many_seeds():
    spec = synth.ScenarioSpec(topology="random", n=15, comm_radius=2.0)
    for seed in range(20):
        poses, g = synth.generate_ground_truth(spec, seed=seed)
        assert g.n == 15  # build_graph raised if disconnected
        # every pair within comm radius must share an edge
        for i in range(g.n):
            for j in range(i + 1, g.n):
                d = np.linalg.norm(poses[i].t - poses[j].t)
                if d <= spec.comm_radius:
                    assert g.has_edge(i, j)


def test_random_topology_generation_failure():
    # a degenerate ball leaves no room to place distinct vertices
    spec = synth.ScenarioSpec(topology="random", n=3, comm_radius=1e-12)
    with pytest.raises(synth.GenerationFailedError):
        synth.generate_ground_truth(spec, seed=0)


def test_zero_noise_measurements_consistent():
    spec = synth.ScenarioSpec(topology="grid", grid_dims=(2, 2, 2))
    _, g = synth.generate_dataset(spec, synth.NoiseModel(tau=0.0, kappa=0.0),
                                  seed=4)
    rep = consistency.full_report(g)
    assert rep.pairwise_rot_max_defect < 1e-9
    assert rep.pairwise_trans_max_defect < 1e-9
    assert rep.minimal_rot_defect < 1e-9
    assert rep.global_max_cycle_rot_defect < 1e-9


def test_noise_breaks_pairwise_with_probability_one():
    spec = synth.ScenarioSpec(topology="circle", n=10, circle_neighbors=2)
    _, g = synth.generate_dataset(spec, synth.NoiseModel(kappa=0.524, seed=5),
                                  seed=5)
    for u, v in g.undirected_edges():
        prod = g.measurement(u, v).r_rel @ g.measurement(v, u).r_rel
        assert so3.rotation_angle(prod) > 1e-6


def test_rotation_noise_scale():
    # mean residual angle of corrupted vs exact relative rotation matches
    # E||v|| for v ~ N(0, kappa^2 I3): kappa * 2 sqrt(2/pi) = 0.8362 at
    # kappa = 0.524 (2e6-sample Monte-Carlo oracle agrees to 3 decimals)
    kappa = 0.524
    angles = []
    for seed in range(4):
        spec = synth.ScenarioSpec(topology="sphere", n=50)
        truth, g = synth.generate_dataset(
            spec, synth.NoiseModel(tau=0.0, kappa=kappa, seed=seed), seed=seed)
        for m in g.measurements:
            exact = truth[m.src].r.T @ truth[m.dst].r
            angles.append(so3.geodesic_distance(exact, m.r_rel))
    mean = float(np.mean(angles))
    assert abs(mean - 0.8362) / 0.8362 < 0.05


def test_translation_noise_scale():
    tau = 0.5
    errs = []
    for seed in range(4):
        spec = synth.ScenarioSpec(topology="sphere", n=50)
        truth, g = synth.generate_dataset(
            spec, synth.NoiseModel(tau=tau, kappa=0.0, seed=seed), seed=seed)
        for m in g.measurements:
            exact = truth[m.src].r.T @ (truth[m.dst].t - truth[m.src].t)
            errs.append(np.linalg.norm(m.t_rel - exact))
    mean = float(np.mean(errs))
    assert abs(mean - tau * 2.0 * np.sqrt(2.0 / np.pi)) / mean < 0.05


def test_gps_init_zero_noise_exact():
    spec = synth.ScenarioSpec(topology="circle", n=8, circle_neighbors=2)
    truth, _ = synth.generate_ground_truth(spec, seed=6)
    init = synth.gps_init(truth, 0.0, 0.0, seed=6)
    for a, b in zip(init, truth):
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.r, b.r)


def _loop_gps_init(poses, tau, kappa, seed):
    # the per-pose form: per vertex, translation normals, then rotation
    rng = np.random.default_rng(seed)
    out = []
    for p in poses:
        t = p.t + tau * rng.standard_normal(3)
        r = p.r @ so3.exp_map(kappa * rng.standard_normal(3))
        out.append(Pose(t, r))
    return out


@pytest.mark.parametrize("n", [50, 800])
def test_gps_init_equals_the_per_pose_loop_bitwise(n):
    spec = synth.ScenarioSpec(topology="sphere", n=n)
    truth, _ = synth.generate_ground_truth(spec, seed=7000)
    init = synth.gps_init(truth, 0.5, 0.524, seed=7000)
    oracle = _loop_gps_init(truth, 0.5, 0.524, seed=7000)
    assert len(init) == len(oracle) == n
    for a, b in zip(init, oracle):
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.r, b.r)


def test_gps_init_experiment_scale_noise():
    # per-pose rotation error at kappa = 0.175 averages 0.2793 rad
    # (same chi-3 mean law; Monte-Carlo oracle frozen alongside 0.8362)
    spec = synth.ScenarioSpec(topology="sphere", n=60)
    errs_r, errs_t = [], []
    for seed in range(10):
        truth, _ = synth.generate_ground_truth(spec, seed=seed)
        init = synth.gps_init(truth, 0.1, 0.175, seed=seed)
        for a, b in zip(init, truth):
            assert so3.is_rotation(a.r)
            errs_r.append(so3.geodesic_distance(b.r, a.r))
            errs_t.append(np.linalg.norm(a.t - b.t))
    assert abs(np.mean(errs_r) - 0.2793) / 0.2793 < 0.05
    assert abs(np.mean(errs_t) - 0.1 * 2.0 * np.sqrt(2.0 / np.pi)) < 0.01


def test_spanning_tree_init_two_nodes():
    spec = synth.ScenarioSpec(topology="circle", n=4)
    truth, g = synth.generate_dataset(spec, None, seed=7)
    init = synth.spanning_tree_init(g, root=0)
    assert np.array_equal(init[0].t, np.zeros(3))
    assert np.array_equal(init[0].r, np.eye(3))
    m = g.measurement(0, 1)
    assert np.allclose(init[1].t, m.t_rel)
    assert np.allclose(init[1].r, m.r_rel)


def test_spanning_tree_init_recovers_noise_free_truth():
    spec = synth.ScenarioSpec(topology="grid", grid_dims=(3, 3, 1))
    truth, g = synth.generate_dataset(spec, None, seed=8)
    init = synth.spanning_tree_init(g, root=0)
    aligned = solver.align_gauge(init, truth, anchor=0)
    dt_err, dr_err = solver.pose_errors(aligned, truth)
    assert dt_err < 1e-9
    assert dr_err < 1e-9


def test_identity_init():
    init = synth.identity_init(3)
    assert len(init) == 3
    for p in init:
        assert np.array_equal(p.t, np.zeros(3))
        assert np.array_equal(p.r, np.eye(3))


def test_identity_init_objective_finite_on_noisy_graph():
    spec = synth.ScenarioSpec(topology="sphere", n=20)
    _, g = synth.generate_dataset(spec, synth.NoiseModel(seed=9), seed=9)
    obj = solver.evaluate_objective(synth.identity_init(g.n), g)
    assert np.isfinite(obj.geodesic)
    # honest basin report; identity init is usually outside at this noise
    assert solver.in_basin(synth.identity_init(g.n), g) in (True, False)


def test_scenario_json_config_round_trip():
    spec = synth.ScenarioSpec(topology="random", n=9, comm_radius=1.7)
    noise = synth.NoiseModel(tau=0.25, kappa=0.3, seed=12)
    blob = json.dumps({"scenario": spec.to_dict(), "noise": noise.to_dict()})
    back = json.loads(blob)
    assert synth.ScenarioSpec.from_dict(back["scenario"]) == spec
    assert synth.NoiseModel.from_dict(back["noise"]) == noise

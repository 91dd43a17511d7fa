"""Dataset generation: topologies, noise model, initializations."""

import json

import numpy as np
import pytest

from geopgo import consistency, io as gio, so3, solver, synth
from geopgo.graph import DisconnectedGraphError  # noqa: F401  (api surface)
from geopgo.graph import (MeasurementColumns, Pose, PoseStack,
                          RelativeMeasurement, as_columns, build_graph,
                          compose)


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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.1])
@pytest.mark.parametrize("field", ["tau", "kappa"])
def test_noise_scales_must_be_finite_and_nonnegative(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite and "
                                         "nonnegative"):
        synth.NoiseModel(**{field: value})
    assert synth.NoiseModel(**{field: 0.0}).to_dict()[field] == 0.0


@pytest.mark.parametrize("topology, field", [
    ("random", "comm_radius"), ("grid", "grid_spacing"),
    ("circle", "radius"), ("sphere", "radius")])
@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
def test_scenario_scales_must_be_finite_and_positive(topology, field, value):
    shape = {"grid_dims": (2, 2, 1)} if topology == "grid" else {"n": 5}
    with pytest.raises(ValueError, match=f"{field} must be finite and "
                                         "positive"):
        synth.ScenarioSpec(topology=topology, **shape, **{field: value})


def test_grid_dims_need_three_entries():
    with pytest.raises(ValueError, match="grid_dims needs three entries"):
        synth.ScenarioSpec(topology="grid", grid_dims=(2, 2))


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
        prod = (g.measurements[g.edge_index(u, v)].r_rel
                @ g.measurements[g.edge_index(v, u)].r_rel)
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
    m = g.measurements[g.edge_index(0, 1)]
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


def _loop_spanning_tree_init(g, root=0):
    # the per-node form: a FIFO queue over the tree, each child composed
    # from its parent's pose and the tree edge's measurement
    order, up, _ = g.tree_from(root)
    parent = {j: up[j] for j in order[1:]}
    children = {i: [] for i in range(g.n)}
    for child, par in parent.items():
        children[par].append(child)
    poses = [None] * g.n
    poses[root] = Pose.identity()
    queue = [root]
    while queue:
        i = queue.pop(0)
        for j in sorted(children[i]):
            m = g.measurements[g.edge_index(i, j)]
            poses[j] = compose(poses[i], Pose(m.t_rel, m.r_rel))
            queue.append(j)
    return poses


def _tree_init_graphs():
    rng = np.random.default_rng(71)
    graphs = []
    for n in (1, 2, 3, 9, 25):
        spec = synth.ScenarioSpec(topology="random", n=max(n, 2))
        graphs.append(synth.generate_dataset(
            spec, synth.NoiseModel(seed=n), seed=n)[1])
    for spec in (synth.ScenarioSpec(topology="circle", n=200, radius=30.0),
                 synth.ScenarioSpec(topology="sphere", n=50),
                 synth.ScenarioSpec(topology="grid", grid_dims=(4, 3, 2))):
        graphs.append(synth.generate_dataset(
            spec, synth.NoiseModel(seed=int(rng.integers(100))), seed=72)[1])
    return graphs


@pytest.mark.parametrize("root", [0, 1])
def test_spanning_tree_init_equals_the_per_node_loop_bitwise(root):
    for g in _tree_init_graphs():
        init = synth.spanning_tree_init(g, root)
        oracle = _loop_spanning_tree_init(g, root)
        assert isinstance(init, PoseStack) and len(init) == g.n
        assert np.array_equal(init.t, np.array([p.t for p in oracle]))
        assert np.array_equal(init.r, np.array([p.r for p in oracle]))


def test_spanning_tree_init_on_sphere_800_equals_the_loop_bitwise():
    spec = synth.ScenarioSpec(topology="sphere", n=800)
    _, g = synth.generate_dataset(spec, synth.NoiseModel(seed=913), seed=913)
    init = synth.spanning_tree_init(g)
    oracle = _loop_spanning_tree_init(g)
    assert np.array_equal(init.t, np.array([p.t for p in oracle]))
    assert np.array_equal(init.r, np.array([p.r for p in oracle]))


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


# -- the stacked generator against its per-edge loops ----------------------
# The oracles are the generator's earlier loop forms: one Python step per
# vertex pair and one RelativeMeasurement per direction. The stacked
# forms must give the same bits and draw the same stream.


def _loop_grid_layout(spec):
    a, b, c = spec.grid_dims
    positions = np.zeros((spec.n, 3))
    index = {}
    for i, (x, y, z) in enumerate(np.ndindex(a, b, c)):
        positions[i] = np.array([x, y, z], dtype=float) * spec.grid_spacing
        index[(x, y, z)] = i
    edges = []
    for (x, y, z), i in index.items():
        for dx, dy, dz in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            key = (x + dx, y + dy, z + dz)
            if key in index:
                edges.append((i, index[key]))
    return positions, sorted(edges)


def _loop_circle_layout(spec):
    n = spec.n
    angles = 2.0 * np.pi * np.arange(n) / n
    positions = spec.radius * np.stack(
        [np.cos(angles), np.sin(angles), np.zeros(n)], axis=1)
    edges = set()
    for i in range(n):
        for d in range(1, min(spec.circle_neighbors, n // 2) + 1):
            j = (i + d) % n
            edges.add((min(i, j), max(i, j)))
    return positions, sorted(edges)


def _loop_sphere_layout(spec):
    n = spec.n
    positions = np.zeros((n, 3))
    for i in range(n):
        z = 1.0 - 2.0 * (i + 0.5) / n
        rho = np.sqrt(max(0.0, 1.0 - z * z))
        phi = i * synth._GOLDEN_ANGLE
        positions[i] = spec.radius * np.array(
            [rho * np.cos(phi), rho * np.sin(phi), z])
    edges = {(i, i + 1) for i in range(n - 1)}
    edges.add((0, n - 1))
    target = spec.sphere_target_undirected
    if target is None:
        target = min(int(round(5.44 * n)), n * (n - 1) // 2)
    candidates = []
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges:
                d = float(np.linalg.norm(positions[i] - positions[j]))
                candidates.append((d, i, j))
    candidates.sort()
    for d, i, j in candidates:
        if len(edges) >= target:
            break
        edges.add((i, j))
    return positions, sorted(edges)


def _loop_random_layout(spec, rng):
    n, r = spec.n, spec.comm_radius
    positions = np.zeros((n, 3))
    for i in range(1, n):
        for _ in range(100):
            anchor = int(rng.integers(0, i))
            direction = rng.standard_normal(3)
            norm = float(np.linalg.norm(direction))
            if norm < 1e-12:
                continue
            scale = r * float(rng.uniform()) ** (1.0 / 3.0)
            candidate = positions[anchor] + direction / norm * scale
            dists = np.linalg.norm(positions[:i] - candidate, axis=1)
            if float(dists.min()) > 1e-9:
                positions[i] = candidate
                break
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if float(np.linalg.norm(positions[i] - positions[j])) <= r:
                edges.append((i, j))
    return positions, edges


_LOOP_LAYOUTS = {"grid": _loop_grid_layout, "circle": _loop_circle_layout,
                 "sphere": _loop_sphere_layout}


def _loop_exact_measurements(poses, edges):
    out = []
    for i, j in sorted(edges):
        rij = poses[i].r.T @ poses[j].r
        out.append(RelativeMeasurement(
            i, j, poses[i].r.T @ (poses[j].t - poses[i].t), rij))
        out.append(RelativeMeasurement(
            j, i, poses[j].r.T @ (poses[i].t - poses[j].t), rij.T))
    return out


def _loop_corrupt_measurements(poses, topology, noise):
    rng = np.random.default_rng(noise.seed)

    def one(src, dst):
        t_true = poses[src].r.T @ (poses[dst].t - poses[src].t)
        r_true = poses[src].r.T @ poses[dst].r
        t_meas = t_true + noise.tau * rng.standard_normal(3)
        r_meas = r_true @ so3.exp_map(noise.kappa * rng.standard_normal(3))
        return RelativeMeasurement(src, dst, t_meas, r_meas)

    out = []
    for i, j in topology.undirected_edges():
        out.append(one(i, j))
        out.append(one(j, i))
    return build_graph(topology.n, out)


def _loop_generate_dataset(spec, noise, seed):
    rng = np.random.default_rng(seed)
    if spec.topology == "random":
        positions, edges = _loop_random_layout(spec, rng)
    else:
        positions, edges = _LOOP_LAYOUTS[spec.topology](spec)
    poses = [Pose(t, so3.random_rotation(rng)) for t in positions]
    topology = build_graph(spec.n, _loop_exact_measurements(poses, edges))
    if noise is None:
        return poses, topology
    return poses, _loop_corrupt_measurements(poses, topology, noise)


_GENERATOR_SPECS = [
    *(synth.ScenarioSpec(topology=t, n=n)
      for t in ("random", "circle", "sphere") for n in (2, 3)),
    synth.ScenarioSpec(topology="random", n=40, comm_radius=1.5),
    synth.ScenarioSpec(topology="circle", n=9, circle_neighbors=3),
    synth.ScenarioSpec(topology="circle", n=6, circle_neighbors=7),
    synth.ScenarioSpec(topology="sphere", n=60),
    *(synth.ScenarioSpec(topology="sphere", n=12, sphere_target_undirected=k)
      for k in (12, 13, 40, 65, 66)),  # 66 is the complete graph
    # (0, 2) and (1, 3) are equally far apart; the lower pair goes first
    synth.ScenarioSpec(topology="sphere", n=4, radius=3.0,
                       sphere_target_undirected=5),
    *(synth.ScenarioSpec(topology="grid", grid_dims=d)
      for d in ((1, 1, 1), (2, 1, 1), (1, 3, 1), (3, 1, 2), (4, 3, 2))),
]


def _spec_id(spec):
    if spec.topology == "grid":
        return "grid-" + "x".join(map(str, spec.grid_dims))
    extra = {"random": spec.comm_radius, "circle": spec.circle_neighbors,
             "sphere": spec.sphere_target_undirected}[spec.topology]
    return "-".join(f"{v}" for v in (spec.topology, spec.n, extra)
                    if v is not None)


def _assert_same_columns(cols, oracle):
    assert np.array_equal(cols.src, oracle.src)
    assert np.array_equal(cols.dst, oracle.dst)
    assert np.array_equal(cols.t_rel, oracle.t_rel)
    assert np.array_equal(cols.r_rel, oracle.r_rel)


@pytest.mark.parametrize("spec", _GENERATOR_SPECS, ids=_spec_id)
def test_layouts_equal_the_pair_loops_bitwise(spec):
    if spec.topology == "random":
        rng, oracle_rng = (np.random.default_rng(31) for _ in range(2))
        positions, edges = synth._random_layout(spec, rng)
        oracle_positions, oracle_edges = _loop_random_layout(spec, oracle_rng)
        # the same draws, and no more
        assert rng.standard_normal() == oracle_rng.standard_normal()
    else:
        layout = getattr(synth, f"_{spec.topology}_layout")
        positions, edges = layout(spec)
        oracle_positions, oracle_edges = _LOOP_LAYOUTS[spec.topology](spec)
    assert positions.dtype == float
    assert np.array_equal(positions, oracle_positions)
    assert edges.shape == (len(oracle_edges), 2)
    assert list(map(tuple, edges.tolist())) == oracle_edges


@pytest.mark.parametrize("spec", _GENERATOR_SPECS, ids=_spec_id)
def test_measurements_equal_the_per_edge_loops_bitwise(spec):
    poses, topology = synth.generate_ground_truth(spec, seed=17)
    oracle_poses, oracle_topology = _loop_generate_dataset(spec, None, 17)
    assert np.array_equal(poses.t, [p.t for p in oracle_poses])
    assert np.array_equal(poses.r, [p.r for p in oracle_poses])
    assert isinstance(topology.measurements, MeasurementColumns)
    _assert_same_columns(topology.measurements, oracle_topology.measurements)

    edges = topology.undirected_edges()
    exact = synth.exact_measurements(poses, reversed(edges))
    assert isinstance(exact, MeasurementColumns)
    _assert_same_columns(
        exact, as_columns(_loop_exact_measurements(oracle_poses, edges)))
    # a back rotation is its forward rotation transposed, exactly
    assert np.array_equal(exact.r_rel[1::2],
                          np.swapaxes(exact.r_rel[::2], -1, -2))

    noise = synth.NoiseModel(tau=0.3, kappa=0.2, seed=5)
    _assert_same_columns(
        synth.corrupt_measurements(poses, topology, noise).measurements,
        _loop_corrupt_measurements(oracle_poses, topology, noise)
        .measurements)
    _, noisy = synth.generate_dataset(spec, noise, seed=17)
    _, oracle_noisy = _loop_generate_dataset(spec, noise, 17)
    _assert_same_columns(noisy.measurements, oracle_noisy.measurements)


def test_exact_measurements_take_an_array_or_any_iterable_of_pairs():
    spec = synth.ScenarioSpec(topology="circle", n=5)
    poses, _ = synth.generate_ground_truth(spec, seed=2)
    pairs = [(3, 4), (0, 1), (1, 2), (0, 4), (2, 3)]
    cols = synth.exact_measurements(poses, np.array(pairs))
    assert cols.src.tolist() == [0, 1, 0, 4, 1, 2, 2, 3, 3, 4]
    assert cols.dst.tolist() == [1, 0, 4, 0, 2, 1, 3, 2, 4, 3]
    for edges in (pairs, set(pairs), iter(pairs)):
        _assert_same_columns(synth.exact_measurements(poses, edges), cols)

"""Consistency checkers and the averaging transforms that enforce them."""

import json

import numpy as np
import pytest

from geopgo import consistency, graph, so3, solver, synth
from geopgo.graph import (
    Pose,
    RelativeMeasurement,
    build_graph,
    edge_blocks,
    reversed_measurement,
)


def _rz(theta):
    return so3.exp_map(np.array([0.0, 0.0, theta]))


def _edge(i, j, t, r):
    return RelativeMeasurement(src=i, dst=j, t_rel=np.asarray(t, dtype=float),
                               r_rel=r)


def _pair(i, j, t, r):
    fwd = _edge(i, j, t, r)
    return [fwd, reversed_measurement(fwd)]


def _noisy_sphere(seed=0):
    spec = synth.ScenarioSpec(topology="sphere", n=20)
    noise = synth.NoiseModel(tau=0.5, kappa=0.524, seed=seed)
    _, g = synth.generate_dataset(spec, noise, seed=seed)
    return g


def _noise_free(topology="grid", seed=0):
    if topology == "grid":
        spec = synth.ScenarioSpec(topology="grid", grid_dims=(2, 2, 2))
    else:
        spec = synth.ScenarioSpec(topology=topology, n=8)
    _, g = synth.generate_dataset(spec, None, seed=seed)
    return g


def test_pairwise_clean_on_symmetrized():
    rep = consistency.check_pairwise(_noise_free())
    assert rep.pairwise_rot_max_defect < 1e-12
    assert rep.pairwise_trans_max_defect < 1e-12
    assert rep.pairwise_pass


def test_pairwise_defect_is_composition_angle():
    r01 = so3.random_rotation(31)
    # reverse deviates from the exact inverse by a 0.1 rad twist
    r10 = r01.T @ so3.exp_map(np.array([0.1, 0.0, 0.0]))
    ms = [_edge(0, 1, [1.0, 0.0, 0.0], r01),
          _edge(1, 0, -(r01.T @ np.array([1.0, 0.0, 0.0])), r10)]
    rep = consistency.check_pairwise(build_graph(2, ms))
    assert abs(rep.pairwise_rot_max_defect - 0.1) < 1e-9
    assert not rep.pairwise_pass


def test_pairwise_noisy_has_positive_defect():
    rep = consistency.check_pairwise(_noisy_sphere())
    assert rep.pairwise_rot_max_defect > 0.01
    assert rep.pairwise_trans_max_defect > 0.01


def test_minimal_cancels_on_pairwise_consistent():
    rep = consistency.check_minimal(_noise_free())
    assert rep.minimal_rot_defect < 1e-9


def test_minimal_two_node_translations():
    ms = [_edge(0, 1, [1.0, 0.0, 0.0], np.eye(3)),
          _edge(1, 0, [-1.0, 0.0, 0.0], np.eye(3))]
    rep = consistency.check_minimal(build_graph(2, ms))
    assert rep.minimal_trans_defect < 1e-15
    assert rep.minimal_rot_defect < 1e-15


def test_minimal_single_perturbation_identity_base():
    d = np.array([0.001, -0.002, 0.0015])
    ms = [_edge(0, 1, [1.0, 0.0, 0.0], so3.exp_map(d)),
          _edge(1, 0, [-1.0, 0.0, 0.0], np.eye(3))]
    rep = consistency.check_minimal(build_graph(2, ms))
    assert abs(rep.minimal_rot_defect - np.linalg.norm(d)) < 1e-12


def test_minimal_single_perturbation_small_rotation_base():
    rng = np.random.default_rng(32)
    for _ in range(10):
        base = so3.exp_map(rng.normal(size=3) * 0.1)  # stay near identity
        d = rng.normal(size=3)
        d *= 1e-5 / np.linalg.norm(d)
        ms = [_edge(0, 1, [1.0, 0.0, 0.0], base @ so3.exp_map(d)),
              _edge(1, 0, -(base.T @ np.array([1.0, 0.0, 0.0])), base.T)]
        rep = consistency.check_minimal(build_graph(2, ms))
        assert abs(rep.minimal_rot_defect - np.linalg.norm(d)) < 1e-6


def test_global_clean_on_noise_free():
    rep = consistency.check_global(_noise_free())
    assert rep.global_checked
    assert rep.cycles_checked > 0
    assert rep.global_max_cycle_rot_defect < 1e-9
    assert rep.global_max_cycle_trans_defect < 1e-9


def test_global_triangle_single_edge_twist():
    pos = [np.zeros(3), np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
    ms = []
    for i, j in [(0, 1), (1, 2), (2, 0)]:
        r = _rz(0.2) if (i, j) == (0, 1) else np.eye(3)
        ms += _pair(i, j, pos[j] - pos[i], r)
    rep = consistency.check_global(build_graph(3, ms))
    assert abs(rep.global_max_cycle_rot_defect - 0.2) < 1e-9


def test_global_noisy_far_from_consistent():
    rep = consistency.check_global(_noisy_sphere())
    assert rep.global_max_cycle_rot_defect > 0.1


def test_global_cycle_limit():
    rep = consistency.check_global(_noisy_sphere(), cycle_basis_limit=3)
    assert rep.cycles_checked == 3


def _oracle_check_global(g, cycle_basis_limit=None):
    # the cycle check as it was before its walks were built from arrays:
    # per-cycle root paths, set intersections and list.index, and a
    # gather of each step's operands from the padded edge arrays
    order, up, _ = g.tree_from(0)
    parent = {j: up[j] for j in order[1:]}
    tree_edges = {(min(c, p), max(c, p)) for c, p in parent.items()}

    def path_to_root(v):
        path = [v]
        while path[-1] in parent:
            path.append(parent[path[-1]])
        return path

    walks = []
    for u, v in g.undirected_edges():
        if (u, v) in tree_edges:
            continue
        if cycle_basis_limit is not None and len(walks) >= cycle_basis_limit:
            break
        up, vp = path_to_root(u), path_to_root(v)
        shared = set(up) & set(vp)
        anc = next(x for x in up if x in shared)
        walk = up[: up.index(anc) + 1] + list(reversed(vp[: vp.index(anc)]))
        walk.append(u)
        walks.append(walk)

    e = g.edge_arrays
    pair_keys = e.src * g.n + e.dst
    t_rel = np.concatenate((e.t_rel, np.zeros((1, 3))))[..., None]
    r_rel = np.concatenate((e.r_rel, np.eye(3)[None]))
    rot_defect = 0.0
    trans_defect = 0.0
    for block in edge_blocks(len(walks)):
        part = walks[block]
        length = max(len(w) for w in part) - 1
        keys = np.full((len(part), length), -1, dtype=np.intp)
        for c, walk in enumerate(part):
            keys[c, length - len(walk) + 1:] = [
                a * g.n + b for a, b in zip(walk[:-1], walk[1:])]
        rows = np.where(keys < 0, len(e.src), np.searchsorted(pair_keys, keys))
        acc_t = np.zeros((len(part), 3, 1))
        acc_r = np.broadcast_to(np.eye(3), (len(part), 3, 3))
        for step in rows.T:
            acc_t = acc_t + acc_r @ t_rel[step]
            acc_r = acc_r @ r_rel[step]
        acc_t = acc_t[..., 0]
        rot_defect = max(rot_defect, float(so3.rotation_angle(acc_r).max()))
        trans_defect = max(trans_defect, float(
            np.sqrt(so3.dot_rows(acc_t, acc_t)).max()))
    return consistency.ConsistencyReport(
        global_checked=True,
        global_max_cycle_rot_defect=rot_defect,
        global_max_cycle_trans_defect=trans_defect,
        cycles_checked=len(walks),
    )


def _random_measured_graph(rng, n, chords):
    # a random spanning tree plus up to ``chords`` extra edges, each
    # direction measured independently (so the cycles do not close)
    edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    for _ in range(chords):
        a, b = sorted(int(x) for x in rng.integers(0, n, size=2))
        if a != b:
            edges.add((a, b))
    ms = []
    for i, j in sorted(edges):
        for a, b in ((i, j), (j, i)):
            ms.append(_edge(a, b, rng.normal(scale=3.0, size=3),
                            so3.random_rotation(rng)))
    return build_graph(n, ms)


def _ring(n, seed):
    spec = synth.ScenarioSpec(topology="circle", n=n, radius=30.0)
    _, g = synth.generate_dataset(spec, synth.NoiseModel(seed=seed), seed)
    return g


def _chain(n, seed):
    rng = np.random.default_rng(seed)
    ms = []
    for i in range(n - 1):
        ms += _pair(i, i + 1, rng.normal(size=3), so3.random_rotation(rng))
    return build_graph(n, ms)


CYCLE_LIMITS = [None, 0, 1, 200]


@pytest.mark.parametrize("limit", CYCLE_LIMITS)
def test_global_equals_the_per_cycle_oracle(limit, monkeypatch):
    rng = np.random.default_rng(61)
    graphs = [_random_measured_graph(rng, int(rng.integers(1, 40)),
                                     int(rng.integers(0, 80)))
              for _ in range(30)]
    graphs += [_ring(3, 1), _ring(400, 2), _chain(2, 3), _chain(300, 4),
               _noisy_sphere(5), _noise_free("grid"), _noise_free("circle")]
    for g in graphs:
        assert consistency.check_global(g, limit) == _oracle_check_global(
            g, limit)
    # many blocks of cycles, and runs of steps gathered a few at a time
    monkeypatch.setattr(graph, "EDGE_BLOCK", 7)
    for g in graphs:
        assert consistency.check_global(g, limit) == _oracle_check_global(
            g, limit)


@pytest.mark.parametrize("limit", [None, 1, 1100])
def test_global_equals_the_oracle_past_one_block_of_cycles(limit,
                                                          monkeypatch):
    # sphere-250 has 1,111 non-tree edges, more than a block of 1,024
    monkeypatch.setattr(graph, "EDGE_BLOCK", 1024)
    spec = synth.ScenarioSpec(topology="sphere", n=250)
    _, g = synth.generate_dataset(spec, synth.NoiseModel(seed=62), seed=62)
    want = _oracle_check_global(g, limit)
    assert want.cycles_checked == min(1111, limit or 1111)
    assert consistency.check_global(g, limit) == want


def test_global_rejects_a_negative_limit():
    with pytest.raises(ValueError, match="cycle_basis_limit"):
        consistency.check_global(_noisy_sphere(), cycle_basis_limit=-1)
    with pytest.raises(ValueError, match="cycle_basis_limit"):
        consistency.full_report(_noisy_sphere(), cycle_basis_limit=-5)


def test_paired_correction_identity_when_consistent():
    r = so3.random_rotation(33)
    fixed = consistency.paired_rotation_correction(r, r.T)
    assert np.allclose(fixed, r, atol=1e-12)


def test_paired_correction_planar_midpoint():
    theta = 0.8
    fwd = consistency.paired_rotation_correction(_rz(theta), np.eye(3))
    rev = consistency.paired_rotation_correction(np.eye(3), _rz(theta))
    assert np.allclose(fwd, _rz(theta / 2), atol=1e-12)
    assert np.allclose(rev, _rz(-theta / 2), atol=1e-12)
    assert np.allclose(fwd @ rev, np.eye(3), atol=1e-12)


def test_enforce_pairwise_rotations():
    g = _noisy_sphere(seed=5)
    before = consistency.check_pairwise(g)
    assert before.pairwise_rot_max_defect > 0.01
    fixed = consistency.enforce_pairwise_rotations(g)
    after = consistency.check_pairwise(fixed)
    assert after.pairwise_rot_max_defect < 1e-9
    # translations are left alone
    for m0, m1 in zip(g.measurements, fixed.measurements):
        assert np.array_equal(m0.t_rel, m1.t_rel)
    # idempotent
    again = consistency.enforce_pairwise_rotations(fixed)
    for m0, m1 in zip(fixed.measurements, again.measurements):
        assert np.linalg.norm(m0.r_rel - m1.r_rel) < 1e-9


def _same(a, b):
    # arrays, or tuples of arrays and tuples (EdgeArrays.runs: the run
    # bounds, a tuple of indices per run for nbr and for real, in which
    # None marks a run with no padding)
    if isinstance(a, tuple):
        return (type(a) is type(b) and len(a) == len(b)
                and all(map(_same, a, b)))
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and np.array_equal(a, b)


def test_enforced_graph_arrays_equal_a_fresh_freeze():
    # the repaired graph reuses the input's frozen arrays with its new
    # rotations; they must be what freezing its measurements would give
    g = _noisy_sphere(seed=6)
    fixed = consistency.enforce_pairwise_rotations(g)
    fresh = build_graph(fixed.n, list(fixed.measurements)).edge_arrays
    e = fixed.edge_arrays
    for name, value in {**vars(e), "r_rel_t": e.r_rel_t}.items():
        assert _same(value, getattr(fresh, name)), name
    # per-edge and stacked repair agree bit for bit
    for m in fixed.measurements[:20]:
        fwd = g.measurements[g.edge_index(m.src, m.dst)]
        rev = g.measurements[g.edge_index(m.dst, m.src)]
        assert np.array_equal(m.r_rel, consistency.paired_rotation_correction(
            fwd.r_rel, rev.r_rel))


def test_enforce_names_the_edge_at_pi():
    fwd = RelativeMeasurement(0, 1, np.zeros(3), np.eye(3))
    rev = RelativeMeasurement(1, 0, np.zeros(3), np.diag([1.0, -1.0, -1.0]))
    with pytest.raises(so3.AngleAtPiError, match=r"edge \(0, 1\)"):
        consistency.enforce_pairwise_rotations(build_graph(2, [fwd, rev]))


def test_enforce_reports_the_graph_row_past_the_first_slice(monkeypatch):
    # a path 0-1-...-5 whose edge (3, 4) disagrees by a half-turn: its
    # row 6 lies in the second slice of 4 rows, at row 2 of that slice
    monkeypatch.setattr(graph, "EDGE_BLOCK", 4)
    ms = [m for i in range(5) for m in _pair(i, i + 1, [1.0, 0.0, 0.0],
                                             np.eye(3))]
    ms[7] = _edge(4, 3, [-1.0, 0.0, 0.0], np.diag([1.0, -1.0, -1.0]))
    g = build_graph(6, ms)
    with pytest.raises(so3.AngleAtPiError, match=r"edge \(3, 4\)") as exc:
        consistency.enforce_pairwise_rotations(g)
    assert exc.value.index == (g.edge_index(3, 4),) == (6,)


def test_enforced_implies_minimal_rotation():
    for seed in range(3):
        fixed = consistency.enforce_pairwise_rotations(_noisy_sphere(seed))
        rep = consistency.check_minimal(fixed)
        assert rep.minimal_rot_defect < 1e-9


def test_averaged_translation_consistent_inputs_unchanged(
        averaged_translation):
    rng = np.random.default_rng(34)
    for _ in range(50):
        r = so3.random_rotation(rng)
        t_ij = rng.normal(size=3)
        t_ji = -(r.T @ t_ij)  # exact reverse measurement
        out = averaged_translation(t_ij, t_ji, r)
        assert np.linalg.norm(out - t_ij) < 1e-12


def test_averaged_translation_zero_reverse(averaged_translation):
    t = np.array([2.0, -4.0, 6.0])
    out = averaged_translation(t, np.zeros(3), so3.random_rotation(1))
    assert np.array_equal(out, 0.5 * t)


def test_averaged_translation_pair_identity(averaged_translation):
    rng = np.random.default_rng(35)
    for _ in range(100):
        r = so3.random_rotation(rng)
        t_ij, t_ji = rng.normal(size=3), rng.normal(size=3)
        fwd = averaged_translation(t_ij, t_ji, r)
        rev = averaged_translation(t_ji, t_ij, r.T)
        assert np.linalg.norm(fwd + r @ rev) < 1e-12


def _online_nu(own, nbrs, poses, t_out, t_back):
    # node 0's online-mode velocity: node_controls on the block of node 0
    # alone in its star, with identity rotation measurements
    eye = np.eye(3)
    block = build_graph(len(nbrs) + 1, [
        m for j in nbrs for m in (RelativeMeasurement(0, j, t_out[j], eye),
                                  RelativeMeasurement(j, 0, t_back[j], eye))
    ]).edge_arrays.block(0, 1)
    read = [own] + [poses[j] for j in nbrs]
    nu, _ = solver.node_controls(np.array([p.r for p in read]),
                                 np.array([p.t for p in read]), block,
                                 "online_averaged")
    return nu[0]


def test_averaged_velocity_zero_cases():
    own = Pose(t=np.array([1.0, 1.0, 1.0]), r=np.eye(3))
    nbrs = {1: own, 2: own}
    zeros = {1: np.zeros(3), 2: np.zeros(3)}
    out = _online_nu(own, [1, 2], nbrs, zeros, zeros)
    assert np.array_equal(out, np.zeros(3))


def test_averaged_velocity_zero_at_consistent_truth():
    rng = np.random.default_rng(36)
    p0 = Pose(t=rng.normal(size=3), r=so3.random_rotation(rng))
    p1 = Pose(t=rng.normal(size=3), r=so3.random_rotation(rng))
    t01 = p0.r.T @ (p1.t - p0.t)
    t10 = p1.r.T @ (p0.t - p1.t)
    out = _online_nu(p0, [1], {1: p1}, {1: t01}, {1: t10})
    assert np.linalg.norm(out) < 1e-12


def test_report_serializes():
    rep = consistency.full_report(_noise_free())
    d = rep.to_dict()
    assert d["pairwise_pass"] is True
    assert d["global_checked"] is True
    parsed = json.loads(rep.to_json())
    assert parsed == d


def _report_graphs():
    return [_noisy_sphere(), _ring(40, 3), build_graph(1, [])]


def test_full_report_merges_all_three():
    rep = consistency.full_report(_noisy_sphere())
    assert rep.pairwise_rot_max_defect is not None
    assert rep.minimal_rot_defect is not None
    assert rep.global_checked
    assert rep.cycles_checked > 0
    for g in _report_graphs():
        for limit in (None, 1):
            pw = consistency.check_pairwise(g)
            mn = consistency.check_minimal(g)
            gl = consistency.check_global(g, limit)
            assert consistency.full_report(g, limit) == (
                consistency.ConsistencyReport(
                    pairwise_rot_max_defect=pw.pairwise_rot_max_defect,
                    pairwise_trans_max_defect=pw.pairwise_trans_max_defect,
                    pairwise_pass=pw.pairwise_pass,
                    minimal_rot_defect=mn.minimal_rot_defect,
                    minimal_trans_defect=mn.minimal_trans_defect,
                    global_checked=gl.global_checked,
                    global_max_cycle_rot_defect=gl.global_max_cycle_rot_defect,
                    global_max_cycle_trans_defect=(
                        gl.global_max_cycle_trans_defect),
                    cycles_checked=gl.cycles_checked))


def _sliced_pairwise_and_minimal(g):
    # both checks a slice of graph.EDGE_BLOCK rows at a time, with a
    # running max
    e = g.edge_arrays
    fwd = np.flatnonzero(e.src < e.dst)
    rot_defect = trans_defect = 0.0
    for sl in edge_blocks(len(fwd)):
        k = fwd[sl]
        r, back = e.r_rel[k], e.rev[k]
        angles = so3.rotation_angle(r @ e.r_rel[back])
        gaps = e.t_rel[k] + (r @ e.t_rel[back][..., None])[..., 0]
        rot_defect = max(rot_defect, float(angles.max()))
        trans_defect = max(trans_defect,
                           float(np.sqrt(so3.dot_rows(gaps, gaps)).max()))
    logs = np.empty(e.t_rel.shape)
    for sl in edge_blocks(len(logs)):
        logs[sl] = so3.log_map(e.r_rel[sl])
    return (consistency.ConsistencyReport(
                pairwise_rot_max_defect=rot_defect,
                pairwise_trans_max_defect=trans_defect,
                pairwise_pass=(rot_defect <= consistency.PAIRWISE_TOL
                               and trans_defect <= consistency.PAIRWISE_TOL)),
            consistency.ConsistencyReport(
                minimal_rot_defect=float(np.linalg.norm(
                    graph.sequential_sum(logs))),
                minimal_trans_defect=float(np.linalg.norm(
                    graph.sequential_sum(e.t_rel)))))


def test_pairwise_and_minimal_equal_a_sliced_pass(monkeypatch):
    # the one-pass checks give the bits of many small slices; float
    # reprs round-trip, so equal JSON text is equal bits, signs of zero
    # included
    monkeypatch.setattr(graph, "EDGE_BLOCK", 7)
    for g in _report_graphs():
        want_pw, want_mn = _sliced_pairwise_and_minimal(g)
        assert consistency.check_pairwise(g).to_json() == want_pw.to_json()
        assert consistency.check_minimal(g).to_json() == want_mn.to_json()

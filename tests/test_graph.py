"""Pose-graph model: pairing, connectivity, Laplacian, spanning tree."""

import numpy as np
import pytest

from geopgo import graph, so3
from geopgo.graph import (
    DanglingVertexError,
    DisconnectedGraphError,
    DuplicateEdgeError,
    Pose,
    PoseStack,
    RelativeMeasurement,
    algebraic_connectivity,
    as_stack,
    bfs_tree,
    build_graph,
    compose,
    inverse,
    laplacian,
    max_degree,
    reversed_measurement,
    symmetrize,
)


def _edge(i, j, t=None, r=None):
    t = np.zeros(3) if t is None else np.asarray(t, dtype=float)
    r = np.eye(3) if r is None else r
    return RelativeMeasurement(src=i, dst=j, t_rel=t, r_rel=r)


def _pair(i, j, t=None, r=None):
    fwd = _edge(i, j, t, r)
    return [fwd, reversed_measurement(fwd)]


def _path_graph(n):
    ms = []
    for i in range(n - 1):
        ms += _pair(i, i + 1, t=[1.0, 0.0, 0.0])
    return build_graph(n, ms)


def test_pose_identity_and_compose():
    p = Pose.identity()
    assert np.array_equal(p.t, np.zeros(3))
    assert np.array_equal(p.r, np.eye(3))
    rng = np.random.default_rng(21)
    a = Pose(t=rng.normal(size=3), r=so3.random_rotation(rng))
    b = Pose(t=rng.normal(size=3), r=so3.random_rotation(rng))
    ab = compose(a, b)
    assert np.allclose(ab.t, a.t + a.r @ b.t)
    assert np.allclose(ab.r, a.r @ b.r)
    ia = compose(inverse(a), a)
    assert np.allclose(ia.t, 0.0, atol=1e-12)
    assert np.allclose(ia.r, np.eye(3), atol=1e-12)


def test_pose_stack_reads_as_a_pose_sequence():
    rng = np.random.default_rng(26)
    t = rng.normal(size=(5, 3))
    r = np.array([so3.random_rotation(rng) for _ in range(5)])
    want_t, want_r = t.copy(), r.copy()
    s = PoseStack(t, r)
    assert len(s) == 5
    for k, p in zip([0, 2, -1], [s[0], s[2], s[-1]]):
        assert isinstance(p, Pose)
        assert np.array_equal(p.t, t[k]) and np.array_equal(p.r, r[k])
    p = s[1]
    p.t[:] = 0.0  # a pose holds copies of its rows
    p.r[:] = 0.0
    assert np.array_equal(s.t, want_t) and np.array_equal(s.r, want_r)
    part = s[1:4]
    assert isinstance(part, PoseStack) and len(part) == 3
    assert np.array_equal(part.t, t[1:4]) and np.array_equal(part.r, r[1:4])
    poses = list(s)
    assert len(poses) == 5
    with pytest.raises(IndexError):
        s[5]
    assert as_stack(s) is s
    again = as_stack(poses)
    assert np.array_equal(again.t, t) and np.array_equal(again.r, r)
    empty = as_stack([])
    assert empty.t.shape == (0, 3) and empty.r.shape == (0, 3, 3)


def test_two_node_graph():
    g = build_graph(2, _pair(0, 1, t=[1.0, 2.0, 3.0]))
    assert g.neighbors(0) == (1,)
    assert g.neighbors(1) == (0,)
    assert g.directed_count == 2
    assert g.undirected_edges() == [(0, 1)]
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(1, 1)


def test_path_graph_accepted():
    g = _path_graph(3)
    assert g.n == 3
    assert g.neighbors(1) == (0, 2)


def test_disconnected_rejected():
    with pytest.raises(DisconnectedGraphError):
        build_graph(3, _pair(0, 1))


def test_duplicate_edge_rejected():
    ms = _pair(0, 1) + [_edge(0, 1, t=[9.0, 0.0, 0.0])]
    with pytest.raises(DuplicateEdgeError):
        build_graph(2, ms)


def test_bad_vertex_ids_rejected():
    with pytest.raises(DanglingVertexError):
        build_graph(2, _pair(0, 2))
    with pytest.raises(DanglingVertexError):
        build_graph(2, [_edge(0, 0), _edge(0, 1), _edge(1, 0)])


def test_unpaired_direction_gets_its_exact_inverse():
    one_way = [_edge(0, 1, t=[1.0, 0.0, 0.0], r=so3.exp_map(np.ones(3)))]
    g = build_graph(2, one_way)
    assert g.directed_count == 2
    want = reversed_measurement(one_way[0])
    got = g.measurements[g.edge_index(1, 0)]
    assert got.t_rel.tobytes() == want.t_rel.tobytes()
    assert got.r_rel.tobytes() == want.r_rel.tobytes()


def test_symmetrize_inverts_se3():
    r = so3.exp_map(np.array([0.2, -0.4, 0.9]))
    t = np.array([1.0, 2.0, 3.0])
    out = symmetrize([_edge(0, 1, t=t, r=r)])
    assert len(out) == 2
    rev = [m for m in out if m.src == 1][0]
    assert np.allclose(rev.r_rel, r.T)
    assert np.allclose(rev.t_rel, -(r.T @ t))
    # synthesized pair composes to the identity in both slots
    assert np.allclose(out[0].r_rel @ rev.r_rel, np.eye(3), atol=1e-12)
    assert np.allclose(out[0].t_rel + out[0].r_rel @ rev.t_rel, 0.0, atol=1e-12)


def test_symmetrize_idempotent():
    rng = np.random.default_rng(22)
    ms = []
    for i, j in [(0, 1), (1, 2), (2, 0)]:
        ms.append(_edge(i, j, t=rng.normal(size=3), r=so3.random_rotation(rng)))
    once = symmetrize(ms)
    twice = symmetrize(once)
    assert len(once) == len(twice) == 6
    paired = {(m.src, m.dst) for m in once}
    assert paired == {(m.src, m.dst) for m in twice}


def test_laplacian_path3():
    g = _path_graph(3)
    expected = np.array([
        [1.0, -1.0, 0.0],
        [-1.0, 2.0, -1.0],
        [0.0, -1.0, 1.0],
    ])
    assert np.array_equal(laplacian(g), expected)


def test_laplacian_complete3():
    ms = _pair(0, 1) + _pair(1, 2) + _pair(0, 2)
    g = build_graph(3, ms)
    ell = laplacian(g)
    assert np.array_equal(np.diag(ell), [2.0, 2.0, 2.0])
    assert ell[0, 1] == ell[1, 2] == ell[0, 2] == -1.0


def test_laplacian_row_sums_and_nullspace():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        ms = []
        for i in range(1, n):
            j = int(rng.integers(0, i))
            ms += _pair(j, i)
        g = build_graph(n, ms)
        ell = laplacian(g)
        assert np.allclose(ell @ np.ones(n), 0.0)
        assert np.allclose(ell, ell.T)
        assert algebraic_connectivity(g) > 1e-12


def test_algebraic_connectivity_path3():
    # eigenvalues of the path-3 Laplacian are exactly {0, 1, 3}
    assert abs(algebraic_connectivity(_path_graph(3)) - 1.0) < 1e-12


def test_max_degree():
    assert max_degree(_path_graph(3)) == 2
    ms = []
    for i, j in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]:
        ms += _pair(i, j)
    g = build_graph(4, ms)
    assert max_degree(g) == 3
    assert max_degree(g) == int(np.max(np.diag(laplacian(g))))


def test_spanning_tree_path():
    _, parent, _ = _path_graph(3).tree_from(0)
    assert parent == (-1, 0, 1)


def test_spanning_tree_star():
    ms = _pair(0, 1) + _pair(0, 2) + _pair(0, 3)
    g = build_graph(4, ms)
    assert g.tree_from(0)[1] == (-1, 0, 0, 0)


def test_spanning_tree_lowest_id_tiebreak():
    # vertex 3 is reachable from both 1 and 2 at the same depth
    ms = _pair(0, 1) + _pair(0, 2) + _pair(1, 3) + _pair(2, 3)
    g = build_graph(4, ms)
    _, parent, _ = g.tree_from(0)
    assert parent[3] == 1


def _random_graph(rng, n, chords):
    # a random spanning tree plus up to ``chords`` extra edges
    ms = []
    seen = set()
    for i in range(1, n):
        j = int(rng.integers(0, i))
        ms += _pair(j, i)
        seen.add((j, i))
    for _ in range(chords):
        a, b = rng.integers(0, n, size=2)
        a, b = int(min(a, b)), int(max(a, b))
        if a != b and (a, b) not in seen:
            ms += _pair(a, b)
            seen.add((a, b))
    return build_graph(n, ms)


def test_laplacian_and_max_degree_equal_a_per_node_loop():
    rng = np.random.default_rng(25)
    for _ in range(100):
        n = int(rng.integers(1, 16))
        g = _random_graph(rng, n, int(rng.integers(0, 2 * n)))
        want = np.zeros((n, n))
        for i in range(n):
            want[i, i] = len(g.neighbors(i))
            for j in g.neighbors(i):
                want[i, j] = -1.0
        assert np.array_equal(laplacian(g), want)
        degree = max(len(g.neighbors(i)) for i in range(n))
        assert max_degree(g) == degree
        assert type(max_degree(g)) is int


def test_spanning_tree_covers_random_graphs():
    rng = np.random.default_rng(24)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        ms = []
        seen = set()
        for i in range(1, n):
            j = int(rng.integers(0, i))
            ms += _pair(j, i)
            seen.add((j, i))
        # sprinkle extra chords
        for _ in range(int(rng.integers(0, 4))):
            a, b = rng.integers(0, n, size=2)
            a, b = int(min(a, b)), int(max(a, b))
            if a != b and (a, b) not in seen:
                ms += _pair(a, b)
                seen.add((a, b))
        g = build_graph(n, ms)
        order, parent, _ = g.tree_from(0)
        assert sorted(order) == list(range(n)) and order[0] == 0
        assert parent[0] == -1
        for child in order[1:]:
            assert g.has_edge(parent[child], child)


def test_bfs_tree_and_edge_rows_equal_the_per_edge_lookups():
    rng = np.random.default_rng(27)
    for _ in range(50):
        n = int(rng.integers(1, 20))
        g = _random_graph(rng, n, int(rng.integers(0, 2 * n)))
        root = int(rng.integers(0, n))
        order, parent, depth = bfs_tree(g, root)
        assert sorted(order) == list(range(n)) and order[0] == root
        assert parent[root] == -1 and depth[root] == 0
        assert all(depth[a] <= depth[b] for a, b in zip(order, order[1:]))
        for j in order[1:]:
            assert depth[j] == depth[parent[j]] + 1
        kids = np.array(order[1:], dtype=np.intp)
        ups = np.array(parent, dtype=np.intp)[kids]
        assert g.edge_rows(ups, kids).tolist() == [
            g.edge_index(i, j) for i, j in zip(ups.tolist(), kids.tolist())]
    with pytest.raises(DanglingVertexError):
        bfs_tree(_path_graph(3), root=3)


def test_measurements_sorted_and_lookup():
    ms = _pair(2, 0) + _pair(1, 2) + _pair(0, 1)
    g = build_graph(3, ms)
    order = [(m.src, m.dst) for m in g.measurements]
    assert order == sorted(order)
    m = g.measurements[g.edge_index(1, 2)]
    assert (m.src, m.dst) == (1, 2)
    with pytest.raises(KeyError):
        g.edge_index(0, 0)


def test_reverse_rows_and_cut_rows_of_random_blocks():
    # rev pairs each own row with its reverse direction: another own row,
    # or, past the own rows, the cut row itself, whose reverse starts at
    # a halo pose
    rng = np.random.default_rng(29)
    for _ in range(50):
        n = int(rng.integers(1, 16))
        tree = _random_graph(rng, n, int(rng.integers(0, 2 * n)))
        g = build_graph(n, [_edge(i, j, t=rng.normal(size=3))
                            for i, j in tree.undirected_edges()])
        e = g.edge_arrays
        assert e.cut.dtype == np.intp and e.cut.size == 0
        assert e.t_cut.shape == (0, 3)
        for _ in range(5):
            lo = int(rng.integers(0, n))
            hi = int(rng.integers(lo + 1, n + 1))
            b = e.block(lo, hi)
            count = len(b.src)
            src, dst = b.ids[b.src], b.ids[b.dst]
            halo = (dst < lo) | (dst >= hi)
            assert np.array_equal(b.cut, np.flatnonzero(halo))
            inner = np.flatnonzero(~halo)
            back = b.rev[inner]
            assert np.array_equal(src[back], dst[inner])
            assert np.array_equal(dst[back], src[inner])
            assert np.array_equal(b.rev[b.cut],
                                  count + np.arange(len(b.cut)))
            # each cut row's reverse translation, looked up by (dst, src)
            whole = g.edge_rows(dst[b.cut], src[b.cut])
            assert np.array_equal(b.t_cut, e.t_rel[whole])


# Ids spanning more than 2**31 values: (src - lo) * span + (dst - lo)
# would pass int64, and (2**31, 5) and (2**33 - 1, 1) used to share a key
WIDE_ROWS = [(0, 5), (2 ** 31, 5), (2 ** 33 - 1, 1)]


def test_symmetrize_adds_every_inverse_at_an_id_span_past_2_31():
    cols = symmetrize([_edge(i, j, t=[1.0, 0.0, 0.0]) for i, j in WIDE_ROWS])
    assert list(zip(cols.src.tolist(), cols.dst.tolist())) == WIDE_ROWS + [
        (5, 0), (5, 2 ** 31), (1, 2 ** 33 - 1)]


def test_build_graph_at_an_id_span_past_2_31_finds_it_disconnected(
        bounded_cost):
    ms = [_edge(i, j) for i, j in WIDE_ROWS]
    with bounded_cost(seconds=1.0, peak_bytes=10 << 20):
        with pytest.raises(DisconnectedGraphError) as info:
            build_graph(2 ** 33, ms)
    assert str(info.value) == ("8589934589 vertices unreachable from vertex 0 "
                               "(first few: [1, 2, 3, 4, 6])")


@pytest.mark.parametrize(
    "span", [2 ** 31 - 1, 2 ** 31, 2 ** 31 + 1, 2 ** 33, 2 ** 62],
    ids=["2^31-1", "2^31", "2^31+1", "2^33", "2^62"])
def test_pairing_equals_a_lexsort_on_both_sides_of_a_2_31_span(span):
    # a few ids, the span's two ends among them, so that rows repeat and
    # many have their reverse direction
    rng = np.random.default_rng(span % 1000)
    lo = 7
    pool = np.concatenate(([lo, lo + span - 1],
                           lo + rng.integers(0, span, size=6)))
    for _ in range(20):
        src, dst = rng.choice(pool, size=(2, 40))
        order, ordered, at, missing = graph._pairing(src, dst)
        assert np.array_equal(order, np.lexsort((dst, src)))
        pairs = list(zip(src[order].tolist(), dst[order].tolist()))
        assert (ordered[1:] == ordered[:-1]).tolist() == [
            a == b for a, b in zip(pairs, pairs[1:])]
        present = set(pairs)
        assert missing.tolist() == [(j, i) not in present
                                    for i, j in zip(src.tolist(), dst.tolist())]
        found = order[at[~missing]]
        assert np.array_equal(src[found], dst[~missing])
        assert np.array_equal(dst[found], src[~missing])

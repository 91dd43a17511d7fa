"""The per-iteration primitives against the numpy forms they replaced.

Each primitive below spells out an order of floating-point additions, or
calls a lower layer of numpy, so that it makes fewer numpy calls than the
form it replaced. The replaced forms are kept here as oracles and every
comparison is bitwise: same shape, dtype and bytes, so signed zeros
count. The inputs are stacks of 3x3 matrices with the cases that stress
the arithmetic: +0.0 and -0.0 entries, identity rows, tiny angles,
angles near pi and drifted rotations, as one matrix and as stacks.

``test_numpy_still_adds_in_the_spelled_out_orders`` pins numpy's own
orders against plain Python float arithmetic; after a numpy upgrade that
changes one of them, it is the test that names the cause, as the
``test_numpy_vecdot_*``, ``test_control_norm_*`` and
``test_objective_totals_*`` tests do for the row dots, the control norm
and the objective totals. The
``test_blas_*`` tests and ``test_log_of_a_transpose_is_the_negated_log``
do the same for the identities by which the kernel makes its rotation
products node by node and reads them transposed.
"""

import numpy as np
import pytest

from geopgo import runtime, so3, solver
from geopgo.graph import Pose, build_graph, sequential_sum

_HAT_FLAT = np.array([7, 2, 3, 5, 6, 1])  # vee(r - r.T) = e[:3] - e[3:]


def _oracle_skew(r):
    e = r.reshape(r.shape[:-2] + (9,)).take(_HAT_FLAT, -1)
    return e[..., :3] - e[..., 3:]


def _oracle_angle(r):
    s = 0.5 * _oracle_skew(r)
    c = (np.trace(r, axis1=-2, axis2=-1) - 1.0) / 2.0
    return np.arctan2(np.sqrt(so3.dot_rows(s, s)), c)


def _oracle_log_map(r):
    flat = r.reshape(-1, 3, 3)
    theta = _oracle_angle(flat)
    coef = 0.5 * (1.0 + theta * theta / 6.0)
    np.divide(theta, 2.0 * np.sin(theta), out=coef, where=theta >= 1e-6)
    return (coef[:, None] * _oracle_skew(flat)).reshape(r.shape[:-1])


def _oracle_drift(r):
    e = (np.swapaxes(r, -1, -2) @ r - np.eye(3)).reshape(r.shape[:-2] + (9,))
    return np.sqrt(so3.dot_rows(e, e))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def _signed_zeros(rng, x):
    pick = rng.random(x.shape)
    x[pick < 0.15] = 0.0
    x[(pick >= 0.15) & (pick < 0.3)] = -0.0
    return x


def _axes(rng, k):
    a = rng.normal(size=(k, 3))
    return a / np.sqrt(so3.dot_rows(a, a))[:, None]


def _rotations(rng, k):
    """Rotations only: identities (some with -0.0 off the diagonal), tiny
    angles, generic angles, angles near pi and drifted rotations."""
    ident = np.tile(np.eye(3), (k, 1, 1))
    off = ~np.eye(3, dtype=bool) & (rng.random((k, 3, 3)) < 0.5)
    ident[off] = -0.0
    tiny = so3.exp_map(_axes(rng, k) * 10.0 ** rng.uniform(-12, -5, (k, 1)))
    generic = so3.exp_map(rng.normal(size=(k, 3)))
    near_pi = so3.exp_map(
        _axes(rng, k) * (np.pi - 10.0 ** rng.uniform(-8.5, -3, (k, 1))))
    drifted = generic + rng.normal(size=(k, 3, 3)) * 10.0 ** rng.uniform(
        -15, -7, (k, 1, 1))
    return np.concatenate((ident, tiny, generic, near_pi, drifted))


def _matrices(rng, k):
    """The rotations and as many arbitrary matrices with +0.0 and -0.0
    entries."""
    raw = _signed_zeros(rng, rng.normal(size=(k, 3, 3)))
    return np.concatenate((_rotations(rng, k // 5), raw))


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(20201001)


def _shapes(r):
    # the stack, one matrix at a time, and a stack of stacks
    return [r, *r[:: max(1, len(r) // 40)], r[: len(r) // 2 * 2].reshape(
        2, -1, 3, 3)]


def test_skew_part_equals_the_take_form(rng):
    r = _matrices(rng, 4000)
    assert _same_bits(so3._skew_part(r.reshape(-1, 9)), _oracle_skew(r))


def test_trace_equals_np_trace(rng):
    r = _matrices(rng, 4000)
    assert _same_bits(so3._trace(r.reshape(-1, 9)),
                      np.trace(r, axis1=-2, axis2=-1))
    # every row's diagonal from +-0.0 alone, where only the order from
    # +0.0 decides the sign
    zeros = np.array([[a, b, c] for a in (0.0, -0.0) for b in (0.0, -0.0)
                      for c in (0.0, -0.0)])
    diag = np.zeros((len(zeros), 3, 3))
    diag[:, [0, 1, 2], [0, 1, 2]] = zeros
    assert _same_bits(so3._trace(diag.reshape(-1, 9)),
                      np.trace(diag, axis1=-2, axis2=-1))


def test_rotation_angle_equals_the_np_trace_form(rng):
    for r in _shapes(_matrices(rng, 2000)):
        got = so3.rotation_angle(r)
        want = _oracle_angle(r)
        if r.ndim == 2:
            assert type(got) is float
            got = np.float64(got)
        assert _same_bits(got, want)


def test_log_map_equals_the_np_trace_form(rng):
    r = _rotations(rng, 1000)
    r = r[_oracle_angle(r) < np.pi - 1e-9]
    for x in _shapes(r):
        assert _same_bits(so3.log_map(x), _oracle_log_map(x))


def test_orthonormality_drift_equals_the_transposed_view_form(rng):
    r = _matrices(rng, 4000)
    for x in _shapes(r):
        got = so3.orthonormality_drift(x)
        if x.ndim == 2:
            assert type(got) is float
            got = np.float64(got)
        assert _same_bits(got, _oracle_drift(x))
    # so renormalize picks the same rows to project
    rotations = _rotations(rng, 1000)
    out = so3.renormalize(rotations)
    keep = _oracle_drift(rotations) <= 1e-12
    assert 0 < keep.sum() < len(keep)
    assert _same_bits(out[keep], rotations[keep])
    assert _same_bits(out[~keep], so3.project_to_rotation(rotations[~keep]))


def test_chordal_rows_equal_np_sum(rng):
    r = _rotations(rng, 1000)
    c = (r - r[::-1]).reshape(-1, 9)
    assert _same_bits(solver._sum_squares9(c), np.sum(c * c, axis=-1))
    x = _signed_zeros(rng, rng.normal(size=(5000, 9))
                      * 10.0 ** rng.integers(-150, 150, size=(5000, 9)))
    x[:2] = -0.0
    x[2:4] = 0.0
    assert _same_bits(solver._sum_squares9(x), np.sum(x * x, axis=-1))
    # read as the transposes of 3x3 matrices: the kernel's chordal rows
    # come from transposed products
    xt = np.ascontiguousarray(np.swapaxes(x.reshape(-1, 3, 3), -1, -2))
    assert _same_bits(solver._sum_squares9(xt.reshape(-1, 9),
                                           solver._TRANSPOSED),
                      np.sum(x * x, axis=-1))


def _transposed(x):
    return np.ascontiguousarray(np.swapaxes(x, -1, -2))


@pytest.mark.parametrize("width", [1, 2, 13, 978])
def test_blas_batched_blocks_equal_the_transposed_products(rng, width):
    # The kernel makes every R_i.T @ R_j of a node at once, as the
    # transposes R_j.T @ R_i: one (m, 3W, 3) @ (m, 3, 3) product whose
    # block k is the k-th neighbor's. Each block must equal the
    # transpose of the per-edge stacked product, bit for bit.
    m = max(1, 2000 // width)
    pool = _matrices(rng, 1000)
    own = pool[rng.integers(0, len(pool), size=m)]
    nbr = pool[rng.integers(0, len(pool), size=(m, width))]
    blocks = (_transposed(nbr).reshape(m, 3 * width, 3) @ own).reshape(
        m, width, 3, 3)
    edge_own = np.repeat(own, width, axis=0)
    per_edge = _transposed(edge_own) @ nbr.reshape(-1, 3, 3)
    assert _same_bits(blocks.reshape(-1, 3, 3),
                      _transposed(per_edge))


def test_blas_transposed_products_are_the_swapped_products(rng):
    # (X @ Y.T).T == Y @ X.T on contiguous stacks: the kernel's residual
    # r_ij @ (R_j.T @ R_i) is the transpose of (R_i.T @ R_j) @ r_ij.T
    x, y = _matrices(rng, 4000), _matrices(rng, 4000)[::-1].copy()
    assert _same_bits(_transposed(x @ _transposed(y)), y @ _transposed(x))


def test_log_of_a_transpose_is_the_negated_log(rng):
    # The kernel reads each residual log from the residual's transpose:
    # the skew part changes sign and the angle does not, so every entry
    # is the exact negation, except that a zero entry may come out with
    # the other sign. A node sum that starts at +0.0 and a square cannot
    # tell those apart.
    r = np.concatenate((_rotations(rng, 20000), so3.exp_map(
        rng.normal(size=(100000, 3)))))
    r = r[so3.rotation_angle(r) < np.pi - 1e-8]
    want = -so3.log_map(r)
    got = so3.log_map(_transposed(r))
    assert np.array_equal(got, want)
    nonzero = want != 0.0
    assert _same_bits(got[nonzero], want[nonzero])
    assert _same_bits(0.0 + got, 0.0 + want)
    assert _same_bits(so3.dot_rows(got, got), so3.dot_rows(want, want))


def test_max_control_norm_equals_np_linalg_norm(rng):
    def oracle(nu, omega):
        return float(max(np.linalg.norm(nu, axis=1).max(initial=0.0),
                         np.linalg.norm(omega, axis=1).max(initial=0.0)))

    for n in (0, 1, 3, 50, 800):
        for scale in (1e-200, 1.0, 1e150):
            nu, omega = (_signed_zeros(rng, rng.normal(size=(n, 3)) * scale)
                         for _ in range(2))
            got = solver.max_control_norm(nu, omega)
            assert type(got) is float
            assert _same_bits(np.float64(got), np.float64(oracle(nu, omega)))


def test_numpy_still_adds_in_the_spelled_out_orders(rng):
    # Python floats round each addition once, in the order written
    rows = _signed_zeros(rng, rng.normal(size=(300, 9))
                         * 10.0 ** rng.integers(-8, 8, size=(300, 9)))
    rows[:8] = np.where(rng.random((8, 9)) < 0.5, 0.0, -0.0)
    rows[8] = -0.0
    traces, totals = [], []
    for q in rows.tolist():
        # np.trace: ((0 + r00) + r11) + r22
        traces.append(((0.0 + q[0]) + q[4]) + q[8])
        # np.sum of 9 values: +0.0 plus their pairwise sum, which adds
        # the first 8 pairwise and then the ninth
        totals.append(0.0 + ((((q[0] + q[1]) + (q[2] + q[3]))
                              + ((q[4] + q[5]) + (q[6] + q[7]))) + q[8]))
    traces, totals = np.array(traces), np.array(totals)
    assert _same_bits(np.trace(rows.reshape(-1, 3, 3), axis1=-2, axis2=-1),
                      traces)
    assert _same_bits(np.sum(rows, axis=-1), totals)
    for row, trace, total in zip(rows, traces, totals):
        assert _same_bits(np.trace(row.reshape(3, 3)), trace)
        assert _same_bits(np.sum(row), total)
    # np.bincount with weights adds each weight into its bin in input
    # order, from +0.0, as the node sums need: unsorted bins, bins that
    # get nothing, and a bin of -0.0 weights only (which reads +0.0)
    for count, size in ((1, 1), (2, 5), (40, 12), (900, 60)):
        bins = rng.integers(0, max(size - 2, 1), size=count)
        weights = _signed_zeros(rng, rng.normal(size=count)
                                * 10.0 ** rng.integers(-8, 8, size=count))
        weights[bins == bins[0]] = -0.0
        want = [0.0] * size
        for b, w in zip(bins.tolist(), weights.tolist()):
            want[b] = want[b] + w
        got = np.bincount(bins, weights, size)
        assert _same_bits(got, np.array(want))


def _retired_dot_rows(a, b):
    # the matmul spelling that so3.dot_rows used before np.vecdot
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _special(rng, shape):
    x = _signed_zeros(rng, rng.normal(size=shape)
                      * 10.0 ** rng.integers(-8, 8, size=shape))
    pick = rng.random(shape)
    x[pick < 0.03] = np.inf
    x[(pick >= 0.03) & (pick < 0.06)] = -np.inf
    x[(pick >= 0.06) & (pick < 0.09)] = np.nan
    return x


def test_numpy_vecdot_equals_the_retired_matmul_row_dot(rng):
    # so3.dot_rows is one np.vecdot; it must keep the bits of the stacked
    # (1, k) @ (k, 1) product, NaN and infinite rows and signed zeros
    # included
    cases = []
    for width in (3, 4, 9):
        a, b = _special(rng, (500, width)), _special(rng, (500, width))
        cases += [(a, b), (a[::3], b[1::3]), (a[0], b[0]), (a[:0], b[:0]),
                  (a.reshape(2, 250, width), b.reshape(2, 250, width))]
        zeros = np.where(rng.random((64, width)) < 0.5, 0.0, -0.0)
        cases.append((zeros, zeros[::-1].copy()))
    wide = _special(rng, (500, 2 * 3))
    cases.append((wide[:, ::2], wide[:, 1::2]))  # strided along the row
    with np.errstate(invalid="ignore", over="ignore"):
        for a, b in cases:
            got, want = np.vecdot(a, b), _retired_dot_rows(a, b)
            assert got.shape == want.shape
            assert _same_bits(np.asarray(got), np.asarray(want))
            assert _same_bits(np.asarray(so3.dot_rows(a, b)),
                              np.asarray(want))


def _add_reduce_norm(x):
    return float(np.sqrt(np.add.reduce(x * x, 1)).max(initial=0.0))


def test_control_norm_equals_add_reduce_per_family(rng):
    # max_control_norm adds a row's squares as (q0 + q1) + q2 and takes
    # one sqrt of the larger family maximum; per family that must be the
    # largest of the add.reduce norms
    empty = np.zeros((0, 3))
    for n in (0, 1, 2, 3, 50, 800):
        for scale in (1e-200, 1e-3, 1.0, 1e150):
            x = _signed_zeros(rng, rng.normal(size=(n, 3)) * scale)
            want = np.float64(_add_reduce_norm(x))
            for nu, omega in ((x, empty), (empty, x), (x, x)):
                got = solver.max_control_norm(nu, omega)
                assert type(got) is float
                assert _same_bits(np.float64(got), want)
    # numpy adds three squares to +0.0 in order, as Python floats do
    sq = _signed_zeros(rng, rng.normal(size=(300, 3))) ** 2
    want = np.array([0.0 + ((q[0] + q[1]) + q[2]) for q in sq.tolist()])
    assert _same_bits(np.add.reduce(sq, 1), want)


@pytest.mark.parametrize("count", [0, 1, 2, 7, 8, 9, 1000, 8704])
def test_objective_totals_equal_sequential_sum(rng, count):
    # evaluate_objective adds the (3, E) rows along their contiguous axis;
    # the rows are sums of squares (never -0.0), and the totals must be
    # the left-to-right sums from +0.0 of graph.sequential_sum
    rows = np.abs(_signed_zeros(rng, rng.normal(size=(3, count))
                                * 10.0 ** rng.integers(-8, 8, (3, count))))
    rows[:, : count // 4] = 0.0
    rows[2, 1::5] = np.inf
    totals = sequential_sum(rows.T)
    got = solver.evaluate_objective(None, None, rows)
    assert _same_bits(np.float64(got.translation_only), totals[0])
    assert _same_bits(np.float64(got.rotation_only), totals[1])
    assert _same_bits(np.float64(got.geodesic), totals[0] + totals[1])
    assert _same_bits(np.float64(got.chordal), totals[0] + totals[2])


def test_objective_totals_of_a_one_pose_graph_are_zero():
    # no edges, so E = 0: the totals are +0.0 and the solve stops at a
    # fixed point, in reference and in distributed mode
    g = build_graph(1, [])
    init = [Pose(t=np.array([1.0, -2.0, 3.0]), r=so3.exp_map([0.1, 0.2, 0.3]))]
    for run in (solver.solve, runtime.run_distributed):
        res = run(g, init, solver.SolverConfig())
        assert res.converged and res.iterations == 0
        obj = res.objective_history[0]
        for total in (obj.geodesic, obj.chordal, obj.rotation_only,
                      obj.translation_only):
            assert _same_bits(np.float64(total), np.float64(0.0))
        assert res.control_norm_history == [0.0]

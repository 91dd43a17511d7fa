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
changes one of them, it is the test that names the cause.
"""

import numpy as np
import pytest

from geopgo import so3, solver

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
    # np.add.reduce along the leading axis of a C-contiguous stack, from
    # initial +0.0: each column left to right, as the node sums need
    for shape in ((1, 1, 3), (24, 1, 3), (5, 7, 3), (26, 40, 3)):
        terms = _signed_zeros(rng, rng.normal(size=shape)
                              * 10.0 ** rng.integers(-8, 8, size=shape))
        want = np.zeros(shape[1:])
        for step in terms:
            want = want + step
        got = np.add.reduce(terms, 0, initial=0.0)
        assert _same_bits(got, want)

"""Rotation-group primitives: round trips, identities, sampling law."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geopgo import so3


def test_hat_zero():
    assert np.array_equal(so3.hat(np.zeros(3)), np.zeros((3, 3)))


def test_hat_explicit():
    expected = np.array([
        [0.0, -3.0, 2.0],
        [3.0, 0.0, -1.0],
        [-2.0, 1.0, 0.0],
    ])
    assert np.array_equal(so3.hat(np.array([1.0, 2.0, 3.0])), expected)


def test_hat_is_cross_product():
    v = np.array([0.3, -0.7, 1.1])
    assert np.allclose(so3.hat(v) @ v, 0.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = rng.normal(size=3), rng.normal(size=3)
        assert np.allclose(so3.hat(a) @ b, np.cross(a, b))


def test_vee_inverts_hat():
    assert np.array_equal(so3.vee(np.zeros((3, 3))), np.zeros(3))
    s = np.array([
        [0.0, -3.0, 2.0],
        [3.0, 0.0, -1.0],
        [-2.0, 1.0, 0.0],
    ])
    assert np.array_equal(so3.vee(s), np.array([1.0, 2.0, 3.0]))
    rng = np.random.default_rng(4)
    for _ in range(100):
        v = rng.normal(size=3)
        assert np.array_equal(so3.vee(so3.hat(v)), v)


def test_vee_rejects_non_skew():
    with pytest.raises(so3.NonSkewInputError):
        so3.vee(np.eye(3))
    # just above the 1e-9 symmetric-part gate
    s = so3.hat(np.ones(3))
    s[0, 1] += 3e-9
    with pytest.raises(so3.NonSkewInputError):
        so3.vee(s)


def test_exp_identity_and_quarter_turn():
    assert np.allclose(so3.exp_map(np.zeros(3)), np.eye(3))
    quarter = np.array([
        [0.0, -1.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0],
    ])
    assert np.allclose(so3.exp_map(np.array([0.0, 0.0, np.pi / 2])), quarter,
                       atol=1e-15)
    assert np.allclose(so3.exp_map(np.array([np.pi, 0.0, 0.0])),
                       np.diag([1.0, -1.0, -1.0]), atol=1e-12)


def test_exp_output_is_rotation():
    rng = np.random.default_rng(5)
    for _ in range(200):
        r = so3.exp_map(rng.normal(size=3) * 2.0)
        assert so3.is_rotation(r)


def test_log_identity_and_quarter_turn():
    assert np.array_equal(so3.log_map(np.eye(3)), np.zeros(3))
    quarter = np.array([
        [0.0, -1.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0],
    ])
    assert np.allclose(so3.log_map(quarter), [0.0, 0.0, np.pi / 2])


def test_log_exp_round_trip():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(1000):
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
        if n > np.pi - 0.1:
            v *= (np.pi - 0.1) / n
        worst = max(worst, np.linalg.norm(so3.log_map(so3.exp_map(v)) - v))
    assert worst < 1e-9


def test_exp_log_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(300):
        r = so3.random_rotation(rng)
        if so3.rotation_angle(r) >= np.pi - 1e-9:
            continue
        assert np.linalg.norm(so3.exp_map(so3.log_map(r)) - r) < 1e-9


def test_small_angle_branch():
    # Taylor branch territory: far below the 1e-6 switch
    for scale in (1e-7, 1e-9, 1e-12, 1e-15):
        v = np.array([0.6, -0.8, 0.0]) * scale
        r = so3.exp_map(v)
        assert so3.is_rotation(r, tol=1e-12)
        back = so3.log_map(r)
        assert np.linalg.norm(back - v) <= 1e-9 * max(scale, 1.0)
        # relative accuracy, not just absolute
        assert np.linalg.norm(back - v) <= 1e-6 * scale + 1e-300


def test_log_raises_at_pi():
    with pytest.raises(so3.AngleAtPiError):
        so3.log_map(np.diag([1.0, -1.0, -1.0]))
    # just inside the guard must still work
    v = np.array([np.pi - 1e-6, 0.0, 0.0])
    assert np.allclose(so3.log_map(so3.exp_map(v)), v, atol=1e-8)


def test_rotation_angle_well_conditioned_near_zero():
    # arccos((tr-1)/2) floors out around 1e-8; the implementation must not
    for theta in (1e-7, 1e-10, 1e-13):
        r = so3.exp_map(np.array([0.0, theta, 0.0]))
        assert abs(so3.rotation_angle(r) - theta) < 1e-3 * theta
    assert so3.rotation_angle(np.eye(3)) == 0.0


def test_conjugation_identity():
    rng = np.random.default_rng(8)
    for _ in range(100):
        q = so3.random_rotation(rng)
        r = so3.random_rotation(rng)
        if so3.rotation_angle(r) >= np.pi - 0.1:
            continue
        lhs = so3.hat(so3.log_map(q @ r @ q.T))
        rhs = q @ so3.hat(so3.log_map(r)) @ q.T
        assert np.linalg.norm(lhs - rhs) < 1e-9


def test_inverse_identity():
    rng = np.random.default_rng(9)
    for _ in range(100):
        r = so3.random_rotation(rng)
        if so3.rotation_angle(r) >= np.pi - 0.1:
            continue
        assert np.linalg.norm(so3.log_map(r.T) + so3.log_map(r)) < 1e-9


def test_geodesic_distance_examples():
    r = so3.random_rotation(11)
    assert so3.geodesic_distance(r, r) == 0.0
    assert abs(so3.geodesic_distance(
        np.eye(3), so3.exp_map(np.array([0.0, 0.0, 0.5]))) - 0.5) < 1e-12


def test_geodesic_distance_symmetric_and_triangle():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        a = so3.random_rotation(rng)
        b = so3.random_rotation(rng)
        c = so3.random_rotation(rng)
        try:
            dab = so3.geodesic_distance(a, b)
            dba = so3.geodesic_distance(b, a)
            dac = so3.geodesic_distance(a, c)
            dcb = so3.geodesic_distance(c, b)
        except so3.AngleAtPiError:
            continue
        assert abs(dab - dba) < 1e-9
        assert dab <= dac + dcb + 1e-9


def test_chordal_distance_examples():
    r = so3.random_rotation(13)
    assert so3.chordal_distance(r, r) == 0.0
    assert abs(so3.chordal_distance(np.eye(3), np.diag([1.0, -1.0, -1.0]))
               - 2.0 * np.sqrt(2.0)) < 1e-12


def test_chordal_monotone_in_angle():
    axis = np.array([0.0, 0.0, 1.0])
    thetas = np.linspace(0.01, np.pi - 0.01, 60)
    vals = [so3.chordal_distance(np.eye(3), so3.exp_map(t * axis))
            for t in thetas]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_skew_trace_inner_product_identities():
    rng = np.random.default_rng(14)
    for _ in range(100):
        x, y = rng.normal(size=3), rng.normal(size=3)
        lhs = float(x @ y)
        rhs = 0.5 * np.trace(so3.hat(x).T @ so3.hat(y))
        assert abs(lhs - rhs) < 1e-12
        a = rng.normal(size=(3, 3))
        lhs2 = float(np.trace(a @ so3.hat(x)))
        rhs2 = -float(x @ so3.vee(a - a.T))
        assert abs(lhs2 - rhs2) < 1e-12


def test_geodesic_sq_derivative_examples():
    assert so3.geodesic_sq_derivative(np.eye(3), so3.hat(np.ones(3))) == 0.0
    r = so3.exp_map(np.array([0.0, 0.0, 1.0]))
    for w in (0.25, -1.5):
        got = so3.geodesic_sq_derivative(r, so3.hat(np.array([0.0, 0.0, w])))
        assert abs(got - w) < 1e-12


def test_geodesic_sq_derivative_vs_finite_difference():
    rng = np.random.default_rng(15)
    h = 1e-5
    checked = 0
    while checked < 100:
        r = so3.random_rotation(rng)
        if so3.rotation_angle(r) > np.pi - 0.1:
            continue
        w = rng.normal(size=3)
        f = lambda t: 0.5 * np.linalg.norm(
            so3.log_map(r @ so3.exp_map(t * w))) ** 2
        fd = (f(h) - f(-h)) / (2.0 * h)
        got = so3.geodesic_sq_derivative(r, so3.hat(w))
        assert abs(got - fd) < 1e-6
        checked += 1


def test_quat_matrix_round_trip():
    rng = np.random.default_rng(16)
    for _ in range(300):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        r = so3.quat_to_matrix(q)
        assert so3.is_rotation(r)
        q2 = so3.matrix_to_quat(r)
        # q and -q encode the same rotation; canonical form has qw >= 0
        assert q2[3] >= 0.0
        sign = 1.0 if q @ q2 >= 0 else -1.0
        assert np.linalg.norm(q2 - sign * q) < 1e-12


def test_quat_scalar_last_convention():
    # qz = sin(pi/4), qw = cos(pi/4) is a quarter turn about z
    s = np.sin(np.pi / 4)
    r = so3.quat_to_matrix(np.array([0.0, 0.0, s, s]))
    assert np.allclose(r, so3.exp_map(np.array([0.0, 0.0, np.pi / 2])),
                       atol=1e-12)


def test_quat_normalized_on_ingest():
    q = np.array([0.0, 0.0, 1.0, 1.0]) * 7.3
    r = so3.quat_to_matrix(q)
    assert so3.is_rotation(r, tol=1e-12)
    with pytest.raises(ValueError):
        so3.quat_to_matrix(np.zeros(4))


def test_random_rotation_deterministic():
    assert np.array_equal(so3.random_rotation(42), so3.random_rotation(42))
    assert not np.array_equal(so3.random_rotation(42), so3.random_rotation(43))


def test_random_rotation_orthonormal_bulk():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        r = so3.random_rotation(rng)
        assert so3.orthonormality_drift(r) < 1e-9


def test_random_rotation_mean_trace():
    # Haar expectation of tr(R) is 0; a 1e6-sample Monte Carlo run gave
    # mean -0.0015, comfortably inside the 0.02 band used here at 1e5.
    rng = np.random.default_rng(2024)
    total = 0.0
    for _ in range(100_000):
        total += np.trace(so3.random_rotation(rng))
    assert abs(total / 100_000) < 0.02


def test_random_rotation_angle_distribution():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(77)
    n = 100_000
    angles = np.array([so3.rotation_angle(so3.random_rotation(rng))
                       for _ in range(n)])
    # Haar angle density (1 - cos t)/pi on [0, pi]; CDF (t - sin t)/pi
    edges = np.linspace(0.0, np.pi, 21)
    cdf = (edges - np.sin(edges)) / np.pi
    expected = np.diff(cdf) * n
    observed, _ = np.histogram(angles, bins=edges)
    stat = np.sum((observed - expected) ** 2 / expected)
    p = scipy_stats.chi2.sf(stat, df=len(expected) - 1)
    assert p > 0.05, f"chi-square p={p:.4f}, stat={stat:.1f}"


def test_project_to_rotation():
    rng = np.random.default_rng(18)
    r = so3.random_rotation(rng)
    noisy = r + 1e-4 * rng.normal(size=(3, 3))
    fixed = so3.project_to_rotation(noisy)
    assert so3.is_rotation(fixed, tol=1e-12)
    assert np.linalg.norm(fixed - r) < 1e-3
    # reflection is repaired into a proper rotation
    m = np.diag([1.0, 1.0, -1.0])
    assert np.linalg.det(so3.project_to_rotation(m)) > 0


def test_renormalize_is_noop_below_drift_tolerance():
    r = so3.random_rotation(19)
    assert so3.renormalize(r) is r
    dirty = r + 1e-8
    out = so3.renormalize(dirty)
    assert so3.is_rotation(out, tol=1e-12)


# -- stacked input ---------------------------------------------------------
#
# Every map takes a stack and must give, row by row, the bits of the
# single-matrix call, including at the angles where its branches switch:
# exactly zero (a residual at the ground truth), the series branch below
# 1e-6, and the last angles before the chart edge at pi - 1e-9.

_NEAR_PI = (np.pi - 1e-6, np.pi - 2e-9)
ANGLES = {
    "zero": st.just(0.0),
    "series": st.floats(0.0, 1e-6, exclude_max=True, allow_subnormal=False),
    "near_pi": st.floats(*_NEAR_PI),
    "generic": st.floats(1e-6, _NEAR_PI[0]),
}
_axes = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda a: np.linalg.norm(a) > 1e-3)


def _tangents(angle):
    return st.lists(st.tuples(angle, _axes), min_size=1, max_size=12).map(
        lambda rows: np.array([th * np.array(ax) / np.linalg.norm(ax)
                               for th, ax in rows]))


def _assert_stacked_equals_single(v):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rs = so3.exp_map(v)
        assert rs.shape == v.shape + (3,)
        for k in range(len(v)):
            assert np.array_equal(rs[k], so3.exp_map(v[k]))
        angles = so3.rotation_angle(rs)
        logs = so3.log_map(rs)
        for k in range(len(v)):
            assert angles[k] == so3.rotation_angle(rs[k])
            assert np.array_equal(logs[k], so3.log_map(rs[k]))
        # a stack of stacks is the same rows again
        assert np.array_equal(so3.log_map(rs[None]), logs[None])
    return rs, logs


@pytest.mark.parametrize("kind", sorted(ANGLES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_stacked_maps_equal_single_calls(kind, data):
    v = data.draw(_tangents(ANGLES[kind]))
    rs, logs = _assert_stacked_equals_single(v)
    theta = np.sqrt(so3.dot_rows(v, v))
    # round trip: log(exp(v)) recovers v; near pi the axis of r - r.T is
    # only known to about eps / sin(angle)
    err = np.sqrt(so3.dot_rows(logs - v, logs - v))
    tol = 1e-9 * theta
    near_pi = theta > np.pi / 2
    tol[near_pi] += 1e-15 / np.sin(theta[near_pi])
    assert np.all(err <= tol)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mixed_stack_equals_single_calls(data):
    parts = [data.draw(_tangents(a)) for a in ANGLES.values()]
    v = np.concatenate(parts)
    order = data.draw(st.permutations(range(len(v))))
    _assert_stacked_equals_single(v[list(order)])


def test_stacked_log_map_locates_the_angle_at_pi():
    rs = np.stack([np.eye(3), so3.exp_map([0.3, 0.0, 0.0]),
                   np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0])])
    with pytest.raises(so3.AngleAtPiError) as info:
        so3.log_map(rs.reshape(2, 2, 3, 3))
    assert info.value.index == (1, 0)
    with pytest.raises(so3.AngleAtPiError) as info:
        so3.log_map(rs[2])
    assert info.value.index == ()


def test_stacked_renormalize_projects_only_drifted_rows():
    rs = np.stack([so3.random_rotation(s) for s in range(4)])
    assert so3.renormalize(rs) is rs
    dirty = rs.copy()
    dirty[2] += 1e-8
    out = so3.renormalize(dirty)
    assert np.array_equal(out[[0, 1, 3]], rs[[0, 1, 3]])
    assert np.array_equal(out[2], so3.renormalize(dirty[2]))
    assert so3.is_rotation(out[2], tol=1e-12)


def _quat_by_norm(q):
    # the single-quaternion form normalized by the 1-D np.linalg.norm
    x, y, z, w = q / float(np.linalg.norm(q))
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


_quats = st.lists(
    st.tuples(st.tuples(*[st.floats(-1.0, 1.0)] * 4),
              st.sampled_from([1.0, 1.0 + 1e-9, 1e-3, 1e3, 1e-150, 1e150])),
    min_size=1, max_size=12).map(
    lambda rows: np.array([np.array(q) * s for q, s in rows])).filter(
    lambda q: np.all(so3.dot_rows(q, q) > 0.0))


@settings(max_examples=200, deadline=None)
@given(q=_quats)
def test_stacked_quat_to_matrix_equals_single_calls(q):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rs = so3.quat_to_matrix(q)
        assert rs.shape == (len(q), 3, 3)
        for k in range(len(q)):
            assert np.array_equal(rs[k], so3.quat_to_matrix(q[k]))
            assert np.array_equal(rs[k], _quat_by_norm(q[k]))
        assert np.array_equal(so3.quat_to_matrix(q[None]), rs[None])


def test_stacked_quat_to_matrix_rejects_a_zero_row():
    q = np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="zero quaternion"):
        so3.quat_to_matrix(q)


@pytest.mark.parametrize("q", [
    [1e200, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -1e200], [1e154] * 4,
    [np.nan, 0.0, 0.0, 1.0]], ids=["x", "w", "sum", "nan"])
def test_quat_to_matrix_rejects_a_norm_that_is_not_finite(q):
    # (1e200, 0, 0, 0) is a half turn about x, but its squared norm
    # overflows: it is rejected, not read as the identity, and without a
    # RuntimeWarning (which this suite turns into an error)
    with pytest.raises(so3.QuaternionNormError,
                       match="^quaternion norm is not finite$") as err:
        so3.quat_to_matrix(q)
    assert err.value.index == ()
    stack = np.array([[0.0, 0.0, 0.0, 1.0], q, [0.0, 0.0, 0.0, 0.0]])
    with pytest.raises(so3.QuaternionNormError) as err:
        so3.quat_to_matrix(stack.reshape(3, 1, 4))
    assert err.value.index == (1, 0)  # the first bad row, not the zero one
    # large quaternions whose squared norm stays finite are normalized
    assert np.array_equal(so3.quat_to_matrix([1e150, 0.0, 0.0, 0.0]),
                          np.diag([1.0, -1.0, -1.0]))


def _shepperd(r):
    # the single-matrix form: one scalar branch per call
    t = np.trace(r)
    case = int(np.argmax([t, r[0, 0], r[1, 1], r[2, 2]]))
    if case == 0:
        w = 0.5 * np.sqrt(1.0 + t)
        f = 0.25 / w
        x, y, z = (f * (r[2, 1] - r[1, 2]), f * (r[0, 2] - r[2, 0]),
                   f * (r[1, 0] - r[0, 1]))
    elif case == 1:
        x = 0.5 * np.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2])
        f = 0.25 / x
        w, y, z = (f * (r[2, 1] - r[1, 2]), f * (r[0, 1] + r[1, 0]),
                   f * (r[0, 2] + r[2, 0]))
    elif case == 2:
        y = 0.5 * np.sqrt(1.0 - r[0, 0] + r[1, 1] - r[2, 2])
        f = 0.25 / y
        w, x, z = (f * (r[0, 2] - r[2, 0]), f * (r[0, 1] + r[1, 0]),
                   f * (r[1, 2] + r[2, 1]))
    else:
        z = 0.5 * np.sqrt(1.0 - r[0, 0] - r[1, 1] + r[2, 2])
        f = 0.25 / z
        w, x, y = (f * (r[1, 0] - r[0, 1]), f * (r[0, 2] + r[2, 0]),
                   f * (r[1, 2] + r[2, 1]))
    q = np.array([x, y, z, w])
    if q[3] < 0.0:
        q = -q
    return q / np.linalg.norm(q)


def _branch(r):
    return int(np.argmax([np.trace(r), r[0, 0], r[1, 1], r[2, 2]]))


_HALF_TURN = st.floats(np.pi - 1e-6, np.pi)


def _assert_quats_equal_single_calls(rs):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        qs = so3.matrix_to_quat(rs)
        assert qs.shape == (len(rs), 4)
        for k in range(len(rs)):
            assert np.array_equal(qs[k], so3.matrix_to_quat(rs[k]))
            assert np.array_equal(qs[k], _shepperd(rs[k]))
        assert np.array_equal(so3.matrix_to_quat(rs[None]), qs[None])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_stacked_matrix_to_quat_equals_single_calls(data):
    # every angle kind, plus half turns about random axes, whose rows
    # take the x, y or z branch by their largest axis component
    v = np.concatenate([data.draw(_tangents(a))
                        for a in (*ANGLES.values(), _HALF_TURN)])
    order = data.draw(st.permutations(range(len(v))))
    _assert_quats_equal_single_calls(so3.exp_map(v[list(order)]))


def _every_branch():
    """The identity, a small turn, the three diagonal half turns, a turn
    1e-9 short of a half turn about each axis, and a tie of r00 and r11."""
    half_turns = [np.diag(d) for d in ([1.0, -1.0, -1.0], [-1.0, 1.0, -1.0],
                                       [-1.0, -1.0, 1.0])]
    near = [so3.exp_map((np.pi - 1e-9) * np.eye(3)[k]) for k in range(3)]
    tied = so3.exp_map(np.array([1.0, 1.0, 0.0]) * (np.pi - 1e-3) / np.sqrt(2.0))
    return np.stack([np.eye(3), so3.exp_map([0.3, -0.2, 0.1])]
                    + half_turns + near + [tied])


def test_matrix_to_quat_covers_every_branch():
    rs = _every_branch()
    assert {_branch(r) for r in rs} == {0, 1, 2, 3}
    _assert_quats_equal_single_calls(rs)


def _shepperd_floats(r):
    """Shepperd's four cases for one matrix, in plain Python floats: the
    quaternion ``[x, y, z, w]`` before normalizing, with ``w >= 0``."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = r.tolist()
    t = ((0.0 + r00) + r11) + r22
    case = max(range(4), key=[t, r00, r11, r22].__getitem__)  # first of ties
    if case == 0:
        w = 0.5 * math.sqrt(1.0 + t)
        f = 0.25 / w
        q = [f * (r21 - r12), f * (r02 - r20), f * (r10 - r01), w]
    elif case == 1:
        x = 0.5 * math.sqrt(1.0 + r00 - r11 - r22)
        f = 0.25 / x
        q = [x, f * (r01 + r10), f * (r02 + r20), f * (r21 - r12)]
    elif case == 2:
        y = 0.5 * math.sqrt(1.0 - r00 + r11 - r22)
        f = 0.25 / y
        q = [f * (r01 + r10), y, f * (r12 + r21), f * (r02 - r20)]
    else:
        z = 0.5 * math.sqrt(1.0 - r00 - r11 + r22)
        f = 0.25 / z
        q = [f * (r02 + r20), f * (r12 + r21), z, f * (r10 - r01)]
    return [-c for c in q] if q[3] < 0.0 else q


def test_matrix_to_quat_equals_a_scalar_oracle():
    # the stacked tests above only compare a stack with single calls, so
    # an arithmetic change that kept that equality would pass them; this
    # oracle pins the arithmetic. Its norm is the module's one
    # reduction, dot_rows (an FMA chain on some builds, which plain
    # Python floats cannot spell), pinned by its own tests.
    rng = np.random.default_rng(2024)
    random = so3.quat_to_matrix(rng.standard_normal((100_000, 4)))
    axes = rng.standard_normal((1000, 3))
    axes /= np.sqrt(so3.dot_rows(axes, axes))[:, None]
    near_half = so3.exp_map(
        axes * (np.pi - 10.0 ** rng.uniform(-12, -3, 1000))[:, None])
    rs = np.concatenate([random, near_half, _every_branch()])
    raw = np.array([_shepperd_floats(r) for r in rs])
    want = raw / np.sqrt(so3.dot_rows(raw, raw))[:, None]
    assert so3.matrix_to_quat(rs).tobytes() == want.tobytes()
    cases = np.bincount([_branch(r) for r in random], minlength=4)
    assert cases.min() > 20_000  # every case is well covered

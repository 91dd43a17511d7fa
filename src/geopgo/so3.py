"""Rotation-group primitives used throughout the package.

All rotations are 3x3 numpy arrays acting on column vectors. Axis-angle
tangent vectors live in R^3 and are mapped to skew-symmetric matrices by
:func:`hat`. Quaternions are scalar-last ``(qx, qy, qz, qw)``.

The maps (:func:`hat`, :func:`exp_map`, :func:`log_map`,
:func:`rotation_angle`, :func:`renormalize`, :func:`quat_to_matrix`,
:func:`matrix_to_quat`) also take stacks ``(..., 3)``, ``(..., 4)`` or
``(..., 3, 3)``, so one call covers every edge of a graph. There is one
implementation of each: a single matrix is a stack of one, and each row
of a stacked result equals the single call bit for bit (see
:func:`dot_rows` for the one reduction that needs care).
"""

from __future__ import annotations

import numpy as np

_SMALL_ANGLE = 1e-6  # below this, series expansions replace sin/cos ratios
_SKEW_TOL = 1e-9
_PI_GUARD = 1e-9  # log chart excludes angles within this margin of pi
_ORTHO_DRIFT_TOL = 1e-12


class NonSkewInputError(ValueError):
    """A matrix that should be skew-symmetric is not."""


class _RowError(ValueError):
    """``index`` locates the first bad row of a stack, ``()`` for one."""

    def __init__(self, message: str, index: tuple[int, ...] = ()) -> None:
        super().__init__(message)
        self.index = index


class AngleAtPiError(_RowError):
    """Rotation angle is at or beyond the edge of the logarithm chart."""


class QuaternionNormError(_RowError):
    """A quaternion's norm is zero or not finite: it has no direction."""


def dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the last axes of ``a`` and ``b``.

    One ``np.vecdot`` call, which equals ``np.dot`` of each row pair and
    the stacked ``(1, k) @ (k, 1)`` product bit for bit; ``np.einsum``
    and ``np.sum(a * b, axis=-1)`` may round differently.
    """
    return np.vecdot(a, b)


# Entries of a flat (9,) skew matrix that hold v[0..2], then -v[0..2]:
# vee(r - r.T) is r[_VEE_PLUS] - r[_VEE_MINUS].
_VEE_PLUS = np.array([7, 2, 3])
_VEE_MINUS = np.array([5, 6, 1])
# read-only, so no caller can change it for the others
_EYE = np.eye(3)
_EYE.flags.writeable = False


def _skew_part(f: np.ndarray) -> np.ndarray:
    """``vee(r - r.T)`` of each row of a flat ``(N, 9)`` stack of
    matrices, without the skew check: two column gathers and one
    subtract."""
    return f[:, _VEE_PLUS] - f[:, _VEE_MINUS]


def _trace(f: np.ndarray) -> np.ndarray:
    """Trace of each row of a flat ``(N, 9)`` stack of matrices, added as
    ``((0 + r00) + r11) + r22``: the order of ``np.trace``, so its bits,
    signed zeros included."""
    return ((0.0 + f[:, 0]) + f[:, 4]) + f[:, 8]


def hat(v: np.ndarray) -> np.ndarray:
    """Map 3-vectors ``(..., 3)`` to skew cross-product matrices ``(..., 3, 3)``.

    Writes the six entries of each flat ``(9,)`` row by one index,
    ``v`` at :data:`_VEE_PLUS` and ``-v`` at :data:`_VEE_MINUS`.
    """
    v = np.asarray(v, dtype=float)
    s = np.zeros(v.shape[:-1] + (9,))
    s[..., _VEE_PLUS] = v
    s[..., _VEE_MINUS] = -v
    return s.reshape(v.shape + (3,))


def vee(s: np.ndarray) -> np.ndarray:
    """The 3-vector ``v`` with ``hat(v) == s`` of a 3x3 skew matrix ``s``.

    Raises:
        NonSkewInputError: if ``norm(s + s.T)`` exceeds 1e-9.
    """
    s = np.asarray(s, dtype=float)
    defect = float(np.linalg.norm(s + s.T))
    if defect > _SKEW_TOL:
        raise NonSkewInputError(
            f"matrix is not skew-symmetric (defect {defect:.3e})")
    return np.array([s[2, 1], s[0, 2], s[1, 0]])


def exp_map(v: np.ndarray) -> np.ndarray:
    """Rodrigues exponential: axis-angle vectors to rotation matrices.

    Takes one vector ``(3,)`` or a stack ``(..., 3)`` and returns
    ``(3, 3)`` or ``(..., 3, 3)``; each matrix equals the one-vector call
    bit for bit. Uses second-order series coefficients below an angle of
    1e-6 so the map stays smooth and exact-to-double through zero.
    """
    v = np.asarray(v, dtype=float)
    flat = v.reshape(-1, 3)
    theta = np.sqrt(dot_rows(flat, flat))
    theta2 = theta * theta
    a = 1.0 - theta2 / 6.0
    b = 0.5 - theta2 / 24.0
    big = theta >= _SMALL_ANGLE  # elsewhere the series; no 0/0 at zero
    np.divide(np.sin(theta), theta, out=a, where=big)
    np.divide(1.0 - np.cos(theta), theta2, out=b, where=big)
    s = hat(flat)
    r = _EYE + a[:, None, None] * s + b[:, None, None] * (s @ s)
    return r.reshape(v.shape + (3,))


def rotation_angle(r: np.ndarray) -> float | np.ndarray:
    """Geodesic angle of a rotation, in [0, pi].

    Computed as ``atan2(|skew part|, (trace - 1) / 2)``, which keeps full
    precision at tiny angles where an arccosine of the trace would bottom
    out near sqrt(machine epsilon). A single ``(3, 3)`` matrix gives a
    float, a stack ``(..., 3, 3)`` an array of angles.
    """
    r = np.asarray(r, dtype=float)
    theta, _ = _angle(r)
    return float(theta[0]) if r.ndim == 2 else theta.reshape(r.shape[:-2])


def _angle(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`rotation_angle` of each matrix of ``r`` ``(..., 3, 3)``, and
    its ``vee(r - r.T)``, as ``(N,)`` and ``(N, 3)`` over the flattened
    stack; both read columns of its flat ``(N, 9)`` view."""
    f = r.reshape(-1, 9)
    skew = _skew_part(f)
    s = 0.5 * skew
    c = (_trace(f) - 1.0) / 2.0
    return np.arctan2(np.sqrt(dot_rows(s, s)), c), skew


def log_map(r: np.ndarray) -> np.ndarray:
    """Inverse of :func:`exp_map` on the open ball of radius pi: the
    axis-angle vector ``(3,)`` (or ``(..., 3)``), as long as the angle, of
    a rotation ``(3, 3)`` (or a stack ``(..., 3, 3)``) whose geodesic
    angle is below ``pi - 1e-9``.

    Raises:
        AngleAtPiError: when an angle reaches the chart boundary, where
            the axis is not recoverable from ``r - r.T``; its ``index``
            locates the first such matrix in a stack.
    """
    r = np.asarray(r, dtype=float)
    theta, skew = _angle(r)
    at_pi = theta >= np.pi - _PI_GUARD
    if at_pi.any():
        k = int(np.argmax(at_pi))
        index = tuple(int(i) for i in np.unravel_index(k, r.shape[:-2]))
        raise AngleAtPiError(
            f"rotation angle {theta[k]:.12f} is within 1e-9 of pi; "
            "logarithm is outside its chart", index)
    coef = 0.5 * (1.0 + theta * theta / 6.0)
    np.divide(theta, 2.0 * np.sin(theta), out=coef,
              where=theta >= _SMALL_ANGLE)
    return (coef[:, None] * skew).reshape(r.shape[:-1])


def named_log_map(r: np.ndarray, name, start: int = 0) -> np.ndarray:
    """:func:`log_map` of a stack whose row ``k`` is called ``name(start + k)``.

    Raises:
        AngleAtPiError: as :func:`log_map`, with the row's name in the
            message and ``(start + k,)`` as the index.
    """
    try:
        return log_map(r)
    except AngleAtPiError as exc:
        k = start + exc.index[0]
        raise AngleAtPiError(f"{name(k)}: {exc}", (k,)) from None


def geodesic_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Angle of the relative rotation between two rotation matrices."""
    return float(np.linalg.norm(log_map(np.asarray(a).T @ np.asarray(b))))


def chordal_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of the difference of two rotation matrices."""
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


def geodesic_sq_derivative(r: np.ndarray, r_dot_body: np.ndarray) -> float:
    """Time derivative of ``0.5 * angle(r)^2`` along the body-frame
    velocity ``r_dot_body = r.T @ dr/dt``, a skew matrix:
    ``log_map(r) . vee(r_dot_body)``."""
    return float(log_map(r) @ vee(r_dot_body))


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Convert a scalar-last quaternion, or a stack ``(..., 4)`` of them,
    to a rotation matrix ``(3, 3)`` (or ``(..., 3, 3)``).

    Each quaternion is normalized first, so mildly denormalized inputs
    (e.g. file round-off) are accepted. The norm is ``sqrt`` of
    :func:`dot_rows`, which equals ``np.linalg.norm`` of one quaternion
    bit for bit, so each row of a stack equals the single call.

    Raises:
        QuaternionNormError: a norm is zero or not finite, as that of
            ``(1e200, 0, 0, 0)``, whose square overflows (without a
            warning); its ``index`` locates the first such row.
    """
    q = np.asarray(q, dtype=float)
    with np.errstate(over="ignore"):
        n = np.sqrt(dot_rows(q, q))
    ok = (n > 0.0) & (n < np.inf)
    if not ok.all():
        index = tuple(map(int, np.argwhere(~ok)[0]))
        reason = ("zero quaternion has no direction" if n[index] == 0.0
                  else "quaternion norm is not finite")
        raise QuaternionNormError(reason, index)
    x, y, z, w = np.moveaxis(q / n[..., None], -1, 0)
    return np.stack([
        1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - z * w), 2.0 * (x * z + y * w),
        2.0 * (x * y + z * w), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - x * w),
        2.0 * (x * z - y * w), 2.0 * (y * z + x * w), 1.0 - 2.0 * (x * x + y * y),
    ], axis=-1).reshape(q.shape[:-1] + (3, 3))


# Shepperd's cases 0..3 (w, x, y, z largest): the diagonal's signs in an
# axis case's radicand, and where (big, skew, sym) go in (x, y, z, w)
_SHEPPERD_SIGNS = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
_SHEPPERD_SLOTS = np.array([[1, 2, 3, 0], [0, 6, 5, 1], [6, 0, 4, 2],
                            [5, 4, 0, 3]])


def matrix_to_quat(r: np.ndarray) -> np.ndarray:
    """Convert a rotation matrix ``(3, 3)``, or a stack ``(..., 3, 3)``,
    to a scalar-last quaternion ``(4,)`` (or ``(..., 4)``) with qw >= 0.

    Shepperd's method, one step for its four cases: a row's case (the
    largest of trace, r00, r11, r22) picks the radicand of its largest
    component ``big``, and :data:`_SHEPPERD_SLOTS` places ``big`` and the
    skew parts and symmetric sums times ``0.25 / big``. The norm is
    ``sqrt`` of :func:`dot_rows`, so each row of a stack equals the
    single call bit for bit.
    """
    r = np.asarray(r, dtype=float)
    f = r.reshape(-1, 9)
    trace, diag = _trace(f), f[:, ::4]
    case = np.argmax(np.column_stack((trace, diag)), axis=1)
    s = diag * _SHEPPERD_SIGNS[case]
    big = 0.5 * np.sqrt(np.where(case == 0, 1.0 + trace,
                                 ((1.0 + s[:, 0]) + s[:, 1]) + s[:, 2]))
    scale = (0.25 / big)[:, None]
    candidates = np.column_stack((big, scale * _skew_part(f),
                                  scale * (f[:, _VEE_PLUS] + f[:, _VEE_MINUS])))
    q = np.take_along_axis(candidates, _SHEPPERD_SLOTS[case], axis=1)
    q = np.where(q[:, 3:] < 0.0, -q, q)
    q /= np.sqrt(dot_rows(q, q))[:, None]
    return q.reshape(r.shape[:-2] + (4,))


def random_rotation(rng: int | np.random.Generator | None = None) -> np.ndarray:
    """Draw a rotation uniformly from the Haar measure on SO(3).

    Samples four iid standard normals, normalizes them into a unit
    quaternion, and converts. Accepts a seed or an existing Generator so
    callers can thread one deterministic stream through many draws.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    q = rng.standard_normal(4)
    while np.linalg.norm(q) < 1e-12:  # pragma: no cover - probability ~0
        q = rng.standard_normal(4)
    # standard_normal order is (x, y, z, w) here; any fixed convention is
    # Haar-uniform, but the order is part of the deterministic stream.
    return quat_to_matrix(q / np.linalg.norm(q))


def project_to_rotation(m: np.ndarray) -> np.ndarray:
    """Nearest rotation matrix in the Frobenius sense (polar projection),
    of one matrix or of each in a stack."""
    u, _, vt = np.linalg.svd(np.asarray(m, dtype=float))
    flip = np.zeros(u.shape)
    flip[..., 0, 0] = flip[..., 1, 1] = 1.0
    flip[..., 2, 2] = np.sign(np.linalg.det(u @ vt))
    return u @ flip @ vt


def orthonormality_drift(r: np.ndarray) -> float | np.ndarray:
    """Frobenius distance of ``r.T @ r`` from the identity, per matrix.

    The left operand is a contiguous copy of the transposes: numpy
    multiplies a transposed view by its own buffer on a slower BLAS path
    (a symmetric rank-k update) that gives the same bits.
    """
    r = np.asarray(r, dtype=float)
    rt = np.ascontiguousarray(np.swapaxes(r, -1, -2))
    e = (rt @ r - _EYE).reshape(r.shape[:-2] + (9,))
    drift = np.sqrt(dot_rows(e, e))
    return float(drift) if r.ndim == 2 else drift


def renormalize(r: np.ndarray) -> np.ndarray:
    """Re-project onto SO(3) each matrix whose drift exceeds 1e-12.

    Returns the input itself when no matrix drifted, so repeated calls
    are cheap and bit-stable; only drifted matrices pay for an SVD.
    """
    r = np.asarray(r, dtype=float)
    drifted = orthonormality_drift(r) > _ORTHO_DRIFT_TOL
    if not np.any(drifted):
        return r
    out = r.copy()  # a single matrix is indexed by a 0-d mask here
    out[drifted] = project_to_rotation(r[drifted])
    return out


def is_rotation(r: np.ndarray, tol: float = 1e-9) -> bool:
    """True when ``r`` is orthonormal with determinant +1 to tolerance."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        return False
    return (orthonormality_drift(r) <= tol
            and abs(float(np.linalg.det(r)) - 1.0) <= tol)

"""Rotation and rigid-transform algebra.

Conventions, fixed repo-wide:
  - quaternions are stored (w, x, y, z) and follow the Hamilton convention;
  - poses are camera-to-world: the rotation maps camera-frame vectors into
    the world frame and the translation is the camera center in the world.

The batched section at the end is the one pose algebra.  It works on
(..., 4) wxyz arrays and (..., 3) vectors: the quaternion product,
normalization, vector rotation and norms, the exponential map, relative
poses, geodesic angles, quaternion-to-matrix, skew and the SO(3) right
Jacobian.  UnitQuaternion and Pose are the validated records that
trajectories hold.  Only quat_multiply keeps a scalar body, for the random
walk's heading chain, which is sequential.

A stream frame calls these on about 60 rows, where a ufunc costs about a
microsecond and np.stack or np.concatenate several, so an operation that
returns several components assigns each component's expression into one
np.empty output instead of stacking them: the same expressions, hence the
same bits, signed zeros included.

Everything here is immutable after construction; no function mutates its
arguments.
"""

import math
from dataclasses import dataclass, field

import numpy as np


class DegenerateInput(ValueError):
    """Raised when an alignment problem is under-determined."""


@dataclass(frozen=True, slots=True)
class UnitQuaternion:
    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        n = math.sqrt(self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z)
        if not 1e-12 <= n < math.inf:
            raise ValueError("cannot normalize a near-zero or non-finite quaternion")
        object.__setattr__(self, "w", self.w / n)
        object.__setattr__(self, "x", self.x / n)
        object.__setattr__(self, "y", self.y / n)
        object.__setattr__(self, "z", self.z / n)

    @staticmethod
    def identity():
        return UnitQuaternion(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_unit(cls, w, x, y, z):
        """Wrap components that are already normalized, such as a row of
        a quat_normalize result, without dividing by their norm again:
        a second normalization moves the last bit of about a third of
        unit quaternions."""
        q = object.__new__(cls)
        for name, value in zip("wxyz", (w, x, y, z)):
            object.__setattr__(q, name, value)
        return q

    def as_array(self):
        return np.array([self.w, self.x, self.y, self.z])


# The one scalar operation: the random walk's heading chain multiplies one
# pose at a time, 8 ms per 2,000 frames here against 40 ms through
# one-row quat_product/quat_normalize calls (2-core Xeon, numpy 2.4).
def quat_multiply(a: UnitQuaternion, b: UnitQuaternion) -> UnitQuaternion:
    """Hamilton product a ⊗ b, renormalized."""
    return UnitQuaternion(
        a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
        a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
        a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
        a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
    )


@dataclass(frozen=True, slots=True)
class Pose:
    rotation: UnitQuaternion
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        t = np.array(self.translation, dtype=float)
        if t.shape != (3,):
            raise ValueError("translation must be a 3-vector")
        if not all(map(math.isfinite, t.tolist())):
            raise ValueError("translation must be finite")
        t.setflags(write=False)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity():
        return Pose(UnitQuaternion.identity(), np.zeros(3))


def umeyama_sim3(source, target):
    """Least-squares similarity transform (scale, R, t) mapping source
    points onto target: target ≈ scale * source @ R.T + t, with R a 3x3
    rotation matrix (Umeyama, TPAMI 1991).

    SVD of the 3x3 cross-covariance; the reflection case is handled by
    sign-flipping the smallest singular direction, so det(R) = +1.
    """
    src = np.asarray(source, dtype=float)
    dst = np.asarray(target, dtype=float)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 3:
        raise DegenerateInput("point sets must both be N x 3")
    n = src.shape[0]
    if n < 3:
        raise DegenerateInput("need at least 3 point pairs")
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    xs = src - mu_s
    xd = dst - mu_d
    # overflowing points make these inf or nan, on which the SVD may not return
    with np.errstate(over="ignore", invalid="ignore"):
        var_s = (xs ** 2).sum() / n
        cov = xd.T @ xs / n
    if not (math.isfinite(var_s) and np.isfinite(cov).all()):
        raise DegenerateInput("point sets overflow: variance or covariance not finite")
    if var_s < 1e-18:
        raise DegenerateInput("source points have zero variance")
    U, d, Vt = np.linalg.svd(cov)
    S = np.eye(3)
    if np.linalg.det(U) * np.linalg.det(Vt) < 0:
        S[2, 2] = -1.0
    R = U @ S @ Vt
    scale = float(np.trace(np.diag(d) @ S) / var_s)
    if scale <= 0:
        raise DegenerateInput("degenerate geometry produced non-positive scale")
    return scale, R, mu_d - scale * R @ mu_s


# --- batched rotation algebra: (..., 4) wxyz arrays, (..., 3) vectors ---

def quat_product(a, b):
    """Hamilton product a ⊗ b of wxyz arrays (broadcast), not renormalized."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    w = aw * bw - ax * bx - ay * by - az * bz
    out = np.empty(np.shape(w) + (4,))
    out[..., 0] = w
    out[..., 1] = aw * bx + ax * bw + ay * bz - az * by
    out[..., 2] = aw * by - ax * bz + ay * bw + az * bx
    out[..., 3] = aw * bz + ax * by - ay * bx + az * bw
    return out


def quat_normalize(q):
    """Unit quaternions from (..., 4) arrays, by the same expression as
    UnitQuaternion's normalization, so a row normalizes to the same bits
    in a batch as alone.  Raises ValueError on a near-zero or non-finite
    row."""
    q = np.asarray(q, dtype=float)
    sq = q * q
    n = np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2] + sq[..., 3])
    # min/max propagate NaN, which fails both comparisons
    if not (n.min(initial=1.0) >= 1e-12 and n.max(initial=1.0) < math.inf):
        raise ValueError("cannot normalize a near-zero or non-finite quaternion")
    return q / n[..., None]


def quat_apply(q, v):
    """Rotate (..., 3) vectors by (..., 4) unit quaternions (broadcast),
    q v q*."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    # t = 2 (u x v), v' = v + w t + u x t
    tx = 2.0 * (y * v2 - z * v1)
    ty = 2.0 * (z * v0 - x * v2)
    tz = 2.0 * (x * v1 - y * v0)
    r0 = v0 + w * tx + (y * tz - z * ty)
    out = np.empty(np.shape(r0) + (3,))
    out[..., 0] = r0
    out[..., 1] = v1 + w * ty + (z * tx - x * tz)
    out[..., 2] = v2 + w * tz + (x * ty - y * tx)
    return out


def norms(v):
    """Euclidean norms of (..., 3) vectors, sqrt(v . v) as a matrix product:
    like np.linalg.norm of one vector (unlike np.linalg.norm along an
    axis), it gives a vector the same bits alone or inside a batch."""
    v = np.asarray(v, dtype=float)
    return np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0, 0]


def quat_exp(v):
    """Exponential map: rotation vectors (axis * angle) to unit quaternions.

    Below 1e-12 rad the first-order expansion keeps it smooth through zero.
    """
    v = np.asarray(v, dtype=float)
    angle = norms(v)
    half = 0.5 * angle
    small = angle < 1e-12
    s = np.where(small, 0.5, np.sin(half))
    axis = v / np.where(small, 1.0, angle)[..., None]
    out = np.empty(v.shape[:-1] + (4,))
    out[..., 0] = np.cos(half)
    out[..., 1:] = s[..., None] * axis
    return out


_CONJUGATE = np.array([1.0, -1.0, -1.0, -1.0])


def relative_poses(qa, ta, qb, tb):
    """Relative transforms a^-1 b of (..., 4) wxyz rotations and (..., 3)
    translations (broadcast): the conjugate of a and the product are
    renormalized."""
    inv = quat_normalize(np.asarray(qa, dtype=float) * _CONJUGATE)
    return (quat_normalize(quat_product(inv, qb)),
            quat_apply(inv, tb) - quat_apply(inv, ta))


def quat_angle_deg(a, b):
    """Geodesic angles in degrees, in [0, 180], between (..., 4) unit
    quaternions (broadcast).

    Computed via atan2 of the relative quaternion's vector/scalar parts,
    which stays accurate near zero where acos loses precision.  Invariant
    under the quaternion double cover (a vs -a).
    """
    inv = quat_normalize(np.asarray(a, dtype=float) * _CONJUGATE)
    r = quat_normalize(quat_product(inv, b))
    x, y, z = r[..., 1], r[..., 2], r[..., 3]
    vn = np.sqrt(x * x + y * y + z * z)
    return np.degrees(2.0 * np.arctan2(vn, np.abs(r[..., 0])))


def quat_to_matrix(q):
    """Unit quaternions (..., 4) to rotation matrices (..., 3, 3)."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    out = np.empty(q.shape[:-1] + (3, 3))
    out[..., 0, 0] = 1 - 2 * (y * y + z * z)
    out[..., 0, 1] = 2 * (x * y - w * z)
    out[..., 0, 2] = 2 * (x * z + w * y)
    out[..., 1, 0] = 2 * (x * y + w * z)
    out[..., 1, 1] = 1 - 2 * (x * x + z * z)
    out[..., 1, 2] = 2 * (y * z - w * x)
    out[..., 2, 0] = 2 * (x * z - w * y)
    out[..., 2, 1] = 2 * (y * z + w * x)
    out[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return out


def skew(v):
    """Cross-product matrices [v]x of (..., 3) vectors."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def right_jacobian(w):
    """Right Jacobian of SO(3): Exp(w + d) ~ Exp(w) Exp(Jr(w) d)."""
    theta = np.linalg.norm(w, axis=-1)
    K = skew(w)
    K2 = K @ K
    t2 = np.maximum(theta * theta, 1e-300)
    t3 = np.maximum(theta * theta * theta, 1e-300)
    a = np.where(theta < 1e-6, 0.5 - t2 / 24.0, (1.0 - np.cos(theta)) / t2)
    b = np.where(theta < 1e-6, 1.0 / 6.0 - t2 / 120.0, (theta - np.sin(theta)) / t3)
    return np.eye(3) - a[..., None, None] * K + b[..., None, None] * K2

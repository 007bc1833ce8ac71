import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.spatial.transform import Rotation

from relpose.geom import (DegenerateInput, Pose, UnitQuaternion,
                          norms, quat_angle_deg, quat_apply, quat_exp,
                          quat_multiply, quat_normalize, quat_product,
                          quat_to_matrix, relative_poses, right_jacobian, skew,
                          umeyama_sim3)
from conftest import angle_deg, random_pose, random_quat

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
quats = st.tuples(finite, finite, finite, finite).filter(
    lambda t: sum(v * v for v in t) > 1e-6).map(lambda t: UnitQuaternion(*t))
IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def matrix(q):
    return quat_to_matrix(q.as_array())


def about_z(angle):
    """The rotation by angle (radians) about the z axis."""
    return UnitQuaternion(*quat_exp([0.0, 0.0, angle]).tolist())


class TestUnitQuaternion:
    def test_normalized_on_construction(self):
        q = UnitQuaternion(2.0, 0.0, 0.0, 0.0)
        assert q.w == 1.0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            UnitQuaternion(0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("components", [
        (math.nan, 0.0, 0.0, 0.0), (math.inf, 0.0, 0.0, 0.0),
        (1.0, -math.inf, 0.0, 0.0), (1.0, 0.0, 0.0, math.nan)])
    def test_non_finite_rejected(self, components):
        with pytest.raises(ValueError):
            UnitQuaternion(*components)

    @given(quats)
    def test_normalization_idempotent(self, q):
        q2 = UnitQuaternion(q.w, q.x, q.y, q.z)
        # renormalizing a unit quaternion may move each component by ~1 ulp
        assert np.allclose([q2.w, q2.x, q2.y, q2.z],
                           [q.w, q.x, q.y, q.z], atol=1e-15)

    def test_rotvec_round_trip(self, rng):
        for _ in range(100):
            v = rng.normal(scale=1.0, size=3)
            norm = np.linalg.norm(v)
            if norm >= np.pi:  # beyond pi the canonical rotvec wraps
                v *= (np.pi - 1e-3) / norm
            w, x, y, z = quat_exp(v)
            rotvec = Rotation.from_quat([x, y, z, w]).as_rotvec()  # xyzw
            assert np.allclose(rotvec, v, atol=1e-10)


class TestQuatOps:
    def test_identity_product(self):
        e = UnitQuaternion.identity()
        assert angle_deg(quat_multiply(e, e), e) == 0.0

    def test_inverse_product(self, rng):
        for _ in range(20):
            q = random_quat(rng)
            conjugate = UnitQuaternion(q.w, -q.x, -q.y, -q.z)
            assert angle_deg(quat_multiply(q, conjugate),
                             UnitQuaternion.identity()) < 1e-9

    def test_two_quarter_turns(self):
        q90 = about_z(math.pi / 2)
        q180 = about_z(math.pi)
        prod = quat_multiply(q90, q90)
        # oracle: product of the 3x3 rotation matrices
        assert np.allclose(matrix(prod), matrix(q90) @ matrix(q90),
                           atol=1e-12)
        assert angle_deg(prod, q180) < 1e-9

    def test_multiply_matches_matrix_oracle(self, rng):
        for _ in range(200):
            a, b = random_quat(rng), random_quat(rng)
            assert np.allclose(matrix(quat_multiply(a, b)),
                               matrix(a) @ matrix(b), atol=1e-9)

    @given(quats, quats, quats)
    @settings(max_examples=50)
    def test_multiply_associative(self, a, b, c):
        lhs = quat_multiply(quat_multiply(a, b), c)
        rhs = quat_multiply(a, quat_multiply(b, c))
        assert angle_deg(lhs, rhs) < 1e-9

    def test_rotate_identity(self):
        assert np.allclose(quat_apply(IDENTITY, [1, 2, 3]), [1, 2, 3])

    def test_rotate_half_turn(self):
        q = about_z(math.pi).as_array()
        assert np.allclose(quat_apply(q, [1, 0, 0]), [-1, 0, 0], atol=1e-12)

    def test_rotate_matches_matrix_oracle(self, rng):
        q = np.array([random_quat(rng).as_array() for _ in range(200)])
        v = rng.normal(size=(200, 3))
        out = quat_apply(q, v)
        assert np.allclose(out, (quat_to_matrix(q) @ v[:, :, None])[:, :, 0], atol=1e-9)
        assert np.allclose(norms(out), norms(v), rtol=0, atol=1e-9)
        # one rotation broadcasts against many vectors
        assert np.array_equal(quat_apply(q[0], v), quat_apply(np.tile(q[0], (200, 1)), v))


def random_rotvecs(rng, n):
    """Rotation vectors with angles below pi, a few below the 1e-12 branch."""
    v = rng.normal(size=(n, 3))
    v *= rng.uniform(0.0, np.pi - 1e-3, size=(n, 1)) / np.linalg.norm(v, axis=1, keepdims=True)
    v[:5] *= 1e-13
    return v


class TestBatchedRotations:
    def test_product_matches_scalar(self, rng):
        a = [random_quat(rng) for _ in range(200)]
        b = [random_quat(rng) for _ in range(200)]
        out = quat_product([q.as_array() for q in a], [q.as_array() for q in b])
        expect = [quat_multiply(p, q).as_array() for p, q in zip(a, b)]
        # the scalar product renormalizes, which may move each component ~1 ulp
        assert np.allclose(out, expect, rtol=0, atol=1e-15)
        # one row broadcasts against many
        assert np.array_equal(quat_product(a[0].as_array(), out[:3]),
                              quat_product(np.tile(a[0].as_array(), (3, 1)), out[:3]))

    def test_normalize_matches_scalar_bitwise(self, rng):
        raw = rng.normal(size=(500, 4)) * rng.uniform(0.1, 10, size=(500, 1))
        expect = [UnitQuaternion(*row).as_array() for row in raw]
        assert np.array_equal(quat_normalize(raw), expect)
        assert np.array_equal(quat_normalize(raw[7]), expect[7])

    @pytest.mark.parametrize("row", [(0.0, 0.0, 0.0, 0.0), (math.nan, 0.0, 0.0, 0.0),
                                     (1.0, math.inf, 0.0, 0.0)])
    def test_normalize_rejects_degenerate_rows(self, row):
        with pytest.raises(ValueError):
            quat_normalize([(1.0, 0.0, 0.0, 0.0), row])

    def test_norms_match_linalg_norm_bitwise(self, rng):
        v = rng.normal(size=(1000, 3)) * np.exp(rng.uniform(-20, 20, size=(1000, 1)))
        assert np.array_equal(norms(v), [np.linalg.norm(x) for x in v])
        assert norms(v[3]) == np.linalg.norm(v[3])

    def test_from_unit_keeps_the_bits(self, rng):
        for row in quat_normalize(rng.normal(size=(200, 4))).tolist():
            assert UnitQuaternion.from_unit(*row).as_array().tolist() == row

    def test_to_matrix_matches_scipy(self, rng):
        q = np.array([random_quat(rng).as_array() for _ in range(200)])
        expect = Rotation.from_quat(q[:, [1, 2, 3, 0]]).as_matrix()
        assert np.allclose(quat_to_matrix(q), expect, rtol=0, atol=1e-14)
        assert quat_to_matrix(q[0]).shape == (3, 3)

    def test_exp_matches_scipy(self, rng):
        v = random_rotvecs(rng, 200)
        expect = Rotation.from_rotvec(v).as_quat()[:, [3, 0, 1, 2]]
        assert np.allclose(quat_exp(v), expect, rtol=0, atol=1e-15)
        assert np.array_equal(quat_exp(v[7]), quat_exp(v)[7])

    def test_cross_product_matrix(self, rng):
        a, b = rng.normal(size=(50, 3)), rng.normal(size=(50, 3))
        assert np.allclose((skew(a) @ b[:, :, None])[:, :, 0], np.cross(a, b),
                           rtol=0, atol=1e-14)

    def test_jacobian_matches_finite_differences(self, rng):
        # Exp(w + d) ~ Exp(w) Exp(Jr(w) d): column k of Jr is the central
        # difference of Log(Exp(w)^T Exp(w + h e_k)) in h
        w = random_rotvecs(rng, 100)
        w[5:10] *= 1e-7          # the series branch below 1e-6 rad
        h = 1e-6
        base_T = Rotation.from_rotvec(w).inv()
        fd = np.empty((len(w), 3, 3))
        for k in range(3):
            step = np.zeros(3)
            step[k] = h
            plus = (base_T * Rotation.from_rotvec(w + step)).as_rotvec()
            minus = (base_T * Rotation.from_rotvec(w - step)).as_rotvec()
            fd[:, :, k] = (plus - minus) / (2 * h)
        assert np.allclose(right_jacobian(w), fd, rtol=0, atol=1e-8)


# Reference formulas: the stacked bodies the batched operations had before
# they filled one preallocated output.  The operations must keep every bit.

def reference_product(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([aw * bw - ax * bx - ay * by - az * bz,
                     aw * bx + ax * bw + ay * bz - az * by,
                     aw * by - ax * bz + ay * bw + az * bx,
                     aw * bz + ax * by - ay * bx + az * bw], axis=-1)


def reference_apply(q, v):
    q, v = np.asarray(q, dtype=float), np.asarray(v, dtype=float)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    tx = 2.0 * (y * v2 - z * v1)
    ty = 2.0 * (z * v0 - x * v2)
    tz = 2.0 * (x * v1 - y * v0)
    return np.stack([v0 + w * tx + (y * tz - z * ty),
                     v1 + w * ty + (z * tx - x * tz),
                     v2 + w * tz + (x * ty - y * tx)], axis=-1)


def reference_exp(v):
    v = np.asarray(v, dtype=float)
    angle = norms(v)
    half = 0.5 * angle
    small = angle < 1e-12
    s = np.where(small, 0.5, np.sin(half))
    axis = v / np.where(small, 1.0, angle)[..., None]
    return np.concatenate([np.cos(half)[..., None], s[..., None] * axis], axis=-1)


def reference_matrix(q):
    q = np.asarray(q, dtype=float)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack([
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ], axis=-1).reshape(np.shape(w) + (3, 3))


def sample(rng, shape, kind):
    """Normal draws, or entries from a few values with 0.0 and -0.0 common,
    so that many products and sums are signed zeros."""
    if kind == "normal":
        return rng.normal(size=shape)
    return rng.choice([0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 0.5], size=shape)


def same_bits(out, expect):
    return (out.shape == expect.shape and np.array_equal(out, expect)
            and np.array_equal(np.signbit(out), np.signbit(expect)))


@pytest.mark.parametrize("kind", ["normal", "signed zeros"])
class TestBatchedBitwise:
    """Each batched operation against its reference formula, in every shape
    the package calls it with; the quaternions need not be unit."""

    @pytest.mark.parametrize("shapes", [((200, 4), (200, 4)), ((4,), (200, 4)),
                                        ((200, 4), (4,)), ((4,), (4,)),
                                        ((0, 4), (0, 4)), ((4,), (0, 4))])
    def test_product(self, rng, kind, shapes):
        a, b = sample(rng, shapes[0], kind), sample(rng, shapes[1], kind)
        assert same_bits(quat_product(a, b), reference_product(a, b))

    @pytest.mark.parametrize("shapes", [((200, 4), (200, 3)), ((4,), (200, 3)),
                                        ((200, 4), (3,)), ((4,), (3,)),
                                        ((0, 4), (0, 3)), ((0, 4), (3,))])
    def test_apply(self, rng, kind, shapes):
        q, v = sample(rng, shapes[0], kind), sample(rng, shapes[1], kind)
        assert same_bits(quat_apply(q, v), reference_apply(q, v))

    def test_apply_random_walk_step(self, rng, kind):
        # the random walk rotates one (3,) step by every heading
        q, step = sample(rng, (200, 4), kind), [0.1, 0.0, -0.0]
        assert same_bits(quat_apply(q, step), reference_apply(q, step))

    @pytest.mark.parametrize("shape", [(200, 3), (3,), (0, 3)])
    def test_exp(self, rng, kind, shape):
        v = sample(rng, shape, kind)
        if kind == "normal":      # angles below pi, a few below 1e-12
            v = random_rotvecs(rng, 200)[:int(np.prod(shape[:-1]))].reshape(shape)
        assert same_bits(quat_exp(v), reference_exp(v))

    @pytest.mark.parametrize("shape", [(200, 4), (4,), (0, 4), (5, 8, 4)])
    def test_to_matrix(self, rng, kind, shape):
        q = sample(rng, shape, kind)
        assert same_bits(quat_to_matrix(q), reference_matrix(q))


class TestGeodesic:
    def test_self_distance_zero(self, rng):
        q = quat_normalize(rng.normal(size=(100, 4)))
        assert quat_angle_deg(q, q).max() < 1e-12

    def test_double_cover(self, rng):
        q = quat_normalize(rng.normal(size=(100, 4)))
        assert quat_angle_deg(q, -q).max() < 1e-9
        assert quat_angle_deg(q[0], -q[0]) < 1e-12

    def test_quarter_turn(self):
        q = quat_exp([math.pi / 2, 0.0, 0.0])
        assert abs(quat_angle_deg(IDENTITY, q) - 90.0) < 1e-9

    def test_small_angles_keep_their_precision(self, rng):
        # atan2 of the relative quaternion's parts, where acos would lose
        # the angle below about 1e-8 rad
        v = rng.normal(size=(100, 3))
        v *= np.exp(rng.uniform(np.log(1e-10), np.log(1e-3), size=(100, 1)))
        got = quat_angle_deg(IDENTITY, quat_exp(v))
        assert np.allclose(got, np.degrees(norms(v)), rtol=1e-12, atol=0)

    def test_metric_properties(self, rng):
        a, b, c = (quat_normalize(rng.normal(size=(100, 4))) for _ in range(3))
        dab = quat_angle_deg(a, b)
        assert np.abs(dab - quat_angle_deg(b, a)).max() < 1e-7
        assert np.all(dab <= quat_angle_deg(a, c) + quat_angle_deg(c, b) + 1e-7)
        assert np.all((0 <= dab) & (dab <= 180))


def random_poses(rng, n):
    """n random poses as (n, 4) wxyz rotations and (n, 3) translations."""
    return quat_normalize(rng.normal(size=(n, 4))), rng.normal(size=(n, 3))


def inverse(q, t):
    """p^-1, as the relative transform p^-1 * identity."""
    return relative_poses(q, t, IDENTITY, np.zeros(3))


def compose(qa, ta, qb, tb):
    """a b, as the relative transform (a^-1)^-1 b."""
    return relative_poses(*inverse(qa, ta), qb, tb)


class TestPose:
    def test_relative_self_is_identity(self, rng):
        q, t = random_poses(rng, 100)
        rq, rt = relative_poses(q, t, q, t)
        assert quat_angle_deg(rq, IDENTITY).max() < 1e-8
        assert norms(rt).max() < 1e-8

    def test_identity_compose(self, rng):
        q, t = random_poses(rng, 100)
        cq, ct = compose(IDENTITY, np.zeros(3), q, t)
        assert quat_angle_deg(q, cq).max() < 1e-12
        assert np.allclose(t, ct)

    def test_compose_inverse(self, rng):
        q, t = random_poses(rng, 50)
        iq, it = compose(*inverse(q, t), q, t)     # (p^-1)^-1 p
        assert quat_angle_deg(iq, IDENTITY).max() < 1e-8 * 180 / math.pi
        assert norms(it).max() < 1e-8

    def test_relative_round_trip(self, rng):
        qa, ta = random_poses(rng, 100)
        qb, tb = random_poses(rng, 100)
        back_q, back_t = compose(qa, ta, *relative_poses(qa, ta, qb, tb))
        assert quat_angle_deg(back_q, qb).max() < 1e-8
        assert norms(back_t - tb).max() < 1e-8

    def test_compose_associative(self, rng):
        a, b, c = (random_poses(rng, 50) for _ in range(3))
        lhs_q, lhs_t = compose(*compose(*a, *b), *c)
        rhs_q, rhs_t = compose(*a, *compose(*b, *c))
        assert quat_angle_deg(lhs_q, rhs_q).max() < 1e-8
        assert norms(lhs_t - rhs_t).max() < 1e-8

    def test_translation_immutable(self, rng):
        p = random_pose(rng)
        with pytest.raises(ValueError):
            p.translation[0] = 99.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_translation_rejected(self, value):
        with pytest.raises(ValueError):
            Pose(UnitQuaternion.identity(), np.array([0.0, value, 0.0]))


def _apply(alignment, points):
    scale, R, t = alignment
    return scale * points @ R.T + t


def _matrix_angle_deg(R1, R2):
    """Geodesic angle between two rotation matrices, from the chordal
    distance ||R1 - R2||_F = 2 sqrt(2) sin(angle / 2)."""
    chord = np.linalg.norm(R1 - R2) / (2.0 * math.sqrt(2.0))
    return math.degrees(2.0 * math.asin(min(chord, 1.0)))


def _objective(alignment, src, dst):
    return ((_apply(alignment, src) - dst) ** 2).sum()


def _planted(rng, low, high):
    """A random Sim(3) as (scale, R, t), scale uniform in [low, high)."""
    return (float(rng.uniform(low, high)), matrix(random_quat(rng)),
            rng.normal(size=3))


class TestUmeyama:
    def test_identity_case(self, rng):
        pts = rng.normal(size=(10, 3))
        scale, R, t = umeyama_sim3(pts, pts)
        assert abs(scale - 1.0) < 1e-9
        assert _matrix_angle_deg(R, np.eye(3)) < 1e-6
        assert np.linalg.norm(t) < 1e-9

    def test_pure_scale(self, rng):
        pts = rng.normal(size=(10, 3))
        scale, R, _ = umeyama_sim3(pts, 2.0 * pts)
        assert abs(scale - 2.0) < 1e-9
        assert _matrix_angle_deg(R, np.eye(3)) < 1e-6

    def test_construct_and_recover(self, rng):
        for _ in range(50):
            src = rng.normal(size=(20, 3))
            true = _planted(rng, 0.3, 3.0)
            scale, R, t = umeyama_sim3(src, _apply(true, src))
            assert abs(scale - true[0]) < 1e-6
            assert _matrix_angle_deg(R, true[1]) < 1e-6
            assert np.linalg.norm(t - true[2]) < 1e-6

    def test_reflection_returns_a_rotation(self, rng):
        # a mirrored target makes the best orthogonal fit a reflection; the
        # sign flip must still return a proper rotation
        for _ in range(20):
            src = rng.normal(size=(20, 3))
            dst = src * [1.0, 1.0, -1.0] + rng.normal(scale=0.01, size=(20, 3))
            U, _, Vt = np.linalg.svd((dst - dst.mean(0)).T @ (src - src.mean(0)))
            assert np.linalg.det(U) * np.linalg.det(Vt) < 0   # the branch is taken
            _, R, _ = umeyama_sim3(src, dst)
            assert abs(np.linalg.det(R) - 1.0) < 1e-12
            assert np.allclose(R.T @ R, np.eye(3), rtol=0, atol=1e-12)

    def test_beats_identity_alignment(self, rng):
        for _ in range(20):
            src = rng.normal(size=(8, 3))
            dst = rng.normal(size=(8, 3))
            fitted = umeyama_sim3(src, dst)
            identity = (1.0, np.eye(3), np.zeros(3))
            assert _objective(fitted, src, dst) <= _objective(identity, src, dst) + 1e-9

    def test_brute_force_optimum_small(self, rng):
        # coarse randomized search cannot beat the closed form on <= 5 points
        src = rng.normal(size=(5, 3))
        dst = rng.normal(size=(5, 3))
        fitted = umeyama_sim3(src, dst)
        best = _objective(fitted, src, dst)
        for _ in range(300):
            cand = _planted(rng, 0.2, 3.0)
            assert _objective(cand, src, dst) >= best - 1e-9

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateInput):
            umeyama_sim3(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(DegenerateInput):
            umeyama_sim3(np.ones((5, 3)), np.random.rand(5, 3))

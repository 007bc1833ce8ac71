import math
import re

import numpy as np
import pytest

from relpose.geom import (Pose, UnitQuaternion, quat_apply, quat_exp, quat_multiply,
                          quat_to_matrix)
from relpose.oracle import OracleConfig, generate_scene
from relpose.posegraph import (CandidateBatch, EdgeBatch, EmptyCandidates, PoseEdge,
                               _softmax, compose_candidate, fuse_candidates)
from relpose.runner import offline_trajectory
from conftest import (CandidatePose, angle_deg, candidate_batch, edge_batch,
                      random_pose, random_quat)


def edge(src, dst, q=None, t=(0, 0, 0), cr=1.0, ct=1.0):
    return PoseEdge(src, dst, q or UnitQuaternion.identity(),
                    np.array(t, dtype=float), cr, ct)


def candidate(pose, cr=1.0, ct=1.0, ref=0):
    return CandidatePose(pose, cr, ct, ref)


def fuse(cands, **kwargs):
    """fuse_candidates on CandidatePoses stacked into one batch."""
    return fuse_candidates(candidate_batch(cands), **kwargs)


def compose_one(ref: Pose, e: PoseEdge):
    """compose_candidate on a one-row batch."""
    return compose_candidate(ref.rotation.as_array()[None], ref.translation[None],
                             edge_batch([e]))


class TestPoseEdge:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            edge(3, 3)

    def test_rejects_nonpositive_confidence(self):
        with pytest.raises(ValueError):
            edge(1, 2, cr=0.0)

    @pytest.mark.parametrize("cr, ct", [(math.nan, 1.0), (1.0, math.nan),
                                        (math.inf, 1.0), (1.0, math.inf)])
    def test_rejects_non_finite_confidence(self, cr, ct):
        with pytest.raises(ValueError):
            edge(1, 2, cr=cr, ct=ct)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_translation(self, value):
        with pytest.raises(ValueError):
            edge(1, 2, t=(0.0, 0.0, value))


class TestPoseEdgeIsAOneRowBatch:
    @pytest.mark.parametrize("src, dst, t, message", [
        pytest.param(1.5, 2, (0, 0, 0), "frame id must be an integer, got 1.5", id="float src"),
        pytest.param(True, 2, (0, 0, 0), "frame id must be an integer, got True", id="bool src"),
        pytest.param(1, 2.0, (0, 0, 0), "frame id must be an integer, got 2.0", id="float dst"),
        pytest.param(1, np.True_, (0, 0, 0), f"frame id must be an integer, got {np.True_!r}",
                     id="np.bool dst"),
        pytest.param(1, 2, (0, 0), "translation must have shape (1, 3)", id="2-vector"),
        pytest.param(1, 2, (0, 0, 0, 0), "translation must have shape (1, 3)", id="4-vector"),
        pytest.param(1, 2, [[0, 0, 0]], "translation must have shape (1, 3)", id="1x3 matrix"),
    ])
    def test_raises_what_the_edge_batch_of_its_fields_raises(self, src, dst, t, message):
        q = UnitQuaternion.identity()
        with pytest.raises(ValueError) as batch_error:
            EdgeBatch([src], [dst], [q.as_array()], [t], [1.0], [1.0])
        assert str(batch_error.value) == message
        with pytest.raises(ValueError) as edge_error:
            PoseEdge(src, dst, q, np.array(t, dtype=float), 1.0, 1.0)
        assert type(edge_error.value) is type(batch_error.value)
        assert str(edge_error.value) == message

    def test_keeps_a_read_only_copy_of_the_translation(self):
        t = np.array([1.0, 2.0, 3.0])
        e = edge(np.int64(1), 2, t=t)
        t[0] = 9.0
        assert e.rel_translation.tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(ValueError):
            e.rel_translation[0] = 0.0


def batch_columns(n=5, seed=0):
    rng = np.random.default_rng(seed)
    return (list(range(1, n + 1)), 0, rng.normal(size=(n, 4)),
            rng.normal(size=(n, 3)), rng.uniform(0.1, 4, n), rng.uniform(0.1, 4, n))


class TestEdgeBatch:
    def test_normalizes_rotations_like_unit_quaternion(self):
        src, dst, q, t, cr, ct = batch_columns()
        batch = EdgeBatch(src, dst, q, t, cr, ct)
        assert np.array_equal(batch.rotation, [UnitQuaternion(*row).as_array() for row in q])
        assert batch.dst.tolist() == [0] * 5 and len(batch) == 5 and batch

    def test_rows_are_pose_edges_without_a_second_normalization(self):
        batch = EdgeBatch(*batch_columns(n=200))
        rows = list(batch)
        assert len(rows) == 200
        for k, e in enumerate(rows):
            assert isinstance(e, PoseEdge)
            assert e.rel_rotation.as_array().tolist() == batch.rotation[k].tolist()
            assert np.array_equal(e.rel_translation, batch.translation[k])
            assert (e.src, e.dst, e.conf_rot, e.conf_trans) == (
                batch.src[k], 0, batch.conf_rot[k], batch.conf_trans[k])
        assert batch[-1].src == rows[-1].src == 200

    def test_arrays_read_only(self):
        batch = EdgeBatch(*batch_columns())
        with pytest.raises(ValueError):
            batch.translation[0, 0] = 1.0

    def test_take_and_relabel_keep_rows(self):
        batch = EdgeBatch(*batch_columns())
        moved = batch.take([3, 1]).relabel([30, 10], 90)
        assert moved.src.tolist() == [30, 10] and moved.dst.tolist() == [90, 90]
        assert np.array_equal(moved.rotation, batch.rotation[[3, 1]])
        with pytest.raises(ValueError):
            batch.relabel([1, 2, 3, 4, 5], 5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", [2, 3, 4, 5])
    def test_rejects_non_finite(self, column, value):
        columns = list(batch_columns())
        columns[column] = np.array(columns[column], dtype=float)
        columns[column].flat[1] = value
        with pytest.raises(ValueError):
            EdgeBatch(*columns)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column, k", [
        (2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2), (4, None), (5, None)],
        ids=["qw", "qx", "qy", "qz", "tx", "ty", "tz", "conf_rot", "conf_trans"])
    def test_rejects_non_finite_component(self, column, k, value):
        # one non-finite number in the last row, component by component
        columns = list(batch_columns())
        columns[column] = np.array(columns[column], dtype=float)
        columns[column][(-1, k) if k is not None else -1] = value
        with pytest.raises(ValueError):
            EdgeBatch(*columns)

    @pytest.mark.parametrize("src, dst, bad", [
        pytest.param([2.5, True], [3, 3], 2.5, id="float-and-bool src"),
        pytest.param([1, True], [3, 3], True, id="int-and-bool src"),
        pytest.param([1, 2], [3, np.True_], np.True_, id="int-and-np.bool dst"),
        pytest.param([1, 2], [3.0, 3.0], 3.0, id="float dst"),
        pytest.param(np.array([1.0, 2.0]), 3, np.float64(1.0), id="float array src"),
        pytest.param(np.array([True, False]), 3, np.True_, id="bool array src"),
        pytest.param([1, 2], 3.5, 3.5, id="float single dst"),
        pytest.param([1, 2], True, True, id="bool single dst"),
        pytest.param([1, 2], math.nan, math.nan, id="nan single dst"),
    ])
    def test_rejects_ids_that_are_not_integers(self, src, dst, bad):
        _, _, q, t, cr, ct = batch_columns(n=2)
        message = re.escape(f"frame id must be an integer, got {bad!r}")
        with pytest.raises(ValueError, match=message):
            EdgeBatch(src, dst, q, t, cr, ct)
        with pytest.raises(ValueError, match=message):
            EdgeBatch([1, 2], 3, q, t, cr, ct).relabel(src, dst)

    @pytest.mark.parametrize("ids", [
        pytest.param([4, 5], id="list"),
        pytest.param(np.array([4, 5], dtype=np.int32), id="int32"),
        pytest.param(np.array([4, 5], dtype=np.uint64), id="uint64"),
        pytest.param([np.int64(4), np.uint64(5)], id="mixed numpy scalars")])
    def test_takes_every_integer_form(self, ids):
        _, _, q, t, cr, ct = batch_columns(n=2)
        for dst in (9, np.int64(9), np.uint64(9), [9, 9]):
            batch = EdgeBatch(ids, dst, q, t, cr, ct)
            assert batch.src.dtype == batch.dst.dtype == np.int64
            assert batch.src.tolist() == [4, 5] and batch.dst.tolist() == [9, 9]

    @pytest.mark.parametrize("src, dst, bad", [
        pytest.param(np.array([2**63 + 5], dtype=np.uint64), 3, 2**63 + 5, id="uint64 src"),
        pytest.param(np.array([1, 2**64 - 1, 2**63], dtype=np.uint64), 3, 2**64 - 1,
                     id="first of two in uint64 src"),
        pytest.param([1], np.array([2**63], dtype=np.uint64), 2**63, id="uint64 dst"),
        pytest.param([1], np.uint64(2**63 + 9), 2**63 + 9, id="uint64 single dst"),
        pytest.param([2**63 + 5], 3, 2**63 + 5, id="list past int64"),
        pytest.param([1], -2**63 - 1, -2**63 - 1, id="int single dst below int64"),
    ])
    def test_rejects_ids_outside_the_int64_range(self, src, dst, bad):
        _, _, q, t, cr, ct = batch_columns(n=len(src))
        message = f"^frame id {bad} is outside the int64 range$"
        with pytest.raises(ValueError, match=message):
            EdgeBatch(src, dst, q, t, cr, ct)
        with pytest.raises(ValueError, match=message):
            EdgeBatch(list(range(10, 10 + len(src))), 3, q, t, cr, ct).relabel(src, dst)

    def test_takes_ids_at_the_ends_of_the_int64_range(self):
        _, _, q, t, cr, ct = batch_columns(n=2)
        top = np.iinfo(np.int64).max
        batch = EdgeBatch(np.array([top, 0], dtype=np.uint64), -top - 1, q, t, cr, ct)
        assert batch.src.tolist() == [top, 0] and batch.dst.tolist() == [-top - 1] * 2

    def test_rejects_self_loop_and_bad_shapes(self):
        src, dst, q, t, cr, ct = batch_columns()
        with pytest.raises(ValueError):
            EdgeBatch(src, 3, q, t, cr, ct)
        with pytest.raises(ValueError):
            EdgeBatch(src, dst, q[:, :3], t, cr, ct)
        with pytest.raises(ValueError):
            EdgeBatch(src, dst, q, t, cr[:4], ct)
        with pytest.raises(ValueError):
            EdgeBatch(src, dst, q, t, -cr, ct)


class TestComposeCandidate:
    def test_identity(self):
        c = compose_one(Pose.identity(), edge(1, 2))
        assert np.allclose(c.translation, 0)

    def test_additive_translation(self):
        ref = Pose(UnitQuaternion.identity(), np.array([1.0, 0, 0]))
        c = compose_one(ref, edge(1, 2, t=(0, 1, 0)))
        assert np.allclose(c.translation, [[1, 1, 0]])

    def test_rotated_offset(self):
        ref = Pose(UnitQuaternion(*quat_exp([0, 0, math.pi / 2]).tolist()),
                   np.array([0.0, 0, 0]))
        c = compose_one(ref, edge(1, 2, t=(1, 0, 0)))
        # oracle: rotation matrix applied to the relative translation
        expect = quat_to_matrix(ref.rotation.as_array()) @ np.array([1.0, 0, 0])
        assert np.allclose(c.translation[0], expect, atol=1e-12)
        assert np.allclose(c.translation[0], [0, 1, 0], atol=1e-12)

    def test_confidences_ride_along(self):
        c = compose_one(Pose.identity(), edge(1, 2, cr=3.0, ct=0.5))
        assert (c.conf_rot[0], c.conf_trans[0], c.reference[0]) == (3.0, 0.5, 1)


def scalar_fuse(cands, k=None):
    """Fusion written out one candidate object at a time: the reference
    the batched fusion must reproduce bit for bit."""
    ranked = sorted(cands, key=lambda c: (-0.5 * (c.conf_rot + c.conf_trans), c.reference))
    retained = ranked if k is None else ranked[:k]
    logits_rot = 2.0 * np.log([c.conf_rot for c in retained])
    logits_trans = 2.0 * np.log([c.conf_trans for c in retained])
    w_rot = np.exp(logits_rot - logits_rot.max())
    w_rot = w_rot / w_rot.sum()
    w_trans = np.exp(logits_trans - logits_trans.max())
    w_trans = w_trans / w_trans.sum()
    t = w_trans @ np.array([c.proposed.translation for c in retained])
    anchor = min(retained, key=lambda c: (-c.conf_rot, c.reference))
    qs = np.array([c.proposed.rotation.as_array() for c in retained])
    signs = np.where(qs @ anchor.proposed.rotation.as_array() < 0.0, -1.0, 1.0)
    q_sum = (w_rot[:, None] * signs[:, None] * qs).sum(axis=0)
    return Pose(UnitQuaternion(*q_sum), t)


class TestBatchedPathMatchesScalar:
    """compose_candidate + fuse_candidates on a batch against quat_multiply /
    quat_apply per edge, CandidatePose objects and the scalar fusion, on
    oracle frames: equal to the last bit."""

    @pytest.mark.parametrize("k", [None, 3])
    def test_oracle_frames_bitwise(self, k):
        scene = generate_scene(OracleConfig(frames=40), 7)
        rng = np.random.default_rng(7)
        poses = [random_pose(rng) for _ in scene.frame_ids]
        for j in (2, 5, 17, 40):
            refs = [int(i) for i in rng.permutation(j - 1) + 1]
            edges = scene.emit_edges(refs, j)
            batch = compose_candidate([poses[i - 1].rotation.as_array() for i in refs],
                                      [poses[i - 1].translation for i in refs], edges)
            scalar = []
            for e in edges:
                ref = poses[e.src - 1]
                q = quat_multiply(ref.rotation, e.rel_rotation)
                t = ref.translation + quat_apply(ref.rotation.as_array(), e.rel_translation)
                scalar.append(CandidatePose(Pose(q, t), e.conf_rot, e.conf_trans, e.src))
            assert np.array_equal(batch.rotation,
                                  [c.proposed.rotation.as_array() for c in scalar])
            assert np.array_equal(batch.translation,
                                  [c.proposed.translation for c in scalar])
            fused = [fuse_candidates(batch, k=k),
                     fuse_candidates(candidate_batch(scalar), k=k),
                     scalar_fuse(scalar, k=k)]
            for p in fused[1:]:
                assert p.rotation.as_array().tolist() == fused[0].rotation.as_array().tolist()
                assert p.translation.tolist() == fused[0].translation.tolist()


class TestFusion:
    def test_empty_raises(self):
        with pytest.raises(EmptyCandidates):
            fuse([])

    @pytest.mark.parametrize("k", [0, -1, -2])
    def test_non_positive_k_raises(self, rng, k):
        # k=-2 used to drop the two lowest-confidence candidates silently
        cands = [candidate(random_pose(rng), 1.0 + i, 1.0, i) for i in range(4)]
        with pytest.raises(ValueError, match="k must be"):
            fuse(cands, k=k)

    def test_single_candidate_identity(self, rng):
        p = random_pose(rng)
        fused = fuse([candidate(p, 2.0, 0.3)])
        assert angle_deg(fused.rotation, p.rotation) < 1e-12
        assert np.allclose(fused.translation, p.translation)

    def test_idempotent_on_identical_poses(self, rng):
        p = random_pose(rng)
        fused = fuse([candidate(p, 1.0, 5.0, 0),
                      candidate(p, 4.0, 0.2, 1)])
        assert angle_deg(fused.rotation, p.rotation) < 1e-9
        assert np.allclose(fused.translation, p.translation)

    def test_equal_confidence_midpoint(self):
        a = candidate(Pose.identity(), ref=0)
        b = candidate(Pose(UnitQuaternion.identity(), np.array([2.0, 0, 0])), ref=1)
        fused = fuse([a, b])
        assert np.allclose(fused.translation, [1, 0, 0])

    def test_double_cover_alignment(self, rng):
        q = random_quat(rng)
        neg = UnitQuaternion(-q.w, -q.x, -q.y, -q.z)
        fused = fuse([candidate(Pose(q), ref=0),
                      candidate(Pose(neg), ref=1)])
        assert angle_deg(fused.rotation, q) < 1e-9

    def test_permutation_invariance(self, rng):
        cands = [candidate(random_pose(rng), float(rng.uniform(0.5, 2)),
                           float(rng.uniform(0.5, 2)), i) for i in range(6)]
        a = fuse(cands, k=3)
        perm = [cands[i] for i in rng.permutation(6)]
        b = fuse(perm, k=3)
        assert np.allclose(a.translation, b.translation, atol=1e-12)
        assert angle_deg(a.rotation, b.rotation) < 1e-12

    def test_confidence_scale_invariance(self, rng):
        # inverse-variance weights: a common factor on every confidence,
        # such as the oracle's loss weight alpha, cancels
        cands = [candidate(random_pose(rng), float(rng.uniform(0.5, 2)),
                           float(rng.uniform(0.5, 2)), i) for i in range(5)]
        scaled = [candidate(c.proposed, 3.0 * c.conf_rot, 3.0 * c.conf_trans,
                            c.reference) for c in cands]
        a, b = fuse(cands), fuse(scaled)
        assert np.allclose(a.translation, b.translation, rtol=0, atol=1e-12)
        assert np.allclose(a.rotation.as_array(), b.rotation.as_array(),
                           rtol=0, atol=1e-12)

    def test_convex_hull_containment_1d(self, rng):
        xs = rng.uniform(-3, 3, size=4)
        cands = [candidate(Pose(UnitQuaternion.identity(),
                                np.array([x, 0.0, 0.0])),
                           float(rng.uniform(0.1, 5)),
                           float(rng.uniform(0.1, 5)), i)
                 for i, x in enumerate(xs)]
        fused = fuse(cands)
        assert xs.min() - 1e-12 <= fused.translation[0] <= xs.max() + 1e-12

    def test_top_k_restricts_to_best(self):
        far = candidate(Pose(UnitQuaternion.identity(), np.array([9.0, 0, 0])),
                        0.1, 0.1, 0)
        near = candidate(Pose.identity(), 5.0, 5.0, 1)
        fused = fuse([far, near], k=1)
        assert np.allclose(fused.translation, 0)

    def test_top_k_tie_break_by_reference_id(self):
        # equal mean confidence: the lower reference id is retained,
        # whatever the input order
        low = candidate(Pose(UnitQuaternion.identity(), np.array([1.0, 0, 0])),
                        2.0, 2.0, 3)
        high = candidate(Pose(UnitQuaternion.identity(), np.array([2.0, 0, 0])),
                         1.0, 3.0, 7)
        for cands in ([low, high], [high, low]):
            assert np.allclose(fuse(cands, k=1).translation, [1, 0, 0])

    def test_translations_weighted_by_squared_confidence(self, rng):
        cands = [candidate(random_pose(rng), float(rng.uniform(0.1, 5)),
                           float(rng.uniform(0.1, 5)), i) for i in range(6)]
        c_t = np.array([c.conf_trans for c in cands])
        ts = np.array([c.proposed.translation for c in cands])
        expect = c_t ** 2 @ ts / np.sum(c_t ** 2)
        assert np.allclose(fuse(cands).translation, expect, rtol=0, atol=1e-12)

    def test_equal_conf_k_all_is_plain_mean(self, rng):
        poses = [random_pose(rng, scale=0.1) for _ in range(5)]
        cands = [candidate(p, 1.0, 1.0, i) for i, p in enumerate(poses)]
        fused = fuse(cands)
        mean_t = np.mean([p.translation for p in poses], axis=0)
        assert np.allclose(fused.translation, mean_t, atol=1e-12)


def fuse_by_two_sorts(candidates, k=None, ties_to_largest=False):
    """fuse_candidates as written with a second np.lexsort for the sign
    anchor: the reference rule its single sort must keep, bit for bit.
    ties_to_largest breaks conf_rot ties the other way."""
    mean_conf = 0.5 * (candidates.conf_rot + candidates.conf_trans)
    keep = np.lexsort((candidates.reference, -mean_conf))[:k]
    c_rot, c_trans = candidates.conf_rot[keep], candidates.conf_trans[keep]
    refs, qs = candidates.reference[keep], candidates.rotation[keep]
    anchor = qs[np.lexsort((-refs if ties_to_largest else refs, -c_rot))[0]]
    w_rot = _softmax(2.0 * np.log(c_rot))
    w_trans = _softmax(2.0 * np.log(c_trans))
    t = w_trans @ candidates.translation[keep]
    signs = np.where(qs @ anchor < 0.0, -1.0, 1.0)
    q_sum = (w_rot[:, None] * signs[:, None] * qs).sum(axis=0)
    if math.sqrt(q_sum.dot(q_sum)) < 1e-9:
        return Pose(UnitQuaternion.from_unit(*anchor.tolist()), t)
    return Pose(UnitQuaternion(*q_sum.tolist()), t)


class TestFusionAnchor:
    """The sign anchor is the retained candidate with the highest conf_rot,
    ties going to the smallest reference id, then to retained order."""

    def tied_batch(self, rng, n, uniform):
        # few distinct conf_rot values, so ties are common; references
        # shuffled, with repeats in some batches
        conf_rot = np.ones(n) if uniform else rng.choice([0.5, 1.0, 2.0], size=n)
        conf_trans = np.ones(n) if uniform else rng.choice([0.5, 1.0, 2.0, 4.0], size=n)
        refs = rng.permutation(n) if rng.random() < 0.7 else rng.integers(0, n // 2 + 1, n)
        q = rng.normal(size=(n, 4))
        return CandidateBatch(q / np.linalg.norm(q, axis=1)[:, None], rng.normal(size=(n, 3)),
                              conf_rot, conf_trans, refs.astype(np.int64))

    def test_matches_the_two_sort_rule(self):
        rng = np.random.default_rng(7)
        differs_by_rule = 0
        for trial in range(400):
            n = int(rng.integers(1, 12))
            uniform = trial % 4 == 0
            cands = self.tied_batch(rng, n, uniform)
            for k in (None, 1, 3, n):
                got, want = fuse_candidates(cands, k=k), fuse_by_two_sorts(cands, k=k)
                assert got.rotation.as_array().tolist() == want.rotation.as_array().tolist()
                assert got.translation.tolist() == want.translation.tolist()
            # the tie rule matters: ties to the largest reference change the bits
            differs_by_rule += (fuse_by_two_sorts(cands, ties_to_largest=True).rotation
                                != fuse_by_two_sorts(cands).rotation)
        assert differs_by_rule > 50

    def test_uniform_weights_anchor_on_smallest_reference(self):
        # two antipodal candidates of equal weight are aligned to the
        # anchor's sign: the candidate with reference 2, in either order
        q = UnitQuaternion(*np.random.default_rng(3).normal(size=4))
        neg = UnitQuaternion(-q.w, -q.x, -q.y, -q.z)
        cands = [candidate(Pose(neg), ref=5), candidate(Pose(q), ref=2)]
        assert fuse(cands).rotation == q
        assert fuse(cands[::-1]).rotation == q

    @pytest.mark.parametrize("k", [None, 2])
    def test_one_sort_per_call(self, monkeypatch, rng, k):
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
        cands = [candidate(random_pose(rng), float(rng.choice([1.0, 2.0])), 1.0, i)
                 for i in range(8)]
        fuse(cands, k=k)
        assert len(calls) == 1


class TestSoftmaxOnOracleConfidences:
    """Fusion weights are a softmax of 2 log c, so proportional to c^2.  On
    oracle edges at the default alpha=0.2 the confidences span 0.11-89
    (rotation) and 0.02-17.8 (translation).  This pins what the weights do
    over the 99 fused frames of a default 100-frame scene: no reference
    dominates, and about 13 references count once a frame has 10 or more."""

    @pytest.mark.parametrize("seed", [0, 1009])
    def test_largest_weight_per_frame(self, seed):
        scene = generate_scene(OracleConfig(), seed)
        ids = scene.frame_ids
        largest, effective = [], []
        for pos, j in enumerate(ids[1:], start=1):
            edges = scene.emit_edges(ids[:pos], j)   # as offline fusion asks
            w_rot = _softmax(2.0 * np.log(edges.conf_rot))
            w_trans = _softmax(2.0 * np.log(edges.conf_trans))
            # c_rot / c_trans is the same on every edge without jitter
            assert np.allclose(w_rot, w_trans, rtol=0, atol=1e-15)
            assert np.allclose(w_rot, edges.conf_rot ** 2 / np.sum(edges.conf_rot ** 2),
                               rtol=0, atol=1e-15)
            largest.append(w_rot.max())
            if pos >= 10:
                effective.append(1.0 / np.sum(w_rot ** 2))
        largest, effective = np.array(largest), np.array(effective)
        assert len(largest) == 99 and len(effective) == 90
        assert 0.14 < np.median(largest) < 0.18       # 0.157 and 0.159
        assert (largest > 0.5).sum() == 2             # frames with 1-2 references
        assert 12 < np.median(effective) < 15         # 13.5 and 13.3
        assert effective.min() > 5                    # 6.2 and 6.1

    @pytest.mark.parametrize("seed", [0, 1009])
    def test_offline_trajectory_independent_of_alpha(self, seed):
        # alpha scales every confidence alike and draws no randomness, so
        # the weights and the fused poses must not move with it
        a = offline_trajectory(generate_scene(OracleConfig(alpha=0.2), seed))
        b = offline_trajectory(generate_scene(OracleConfig(alpha=1.0), seed))
        assert a.keys() == b.keys()
        for fid in a:
            assert np.allclose(a[fid].translation, b[fid].translation, rtol=0, atol=1e-12)
            assert np.allclose(a[fid].rotation.as_array(), b[fid].rotation.as_array(),
                               rtol=0, atol=1e-12)

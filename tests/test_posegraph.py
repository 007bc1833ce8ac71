import math

import numpy as np
import pytest

from relpose.geom import Pose, UnitQuaternion, quat_geodesic_deg
from relpose.posegraph import (CandidatePose, EmptyCandidates, PoseEdge,
                               compose_candidate, dump_edges, format_edge,
                               fuse_candidates, load_edges, parse_edge)
from conftest import random_pose, random_quat


def edge(src, dst, q=None, t=(0, 0, 0), cr=1.0, ct=1.0):
    return PoseEdge(src, dst, q or UnitQuaternion.identity(),
                    np.array(t, dtype=float), cr, ct)


def candidate(pose, cr=1.0, ct=1.0, ref=0):
    return CandidatePose(pose, cr, ct, ref)


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


class TestComposeCandidate:
    def test_identity(self):
        c = compose_candidate(Pose.identity(), edge(1, 2))
        assert np.allclose(c.proposed.translation, 0)

    def test_additive_translation(self):
        ref = Pose(UnitQuaternion.identity(), np.array([1.0, 0, 0]))
        c = compose_candidate(ref, edge(1, 2, t=(0, 1, 0)))
        assert np.allclose(c.proposed.translation, [1, 1, 0])

    def test_rotated_offset(self):
        ref = Pose(UnitQuaternion.from_axis_angle([0, 0, 1], math.pi / 2),
                   np.array([0.0, 0, 0]))
        c = compose_candidate(ref, edge(1, 2, t=(1, 0, 0)))
        # oracle: rotation matrix applied to the relative translation
        expect = ref.rotation.to_matrix() @ np.array([1.0, 0, 0])
        assert np.allclose(c.proposed.translation, expect, atol=1e-12)
        assert np.allclose(c.proposed.translation, [0, 1, 0], atol=1e-12)

    def test_confidences_ride_along(self):
        c = compose_candidate(Pose.identity(), edge(1, 2, cr=3.0, ct=0.5))
        assert (c.conf_rot, c.conf_trans) == (3.0, 0.5)


class TestFusion:
    def test_empty_raises(self):
        with pytest.raises(EmptyCandidates):
            fuse_candidates([])

    def test_single_candidate_identity(self, rng):
        p = random_pose(rng)
        fused = fuse_candidates([candidate(p, 2.0, 0.3)])
        assert quat_geodesic_deg(fused.rotation, p.rotation) < 1e-12
        assert np.allclose(fused.translation, p.translation)

    def test_idempotent_on_identical_poses(self, rng):
        p = random_pose(rng)
        fused = fuse_candidates([candidate(p, 1.0, 5.0, 0),
                                 candidate(p, 4.0, 0.2, 1)])
        assert quat_geodesic_deg(fused.rotation, p.rotation) < 1e-9
        assert np.allclose(fused.translation, p.translation)

    def test_equal_confidence_midpoint(self):
        a = candidate(Pose.identity(), ref=0)
        b = candidate(Pose(UnitQuaternion.identity(), np.array([2.0, 0, 0])), ref=1)
        fused = fuse_candidates([a, b])
        assert np.allclose(fused.translation, [1, 0, 0])

    def test_double_cover_alignment(self, rng):
        q = random_quat(rng)
        neg = UnitQuaternion(-q.w, -q.x, -q.y, -q.z)
        fused = fuse_candidates([candidate(Pose(q), ref=0),
                                 candidate(Pose(neg), ref=1)])
        assert quat_geodesic_deg(fused.rotation, q) < 1e-9

    def test_permutation_invariance(self, rng):
        cands = [candidate(random_pose(rng), float(rng.uniform(0.5, 2)),
                           float(rng.uniform(0.5, 2)), i) for i in range(6)]
        a = fuse_candidates(cands, k=3)
        perm = [cands[i] for i in rng.permutation(6)]
        b = fuse_candidates(perm, k=3)
        assert np.allclose(a.translation, b.translation, atol=1e-12)
        assert quat_geodesic_deg(a.rotation, b.rotation) < 1e-12

    def test_confidence_shift_invariance(self, rng):
        cands = [candidate(random_pose(rng), float(rng.uniform(0.5, 2)),
                           float(rng.uniform(0.5, 2)), i) for i in range(5)]
        shifted = [candidate(c.proposed, c.conf_rot + 3.0, c.conf_trans + 3.0,
                             c.reference) for c in cands]
        a, b = fuse_candidates(cands), fuse_candidates(shifted)
        assert np.allclose(a.translation, b.translation, atol=1e-12)
        assert quat_geodesic_deg(a.rotation, b.rotation) < 1e-10

    def test_convex_hull_containment_1d(self, rng):
        xs = rng.uniform(-3, 3, size=4)
        cands = [candidate(Pose(UnitQuaternion.identity(),
                                np.array([x, 0.0, 0.0])),
                           float(rng.uniform(0.1, 5)),
                           float(rng.uniform(0.1, 5)), i)
                 for i, x in enumerate(xs)]
        fused = fuse_candidates(cands)
        assert xs.min() - 1e-12 <= fused.translation[0] <= xs.max() + 1e-12

    def test_top_k_restricts_to_best(self):
        far = candidate(Pose(UnitQuaternion.identity(), np.array([9.0, 0, 0])),
                        0.1, 0.1, 0)
        near = candidate(Pose.identity(), 5.0, 5.0, 1)
        fused = fuse_candidates([far, near], k=1)
        assert np.allclose(fused.translation, 0)

    def test_top_k_tie_break_by_reference_id(self):
        # equal mean confidence: the lower reference id is retained,
        # whatever the input order
        low = candidate(Pose(UnitQuaternion.identity(), np.array([1.0, 0, 0])),
                        2.0, 2.0, 3)
        high = candidate(Pose(UnitQuaternion.identity(), np.array([2.0, 0, 0])),
                         1.0, 3.0, 7)
        for cands in ([low, high], [high, low]):
            assert np.allclose(fuse_candidates(cands, k=1).translation, [1, 0, 0])

    def test_equal_conf_k_all_is_plain_mean(self, rng):
        poses = [random_pose(rng, scale=0.1) for _ in range(5)]
        cands = [candidate(p, 1.0, 1.0, i) for i, p in enumerate(poses)]
        fused = fuse_candidates(cands)
        mean_t = np.mean([p.translation for p in poses], axis=0)
        assert np.allclose(fused.translation, mean_t, atol=1e-12)


class TestEdgeTextFormat:
    def test_round_trip(self, rng, tmp_path):
        edges = [PoseEdge(i, 50, random_quat(rng), rng.normal(size=3),
                          float(rng.uniform(0.1, 4)), float(rng.uniform(0.1, 4)))
                 for i in range(10)]
        path = tmp_path / "edges.txt"
        dump_edges(edges, path)
        loaded = load_edges(path)
        assert len(loaded) == len(edges)
        for a, b in zip(edges, loaded):
            assert (a.src, a.dst) == (b.src, b.dst)
            qa, qb = a.rel_rotation, b.rel_rotation
            # renormalization on parse may shift components by ~1 ulp
            assert np.allclose([qa.w, qa.x, qa.y, qa.z],
                               [qb.w, qb.x, qb.y, qb.z], atol=1e-15)
            assert np.array_equal(a.rel_translation, b.rel_translation)
            assert (a.conf_rot, a.conf_trans) == (b.conf_rot, b.conf_trans)

    def test_serialization_fixed_point(self, rng, tmp_path):
        edges = [PoseEdge(i, 9, random_quat(rng), rng.normal(size=3), 1.0, 1.0)
                 for i in range(5)]
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        dump_edges(edges, p1)
        dump_edges(load_edges(p1), p2)
        dump_edges(load_edges(p2), p1)
        assert p1.read_bytes() == p2.read_bytes()

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_edge("1 2 3")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", range(2, 11))
    def test_parse_rejects_non_finite(self, field, value):
        parts = format_edge(edge(1, 2, t=(0.5, 0, 0))).split()
        parts[field] = value
        with pytest.raises(ValueError):
            parse_edge(" ".join(parts))

    def test_format_is_single_line(self):
        line = format_edge(edge(1, 2))
        assert "\n" not in line and len(line.split()) == 11

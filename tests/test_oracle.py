import math

import numpy as np
import pytest

from relpose.geom import pose_relative, quat_geodesic_deg
from relpose.oracle import (DistractorStream, InvalidConfig, InvalidCounts,
                            OracleConfig, SyntheticScene, UnknownFrame,
                            _laplace_from_uniform, _pair_uniforms,
                            generate_scene, make_distractor_stream)


def scene(seed=7, **kwargs):
    return generate_scene(OracleConfig(**kwargs), seed)


class TestConfigValidation:
    def test_rejects_unknown_family(self):
        with pytest.raises(InvalidConfig):
            scene(family="spiral")

    def test_rejects_tiny_scene(self):
        with pytest.raises(InvalidConfig):
            scene(frames=1)

    def test_rejects_negative_noise(self):
        with pytest.raises(InvalidConfig):
            scene(base_rot_noise=-0.1)


class TestPairRandomness:
    def test_deterministic(self):
        a = _pair_uniforms(3, [1, 2], 9, 6)
        b = _pair_uniforms(3, [1, 2], 9, 6)
        assert np.array_equal(a, b)

    def test_seed_changes_stream(self):
        a = _pair_uniforms(3, [1], 9, 6)
        b = _pair_uniforms(4, [1], 9, 6)
        assert not np.allclose(a, b)

    def test_pair_changes_stream(self):
        a = _pair_uniforms(3, [1], 9, 6)
        b = _pair_uniforms(3, [2], 9, 6)
        c = _pair_uniforms(3, [1], 8, 6)
        assert not np.allclose(a, b) and not np.allclose(a, c)

    def test_approximately_uniform(self):
        u = _pair_uniforms(11, np.arange(2000), 99999, 4).ravel()
        assert 0.0 < u.min() and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.01
        assert abs(np.var(u) - 1.0 / 12) < 0.005

    def test_laplace_moments(self):
        u = _pair_uniforms(5, np.arange(40000), 1, 1).ravel()
        x = _laplace_from_uniform(u, 0.3)
        assert abs(np.mean(x)) < 0.01
        assert np.var(x) == pytest.approx(2 * 0.3 ** 2, rel=0.05)


class TestTrajectoryFamilies:
    def test_circle_on_unit_circle(self):
        s = scene(family="circle", frames=40)
        for fid in s.frame_ids:
            assert np.linalg.norm(s.poses[fid].translation) == pytest.approx(1.0)

    def test_circle_heading_tangent(self):
        s = scene(family="circle", frames=40)
        for fid in s.frame_ids[:-1]:
            fwd = s.poses[fid].rotation.to_matrix()[:, 0]
            step = (s.poses[fid + 1].translation - s.poses[fid].translation)
            cos = fwd @ step / np.linalg.norm(step)
            assert cos > 0.99

    def test_figure_eight_revisits_origin(self):
        s = scene(family="figure-eight", frames=100)
        positions = np.array([s.poses[f].translation for f in s.frame_ids])
        dists = np.linalg.norm(positions, axis=1)
        # the lemniscate passes through the origin twice per period
        near = dists < 0.12
        assert near.sum() >= 2

    def test_walk_step_bounded(self):
        s = scene(family="random-walk", frames=200, step=0.1)
        for fid in s.frame_ids[:-1]:
            d = np.linalg.norm(s.poses[fid + 1].translation
                               - s.poses[fid].translation)
            assert d <= 0.1 + 1e-12

    def test_same_seed_same_scene(self):
        a, b = scene(seed=3), scene(seed=3)
        for fid in a.frame_ids:
            assert np.array_equal(a.poses[fid].translation,
                                  b.poses[fid].translation)

    def test_different_seed_different_walk(self):
        a, b = scene(seed=3), scene(seed=4)
        assert not np.allclose(a.poses[50].translation,
                               b.poses[50].translation)


class TestEdgeEmission:
    def test_unknown_frame_raises(self):
        s = scene(frames=10)
        with pytest.raises(UnknownFrame):
            s.emit_edge(1, 99)

    def test_self_edge_raises(self):
        s = scene(frames=10)
        with pytest.raises(ValueError):
            s.emit_edge(4, 4)

    def test_deterministic_and_order_independent(self):
        s = scene(frames=30)
        single = s.emit_edge(3, 9)
        batched = {e.src: e for e in s.emit_edges([7, 3, 5], 9)}[3]
        assert np.array_equal(single.rel_translation, batched.rel_translation)
        assert single.conf_rot == batched.conf_rot
        q1, q2 = single.rel_rotation, batched.rel_rotation
        assert (q1.w, q1.x, q1.y, q1.z) == (q2.w, q2.x, q2.y, q2.z)

    def test_noise_free_edge_is_exact(self):
        s = scene(frames=20, base_rot_noise=0.0, base_trans_noise=0.0)
        e = s.emit_edge(2, 7)
        gt = pose_relative(s.poses[2], s.poses[7])
        assert quat_geodesic_deg(e.rel_rotation, gt.rotation) < 1e-9
        assert np.allclose(e.rel_translation, gt.translation, atol=1e-12)

    def test_error_scales_with_noise_parameter(self):
        errs = []
        for mult in (1.0, 20.0):
            s = scene(frames=60, base_trans_noise=0.01 * mult)
            tot = 0.0
            for j in range(10, 40):
                e = s.emit_edge(j - 5, j)
                gt = pose_relative(s.poses[j - 5], s.poses[j])
                tot += np.linalg.norm(e.rel_translation - gt.translation)
            errs.append(tot)
        assert errs[1] > 5 * errs[0]

    def test_confidence_is_calibrated_inverse_scale(self):
        s = scene(frames=50)
        e = s.emit_edge(4, 9)
        b_r, b_t = s.noise_scales(4, 9)
        assert e.conf_rot == pytest.approx(s.config.alpha / b_r)
        assert e.conf_trans == pytest.approx(s.config.alpha / b_t)

    def test_outlier_channel_rate_and_calibration(self):
        s = scene(family="circle", frames=300, outlier_prob=0.3,
                  outlier_mult=20.0, noise_gap_growth=0.0)
        confs = np.array([s.emit_edge(j - 1, j).conf_trans
                          for j in s.frame_ids[1:]])
        clean = confs.max()
        flagged = confs < clean / 2
        # outlier pairs sit a factor outlier_mult below the clean level
        assert np.allclose(confs[flagged], clean / 20.0, rtol=1e-6)
        assert abs(flagged.mean() - 0.3) < 0.08

    def test_confidence_decays_with_gap(self):
        s = scene(family="circle", frames=120)
        near = s.emit_edge(10, 12)
        far = s.emit_edge(10, 40)
        assert far.conf_rot < near.conf_rot

    def test_mean_edge_error_tracks_scale(self):
        # empirical mean |noise| per component should approach the Laplace
        # scale b for a fixed pair geometry
        s = scene(family="circle", frames=400, base_trans_noise=0.05,
                  noise_gap_growth=0.0, outlier_prob=0.0)
        errs = []
        for j in s.frame_ids[1:]:
            e = s.emit_edge(j - 1, j)
            gt = pose_relative(s.poses[j - 1], s.poses[j])
            errs.extend(np.abs(e.rel_translation - gt.translation))
        _, b_t = s.noise_scales(1, 2)
        assert np.mean(errs) == pytest.approx(b_t, rel=0.15)


class TestTokens:
    def test_unit_norm(self):
        s = scene(frames=30)
        for fid in (1, 10, 30):
            assert np.isclose(np.linalg.norm(s.emit_token(fid).features), 1.0)

    def test_self_similarity_highest(self):
        s = scene(family="circle", frames=60)
        t10 = s.emit_token(10).features
        sims = [float(t10 @ s.emit_token(f).features)
                for f in s.frame_ids if f != 10]
        assert max(sims) < 1.0

    def test_similarity_decays_with_pose_distance(self):
        s = scene(family="circle", frames=120)
        t = s.emit_token(1).features
        near = float(t @ s.emit_token(3).features)
        far = float(t @ s.emit_token(60).features)  # opposite side
        assert near > far


class TestDepthAnchors:
    def test_no_jitter_exact(self):
        s = scene(frames=10, depth_median=2.5)
        assert s.depth_medians(3) == (2.5, 2.5)

    def test_jitter_perturbs_prediction_only(self):
        s = scene(frames=10, depth_jitter=0.2)
        pred, metric = s.depth_medians(3)
        assert metric == s.config.depth_median
        assert pred != metric and pred > 0


class TestSceneSerialization:
    def test_round_trip(self, tmp_path):
        s = scene(seed=5, frames=25, family="circle")
        s.save(tmp_path / "gt.tum", tmp_path / "scene.json")
        loaded = SyntheticScene.load(tmp_path / "scene.json")
        assert loaded.frame_ids == s.frame_ids
        e1, e2 = s.emit_edge(2, 9), loaded.emit_edge(2, 9)
        assert np.array_equal(e1.rel_translation, e2.rel_translation)
        assert e1.conf_rot == e2.conf_rot


class TestDistractorPlan:
    def make(self, n_clean=20, n_distract=10, seed=1):
        s = scene(seed=2, frames=40)
        other = scene(seed=99, frames=40)
        return s, other, make_distractor_stream(s, other, n_clean, n_distract, seed)

    def test_counts_and_prefix(self):
        _, _, plan = self.make()
        kinds = [e.kind for e in plan.entries]
        assert kinds.count("clean") == 20 and kinds.count("distractor") == 10
        assert kinds[:3] == ["clean"] * 3

    def test_clean_frames_keep_order(self):
        _, _, plan = self.make()
        clean = [e.scene_frame for e in plan.entries if e.kind == "clean"]
        assert clean == sorted(clean)

    def test_stream_ids_contiguous(self):
        _, _, plan = self.make()
        assert [e.stream_id for e in plan.entries] == list(range(1, 31))

    def test_validation(self):
        s = scene(seed=2, frames=40)
        other = scene(seed=99, frames=40)
        with pytest.raises(InvalidCounts):
            make_distractor_stream(s, other, 2, 5, 1)
        with pytest.raises(InvalidCounts):
            make_distractor_stream(s, other, 20, 100, 1)
        with pytest.raises(InvalidCounts):
            make_distractor_stream(s, s, 20, 5, 1)

    def test_deterministic_per_seed(self):
        _, _, p1 = self.make(seed=5)
        _, _, p2 = self.make(seed=5)
        _, _, p3 = self.make(seed=6)
        assert p1.entries == p2.entries
        assert p1.entries != p3.entries


class TestDistractorStream:
    def setup_method(self):
        self.scene = scene(seed=2, frames=60, family="circle")
        self.other = scene(seed=99, frames=60, family="random-walk")
        self.plan = make_distractor_stream(self.scene, self.other, 25, 10, 3)
        self.stream = DistractorStream(self.scene, self.other, self.plan,
                                       noise_mult=10.0)

    def ids_of(self, kind):
        return [e.stream_id for e in self.plan.entries if e.kind == kind]

    def test_clean_edges_match_scene(self):
        clean = self.ids_of("clean")
        a, b = clean[0], clean[3]
        ea = self.plan.entries[a - 1]
        eb = self.plan.entries[b - 1]
        got = self.stream.edges([a], b)[0]
        want = self.scene.emit_edge(ea.scene_frame, eb.scene_frame)
        assert np.array_equal(got.rel_translation, want.rel_translation)
        assert (got.src, got.dst) == (a, b)

    def test_distractor_confidence_much_lower(self):
        clean = self.ids_of("clean")
        distract = self.ids_of("distractor")
        ctx = clean[:3]
        lo = np.mean(self.stream.edges(ctx, distract[0]).mean_conf)
        hi = np.mean(self.stream.edges(ctx, clean[5]).mean_conf)
        assert lo < 0.15 * hi

    def test_tokens_keyed_by_stream_id(self):
        sid = self.ids_of("distractor")[0]
        tok = self.stream.token(sid)
        assert tok.id == sid
        entry = self.plan.entries[sid - 1]
        assert np.array_equal(tok.features,
                              self.other.emit_token(entry.scene_frame).features)

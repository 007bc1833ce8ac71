import numpy as np
import pytest

from relpose.geom import Pose, UnitQuaternion, quat_exp
from relpose.metrics import (MismatchedIds, PlanMismatch, TooFewPoses,
                             TooFewSamples, ate, confidence_bins, edge_errors,
                             path_length, robustness_score, rot_rmse_deg, rpe,
                             trajectory_report)
from relpose.posegraph import PoseEdge
from relpose.stream import StreamEvent
from conftest import angle_deg, edge_batch, random_pose, random_quat, relative_pose


def line_trajectory(n, step=1.0, start=0.0):
    return {i: Pose(UnitQuaternion.identity(),
                    np.array([start + step * i, 0.0, 0.0]))
            for i in range(1, n + 1)}


class TestPathLength:
    def test_line(self):
        assert path_length(line_trajectory(5, step=2.0)) == pytest.approx(8.0)

    def test_single_pose(self):
        assert path_length(line_trajectory(1)) == 0.0


class TestAte:
    def test_zero_on_identical(self, rng):
        traj = {i: random_pose(rng) for i in range(1, 6)}
        rmse, norm = ate(traj, dict(traj))
        assert rmse < 1e-9 and norm < 1e-9

    def test_invariant_to_rigid_transform(self, rng):
        traj = {i: random_pose(rng) for i in range(1, 8)}
        g = random_pose(rng)
        g_inv = relative_pose(g, Pose.identity())
        moved = {i: relative_pose(g_inv, p) for i, p in traj.items()}   # g p
        rmse, _ = ate(moved, traj)
        assert rmse < 1e-9

    def test_sim3_absorbs_scale(self, rng):
        traj = {i: random_pose(rng) for i in range(1, 8)}
        scaled = {i: Pose(p.rotation, p.translation * 3.0)
                  for i, p in traj.items()}
        rmse, _ = ate(scaled, traj)
        assert rmse < 1e-9

    def test_norm_is_percent_of_path_length(self):
        ref = line_trajectory(11, step=1.0)  # path length 10
        est = {i: Pose(p.rotation, p.translation + [0, 0.0, 0])
               for i, p in ref.items()}
        # perturb one frame out-of-line so alignment cannot remove it
        est[5] = Pose(est[5].rotation, est[5].translation + [0, 1.0, 0])
        rmse, norm = ate(est, ref)
        assert norm == pytest.approx(100.0 * rmse / 10.0)

    def test_too_few_poses(self):
        with pytest.raises(TooFewPoses):
            ate(line_trajectory(2), line_trajectory(2))

    def test_mismatched_ids(self):
        a = line_trajectory(5)
        b = line_trajectory(6)
        with pytest.raises(MismatchedIds):
            ate(a, b)


class TestRotRmse:
    def test_zero_on_identical(self, rng):
        traj = {i: random_pose(rng) for i in range(1, 5)}
        assert rot_rmse_deg(traj, dict(traj)) < 1e-9

    def test_constant_relative_twist(self):
        ref = line_trajectory(5)
        est = {}
        for i, p in ref.items():
            # each frame rotated 10 deg more than the last
            q = UnitQuaternion(*quat_exp([0, 0, np.radians(10.0 * (i - 1))]).tolist())
            est[i] = Pose(q, p.translation)
        errs = [10.0 * (i - 1) for i in range(1, 6)]
        assert rot_rmse_deg(est, ref) == pytest.approx(
            np.sqrt(np.mean(np.square(errs))), abs=1e-6)


class TestRpe:
    def test_zero_on_identical(self, rng):
        traj = {i: random_pose(rng) for i in range(1, 8)}
        t, r = rpe(traj, dict(traj), delta=2)
        assert t < 1e-9 and r < 1e-9

    def test_detects_local_drift(self):
        ref = line_trajectory(10, step=1.0)
        est = line_trajectory(10, step=1.1)
        t, _ = rpe(est, ref, delta=1)
        assert t == pytest.approx(0.1, abs=1e-9)

    def test_delta_scales_window(self):
        ref = line_trajectory(10, step=1.0)
        est = line_trajectory(10, step=1.1)
        t, _ = rpe(est, ref, delta=3)
        assert t == pytest.approx(0.3, abs=1e-9)

    def test_bad_delta(self):
        traj = line_trajectory(5)
        with pytest.raises(ValueError):
            rpe(traj, traj, delta=0)
        with pytest.raises(TooFewPoses):
            rpe(traj, traj, delta=5)


def scalar_relative_errors(estimated, reference, pairs):
    """Translation and rotation (degrees) errors between the relative poses
    of both trajectories over id pairs, one pair at a time: the loop the
    batched metrics replaced."""
    t_err, r_err = [], []
    for a, b in pairs:
        rel_est = relative_pose(estimated[a], estimated[b])
        rel_ref = relative_pose(reference[a], reference[b])
        t_err.append(np.linalg.norm(rel_est.translation - rel_ref.translation))
        r_err.append(angle_deg(rel_est.rotation, rel_ref.rotation))
    return np.array(t_err), np.array(r_err)


class TestBatchedMatchesScalarLoop:
    @pytest.mark.parametrize("delta", [1, 3])
    def test_rpe_and_rot_rmse(self, rng, delta):
        ref = {i: random_pose(rng) for i in range(1, 301)}
        est = {i: Pose(UnitQuaternion(*(p.rotation.as_array()
                                        + rng.normal(scale=0.01, size=4))),
                       p.translation + rng.normal(scale=0.05, size=3))
               for i, p in ref.items()}
        ids = sorted(ref)
        t_err, r_err = scalar_relative_errors(est, ref, zip(ids, ids[delta:]))
        rpe_t, rpe_r = rpe(est, ref, delta=delta)
        # the same arithmetic, one pair at a time
        assert rpe_t == float(np.sqrt(np.mean(np.square(t_err))))
        assert rpe_r == pytest.approx(float(np.sqrt(np.mean(np.square(r_err)))),
                                      rel=1e-14, abs=0)
        _, r_err = scalar_relative_errors(est, ref, [(ids[0], i) for i in ids])
        assert rot_rmse_deg(est, ref) == pytest.approx(
            float(np.sqrt(np.mean(np.square(r_err)))), rel=1e-14, abs=0)


class TestEdgeErrors:
    def test_match_per_edge_scalar_errors(self, rng):
        poses = {i: random_pose(rng) for i in (2, 5, 9, 14)}
        pairs = [(2, 5), (14, 2), (9, 5), (5, 14)]
        edges = edge_batch(PoseEdge(i, j, random_quat(rng), rng.normal(size=3),
                                    1.0, 1.0) for i, j in pairs)
        rot, trans = edge_errors(edges, poses)
        for k, (i, j) in enumerate(pairs):
            gt = relative_pose(poses[i], poses[j])
            assert rot[k] == pytest.approx(
                angle_deg(edges[k].rel_rotation, gt.rotation), rel=1e-14, abs=0)
            assert trans[k] == np.linalg.norm(edges[k].rel_translation - gt.translation)

    def test_endpoint_without_a_pose_raises(self, rng):
        poses = {i: random_pose(rng) for i in (2, 5, 9)}
        edges = edge_batch([PoseEdge(2, 7, random_quat(rng), np.zeros(3), 1.0, 1.0)])
        with pytest.raises(MismatchedIds):
            edge_errors(edges, poses)


class TestTrajectoryReport:
    def test_fields_consistent(self, rng):
        traj = {i: random_pose(rng) for i in range(1, 9)}
        est = {i: Pose(p.rotation, p.translation + rng.normal(scale=0.01, size=3))
               for i, p in traj.items()}
        rep = trajectory_report(est, traj, rpe_delta=2)
        assert rep.frames_evaluated == 8
        assert rep.ate_rmse >= 0 and rep.rpe_t >= 0 and rep.rot_rmse >= 0


class TestConfidenceBins:
    def test_equal_mass(self):
        samples = [(float(i), float(i)) for i in range(25)]
        summary = confidence_bins(samples, n_bins=5)
        assert list(summary.counts) == [5] * 5

    def test_uneven_split_off_by_one(self):
        samples = [(float(i), 0.0) for i in range(23)]
        summary = confidence_bins(samples, n_bins=5)
        assert summary.counts.sum() == 23
        assert summary.counts.max() - summary.counts.min() <= 1

    def test_centers_sorted_ascending(self, rng):
        samples = [(float(c), float(e))
                   for c, e in rng.uniform(0, 1, size=(100, 2))]
        summary = confidence_bins(samples, n_bins=5)
        assert np.all(np.diff(summary.bin_centers) > 0)

    def test_mean_error_tracks_planted_relation(self, rng):
        # error constructed as 1/conf: binned means must strictly decrease
        conf = rng.uniform(0.5, 5.0, size=200)
        samples = [(float(c), float(1.0 / c)) for c in conf]
        summary = confidence_bins(samples, n_bins=5)
        assert np.all(np.diff(summary.mean_error) < 0)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            confidence_bins([(1.0, 1.0)], n_bins=5)


class Plan:
    def __init__(self, stream_id, kind):
        self.stream_id = stream_id
        self.kind = kind


class TestRobustnessScore:
    def test_perfect_filtering(self):
        plan = [Plan(1, "clean"), Plan(2, "distractor"), Plan(3, "clean")]
        events = [StreamEvent("Accepted", 1), StreamEvent("Rejected", 2),
                  StreamEvent("Accepted", 3), StreamEvent("AdmittedToBank", 3)]
        rep = robustness_score(events, plan)
        assert rep.distractor_reject_rate == 1.0
        assert rep.clean_accept_rate == 1.0
        assert rep.bfs == 1.0

    def test_partial_scores(self):
        plan = [Plan(i, k) for i, k in
                enumerate(["clean", "clean", "distractor", "distractor"], 1)]
        events = [StreamEvent("Accepted", 1), StreamEvent("Rejected", 2),
                  StreamEvent("Rejected", 3), StreamEvent("Accepted", 4)]
        rep = robustness_score(events, plan)
        assert rep.distractor_reject_rate == 0.5
        assert rep.clean_accept_rate == 0.5
        assert rep.bfs == 0.5

    def test_no_distractors_sr_one(self):
        plan = [Plan(1, "clean")]
        rep = robustness_score([StreamEvent("Accepted", 1)], plan)
        assert rep.distractor_reject_rate == 1.0

    def test_missing_decision_raises(self):
        with pytest.raises(PlanMismatch):
            robustness_score([], [Plan(1, "clean")])

    def test_later_decision_wins(self):
        # a frame rejected then re-streamed and accepted counts as accepted
        plan = [Plan(1, "clean")]
        events = [StreamEvent("Rejected", 1), StreamEvent("Accepted", 1)]
        rep = robustness_score(events, plan)
        assert rep.clean_accept_rate == 1.0

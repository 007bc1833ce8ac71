"""Trajectory and robustness metrics.

ATE after Sim(3) alignment, RPE over fixed frame deltas,
equal-mass confidence-vs-error binning, and the distractor filtering
scores.  Relative poses and their errors are computed on stacked poses
with geom's batched layer.
"""

from dataclasses import dataclass

import numpy as np

from .geom import norms, quat_angle_deg, relative_poses, umeyama_sim3
from .posegraph import as_int


class TooFewPoses(ValueError):
    pass


class MismatchedIds(ValueError):
    pass


class TooFewSamples(ValueError):
    pass


class PlanMismatch(ValueError):
    pass


@dataclass(frozen=True)
class TrajectoryReport:
    ate_rmse: float
    ate_norm: float      # percent of reference path length
    rpe_t: float
    rpe_r: float         # degrees
    rot_rmse: float      # degrees, both anchored at their first common frame
    frames_evaluated: int


@dataclass(frozen=True)
class RobustnessReport:
    distractor_reject_rate: float
    clean_accept_rate: float

    @property
    def bfs(self) -> float:
        return 0.5 * self.distractor_reject_rate + 0.5 * self.clean_accept_rate


@dataclass(frozen=True)
class ConfidenceBinSummary:
    bin_centers: np.ndarray   # mean confidence per bin
    mean_error: np.ndarray
    std_error: np.ndarray
    counts: np.ndarray


def _common_ids(estimated, reference):
    if estimated.keys() != reference.keys():
        raise MismatchedIds("trajectories must cover the same frame ids")
    return sorted(estimated)


def path_length(trajectory) -> float:
    """Sum of consecutive translation baselines, in frame-id order."""
    ids = sorted(trajectory)
    ts = np.array([trajectory[i].translation for i in ids])
    return float(np.linalg.norm(np.diff(ts, axis=0), axis=1).sum())


def ate(estimated, reference):
    """ATE-RMSE and ATE-norm (%) of the camera centers after the
    least-squares Sim(3) alignment of estimated onto reference (Umeyama)."""
    ids = _common_ids(estimated, reference)
    if len(ids) < 3:
        raise TooFewPoses("need at least 3 poses")
    est = np.array([estimated[i].translation for i in ids])
    ref = np.array([reference[i].translation for i in ids])
    scale, R, t = umeyama_sim3(est, ref)
    err = scale * est @ R.T + t - ref
    ate_rmse = float(np.sqrt((err ** 2).sum(axis=1).mean()))
    norm = path_length(reference)
    ate_norm = 100.0 * ate_rmse / norm if norm > 0 else 0.0
    return ate_rmse, ate_norm


def _relative(trajectory, ids, a, b):
    """Relative poses (rotations (n, 4) wxyz, translations (n, 3)) from the
    poses at positions a to those at positions b of ids."""
    q = np.reshape([trajectory[i].rotation.as_array() for i in ids], (-1, 4))
    t = np.reshape([trajectory[i].translation for i in ids], (-1, 3))
    return relative_poses(q[a], t[a], q[b], t[b])


def rot_rmse_deg(estimated, reference) -> float:
    """RMSE of per-frame rotation error (degrees) with both trajectories
    anchored at their first common frame: each rotation is taken relative
    to that frame's, so the first frame's error is zero."""
    ids = _common_ids(estimated, reference)
    rel_est = _relative(estimated, ids, 0, slice(None))[0]
    rel_ref = _relative(reference, ids, 0, slice(None))[0]
    errs = quat_angle_deg(rel_est, rel_ref)
    return float(np.sqrt(np.mean(np.square(errs))))


def rpe(estimated, reference, delta=1):
    """RPE over frame pairs (i, i+delta): translation RMSE and rotation
    geodesic RMSE in degrees.  delta counts positions in id order."""
    delta = as_int(delta, "delta", 1)
    ids = _common_ids(estimated, reference)
    if len(ids) <= delta:
        raise TooFewPoses("too few poses for the requested delta")
    a, b = slice(None, -delta), slice(delta, None)
    q_e, t_e = _relative(estimated, ids, a, b)
    q_r, t_r = _relative(reference, ids, a, b)
    rpe_t = float(np.sqrt(np.mean(np.square(norms(t_e - t_r)))))
    rpe_r = float(np.sqrt(np.mean(np.square(quat_angle_deg(q_e, q_r)))))
    return rpe_t, rpe_r


def edge_errors(edges, poses):
    """Rotation (degrees) and translation errors of each edge of an
    EdgeBatch against the relative pose of its endpoints in poses (frame
    id -> Pose)."""
    ids = sorted(poses)
    if not np.isin(np.concatenate([edges.src, edges.dst]), ids).all():
        raise MismatchedIds("every edge endpoint needs a pose")
    a, b = np.searchsorted(ids, edges.src), np.searchsorted(ids, edges.dst)
    gt_q, gt_t = _relative(poses, ids, a, b)
    return quat_angle_deg(edges.rotation, gt_q), norms(edges.translation - gt_t)


def trajectory_report(estimated, reference, rpe_delta=1):
    ate_rmse, ate_norm = ate(estimated, reference)
    rpe_t, rpe_r = rpe(estimated, reference, rpe_delta)
    return TrajectoryReport(ate_rmse, ate_norm, rpe_t, rpe_r,
                            rot_rmse_deg(estimated, reference), len(estimated))


def confidence_bins(samples, n_bins=5) -> ConfidenceBinSummary:
    """Equal-mass confidence quantile bins with per-bin error statistics,
    from (confidence, error) samples: pairs, or the rows of an (n, 2)
    array."""
    n_bins = as_int(n_bins, "n_bins", 1)
    conf, err = np.asarray(samples, dtype=float).reshape(-1, 2).T
    if len(conf) < n_bins:
        raise TooFewSamples(f"need at least {n_bins} samples")
    order = np.argsort(conf, kind="stable")
    chunks = np.array_split(order, n_bins)
    centers = np.array([conf[c].mean() for c in chunks])
    means = np.array([err[c].mean() for c in chunks])
    stds = np.array([err[c].std() for c in chunks])
    counts = np.array([len(c) for c in chunks])
    return ConfidenceBinSummary(centers, means, stds, counts)


def robustness_score(events, plan) -> RobustnessReport:
    """Filtering quality of a streamed distractor plan.

    plan entries expose .stream_id and .kind ("clean"/"distractor");
    events are the stream's StreamEvent log.  BFS = (SR + clean accept)/2.
    SR over zero distractors is 1 by convention.
    """
    decided = {}
    for ev in events:
        if ev.kind == "Accepted":
            decided[ev.frame] = True
        elif ev.kind == "Rejected":
            decided[ev.frame] = False
    n_clean = n_distract = clean_ok = distract_ok = 0
    for entry in plan:
        if entry.stream_id not in decided:
            raise PlanMismatch(f"no accept/reject decision for frame {entry.stream_id}")
        accepted = decided[entry.stream_id]
        if entry.kind == "clean":
            n_clean += 1
            clean_ok += accepted
        else:
            n_distract += 1
            distract_ok += not accepted
    sr = distract_ok / n_distract if n_distract else 1.0
    ca = clean_ok / n_clean if n_clean else 1.0
    return RobustnessReport(sr, ca)

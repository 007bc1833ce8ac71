"""Causal streaming state machine.

An incoming frame is paired only against the active context (frame 1 plus
a bounded keyframe bank).  The pipeline per frame is: outlier gate, fusion
of context candidates, token-novelty admission with a force-admit staleness
cap, utility culling when over capacity.  Sustained rejection or hitting
the segment length cap triggers a segment reset, re-anchored through a
short bridge of frames carrying absolute poses from the previous segment.

A frame's context edges arrive as one EdgeBatch, and the bank keeps its
keyframes as row arrays, so the gate, candidate composition, fusion and
the confidence refresh each run as a few array operations per frame.
"""

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .geom import Pose
from .posegraph import EdgeBatch, compose_candidate, fuse_candidates


class NonMonotoneFrameId(ValueError):
    pass


class MissingContextEdges(ValueError):
    pass


class BridgeTooShort(ValueError):
    pass


class BridgeTooLong(ValueError):
    pass


class NonPositiveDepth(ValueError):
    pass


@dataclass(frozen=True)
class StreamConfig:
    tau: float = 0.98            # token-novelty admission threshold
    m_max: int = 100             # keyframe bank capacity
    delta_max: int = 20          # force-admit staleness cap (accepted frames)
    n_cal: int = 3               # gate calibration frame count
    tau_out: float = 0.15        # gate rejection factor on the baseline
    n_rej: int = 3               # consecutive rejections before reset
    l_max: int = 2000            # accepted frames per segment before scheduled reset
    k: int | None = None         # fusion top-K; None = all references
    log_weights: bool = False    # softmax over log-confidences instead of raw

    def __post_init__(self):
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be None or at least 1, got {self.k}")
        if self.m_max < 1:
            raise ValueError(f"m_max must be at least 1, got {self.m_max}")


@dataclass(frozen=True)
class FrameToken:
    id: int
    features: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.features, dtype=float)
        n = np.linalg.norm(f)
        if not 1e-12 <= n < math.inf:
            raise ValueError("token features must be finite and nonzero")
        if abs(n - 1.0) > 1e-9:
            f = f / n
        f = np.array(f)
        f.setflags(write=False)
        object.__setattr__(self, "features", f)


class KeyframeBank:
    """Ordered set of keyframes, culled to StreamConfig.m_max by
    process_frame; the first frame is protected.

    Keyframes are rows in admission order: token features (m, dim), pose
    rotations (m, 4) wxyz and translations (m, 3), and best_conf (m,), the
    strongest mean pair confidence seen against the bank.  Evicting a row
    shifts the later rows up.
    """

    def __init__(self):
        self.protected = None
        self._ids = []
        self._row = {}                  # frame id -> row
        self.tokens = None
        self.rotations = np.empty((0, 4))
        self.translations = np.empty((0, 3))
        self.best_conf = np.empty(0)

    def ids(self):
        return list(self._ids)

    def rows(self, frame_ids):
        """Row of each frame id."""
        return np.array([self._row[fid] for fid in frame_ids], dtype=np.int64)

    def add(self, frame_id, token: FrameToken, pose: Pose, best_conf, protected=False):
        f = token.features[None]
        self.tokens = f if self.tokens is None else np.vstack([self.tokens, f])
        self.rotations = np.vstack([self.rotations, pose.rotation.as_array()])
        self.translations = np.vstack([self.translations, pose.translation])
        self.best_conf = np.append(self.best_conf, best_conf)
        self._row[frame_id] = len(self._ids)
        self._ids.append(frame_id)
        if protected:
            self.protected = frame_id

    def evict(self, row) -> int:
        """Drop one row; returns its frame id."""
        frame_id = self._ids.pop(row)
        self.tokens, self.rotations, self.translations, self.best_conf = (
            np.delete(a, row, axis=0) for a in
            (self.tokens, self.rotations, self.translations, self.best_conf))
        self._row = {fid: r for r, fid in enumerate(self._ids)}
        return frame_id

    def max_cosine(self, token: FrameToken) -> float:
        return float((self.tokens @ token.features).max())

    def __len__(self):
        return len(self._ids)


def admit_check(bank: KeyframeBank, token: FrameToken, tau: float,
                frames_since_admit: int, delta_max: int) -> bool:
    """Admit when the token is novel or the bank has gone stale."""
    if frames_since_admit >= delta_max:
        return True
    return bank.max_cosine(token) < tau


def cull(bank: KeyframeBank) -> int:
    """Evict the entry with minimal utility u = d * c; returns its frame id.

    d is the distinctiveness from the closest other bank entry in token
    space, c the strongest pair confidence.  Frame 1 is never evicted;
    ties break by ascending frame id.
    """
    sim = bank.tokens @ bank.tokens.T
    np.fill_diagonal(sim, -np.inf)
    u = ((1.0 - sim.max(axis=1)) * bank.best_conf).tolist()
    _, _, row = min((u[r], fid, r) for r, fid in enumerate(bank.ids())
                    if fid != bank.protected)
    return bank.evict(row)


def gate_score(edges_into_j) -> float:
    """Mean averaged-pair confidence of a frame against its context."""
    edges = EdgeBatch.of(edges_into_j)
    if not len(edges):
        raise ValueError("need at least one edge")
    return float(np.mean(edges.mean_conf))


class OutlierGate:
    """Confidence gate calibrated on the first n_cal scored frames.

    Before the baseline exists the gate never rejects; afterwards a frame
    is rejected when its score falls below tau_out * baseline.  The
    consecutive-rejection counter resets on any accepted frame.
    """

    def __init__(self, n_cal, tau_out, n_rej):
        self.n_cal = n_cal
        self.tau_out = tau_out
        self.n_rej = n_rej
        self._cal_scores = []
        self._seeded = 0
        self.baseline = None
        self.consecutive_rejections = 0

    def seed_frame(self):
        """Count a scoreless frame (the origin) toward the calibration
        prefix so calibration ends after the first n_cal stream frames."""
        if self.baseline is None:
            self._seeded += 1

    def check(self, score) -> bool:
        """Score one frame; returns True when the frame passes."""
        if self.baseline is None:
            self._cal_scores.append(score)
            if self._seeded + len(self._cal_scores) >= self.n_cal:
                self.baseline = float(np.mean(self._cal_scores))
            return True
        if score < self.tau_out * self.baseline:
            self.consecutive_rejections += 1
            return False
        self.consecutive_rejections = 0
        return True


@dataclass(frozen=True, slots=True, init=False)
class StreamEvent:
    """One stream event with a small details mapping, such as the gate
    score.  A run returns about two events per frame, so the details are
    kept as one flat tuple of sorted (key, value) pairs, a third of the
    memory of a dict; `details` rebuilds the dict."""
    kind: str   # Accepted | AdmittedToBank | Evicted | Rejected | SegmentReset
    frame: int
    items: tuple

    def __init__(self, kind, frame, details=None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "items", tuple(
            x for pair in sorted((details or {}).items()) for x in pair))

    @property
    def details(self) -> dict:
        return dict(zip(self.items[::2], self.items[1::2]))

    def to_json(self) -> str:
        return json.dumps({"kind": self.kind, "frame": self.frame,
                           "details": self.details}, sort_keys=True)


class StreamState:
    """All mutable state of one streaming run; owned by a single loop."""

    def __init__(self, config: StreamConfig):
        self.config = config
        self.bank = KeyframeBank()
        self.gate = OutlierGate(config.n_cal, config.tau_out, config.n_rej)
        self.trajectory = {}            # frame id -> Pose, accepted frames only
        self.frames_since_admit = 0
        self.segment_index = 0
        self.segment_accepted = 0
        self.reset_pending = False
        self._last_frame_id = None

    @property
    def context_ids(self):
        return self.bank.ids()


def process_frame(state: StreamState, token: FrameToken, edges):
    """Advance the stream by one frame; returns the emitted events.

    edges (an EdgeBatch, or PoseEdges, which are stacked into one) must
    cover exactly the active context.  Raises NonMonotoneFrameId /
    MissingContextEdges on malformed input.
    """
    cfg = state.config
    frame_id = token.id
    if state._last_frame_id is not None and frame_id <= state._last_frame_id:
        raise NonMonotoneFrameId(
            f"frame {frame_id} after frame {state._last_frame_id}")
    state._last_frame_id = frame_id
    events = []

    bank = state.bank
    if not len(bank):
        # first frame of the stream (or segment with empty bank): origin
        pose = Pose.identity()
        state.trajectory[frame_id] = pose
        bank.add(frame_id, token, pose, 0.0, protected=True)
        state.gate.seed_frame()
        state.frames_since_admit = 0
        state.segment_accepted = 1
        events.append(StreamEvent("Accepted", frame_id))
        events.append(StreamEvent("AdmittedToBank", frame_id))
        return events

    edges = EdgeBatch.of(edges)
    edges = edges.take(np.argsort(edges.src, kind="stable"))
    context = sorted(bank.ids())
    if not (np.array_equal(edges.src, context) and np.all(edges.dst == frame_id)):
        raise MissingContextEdges(
            f"edges must cover exactly the active context {context}")

    score = gate_score(edges)
    if not state.gate.check(score):
        events.append(StreamEvent("Rejected", frame_id,
                                  {"score": score,
                                   "threshold": state.gate.tau_out * state.gate.baseline}))
        if state.gate.consecutive_rejections >= cfg.n_rej and not state.reset_pending:
            state.reset_pending = True
            events.append(StreamEvent("SegmentReset", frame_id,
                                      {"reason": "consecutive_rejections"}))
        return events

    rows = bank.rows(edges.src.tolist())
    candidates = compose_candidate(bank.rotations[rows], bank.translations[rows], edges)
    pose = fuse_candidates(candidates, k=cfg.k, log_weights=cfg.log_weights)
    state.trajectory[frame_id] = pose
    events.append(StreamEvent("Accepted", frame_id, {"score": score}))

    # lazily refresh stored pair confidences from this frame's edges
    mean_conf = edges.mean_conf
    bank.best_conf[rows] = np.maximum(bank.best_conf[rows], mean_conf)

    if admit_check(bank, token, cfg.tau, state.frames_since_admit, cfg.delta_max):
        bank.add(frame_id, token, pose, float(mean_conf.max()))
        state.frames_since_admit = 0
        events.append(StreamEvent("AdmittedToBank", frame_id))
        if len(bank) > cfg.m_max:
            evicted = cull(bank)
            events.append(StreamEvent("Evicted", frame_id, {"evicted": evicted}))
    else:
        state.frames_since_admit += 1

    state.segment_accepted += 1
    if state.segment_accepted >= cfg.l_max and not state.reset_pending:
        state.reset_pending = True
        events.append(StreamEvent("SegmentReset", frame_id,
                                  {"reason": "segment_length_cap"}))
    return events


def segment_reset(state: StreamState, bridge):
    """Clear bank and gate, re-seed from bridge frames, bump the segment.

    Bridge items are (frame_id, pose, token) triples whose poses come from
    the previous segment; new frames localize by composing against them.
    Every bridge pose enters the trajectory; the bank keeps the m_max most
    recent, the oldest of them protected.
    """
    bridge = list(bridge)
    if len(bridge) < 3:
        raise BridgeTooShort(f"bridge has {len(bridge)} frames, need >= 3")
    if len(bridge) > 10:
        raise BridgeTooLong(f"bridge has {len(bridge)} frames, need <= 10")
    cfg = state.config
    state.bank = KeyframeBank()
    state.gate = OutlierGate(cfg.n_cal, cfg.tau_out, cfg.n_rej)
    for frame_id, pose, _ in bridge:
        state.trajectory[frame_id] = pose
    for i, (frame_id, pose, token) in enumerate(bridge[-cfg.m_max:]):
        state.bank.add(frame_id, token, pose, 0.0, protected=(i == 0))
    state.frames_since_admit = 0
    state.segment_index += 1
    state.segment_accepted = len(bridge)
    state.reset_pending = False
    return state


def anchor_scale(predicted_depth_summary, metric_depth_summary) -> float:
    """Per-segment scale from two depth medians: metric / predicted."""
    if predicted_depth_summary <= 0 or metric_depth_summary <= 0:
        raise NonPositiveDepth("depth summaries must be positive")
    return metric_depth_summary / predicted_depth_summary


def scale_trajectory(trajectory, scale):
    """Apply one scalar uniformly to all translations."""
    return {fid: replace(p, translation=p.translation * scale)
            for fid, p in trajectory.items()}


def write_event_log(events, path):
    with open(path, "w") as f:
        for ev in events:
            f.write(ev.to_json() + "\n")

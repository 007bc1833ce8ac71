"""Causal streaming state machine.

An incoming frame is paired only against the active context (frame 1 plus
a bounded keyframe bank).  The pipeline per frame is: outlier gate, fusion
of context candidates, token-novelty admission with a force-admit staleness
cap, utility culling when over capacity.  Sustained rejection or hitting
the segment length cap triggers a segment reset, re-anchored through a
short bridge of frames carrying absolute poses from the previous segment.

A frame's context edges arrive as one EdgeBatch, and the bank keeps its
keyframes as row arrays in frame-id order, which the edges in source
order match row for row, so the gate, candidate composition, fusion and
the confidence refresh each run as a few array operations per frame.
Edges that arrive in another order are sorted by source first.  The
bank's rows live in buffers that double when full: admission writes one
row, eviction shifts the later rows up in place, and the bank's arrays
are views of the filled rows, valid until its next add or evict.  The
gate, the confidence refresh and the admission maximum read the batch's
one mean_conf array.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .geom import Pose
from .posegraph import EdgeBatch, as_frame_id, compose_candidate, fuse_candidates


class NonMonotoneFrameId(ValueError):
    pass


class MissingContextEdges(ValueError):
    pass


class BridgeTooShort(ValueError):
    pass


class BridgeTooLong(ValueError):
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

    def __post_init__(self):
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be None or at least 1, got {self.k}")
        for name, low in (("m_max", 1), ("n_cal", 1), ("n_rej", 1), ("l_max", 1),
                          ("delta_max", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")
        if not math.isfinite(self.tau):
            raise ValueError(f"tau must be finite, got {self.tau}")
        if not 0 <= self.tau_out < math.inf:
            raise ValueError(f"tau_out must be non-negative and finite, got {self.tau_out}")


@dataclass(frozen=True)
class FrameToken:
    id: int
    features: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "id", as_frame_id(self.id))
        f = np.array(self.features, dtype=float)
        if f.ndim != 1:
            raise ValueError("token features must be a 1-D array")
        object.__setattr__(self, "features", token_rows(f[None])[0])

    @classmethod
    def _checked(cls, frame_id: int, features):
        """A token of an int id and of read-only, checked token_rows."""
        token = object.__new__(cls)
        object.__setattr__(token, "id", frame_id)
        object.__setattr__(token, "features", features)
        return token

    def relabel(self, frame_id):
        """The same token under another frame id, sharing the features."""
        return self._checked(as_frame_id(frame_id), self.features)


def token_rows(rows):
    """A new 2-D float array, which nothing else holds, of token features,
    one per row, made read-only: every row must be finite and nonzero, and
    a row whose norm is more than 1e-9 off 1 is divided by it in place."""
    # the formula np.linalg.norm applies to a 1-D array, row by row
    n = np.sqrt([row.dot(row) for row in rows])
    # min/max propagate NaN, which fails the comparisons
    if not (n.min(initial=1.0) >= 1e-12 and n.max(initial=1.0) < math.inf):
        raise ValueError("token features must be finite and nonzero")
    far = np.abs(n - 1.0) > 1e-9
    rows[far] /= n[far, None]
    rows.setflags(write=False)
    return rows


class KeyframeBank:
    """Keyframes in frame-id order, culled to StreamConfig.m_max by
    process_frame; row 0, the oldest frame, is never evicted.

    Keyframes are rows: token features (m, dim), pose rotations (m, 4)
    wxyz and translations (m, 3), and best_conf (m,), the strongest mean
    pair confidence seen against the bank.  The rows live in buffers that
    double when full, so add writes one row and evict shifts the later
    rows up in place.  tokens, rotations, translations and best_conf are
    views of the first m rows, valid until the next add or evict; tokens
    is None until the first add fixes the feature width.
    """

    def __init__(self):
        self._ids = []
        self._buffers = None   # (tokens, rotations, translations, best_conf)
        self.tokens = None
        self.rotations = np.empty((0, 4))
        self.translations = np.empty((0, 3))
        self.best_conf = np.empty(0)

    def ids(self):
        return list(self._ids)

    def add(self, frame_id, token: FrameToken, pose: Pose, best_conf):
        frame_id = as_frame_id(frame_id)
        if self._ids and frame_id <= self._ids[-1]:
            raise NonMonotoneFrameId(f"frame {frame_id} after frame {self._ids[-1]}")
        m = len(self._ids)
        if self._buffers is None:
            self._buffers = (np.empty((8,) + token.features.shape), np.empty((8, 4)),
                             np.empty((8, 3)), np.empty(8))
        elif token.features.shape != self._buffers[0].shape[1:]:
            raise ValueError(f"token features of shape {token.features.shape}, "
                             f"the bank holds {self._buffers[0].shape[1:]}")
        elif m == len(self._buffers[0]):
            grown = tuple(np.empty((2 * m,) + b.shape[1:]) for b in self._buffers)
            for new, old in zip(grown, self._buffers):
                new[:m] = old
            self._buffers = grown
        tokens, rotations, translations, conf = self._buffers
        tokens[m] = token.features
        rotations[m] = pose.rotation.as_array()
        translations[m] = pose.translation
        conf[m] = best_conf
        self._ids.append(frame_id)
        self._views(m + 1)

    def evict(self, row) -> int:
        """Drop one row; returns its frame id."""
        frame_id = self._ids.pop(row)
        m = len(self._ids)
        row %= m + 1        # a negative row counts from the end, as in pop
        for b in self._buffers:
            b[row:m] = b[row + 1:m + 1]
        self._views(m)
        return frame_id

    def _views(self, m):
        self.tokens, self.rotations, self.translations, self.best_conf = (
            b[:m] for b in self._buffers)

    def __len__(self):
        return len(self._ids)


def admit_check(bank: KeyframeBank, token: FrameToken, tau: float,
                frames_since_admit: int, delta_max: int) -> bool:
    """Admit when the token is novel or the bank has gone stale."""
    if frames_since_admit >= delta_max:
        return True
    return float((bank.tokens @ token.features).max()) < tau


def cull(bank: KeyframeBank) -> int:
    """Evict the entry with minimal utility u = d * c; returns its frame id.

    d is the distinctiveness from the closest other bank entry in token
    space, c the strongest pair confidence.  Row 0, the oldest frame, is
    never evicted; ties break by ascending frame id, which is row order.
    """
    sim = bank.tokens @ bank.tokens.T
    np.fill_diagonal(sim, -np.inf)
    u = (1.0 - sim.max(axis=1)) * bank.best_conf
    return bank.evict(1 + int(np.argmin(u[1:])))


def gate_score(edges: EdgeBatch) -> float:
    """Mean averaged-pair confidence of a frame against its context."""
    if not len(edges):
        raise ValueError("need at least one edge")
    # np.mean's sum and division, without its wrapper
    return float(np.add.reduce(edges.mean_conf) / len(edges))


class OutlierGate:
    """Confidence gate calibrated on the first n_cal scores it checks.

    Before the baseline exists the gate never rejects; afterwards a frame
    is rejected when its score falls below tau_out * baseline.  The
    consecutive-rejection counter resets on any accepted frame.
    """

    def __init__(self, n_cal, tau_out):
        self.n_cal = n_cal
        self.tau_out = tau_out
        self._cal_scores = []
        self.baseline = None
        self.consecutive_rejections = 0

    def check(self, score) -> bool:
        """Score one frame; returns True when the frame passes."""
        if self.baseline is None:
            self._cal_scores.append(score)
            if len(self._cal_scores) >= self.n_cal:
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
        # calibration ends after the first n_cal stream frames, and the
        # first, the origin, has no score; after a reset every frame has one
        self.gate = OutlierGate(max(config.n_cal - 1, 1), config.tau_out)
        self.trajectory = {}            # frame id -> Pose, accepted frames only
        self.frames_since_admit = 0
        self.segment_index = 0
        self.segment_accepted = 0
        self.reset_pending = False
        self._last_frame_id = -math.inf

    @property
    def context_ids(self):
        return self.bank.ids()


def process_frame(state: StreamState, token: FrameToken, edges: EdgeBatch):
    """Advance the stream by one frame; returns the emitted events.

    edges must cover exactly the active context; the first frame of a
    stream, whose context is empty, becomes the origin without reading
    them.  Raises NonMonotoneFrameId / MissingContextEdges on malformed
    input, before any state changes.
    """
    cfg = state.config
    frame_id = token.id
    bank = state.bank
    context = bank._ids     # the bank's own list: read before the bank changes
    last = max([state._last_frame_id, *context[-1:]])
    if frame_id <= last:
        raise NonMonotoneFrameId(f"frame {frame_id} after frame {last}")
    events = []

    if not context:
        # first frame of the stream, the origin: a reset leaves its bridge
        # in the bank, and row 0 is never evicted
        state._last_frame_id = frame_id
        pose = Pose.identity()
        state.trajectory[frame_id] = pose
        bank.add(frame_id, token, pose, 0.0)
        state.frames_since_admit = 0
        state.segment_accepted = 1
        events.append(StreamEvent("Accepted", frame_id))
        events.append(StreamEvent("AdmittedToBank", frame_id))
        return events

    if len(edges) != len(context):       # an empty list has no columns
        raise MissingContextEdges(f"{len(edges)} edges for context {context}")
    # the oracle and DistractorStream emit rows in context order, so only
    # edges from elsewhere may need sorting
    covered = (edges.src == context).all()
    if not covered:
        edges = edges.take(np.argsort(edges.src, kind="stable"))
        covered = (edges.src == context).all()
    if not (covered and (edges.dst == frame_id).all()):
        raise MissingContextEdges(
            f"edges must cover exactly the active context {context}")
    state._last_frame_id = frame_id

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

    candidates = compose_candidate(bank.rotations, bank.translations, edges)
    pose = fuse_candidates(candidates, k=cfg.k)
    state.trajectory[frame_id] = pose
    events.append(StreamEvent("Accepted", frame_id, {"score": score}))

    # lazily refresh stored pair confidences from this frame's edges, with
    # the batch's one mean_conf array that gate_score read
    mean_conf = edges.mean_conf
    np.maximum(bank.best_conf, mean_conf, out=bank.best_conf)

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


def check_bridge_length(n):
    """A reset bridge holds 3 to 10 frames."""
    if n < 3:
        raise BridgeTooShort(f"bridge has {n} frames, need >= 3")
    if n > 10:
        raise BridgeTooLong(f"bridge has {n} frames, need <= 10")


def segment_reset(state: StreamState, bridge):
    """Clear bank and gate, re-seed from bridge frames, bump the segment.

    Bridge items are (frame_id, pose, token) triples in increasing id order
    with poses from the previous segment, which new frames compose against;
    all enter the trajectory, the m_max most recent the bank (the oldest in
    row 0).  Ids are read by as_frame_id's rule, so a NumPy integer enters
    as a plain int.  A malformed bridge raises before any state changes.
    """
    bridge = [(as_frame_id(frame_id), pose, token) for frame_id, pose, token in bridge]
    check_bridge_length(len(bridge))
    if any(a[0] >= b[0] for a, b in zip(bridge, bridge[1:])):
        raise NonMonotoneFrameId("bridge frame ids must increase strictly")
    cfg = state.config
    state.bank = KeyframeBank()
    state.gate = OutlierGate(cfg.n_cal, cfg.tau_out)
    for frame_id, pose, _ in bridge:
        state.trajectory[frame_id] = pose
    for frame_id, pose, token in bridge[-cfg.m_max:]:
        state.bank.add(frame_id, token, pose, 0.0)
    state.frames_since_admit = 0
    state.segment_index += 1
    state.segment_accepted = len(bridge)
    state.reset_pending = False
    return state


def write_event_log(events, path):
    with open(path, "w") as f:
        for ev in events:
            f.write(ev.to_json() + "\n")

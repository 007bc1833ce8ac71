"""Directed relative-pose graph: edges, candidate composition, fusion.

An edge (i -> j) carries a predicted relative rotation/translation and two
positive confidences, one per component.  Every reference frame i with a
known pose proposes one absolute candidate for frame j by composing its
pose with the edge; candidates are fused with softmax confidence weights,
top-K selected by averaged confidence.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geom import Pose, UnitQuaternion, quat_multiply, quat_rotate


class EmptyCandidates(ValueError):
    pass


@dataclass(frozen=True)
class PoseEdge:
    src: int
    dst: int
    rel_rotation: UnitQuaternion
    rel_translation: np.ndarray  # expressed in src-frame coordinates
    conf_rot: float
    conf_trans: float

    def __post_init__(self):
        if self.src == self.dst:
            raise ValueError("edge endpoints must differ")
        if not (0 < self.conf_rot < math.inf and 0 < self.conf_trans < math.inf):
            raise ValueError("confidences must be positive and finite")
        t = np.array(self.rel_translation, dtype=float)
        t.setflags(write=False)
        object.__setattr__(self, "rel_translation", t)

    @property
    def mean_conf(self):
        return 0.5 * (self.conf_rot + self.conf_trans)


@dataclass(frozen=True)
class CandidatePose:
    proposed: Pose
    conf_rot: float
    conf_trans: float
    reference: int

    @property
    def mean_conf(self):
        return 0.5 * (self.conf_rot + self.conf_trans)


def compose_candidate(ref_pose: Pose, edge: PoseEdge) -> CandidatePose:
    """Propose an absolute pose for edge.dst from the reference's pose.

    q_dst = q_ref ⊗ q_rel, t_dst = t_ref + q_ref(t_rel); the edge's two
    confidences ride along unchanged.
    """
    q = quat_multiply(ref_pose.rotation, edge.rel_rotation)
    t = ref_pose.translation + quat_rotate(ref_pose.rotation, edge.rel_translation)
    return CandidatePose(Pose(q, t), edge.conf_rot, edge.conf_trans, edge.src)


def _softmax(values):
    v = np.asarray(values, dtype=float)
    v = v - v.max()
    e = np.exp(v)
    return e / e.sum()


def _top_k(candidates, k):
    """Retain the top-k candidates by averaged confidence.

    k=None means ALL.  Deterministic tie-break: ascending reference id.
    """
    ranked = sorted(candidates, key=lambda c: (-c.mean_conf, c.reference))
    if k is None or k >= len(ranked):
        return ranked
    return ranked[:k]


def fuse_candidates(candidates, k=None, log_weights=False):
    """Confidence-weighted fusion of candidate poses into one pose.

    Translation is the softmax(conf_trans)-weighted mean; rotation is the
    renormalized softmax(conf_rot)-weighted quaternion sum, candidates
    sign-aligned to the retained candidate with the highest rotation
    confidence.  log_weights switches the softmax to log-confidences
    (weights proportional to the raw confidences) for experimentation.
    """
    candidates = list(candidates)
    if not candidates:
        raise EmptyCandidates("no candidate poses to fuse")
    retained = _top_k(candidates, k)

    c_rot = np.array([c.conf_rot for c in retained])
    c_trans = np.array([c.conf_trans for c in retained])
    if log_weights:
        c_rot = np.log(c_rot)
        c_trans = np.log(c_trans)
    w_rot = _softmax(c_rot)
    w_trans = _softmax(c_trans)

    ts = np.array([c.proposed.translation for c in retained])
    t = w_trans @ ts

    # sign-align to the retained candidate with highest conf_rot
    anchor_idx = min(range(len(retained)),
                     key=lambda i: (-retained[i].conf_rot, retained[i].reference))
    anchor = retained[anchor_idx].proposed.rotation.as_array()
    qs = np.array([c.proposed.rotation.as_array() for c in retained])
    signs = np.where(qs @ anchor < 0.0, -1.0, 1.0)
    q_sum = (w_rot[:, None] * signs[:, None] * qs).sum(axis=0)
    if np.linalg.norm(q_sum) < 1e-9:
        # antipodal equal-weight degeneracy: fall back to the anchor rotation
        q = retained[anchor_idx].proposed.rotation
    else:
        q = UnitQuaternion(*q_sum)
    return Pose(q, t)


# --- line-oriented edge text format: src dst qw qx qy qz tx ty tz cR cT ---

def format_edge(edge: PoseEdge) -> str:
    q = edge.rel_rotation
    t = edge.rel_translation
    vals = (q.w, q.x, q.y, q.z, t[0], t[1], t[2],
            edge.conf_rot, edge.conf_trans)
    return " ".join([str(edge.src), str(edge.dst)]
                    + [repr(float(v)) for v in vals])


def parse_edge(line: str) -> PoseEdge:
    parts = line.split()
    if len(parts) != 11:
        raise ValueError(f"expected 11 fields per edge line, got {len(parts)}")
    src, dst = int(parts[0]), int(parts[1])
    qw, qx, qy, qz, tx, ty, tz = (float(v) for v in parts[2:9])
    if not all(map(math.isfinite, (qw, qx, qy, qz, tx, ty, tz))):
        raise ValueError("non-finite rotation or translation in edge line")
    cr, ct = float(parts[9]), float(parts[10])
    return PoseEdge(src, dst, UnitQuaternion(qw, qx, qy, qz),
                    np.array([tx, ty, tz]), cr, ct)


def dump_edges(edges, path):
    with open(path, "w") as f:
        for e in edges:
            f.write(format_edge(e) + "\n")


def load_edges(path):
    edges = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                edges.append(parse_edge(line))
    return edges

from dataclasses import dataclass

import numpy as np
import pytest

from relpose.geom import Pose, UnitQuaternion, quat_angle_deg, relative_poses
from relpose.posegraph import CandidateBatch, EdgeBatch


def random_quat(rng):
    return UnitQuaternion(*rng.normal(size=4))


def random_pose(rng, scale=1.0):
    return Pose(random_quat(rng), rng.normal(scale=scale, size=3))


def relative_pose(a, b):
    """The relative pose a^-1 b of two Poses, by geom.relative_poses."""
    q, t = relative_poses(a.rotation.as_array(), a.translation,
                          b.rotation.as_array(), b.translation)
    return Pose(UnitQuaternion.from_unit(*q.tolist()), t)


def angle_deg(a, b):
    """Geodesic angle in degrees between two UnitQuaternions, by
    geom.quat_angle_deg."""
    return float(quat_angle_deg(a.as_array(), b.as_array()))


def edge_batch(edges):
    """PoseEdges stacked into one EdgeBatch through its constructor."""
    edges = list(edges)
    return EdgeBatch([e.src for e in edges], [e.dst for e in edges],
                     np.reshape([e.rel_rotation.as_array() for e in edges], (-1, 4)),
                     np.reshape([e.rel_translation for e in edges], (-1, 3)),
                     [e.conf_rot for e in edges], [e.conf_trans for e in edges])


@dataclass(frozen=True)
class CandidatePose:
    """One absolute pose candidate: a row of a CandidateBatch."""
    proposed: Pose
    conf_rot: float
    conf_trans: float
    reference: int


def candidate_batch(candidates):
    """CandidatePoses stacked into one CandidateBatch, row by row."""
    cs = list(candidates)
    return CandidateBatch(
        np.reshape([c.proposed.rotation.as_array() for c in cs], (-1, 4)),
        np.reshape([c.proposed.translation for c in cs], (-1, 3)),
        np.array([c.conf_rot for c in cs], dtype=float),
        np.array([c.conf_trans for c in cs], dtype=float),
        np.array([c.reference for c in cs], dtype=np.int64))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

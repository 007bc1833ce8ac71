"""Directed relative-pose graph: edges, candidate composition, fusion.

An edge (i -> j) carries a predicted relative rotation/translation and two
positive confidences, one per component.  Edges travel as an EdgeBatch, a
struct of arrays with one row per edge and the one edge input of every
path; indexing it gives a PoseEdge, a read-only view of one row.  Every
reference frame i with a known pose proposes one absolute candidate for
frame j by composing its pose with the edge (compose_candidate does a
whole batch in one call); a frame's CandidateBatch is fused with c^2
(inverse-variance) weights, top-K selected by averaged confidence.
"""

import math
import typing
from dataclasses import dataclass, fields
from functools import cache

import numpy as np

from .geom import Pose, UnitQuaternion, quat_apply, quat_normalize, quat_product


class EmptyCandidates(ValueError):
    pass


class ConfigError(ValueError):
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
        # checked by EdgeBatch's rule, as the one-row batch of these fields
        row = EdgeBatch([self.src], [self.dst], [self.rel_rotation.as_array()],
                        [self.rel_translation], [self.conf_rot], [self.conf_trans])
        object.__setattr__(self, "rel_translation", row.translation[0])


class EdgeBatch:
    """Edges as a struct of arrays, one row per edge: src and dst ids (n,),
    rotation (n, 4) unit wxyz quaternions, translation (n, 3) in src-frame
    coordinates, conf_rot and conf_trans (n,).

    The constructor is the boundary: it normalizes the rotations (as
    UnitQuaternion does) and rejects ids that are not integers (see
    as_frame_id), self-loops and non-finite or non-positive values.  The
    oracle runs these checks on its new arrays without copying them
    (_adopt).  Rows taken from checked batches (take, concat, relabel) are
    not checked or normalized again, but for relabel's new ids.  The arrays
    are read-only, mean_conf too, which is computed on first use and kept;
    len() and indexing work row-wise, a row being a PoseEdge (iteration
    goes through indexing).
    """

    _COLUMNS = ("src", "dst", "rotation", "translation", "conf_rot", "conf_trans")

    def __init__(self, src, dst, rotation, translation, conf_rot, conf_trans):
        self._adopt(*_ids(src, dst), *(np.array(a, dtype=float) for a in (
            rotation, translation, conf_rot, conf_trans)))

    def _adopt(self, src, dst, rotation, translation, conf_rot, conf_trans):
        """Check and adopt six new, unshared arrays of the column dtypes."""
        self._set(src, dst, rotation, translation, conf_rot, conf_trans)
        if not np.isfinite(translation).all():
            raise ValueError("translation must be finite")
        conf = np.concatenate([conf_rot, conf_trans])
        # min/max propagate NaN, which fails the comparisons
        if not (conf.min(initial=1.0) > 0 and conf.max(initial=1.0) < math.inf):
            raise ValueError("confidences must be positive and finite")
        self.rotation = quat_normalize(rotation)
        self.rotation.setflags(write=False)
        return self

    def _set(self, *columns):
        """Adopt six arrays as the columns, read-only from here on, and
        return the batch; only their shapes and the endpoints are checked."""
        n = len(columns[0])
        for name, a, tail in zip(self._COLUMNS, columns,
                                 ((), (), (4,), (3,), (), ())):
            if a.shape != (n,) + tail:
                raise ValueError(f"{name} must have shape {(n,) + tail}")
            a.setflags(write=False)
            setattr(self, name, a)
        self._mean_conf = None
        if (self.src == self.dst).any():
            raise ValueError("edge endpoints must differ")
        return self

    @classmethod
    def concat(cls, batches):
        """The rows of several batches, in order, as one batch."""
        return cls.__new__(cls)._set(*(np.concatenate([getattr(b, name) for b in batches])
                                       for name in cls._COLUMNS))

    def take(self, rows):
        """The batch of the given rows (a 1-D index or a slice), in that
        order, unchecked: they keep this batch's shapes and distinct ends."""
        batch = self.__new__(type(self))
        for name in self._COLUMNS:
            a = getattr(self, name)[rows]
            a.setflags(write=False)
            setattr(batch, name, a)
        batch._mean_conf = None
        return batch

    def relabel(self, src, dst):
        """The same edges with new endpoint ids."""
        return self.__new__(type(self))._set(*_ids(src, dst), self.rotation, self.translation,
                                             self.conf_rot, self.conf_trans)

    @property
    def mean_conf(self):
        """The averaged pair confidence of each row, (n,)."""
        if self._mean_conf is None:
            m = 0.5 * (self.conf_rot + self.conf_trans)
            m.setflags(write=False)
            self._mean_conf = m
        return self._mean_conf

    def __len__(self):
        return len(self.src)

    def __getitem__(self, k):
        return PoseEdge(int(self.src[k]), int(self.dst[k]),
                        UnitQuaternion.from_unit(*self.rotation[k].tolist()),
                        self.translation[k], float(self.conf_rot[k]),
                        float(self.conf_trans[k]))


_INT64_MAX = np.iinfo(np.int64).max
_MISFIT = object()
_fields = cache(fields)     # a config class's fields, and a type's parts, resolved once
_parts = cache(lambda kind: (typing.get_origin(kind), typing.get_args(kind)))


def _fit(value, kind):
    """value as a field of type kind holds it, or _MISFIT.  The one int rule: a
    Python int or NumPy integer (a bool is neither) is a plain int, and fits a
    float field too; a bool fits only a bool, a list of fitting items a tuple."""
    if kind in (int, float) and (type(value) is int or isinstance(value, np.integer)):
        return int(value)
    origin, args = _parts(kind)
    if origin is tuple:
        items = ([_fit(v, args[0]) for v in value] if isinstance(value, (list, tuple))
                 else [_MISFIT])
        return _MISFIT if _MISFIT in items else tuple(items)
    if args:        # a union: the first member that fits
        return next((v for v in (_fit(value, k) for k in args) if v is not _MISFIT), _MISFIT)
    return value if isinstance(value, kind) and kind is not int else _MISFIT


def as_int(value, name, low=None, none=False) -> int:
    """value as a plain int by _fit's int rule, of at least low; else a
    ValueError names name.  none=True lets None pass as itself."""
    if value is None and none:
        return None
    n = value if type(value) is int else _fit(value, int)
    if n is _MISFIT:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and n < low:
        bound = "non-negative" if low == 0 else f"at least {low}"
        raise ValueError(f"{name} must be {'None or ' if none else ''}{bound}, got {n}")
    return n


def as_frame_id(i) -> int:
    """A frame id as a plain int, by as_int's rule, in the int64 range."""
    i = as_int(i, "frame id")
    if not -_INT64_MAX - 1 <= i <= _INT64_MAX:
        raise ValueError(f"frame id {i} is outside the int64 range")
    return i


def has_bool_id(ids) -> bool:
    """Whether a sequence of frame ids that is not an array holds a bool,
    which NumPy reads into an integer array ([1, True] as [1, 1])."""
    return not isinstance(ids, np.ndarray) and not {bool, np.bool_}.isdisjoint(map(type, ids))


def _type_name(kind):
    if typing.get_origin(kind) is tuple:
        return f"a list of {_type_name(typing.get_args(kind)[0])}"
    return " or ".join(map(_type_name, typing.get_args(kind))) or (
        "null" if kind is type(None) else kind.__name__)


def check_fields(config, prefix=""):
    """Read a config dataclass's fields by the YAML loader's rule (_fit) in
    its __post_init__; a ConfigError names the first that does not fit."""
    for f in _fields(type(config)):
        value = getattr(config, f.name)
        read = _fit(value, f.type)
        if read is _MISFIT:
            raise ConfigError(f"{prefix}{f.name} must be {_type_name(f.type)}, got {value!r}")
        object.__setattr__(config, f.name, read)


def _id_array(ids):
    """A new int64 array of a sequence of frame ids.  Ids that make an
    array of a signed integer dtype, or an empty one, are cast, and so are
    unsigned ones that all fit int64, if no bool hides among them; else
    each is checked, and the first bad id named, a plain int if it is one."""
    a = np.array(ids)
    if not a.size or ((a.dtype.kind == "i" or a.dtype.kind == "u" and a.max() <= _INT64_MAX)
                      and not has_bool_id(ids)):
        return a.astype(np.int64, copy=False)
    return np.array([as_frame_id(i) for i in ids], dtype=np.int64)


def _ids(src, dst):
    """src as an id array, dst as one of the same length (a single id is
    repeated)."""
    src = _id_array(src)
    if np.ndim(dst) == 0:
        # np.full's two steps, without its wrapper
        column = np.empty(len(src), dtype=np.int64)
        column.fill(as_frame_id(dst))
        return src, column
    return src, _id_array(dst)


@dataclass(frozen=True)
class CandidateBatch:
    """Absolute pose candidates for one frame, one row per reference:
    rotation (n, 4) unit wxyz, translation (n, 3), conf_rot, conf_trans
    and reference ids (n,)."""
    rotation: np.ndarray
    translation: np.ndarray
    conf_rot: np.ndarray
    conf_trans: np.ndarray
    reference: np.ndarray

    def __len__(self):
        return len(self.reference)


def compose_candidate(ref_rotation, ref_translation, edges: EdgeBatch) -> CandidateBatch:
    """Propose an absolute pose for each edge's dst from its reference's
    pose, given as row-aligned (n, 4) wxyz rotations and (n, 3)
    translations of the edges' src frames.

    q_dst = q_ref ⊗ q_rel (renormalized), t_dst = t_ref + q_ref(t_rel);
    the edges' confidences ride along unchanged.
    """
    q = quat_normalize(quat_product(ref_rotation, edges.rotation))
    t = ref_translation + quat_apply(ref_rotation, edges.translation)
    return CandidateBatch(q, t, edges.conf_rot, edges.conf_trans, edges.src)


def _softmax(values):
    v = values - values.max()
    e = np.exp(v)
    return e / e.sum()


def fuse_candidates(candidates: CandidateBatch, k=None):
    """Confidence-weighted fusion of a frame's candidate poses, the
    CandidateBatch that compose_candidate returns, into one pose.

    The top-k candidates by averaged confidence are retained (k=None keeps
    all; ties break by ascending reference id).  Each component is
    weighted by its squared confidence, the inverse variance of Laplace
    noise of scale alpha/c up to a common factor, computed as a softmax of
    2 log c so that no square overflows or underflows.  Translation is the
    c_trans^2-weighted mean; rotation is the renormalized c_rot^2-weighted
    quaternion sum, candidates sign-aligned to the retained candidate with
    the highest rotation confidence, ties going to the smallest reference
    id (the first in retained order if that repeats too).  The top-k order
    is the one sort: it fixes the summation order, and so the bits.
    """
    k = as_int(k, "k", 1, none=True)
    if not len(candidates):
        raise EmptyCandidates("no candidate poses to fuse")
    mean_conf = 0.5 * (candidates.conf_rot + candidates.conf_trans)
    keep = np.lexsort((candidates.reference, -mean_conf))[:k]
    c_rot, c_trans = candidates.conf_rot[keep], candidates.conf_trans[keep]
    # take copies the rows fancy indexing would, at a quarter of its cost
    refs, qs = candidates.reference[keep], candidates.rotation.take(keep, axis=0)

    # sign-align to the retained candidate with highest conf_rot, ties to
    # the smallest reference; argmax finds the first of the tied rows
    top = c_rot.argmax()
    tied = c_rot == c_rot[top]
    if np.count_nonzero(tied) > 1:
        tied = tied.nonzero()[0]
        top = tied[refs[tied].argmin()]
    anchor = qs[top]
    w_rot = _softmax(2.0 * np.log(c_rot))
    w_trans = _softmax(2.0 * np.log(c_trans))

    t = w_trans @ candidates.translation.take(keep, axis=0)
    signs = np.where(qs @ anchor < 0.0, -1.0, 1.0)
    q_sum = (w_rot[:, None] * signs[:, None] * qs).sum(axis=0)
    # the formula np.linalg.norm applies to a 1-D array, without its wrapper
    if math.sqrt(q_sum.dot(q_sum)) < 1e-9:
        # antipodal equal-weight degeneracy: fall back to the anchor rotation
        q = UnitQuaternion.from_unit(*anchor.tolist())
    else:
        q = UnitQuaternion(*q_sum.tolist())
    return Pose(q, t)


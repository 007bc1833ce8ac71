"""Synthetic stand-in for the backbone plus pairwise pose head.

Generates ground-truth trajectories, frame tokens, and noisy pose edges
whose confidences are calibrated to the loss fixed point: per-component
Laplace noise of scale b gets confidence alpha / b, the minimizer of
c * E|noise| - alpha * log c.  Noise grows with frame gap and baseline so
long-range edges are genuinely less reliable.

Edge noise is keyed per (seed, src, dst) with a counter-based generator,
so emission is pure: any call order yields identical edges.  A scene
computes the per-frame parts of those keys once, at construction (the
source half of every key and the destination multiplier of every frame),
so an emission call only combines them; it draws only the uniforms the
config uses.  A scene's noisier twin (`noisier`) shares all of this with
it.  Every step of an emission is row-wise, so one emit_edges call takes
either one destination frame or one per source row: offline fusion, the
all-pair refinement set and `emit_pairs` (which `relpose diag` samples
through) are each one call, and a DistractorStream emits the context
edges of _BLOCK frames in one call per scene.  An emission's new columns
and a scene's token rows are checked once, where they are made, not copied.

A scene and a DistractorStream are frame sources, with one protocol that
the runner's one stream loop reads: frame_ids in stream order,
emit_token(id) and emit_edges(context, id).

Frame ids run from 1: every lookup takes id i to row i - frame_ids[0],
checked against [0, n), and row r back to id r + frame_ids[0].  Only
integer ids pass, by posegraph.as_int's rule: a float or bool id, alone
or in an array, raises UnknownFrame, and an unknown integer id (one past
the int64 range too) is named in it as a plain int.
"""

import copy
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .geom import (Pose, UnitQuaternion, quat_apply, quat_exp, quat_multiply,
                   quat_normalize, quat_product, quat_to_matrix)
from .posegraph import EdgeBatch, as_int, check_fields, has_bool_id
from .stream import FrameToken, token_rows


class InvalidConfig(ValueError):
    pass


class UnknownFrame(KeyError):
    pass


class InvalidCounts(ValueError):
    pass


_EPS_SCALE = 1e-9


@dataclass(frozen=True)
class OracleConfig:
    family: str = "random-walk"       # circle | random-walk | figure-eight
    frames: int = 100
    step: float = 0.1                 # consecutive baseline bound (walk) / arc scale
    rot_step: float = 0.05            # per-frame heading change, radians (walk)
    base_rot_noise: float = 0.002     # Laplace scale b0 on rotation components, rad
    base_trans_noise: float = 0.01    # Laplace scale b0 on translation components
    noise_gap_growth: float = 0.02    # gamma: per-frame-gap growth of noise scales
    outlier_prob: float = 0.1         # chance a pair is unreliable (inflated noise)
    outlier_mult: float = 30.0        # noise-scale inflation for unreliable pairs
    token_dim: int = 64
    token_length_scale: float = 0.5   # positional smoothness of tokens
    alpha: float = 0.2                # loss regularizer weight
    conf_jitter: float = 0.0          # lognormal sigma on confidences (0 = calibrated)

    def __post_init__(self):
        check_fields(self, "oracle.")
        if self.frames < 2:
            raise InvalidConfig("need at least 2 frames")
        if self.family not in ("circle", "random-walk", "figure-eight"):
            raise InvalidConfig(f"unknown trajectory family {self.family!r}")
        if self.token_dim < 1:
            raise InvalidConfig("token_dim must be at least 1")
        for name in ("step", "token_length_scale", "alpha"):
            if not 0 < getattr(self, name) < math.inf:
                raise InvalidConfig(f"{name} must be positive and finite")
        for name in ("rot_step", "base_rot_noise", "base_trans_noise",
                     "noise_gap_growth", "conf_jitter"):
            if not 0 <= getattr(self, name) < math.inf:
                raise InvalidConfig(f"{name} must be non-negative and finite")
        if not 0.0 <= self.outlier_prob < 1.0:
            raise InvalidConfig("outlier_prob must be in [0, 1)")
        if not 1.0 <= self.outlier_mult < math.inf:
            raise InvalidConfig("outlier_mult must be >= 1 and finite")


# --- counter-based per-pair randomness (splitmix64) ---

_M1 = np.uint64(0x9E3779B97F4A7C15)
_M2 = np.uint64(0xBF58476D1CE4E5B9)
_M3 = np.uint64(0x94D049BB133111EB)
# shift amounts, built once rather than on every call
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)


def _mix(z):
    """splitmix64 finalizer.  It wraps around: silently on arrays, with an
    overflow warning on a scalar, so mix a scalar under
    np.errstate(over="ignore")."""
    z = z + _M1
    z ^= z >> _S30
    z = z * _M2
    z ^= z >> _S27
    z = z * _M3
    z ^= z >> _S31
    return z


def _source_keys(seed, src):
    """The source half of the (src, dst) pair keys, one per src row."""
    src = np.atleast_1d(np.asarray(src, dtype=np.uint64))
    with np.errstate(over="ignore"):
        return _mix(_mix(np.uint64(seed)) ^ src * np.uint64(0x01000193))


def _dest_mults(dst):
    """The destination multiplier of the pair keys, per dst row."""
    with np.errstate(over="ignore"):
        return np.asarray(dst, dtype=np.uint64) * np.uint64(0x100000001B3)


def _column_keys(columns):
    with np.errstate(over="ignore"):
        return (np.asarray(columns, dtype=np.uint64) + np.uint64(1)) * _M3


def _key_uniforms(src_keys, dst_mult, column_keys):
    """Uniforms in (0, 1), one row per source key, one column per column
    key, all paired with one destination.  The keys are arrays, whose
    uint64 arithmetic wraps without a warning, so no np.errstate block is
    entered per call."""
    base = _mix(src_keys ^ dst_mult)
    z = _mix(base[:, None] ^ column_keys[None, :])
    u = (z >> _S11).astype(np.float64) * (2.0 ** -53)
    # np.clip's bounds, in place
    np.maximum(u, 1e-300, out=u)
    np.minimum(u, 1.0 - 1e-16, out=u)
    return u


def _pair_uniforms(seed, src, dst, n):
    """n uniforms in (0, 1) per (src, dst) pair; src may be an array."""
    return _key_uniforms(_source_keys(seed, src), _dest_mults(dst),
                         _column_keys(np.arange(n)))


def _laplace_from_uniform(u, scale=1.0):
    centered = u - 0.5
    return -scale * np.sign(centered) * np.log1p(-2.0 * np.abs(centered))


# Pair-uniform columns an edge uses: 0-2 rotation noise, 3-5 translation
# noise, 6-9 confidence jitter, 10 the outlier draw.  Without jitter,
# 6-9 are not drawn; the outlier draw is the last column either way.
_NOISE_COLUMNS = _column_keys([0, 1, 2, 3, 4, 5, 10])
_JITTER_COLUMNS = _column_keys(np.arange(11))


class SyntheticScene:
    """Ground-truth trajectory plus deterministic token and edge emitters."""

    def __init__(self, config: OracleConfig, seed: int):
        self.config = config
        self.seed = as_int(seed, "seed", 0)
        rng = np.random.default_rng([self.seed, 0xA11CE])
        self._quats, self._trans = _generate_trajectory(config, rng)
        self.frame_ids = list(range(1, len(self._quats) + 1))
        self._rots = quat_to_matrix(self._quats)
        self._tokens = token_rows(_generate_tokens(config, rng, self._trans, self._rots))
        # per-frame emission constants: pair-key halves, inverse rotations
        rows = np.arange(len(self.frame_ids))
        self._src_keys = _source_keys(self.seed, rows)
        self._dst_mults = _dest_mults(rows)
        self._conj_quats = self._quats * np.array([1.0, -1.0, -1.0, -1.0])

    @functools.cached_property
    def poses(self):
        """Ground-truth Pose per frame id, built on first read."""
        return {fid: Pose(UnitQuaternion.from_unit(*q), t) for fid, q, t
                in zip(self.frame_ids, self._quats.tolist(), self._trans)}

    def noisier(self, mult):
        """This scene with both base noise scales multiplied by mult >= 1:
        the same poses, tokens and seed, hence the same edge geometry and
        noise draws, but noisier and less confident edges.  Shares every
        array with this scene, which does not change."""
        if not 1.0 <= mult < math.inf:
            raise InvalidConfig(f"noise multiplier must be in [1, inf), got {mult}")
        cfg = self.config
        twin = copy.copy(self)
        twin.config = replace(cfg, base_rot_noise=cfg.base_rot_noise * mult,
                              base_trans_noise=cfg.base_trans_noise * mult)
        return twin

    def _row(self, i):
        """One id's row by the rule of _rows, in plain Python (no NumPy trip)."""
        try:
            i = as_int(i, "frame id")
        except ValueError:
            raise UnknownFrame(i) from None
        if 0 <= i - self.frame_ids[0] < len(self.frame_ids):
            return i - self.frame_ids[0]
        raise UnknownFrame(i)

    def _rows(self, ids):
        """Rows of a 1-D sequence of frame ids, by the module's frame-row rule."""
        a = np.asarray(ids)
        if a.ndim != 1:
            raise ValueError(f"frame ids must be 1-D, got shape {a.shape}")
        if a.dtype.kind in "iu" and not has_bool_id(ids) or not len(a):
            rows = a.astype(np.int64, copy=False) - self.frame_ids[0]
            # a negative row wraps to a huge unsigned one: one test, both ends
            if not np.count_nonzero(rows.view(np.uint64) >= len(self.frame_ids)):
                return rows
        # otherwise each id is read as given, so the first that is not an
        # integer id in range is named, an integer as a plain int
        return np.array([self._row(i) for i in ids], dtype=np.int64)

    def ground_truth(self):
        return dict(self.poses)

    def noise_scales(self, i, j):
        """Per-pair Laplace scales (b_rot, b_trans); clamped positive."""
        i, j = self._row(i), self._row(j)
        baseline = float(np.linalg.norm(self._trans[j] - self._trans[i]))
        growth = (1.0 + self.config.noise_gap_growth * abs(j - i)) * (1.0 + baseline)
        u = _pair_uniforms(self.seed, [i], j, 11)
        if u[0, 10] < self.config.outlier_prob:
            growth *= self.config.outlier_mult
        b_r = max(self.config.base_rot_noise * growth, _EPS_SCALE)
        b_t = max(self.config.base_trans_noise * growth, _EPS_SCALE)
        return b_r, b_t

    def emit_edges(self, sources, dst) -> EdgeBatch:
        """Noisy confidence-carrying edges, one row per source in the order
        given, into dst: one frame id for every row, or a sequence of them
        with one per source row (an int64 array, say), as EdgeBatch takes
        its dst column.  Every step is row-wise, so a row's bits do not
        depend on which call or batch it is emitted in."""
        ji = self._rows(dst) if np.ndim(dst) else self._row(dst)
        si = self._rows(sources)
        if isinstance(ji, np.ndarray) and len(ji) != len(si):
            raise ValueError(f"{len(si)} sources but {len(ji)} destinations")
        first = self.frame_ids[0]
        dst = ji + first if np.ndim(ji) else np.full(len(si), ji + first, dtype=np.int64)
        # the ids are new int64 arrays, and so are the columns
        return EdgeBatch.__new__(EdgeBatch)._adopt(si + first, dst, *self._noisy_columns(si, ji))

    def _noisy_columns(self, si, ji):
        """(rotation, translation, conf_rot, conf_trans) of the edges from
        rows si into rows ji."""
        cfg = self.config

        gaps = np.abs(ji - si)
        # rows are gathered with take, which copies the same rows as fancy
        # indexing at a quarter of its cost on a stream frame's ~60 rows
        d = self._trans.take(ji, axis=0) - self._trans.take(si, axis=0)
        # the reduction np.linalg.norm(d, axis=1) runs, without its wrapper
        baselines = np.sqrt(np.add.reduce(d * d, axis=1))
        growth = (1.0 + cfg.noise_gap_growth * gaps) * (1.0 + baselines)
        u = _key_uniforms(self._src_keys[si], self._dst_mults[ji],
                          _JITTER_COLUMNS if cfg.conf_jitter > 0 else _NOISE_COLUMNS)
        growth = np.where(u[:, -1] < cfg.outlier_prob,
                          growth * cfg.outlier_mult, growth)
        b_r = np.maximum(cfg.base_rot_noise * growth, _EPS_SCALE)
        b_t = np.maximum(cfg.base_trans_noise * growth, _EPS_SCALE)

        # true relative pose, expressed in the source frame
        q_rel = quat_product(self._conj_quats.take(si, axis=0),
                             self._quats.take(ji, axis=0))
        t_rel = np.einsum("nij,nj->ni", self._rots.take(si, axis=0).transpose(0, 2, 1), d)

        # unit-scale Laplace noise: rotation in columns 0-2, translation 3-5
        shape = _laplace_from_uniform(u[:, :6])
        if cfg.base_rot_noise > 0:
            q_noisy = quat_product(q_rel, quat_exp(shape[:, :3] * b_r[:, None]))
        else:
            q_noisy = q_rel
        if cfg.base_trans_noise > 0:
            t_noisy = t_rel + shape[:, 3:] * b_t[:, None]
        else:
            t_noisy = t_rel

        conf_r = cfg.alpha / b_r
        conf_t = cfg.alpha / b_t
        if cfg.conf_jitter > 0:
            # Box-Muller from two more pair uniforms
            g1 = np.sqrt(-2.0 * np.log(u[:, 6])) * np.cos(2 * np.pi * u[:, 7])
            g2 = np.sqrt(-2.0 * np.log(u[:, 8])) * np.cos(2 * np.pi * u[:, 9])
            conf_r = conf_r * np.exp(cfg.conf_jitter * g1)
            conf_t = conf_t * np.exp(cfg.conf_jitter * g2)

        return q_noisy, t_noisy, conf_r, conf_t

    def emit_pairs(self, pairs) -> EdgeBatch:
        """Edges for (src, dst) pairs, one row per pair in the order given.
        Each pair holds exactly two ids, passed to emit_edges as given."""
        try:
            src, dst = zip(*pairs, strict=True) if len(pairs) else ((), ())
        except (TypeError, ValueError):
            raise ValueError("each pair must hold exactly two frame ids") from None
        return self.emit_edges(src, dst)

    def emit_token(self, i) -> FrameToken:
        row = self._row(i)
        return FrameToken._checked(row + self.frame_ids[0], self._tokens[row])


def generate_scene(config: OracleConfig, seed: int) -> SyntheticScene:
    return SyntheticScene(config, seed)


def _generate_trajectory(cfg: OracleConfig, rng):
    """Ground-truth rotations (n, 4) wxyz and camera centers (n, 3)."""
    n = cfg.frames
    if cfg.family == "random-walk":
        # the heading chain is sequential, so it runs on scalar quaternions
        turns = quat_exp(rng.normal(0.0, cfg.rot_step, (n, 3))).tolist()
        q = UnitQuaternion.identity()
        quats = [(q.w, q.x, q.y, q.z)]
        for turn in turns[:n - 1]:
            q = quat_multiply(q, UnitQuaternion(*turn))
            quats.append((q.w, q.x, q.y, q.z))
        quats = np.array(quats)
        steps = quat_apply(quats[1:], [cfg.step, 0.0, 0.0])
        return quats, np.cumsum(np.concatenate([np.zeros((1, 3)), steps]), axis=0)
    t = 2.0 * math.pi * np.arange(n) / n
    if cfg.family == "circle":
        # unit circle, headings tangent (body x-axis along travel direction)
        trans = np.stack([np.cos(t), np.sin(t), np.zeros(n)], axis=1)
        heading = t + math.pi / 2
    else:  # figure-eight
        trans = np.stack([np.sin(t), np.sin(t) * np.cos(t), np.zeros(n)], axis=1)
        # math.atan2, not np.arctan2, which rounds ~7% of these an ulp away
        heading = np.array(list(map(math.atan2, np.cos(2 * t).tolist(), np.cos(t).tolist())))
    return quat_normalize(quat_exp(np.array([0.0, 0.0, 1.0]) * heading[:, None])), trans


def _generate_tokens(cfg: OracleConfig, rng, trans, rots):
    """Random Fourier features of position and viewing direction: the
    cosine similarity between two frames approximates a Gaussian kernel
    in pose space, so it decays monotonically with pose distance."""
    dirs = rots[:, :, 0]  # body x-axis in the world frame
    x = np.concatenate([trans / cfg.token_length_scale, dirs], axis=1)
    W = rng.normal(size=(cfg.token_dim, x.shape[1]))
    b = rng.uniform(0.0, 2.0 * math.pi, size=cfg.token_dim)
    feats = np.cos(x @ W.T + b)
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    return feats


# --- distractor interleaving (robustness protocol) ---

@dataclass(frozen=True)
class PlanEntry:
    stream_id: int   # position in the interleaved stream (1-based)
    kind: str        # "clean" | "distractor"
    scene_frame: int  # frame id within the originating scene


@dataclass(frozen=True)
class DistractorPlan:
    entries: tuple


def make_distractor_stream(scene: SyntheticScene, other: SyntheticScene,
                           n_clean, n_distract, seed) -> DistractorPlan:
    """Interleave distractor frames into a clean stream.

    Clean frames keep their temporal order; the first three stream
    positions stay clean; distractor positions are sampled uniformly
    among the rest.
    """
    n_clean, n_distract = as_int(n_clean, "n_clean"), as_int(n_distract, "n_distract")
    if n_clean < 3:
        raise InvalidCounts("need at least 3 clean frames")
    if n_distract < 0:
        raise InvalidCounts("distractor count must be non-negative")
    if n_clean > len(scene.frame_ids) or n_distract > len(other.frame_ids):
        raise InvalidCounts("scene too short for the requested counts")
    if scene is other or (scene.seed == other.seed and scene.config == other.config):
        raise InvalidCounts("clean and distractor scenes must be distinct")
    rng = np.random.default_rng([as_int(seed, "seed", 0), 0xD157])
    total = n_clean + n_distract
    slots = rng.choice(np.arange(3, total), size=n_distract, replace=False)
    is_distractor = np.zeros(total, dtype=bool)
    is_distractor[slots] = True
    clean_frames = scene.frame_ids[:n_clean]
    distract_frames = list(rng.choice(other.frame_ids, size=n_distract, replace=False))
    entries = []
    ci = di = 0
    for pos in range(total):
        if is_distractor[pos]:
            entries.append(PlanEntry(pos + 1, "distractor", int(distract_frames[di])))
            di += 1
        else:
            entries.append(PlanEntry(pos + 1, "clean", clean_frames[ci]))
            ci += 1
    return DistractorPlan(tuple(entries))


# plan positions a DistractorStream block covers.  A block pays for two
# emission calls and, per frame, for about _BLOCK / 2 rows that no request
# may ask for; at about 230 us a call and 0.7 us a row (2-core Xeon VM)
# that costs least near 38 frames
_BLOCK = 32


class DistractorStream:
    """Frame source for a distractor plan: its frame_ids are the plan's
    stream ids, 1, 2, ... in plan order as make_distractor_stream makes
    them.  Clean-clean pairs get genuine scene edges; any pair touching a
    distractor gets geometry from the other scene with inflated noise,
    hence low calibrated confidence.

    Context edges are emitted a block of frames at a time.  A request that
    the current block does not hold emits a new one over the asked frame and
    the _BLOCK - 1 plan positions after it, in one emit_edges call per
    scene: the asked edges, and into each later position every edge from an
    asked source or a block position before it, labelled with stream ids
    once.  A request checks its ids and takes its rows from the block, so a
    stream whose context grows only by the frames it has seen emits once
    per block.  Emission is row-wise, so every row
    has the bits a per-frame emission gives it.  A block holds at most
    _BLOCK * (len(context) + _BLOCK) rows, and only the last is kept.
    """

    def __init__(self, scene, other, plan: DistractorPlan, noise_mult=10.0):
        self.scene = scene
        self.other = other
        self._entries = plan.entries
        self.frame_ids = list(range(1, len(plan.entries) + 1))
        if [e.stream_id for e in plan.entries] != self.frame_ids:
            raise ValueError("plan stream ids must run 1, 2, ... in plan order")
        self._clean = np.array([e.kind == "clean" for e in plan.entries], dtype=bool)
        self._frames = np.array([e.scene_frame for e in plan.entries], dtype=np.int64)
        # a clean frame past the other scene's end has no cross-scene edge,
        # so a block emits one only when it is asked for, and raises then
        self._in_other = np.isin(self._frames, other.frame_ids)
        # same geometry and seed as `other`, only noisier and less
        # confident; asked of `other` so that a stand-in delegating to a
        # scene hands back that scene's twin
        self._noisy_other = other.noisier(noise_mult)
        # the current block: the stream id it starts at, its row table
        # (one row per position, one column per source and a last one of
        # -1), each source stream id's column, and its edges
        self._first, self._table, self._columns, self._edges = 0, np.empty((0, 1)), {}, None

    def _position(self, stream_id):
        """The plan row of a stream id: a non-integer id raises ValueError,
        an integer outside the plan, which int64 holds, KeyError."""
        sid = as_int(stream_id, "frame id")
        if not 1 <= sid <= len(self._entries):
            raise KeyError(sid)
        return sid - 1

    def emit_token(self, stream_id) -> FrameToken:
        entry = self._entries[self._position(stream_id)]
        source = self.scene if entry.kind == "clean" else self.other
        return source.emit_token(entry.scene_frame).relabel(stream_id)

    def emit_edges(self, context_stream_ids, stream_id) -> EdgeBatch:
        """Context edges into stream_id, one row per context id in the
        order given, gathered from the current block or a new one."""
        sid = as_int(stream_id, "frame id")
        ctx = [s if type(s) is int else as_int(s, "frame id") for s in context_stream_ids]
        rows = self._block_rows(ctx, sid)
        if rows is None:
            self._emit_block(ctx, sid)
            rows = self._block_rows(ctx, sid)
        return self._edges.take(rows)

    def _block_rows(self, ctx, sid):
        """The block rows of the edges from ctx into sid, or None when the
        block does not hold them all."""
        k = sid - self._first
        if not 0 <= k < len(self._table):
            return None
        # a source the block lacks reads the last column, which holds -1
        rows = self._table[k][[self._columns.get(s, -1) for s in ctx]]
        return rows if rows.min(initial=0) >= 0 else None

    def _emit_block(self, ctx, sid):
        """Emit the block of the _BLOCK plan positions from sid on."""
        first = self._position(sid)
        asked = list(dict.fromkeys(self._position(s) for s in ctx))
        dst = np.arange(first, min(first + _BLOCK, len(self._entries)))
        src = np.array(list(dict.fromkeys(asked + dst.tolist())), dtype=np.int64)
        # pairs[k, j]: emit the edge from src[j] into dst[k].  The asked
        # frame takes the asked sources, as asked; a later position every
        # source before it, but no cross-scene pair the other scene has no
        # frame for
        pairs = src < dst[:, None]
        clean = self._clean[src] & self._clean[dst][:, None]
        pairs &= clean | (self._in_other[src] & self._in_other[dst][:, None])
        pairs[0] = np.arange(len(src)) < len(asked)
        k, j = pairs.nonzero()
        # the clean pairs first, then the cross-scene ones
        order = np.argsort(~clean[k, j], kind="stable")
        k, j = k[order], j[order]
        clean = clean[k, j]
        a, b = self._frames[src[j]], self._frames[dst[k]]
        # cross-scene pair: geometry is unrelated to the clean trajectory
        # and the oracle knows it is unreliable; a self-pair moves on by one
        b = np.where(clean | (a != b), b, a % len(self.other.frame_ids) + 1)
        n = np.count_nonzero(clean)
        edges = self.scene.emit_edges(a[:n], b[:n])
        if n < len(a):
            edges = EdgeBatch.concat([edges, self._noisy_other.emit_edges(a[n:], b[n:])])
        table = np.full((len(dst), len(src) + 1), -1, dtype=np.int64)
        table[k, j] = np.arange(len(k))
        self._first, self._table, self._edges = sid, table, edges.relabel(src[j] + 1, dst[k] + 1)
        self._columns = {s: col for col, s in enumerate((src + 1).tolist())}

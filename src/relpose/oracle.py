"""Synthetic stand-in for the backbone plus pairwise pose head.

Generates ground-truth trajectories, frame tokens, and noisy pose edges
whose confidences are calibrated to the loss fixed point: per-component
Laplace noise of scale b gets confidence alpha / b, the minimizer of
c * E|noise| - alpha * log c.  Noise grows with frame gap and baseline so
long-range edges are genuinely less reliable.

Edge noise is keyed per (seed, src, dst) with a counter-based generator,
so emission is pure: any call order yields identical edges.
"""

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .geom import (Pose, UnitQuaternion, quat_exp, quat_multiply, quat_product,
                   quat_rotate, quat_to_matrix)
from .posegraph import EdgeBatch, PoseEdge
from .stream import FrameToken
from . import io as traj_io


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
    depth_median: float = 2.0         # ground-truth metric depth median
    depth_jitter: float = 0.0         # lognormal sigma on predicted depth medians

    def validate(self):
        if self.frames < 2:
            raise InvalidConfig("need at least 2 frames")
        if self.family not in ("circle", "random-walk", "figure-eight"):
            raise InvalidConfig(f"unknown trajectory family {self.family!r}")
        for name in ("step", "token_length_scale", "alpha", "depth_median"):
            if getattr(self, name) <= 0:
                raise InvalidConfig(f"{name} must be positive")
        for name in ("base_rot_noise", "base_trans_noise", "noise_gap_growth",
                     "conf_jitter", "depth_jitter"):
            if getattr(self, name) < 0:
                raise InvalidConfig(f"{name} must be non-negative")
        if not 0.0 <= self.outlier_prob < 1.0:
            raise InvalidConfig("outlier_prob must be in [0, 1)")
        if self.outlier_mult < 1.0:
            raise InvalidConfig("outlier_mult must be >= 1")


# --- counter-based per-pair randomness (splitmix64) ---

_M1 = np.uint64(0x9E3779B97F4A7C15)
_M2 = np.uint64(0xBF58476D1CE4E5B9)
_M3 = np.uint64(0x94D049BB133111EB)


def _mix(z):
    """splitmix64 finalizer; wraps around, so call it under
    np.errstate(over="ignore")."""
    z = z + _M1
    z ^= z >> np.uint64(30)
    z = z * _M2
    z ^= z >> np.uint64(27)
    z = z * _M3
    z ^= z >> np.uint64(31)
    return z


def _pair_uniforms(seed, src, dst, n):
    """n uniforms in (0, 1) per (src, dst) pair; src may be an array."""
    src = np.atleast_1d(np.asarray(src, dtype=np.uint64))
    with np.errstate(over="ignore"):
        base = _mix(_mix(np.uint64(seed)) ^ src * np.uint64(0x01000193))
        base = _mix(base ^ np.uint64(dst) * np.uint64(0x100000001B3))
        ks = np.arange(1, n + 1, dtype=np.uint64)
        z = _mix(base[:, None] ^ ks[None, :] * _M3)
    u = (z >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
    return np.clip(u, 1e-300, 1.0 - 1e-16)


def _laplace_from_uniform(u, scale):
    centered = u - 0.5
    return -scale * np.sign(centered) * np.log1p(-2.0 * np.abs(centered))


class SyntheticScene:
    """Ground-truth trajectory plus deterministic token and edge emitters."""

    def __init__(self, config: OracleConfig, seed: int):
        config.validate()
        self.config = config
        self.seed = int(seed)
        rng = np.random.default_rng([self.seed, 0xA11CE])
        self.poses = _generate_trajectory(config, rng)
        self.frame_ids = sorted(self.poses)
        # precomputed arrays for batch edge emission
        self._quats = np.array([self.poses[i].rotation.as_array() for i in self.frame_ids])
        self._trans = np.array([self.poses[i].translation for i in self.frame_ids])
        self._rots = quat_to_matrix(self._quats)
        self._index = {fid: k for k, fid in enumerate(self.frame_ids)}
        self._tokens = _generate_tokens(config, rng, self._trans, self._rots)

    def _check(self, i):
        if i not in self._index:
            raise UnknownFrame(i)

    def ground_truth(self):
        return dict(self.poses)

    def noise_scales(self, i, j):
        """Per-pair Laplace scales (b_rot, b_trans); clamped positive."""
        self._check(i)
        self._check(j)
        gap = abs(self._index[j] - self._index[i])
        baseline = float(np.linalg.norm(self._trans[self._index[j]]
                                        - self._trans[self._index[i]]))
        growth = (1.0 + self.config.noise_gap_growth * gap) * (1.0 + baseline)
        u = _pair_uniforms(self.seed, [self._index[i]], self._index[j], 11)
        if u[0, 10] < self.config.outlier_prob:
            growth *= self.config.outlier_mult
        b_r = max(self.config.base_rot_noise * growth, _EPS_SCALE)
        b_t = max(self.config.base_trans_noise * growth, _EPS_SCALE)
        return b_r, b_t

    def emit_edge(self, i, j) -> PoseEdge:
        if i == j:
            raise ValueError("edge endpoints must differ")
        return self.emit_edges([i], j)[0]

    def emit_edges(self, sources, j) -> EdgeBatch:
        """Noisy confidence-carrying edges src -> j, one row per src in the
        order given."""
        self._check(j)
        sources = list(sources)
        try:
            si = np.array([self._index[s] for s in sources], dtype=np.int64)
        except KeyError as unknown:
            raise UnknownFrame(unknown.args[0]) from None
        cfg = self.config
        ji = self._index[j]

        gaps = np.abs(ji - si)
        d = self._trans[ji] - self._trans[si]
        baselines = np.linalg.norm(d, axis=1)
        growth = (1.0 + cfg.noise_gap_growth * gaps) * (1.0 + baselines)
        u = _pair_uniforms(self.seed, si, ji, 11)
        growth = np.where(u[:, 10] < cfg.outlier_prob,
                          growth * cfg.outlier_mult, growth)
        b_r = np.maximum(cfg.base_rot_noise * growth, _EPS_SCALE)
        b_t = np.maximum(cfg.base_trans_noise * growth, _EPS_SCALE)

        # true relative pose, expressed in the source frame
        q_rel = quat_product(self._quats[si] * np.array([1.0, -1.0, -1.0, -1.0]),
                             self._quats[ji])
        t_rel = np.einsum("nij,nj->ni", self._rots[si].transpose(0, 2, 1), d)

        rot_noise = _laplace_from_uniform(u[:, 0:3], b_r[:, None])
        trans_noise = _laplace_from_uniform(u[:, 3:6], b_t[:, None])
        if cfg.base_rot_noise > 0:
            q_noisy = quat_product(q_rel, quat_exp(rot_noise))
        else:
            q_noisy = q_rel
        t_noisy = t_rel + trans_noise if cfg.base_trans_noise > 0 else t_rel

        conf_r = cfg.alpha / b_r
        conf_t = cfg.alpha / b_t
        if cfg.conf_jitter > 0:
            # Box-Muller from two more pair uniforms
            g1 = np.sqrt(-2.0 * np.log(u[:, 6])) * np.cos(2 * np.pi * u[:, 7])
            g2 = np.sqrt(-2.0 * np.log(u[:, 8])) * np.cos(2 * np.pi * u[:, 9])
            conf_r = conf_r * np.exp(cfg.conf_jitter * g1)
            conf_t = conf_t * np.exp(cfg.conf_jitter * g2)

        return EdgeBatch(sources, j, q_noisy, t_noisy, conf_r, conf_t)

    def emit_token(self, i) -> FrameToken:
        self._check(i)
        return FrameToken(i, self._tokens[self._index[i]])

    def depth_medians(self, i):
        """(predicted, metric) depth medians for segment scale anchoring."""
        self._check(i)
        metric = self.config.depth_median
        if self.config.depth_jitter > 0:
            u = _pair_uniforms(self.seed, [self._index[i]], 0xDEE9, 2)[0]
            g = math.sqrt(-2.0 * math.log(u[0])) * math.cos(2 * math.pi * u[1])
            return metric * math.exp(self.config.depth_jitter * g), metric
        return metric, metric

    def save(self, tum_path, config_path):
        traj_io.write_tum(self.poses, tum_path)
        with open(config_path, "w") as f:
            json.dump({"config": asdict(self.config), "seed": self.seed},
                      f, indent=2, sort_keys=True)

    @classmethod
    def load(cls, config_path):
        with open(config_path) as f:
            d = json.load(f)
        return cls(OracleConfig(**d["config"]), d["seed"])


def generate_scene(config: OracleConfig, seed: int) -> SyntheticScene:
    return SyntheticScene(config, seed)


def _generate_trajectory(cfg: OracleConfig, rng):
    n = cfg.frames
    poses = {}
    if cfg.family == "circle":
        # unit circle, headings tangent (body x-axis along travel direction)
        for k in range(n):
            theta = 2.0 * math.pi * k / n
            pos = np.array([math.cos(theta), math.sin(theta), 0.0])
            q = UnitQuaternion.from_axis_angle([0, 0, 1], theta + math.pi / 2)
            poses[k + 1] = Pose(q, pos)
    elif cfg.family == "figure-eight":
        for k in range(n):
            t = 2.0 * math.pi * k / n
            pos = np.array([math.sin(t), math.sin(t) * math.cos(t), 0.0])
            heading = math.atan2(math.cos(2 * t), math.cos(t))
            q = UnitQuaternion.from_axis_angle([0, 0, 1], heading)
            poses[k + 1] = Pose(q, pos)
    else:  # random-walk
        q = UnitQuaternion.identity()
        pos = np.zeros(3)
        turns = quat_exp(rng.normal(0.0, cfg.rot_step, (n, 3))).tolist()
        for k in range(n):
            poses[k + 1] = Pose(q, pos.copy())
            q = quat_multiply(q, UnitQuaternion(*turns[k]))
            pos = pos + quat_rotate(q, np.array([cfg.step, 0.0, 0.0]))
    return poses


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
    seed: int


def make_distractor_stream(scene: SyntheticScene, other: SyntheticScene,
                           n_clean, n_distract, seed) -> DistractorPlan:
    """Interleave distractor frames into a clean stream.

    Clean frames keep their temporal order; the first three stream
    positions stay clean; distractor positions are sampled uniformly
    among the rest.
    """
    if n_clean < 3:
        raise InvalidCounts("need at least 3 clean frames")
    if n_distract < 0:
        raise InvalidCounts("distractor count must be non-negative")
    if n_clean > len(scene.frame_ids) or n_distract > len(other.frame_ids):
        raise InvalidCounts("scene too short for the requested counts")
    if scene is other or (scene.seed == other.seed and scene.config == other.config):
        raise InvalidCounts("clean and distractor scenes must be distinct")
    rng = np.random.default_rng([int(seed), 0xD157])
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
    return DistractorPlan(tuple(entries), int(seed))


class DistractorStream:
    """Frame source for a distractor plan: tokens and context edges keyed
    by stream position.  Clean-clean pairs get genuine scene edges;
    any pair touching a distractor gets geometry from the other scene
    with inflated noise, hence low calibrated confidence."""

    def __init__(self, scene, other, plan: DistractorPlan, noise_mult=10.0):
        self.scene = scene
        self.other = other
        self.plan = plan
        self.noise_mult = noise_mult
        self._by_id = {e.stream_id: e for e in plan.entries}
        bad_cfg = OracleConfig(**{**asdict(other.config),
                                  "base_rot_noise": other.config.base_rot_noise * noise_mult,
                                  "base_trans_noise": other.config.base_trans_noise * noise_mult})
        # same geometry and seed as `other`, only noisier and less confident
        self._noisy_other = SyntheticScene(bad_cfg, other.seed)

    def token(self, stream_id) -> FrameToken:
        entry = self._by_id[stream_id]
        source = self.scene if entry.kind == "clean" else self.other
        tok = source.emit_token(entry.scene_frame)
        return FrameToken(stream_id, tok.features)

    def edges(self, context_stream_ids, stream_id) -> EdgeBatch:
        """Context edges into stream_id, one row per context id in the
        order given, emitted with one emit_edges call per (scene,
        destination frame)."""
        entry = self._by_id[stream_id]
        groups = {}      # (scene, dst frame) -> [(row, src frame)]
        for row, src in enumerate(context_stream_ids):
            src_entry = self._by_id[src]
            a, b = src_entry.scene_frame, entry.scene_frame
            if entry.kind == "clean" and src_entry.kind == "clean":
                scene = self.scene
            else:
                # cross-scene pair: geometry is unrelated to the clean
                # trajectory and the oracle knows it is unreliable
                scene = self._noisy_other
                if a == b:
                    b = a % len(self.other.frame_ids) + 1
            groups.setdefault((scene, b), []).append((row, a))
        if not groups:
            return EdgeBatch.of([])
        rows, parts = [], []
        for (scene, b), members in groups.items():
            rows += [row for row, _ in members]
            parts.append(scene.emit_edges([a for _, a in members], b))
        return EdgeBatch.concat(parts).take(np.argsort(rows)).relabel(
            list(context_stream_ids), stream_id)

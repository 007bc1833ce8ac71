import math
from dataclasses import replace

import numpy as np
import pytest

from relpose import oracle, runner
from relpose.geom import quat_exp, quat_product, quat_to_matrix
from relpose.oracle import (_BLOCK, DistractorPlan, DistractorStream, InvalidConfig,
                            InvalidCounts, OracleConfig, SyntheticScene,
                            UnknownFrame, _M3,
                            _laplace_from_uniform, _mix, _pair_uniforms,
                            generate_scene, make_distractor_stream)
from relpose.posegraph import EdgeBatch
from relpose.stream import FrameToken, StreamConfig
from conftest import angle_deg, relative_pose


def scene(seed=7, **kwargs):
    return generate_scene(OracleConfig(**kwargs), seed)


def reference_edges(s, sources, j):
    """Edges src -> j by the per-call formula: the whole pair key is built
    from the seed on every call, all 11 uniforms are drawn, and each noise
    component is drawn at its own scale."""
    cfg = s.config
    ids = s.frame_ids
    quats = np.array([s.poses[f].rotation.as_array() for f in ids])
    trans = np.array([s.poses[f].translation for f in ids])
    rots = quat_to_matrix(quats)
    si = np.array([ids.index(f) for f in sources], dtype=np.int64)
    ji = ids.index(j)
    with np.errstate(over="ignore"):
        base = _mix(_mix(np.uint64(s.seed)) ^ si.astype(np.uint64) * np.uint64(0x01000193))
        base = _mix(base ^ np.uint64(ji) * np.uint64(0x100000001B3))
        ks = np.arange(1, 12, dtype=np.uint64)
        z = _mix(base[:, None] ^ ks[None, :] * _M3)
    u = np.clip((z >> np.uint64(11)).astype(np.float64) * (2.0 ** -53),
                1e-300, 1.0 - 1e-16)

    def laplace(v, scale):
        centered = v - 0.5
        return -scale * np.sign(centered) * np.log1p(-2.0 * np.abs(centered))

    d = trans[ji] - trans[si]
    growth = (1.0 + cfg.noise_gap_growth * np.abs(ji - si)) * (1.0 + np.linalg.norm(d, axis=1))
    growth = np.where(u[:, 10] < cfg.outlier_prob, growth * cfg.outlier_mult, growth)
    b_r = np.maximum(cfg.base_rot_noise * growth, 1e-9)
    b_t = np.maximum(cfg.base_trans_noise * growth, 1e-9)
    q_rel = quat_product(quats[si] * np.array([1.0, -1.0, -1.0, -1.0]), quats[ji])
    t_rel = np.einsum("nij,nj->ni", rots[si].transpose(0, 2, 1), d)
    rot_noise = laplace(u[:, 0:3], b_r[:, None])
    trans_noise = laplace(u[:, 3:6], b_t[:, None])
    q = quat_product(q_rel, quat_exp(rot_noise)) if cfg.base_rot_noise > 0 else q_rel
    t = t_rel + trans_noise if cfg.base_trans_noise > 0 else t_rel
    conf_r, conf_t = cfg.alpha / b_r, cfg.alpha / b_t
    if cfg.conf_jitter > 0:
        g1 = np.sqrt(-2.0 * np.log(u[:, 6])) * np.cos(2 * np.pi * u[:, 7])
        g2 = np.sqrt(-2.0 * np.log(u[:, 8])) * np.cos(2 * np.pi * u[:, 9])
        conf_r = conf_r * np.exp(cfg.conf_jitter * g1)
        conf_t = conf_t * np.exp(cfg.conf_jitter * g2)
    return EdgeBatch(sources, j, q, t, conf_r, conf_t)


def assert_same_bits(a, b):
    for name in EdgeBatch._COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name


class DelegatingProxy:
    """Stands in for a scene the way a benchmark's recording source does."""

    def __init__(self, scene):
        self._scene = scene

    def __getattr__(self, name):
        return getattr(self._scene, name)


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

    def test_rejected_at_construction(self):
        with pytest.raises(InvalidConfig, match="need at least 2 frames"):
            OracleConfig(frames=1)


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
            fwd = quat_to_matrix(s.poses[fid].rotation.as_array())[:, 0]
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
            s.emit_edges([1], 99)

    def test_self_edge_raises(self):
        s = scene(frames=10)
        with pytest.raises(ValueError):
            s.emit_edges([4], 4)

    def test_deterministic_and_order_independent(self):
        s = scene(frames=30)
        single = s.emit_edges([3], 9)[0]
        batched = {e.src: e for e in s.emit_edges([7, 3, 5], 9)}[3]
        assert np.array_equal(single.rel_translation, batched.rel_translation)
        assert single.conf_rot == batched.conf_rot
        q1, q2 = single.rel_rotation, batched.rel_rotation
        assert (q1.w, q1.x, q1.y, q1.z) == (q2.w, q2.x, q2.y, q2.z)

    def test_noise_free_edge_is_exact(self):
        s = scene(frames=20, base_rot_noise=0.0, base_trans_noise=0.0)
        e = s.emit_edges([2], 7)[0]
        gt = relative_pose(s.poses[2], s.poses[7])
        assert angle_deg(e.rel_rotation, gt.rotation) < 1e-9
        assert np.allclose(e.rel_translation, gt.translation, atol=1e-12)

    def test_error_scales_with_noise_parameter(self):
        errs = []
        for mult in (1.0, 20.0):
            s = scene(frames=60, base_trans_noise=0.01 * mult)
            tot = 0.0
            for j in range(10, 40):
                e = s.emit_edges([j - 5], j)[0]
                gt = relative_pose(s.poses[j - 5], s.poses[j])
                tot += np.linalg.norm(e.rel_translation - gt.translation)
            errs.append(tot)
        assert errs[1] > 5 * errs[0]

    def test_confidence_is_calibrated_inverse_scale(self):
        s = scene(frames=50)
        e = s.emit_edges([4], 9)[0]
        b_r, b_t = s.noise_scales(4, 9)
        assert e.conf_rot == pytest.approx(s.config.alpha / b_r)
        assert e.conf_trans == pytest.approx(s.config.alpha / b_t)

    def test_outlier_channel_rate_and_calibration(self):
        s = scene(family="circle", frames=300, outlier_prob=0.3,
                  outlier_mult=20.0, noise_gap_growth=0.0)
        confs = np.array([s.emit_edges([j - 1], j)[0].conf_trans
                          for j in s.frame_ids[1:]])
        clean = confs.max()
        flagged = confs < clean / 2
        # outlier pairs sit a factor outlier_mult below the clean level
        assert np.allclose(confs[flagged], clean / 20.0, rtol=1e-6)
        assert abs(flagged.mean() - 0.3) < 0.08

    def test_confidence_decays_with_gap(self):
        s = scene(family="circle", frames=120)
        near = s.emit_edges([10], 12)[0]
        far = s.emit_edges([10], 40)[0]
        assert far.conf_rot < near.conf_rot

    def test_mean_edge_error_tracks_scale(self):
        # empirical mean |noise| per component should approach the Laplace
        # scale b for a fixed pair geometry
        s = scene(family="circle", frames=400, base_trans_noise=0.05,
                  noise_gap_growth=0.0, outlier_prob=0.0)
        errs = []
        for j in s.frame_ids[1:]:
            e = s.emit_edges([j - 1], j)[0]
            gt = relative_pose(s.poses[j - 1], s.poses[j])
            errs.extend(np.abs(e.rel_translation - gt.translation))
        _, b_t = s.noise_scales(1, 2)
        assert np.mean(errs) == pytest.approx(b_t, rel=0.15)


class TestEmissionMatchesPerCallFormula:
    @pytest.mark.parametrize("family", ["circle", "random-walk", "figure-eight"])
    @pytest.mark.parametrize("conf_jitter", [0.0, 0.3])
    @pytest.mark.parametrize("noise", [0.0, 1.0])
    def test_bit_equal(self, family, conf_jitter, noise):
        s = scene(seed=1009, family=family, frames=30, conf_jitter=conf_jitter,
                  base_rot_noise=0.002 * noise, base_trans_noise=0.01 * noise)
        for j in (1, 14, 30):
            sources = [i for i in s.frame_ids if i != j]
            for batch in (sources, sources[::-1][:9], sources[4:5]):
                assert_same_bits(s.emit_edges(batch, j), reference_edges(s, batch, j))

    def test_outlier_and_jitter_draws_keep_their_columns(self):
        s = scene(seed=3, frames=40, outlier_prob=0.5, conf_jitter=0.2)
        sources = [i for i in s.frame_ids if i != 20]
        assert_same_bits(s.emit_edges(sources, 20), reference_edges(s, sources, 20))


def per_destination(s, sources, dsts):
    """Edges src -> dst for row-aligned sources and destinations, by one
    emit_edges call per destination, put back at their rows."""
    rows = {}
    for row, (i, j) in enumerate(zip(sources, dsts)):
        rows.setdefault(j, []).append((row, i))
    batches = [s.emit_edges([i for _, i in members], j) for j, members in rows.items()]
    order = [row for members in rows.values() for row, _ in members]
    return EdgeBatch.concat(batches).take(np.argsort(order))


class TestPerRowDestinations:
    @pytest.mark.parametrize("family", ["circle", "random-walk", "figure-eight"])
    @pytest.mark.parametrize("conf_jitter", [0.0, 0.3])
    @pytest.mark.parametrize("noise", [0.0, 1.0])
    @pytest.mark.parametrize("seed", [0, 1009])
    def test_bit_equal_to_one_call_per_destination(self, family, conf_jitter,
                                                    noise, seed):
        s = scene(seed=seed, family=family, frames=30, conf_jitter=conf_jitter,
                  base_rot_noise=0.002 * noise, base_trans_noise=0.01 * noise)
        rng = np.random.default_rng(seed)
        drawn = rng.integers(1, 31, size=(400, 2))
        pairs = drawn[drawn[:, 0] != drawn[:, 1]]     # shuffled, with repeats
        pairs = np.concatenate([pairs, pairs[:50]])   # and repeated rows
        src, dst = pairs[:, 0], pairs[:, 1]
        assert len({(a, b) for a, b in pairs.tolist()}) < len(pairs)
        want = per_destination(s, src.tolist(), dst.tolist())
        assert_same_bits(s.emit_edges(src, dst), want)
        assert_same_bits(s.emit_edges(src.tolist(), dst.tolist()), want)
        twin = s.noisier(10.0)
        assert_same_bits(twin.emit_edges(src, dst),
                         per_destination(twin, src.tolist(), dst.tolist()))

    def test_one_destination_per_row_equals_one_destination(self):
        s = scene(frames=20)
        sources = [4, 1, 17, 9]
        assert_same_bits(s.emit_edges(sources, np.full(4, 12)), s.emit_edges(sources, 12))

    def test_unknown_destination_is_named(self):
        s = scene(frames=10)
        with pytest.raises(UnknownFrame) as info:
            s.emit_edges([1, 2, 3], np.array([5, 99, 6]))
        assert info.value.args == (99,)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    @pytest.mark.parametrize("end", ["sources", "dst"])
    @pytest.mark.parametrize("bad", [0, 11, -3])
    @pytest.mark.parametrize("length", [3, 200])
    def test_unknown_id_in_an_integer_array_is_named(self, dtype, end, bad, length):
        # integer arrays are looked up by offset, not per id
        s = scene(frames=10)
        ids = {"sources": np.arange(length) % 9 + 1, "dst": np.full(length, 10)}
        ids[end][length // 2] = bad
        with pytest.raises(UnknownFrame) as info:
            s.emit_edges(ids["sources"].astype(dtype), ids["dst"].astype(dtype))
        assert info.value.args == (bad,) and type(info.value.args[0]) is int

    def test_length_mismatch_raises(self):
        s = scene(frames=10)
        with pytest.raises(ValueError, match="3 sources but 2 destinations"):
            s.emit_edges([1, 2, 3], np.array([5, 6]))

    def test_self_pair_raises(self):
        s = scene(frames=10)
        with pytest.raises(ValueError, match="endpoints must differ"):
            s.emit_edges([1, 4, 3], np.array([5, 4, 6]))

    def test_empty_input_gives_an_empty_batch(self):
        s = scene(frames=10)
        edges = s.emit_edges(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert len(edges) == 0
        assert edges.rotation.shape == (0, 4) and edges.translation.shape == (0, 3)


class TestNoisierTwin:
    def test_equals_a_scene_built_from_the_scaled_config(self):
        s = scene(seed=4, frames=30, conf_jitter=0.3)
        config = s.config
        sources = [i for i in s.frame_ids if i != 12]
        before = s.emit_edges(sources, 12)
        twin = s.noisier(10.0)
        fresh = SyntheticScene(replace(config, base_rot_noise=config.base_rot_noise * 10.0,
                                       base_trans_noise=config.base_trans_noise * 10.0), 4)
        assert twin.config == fresh.config and twin.seed == fresh.seed
        assert twin.frame_ids == fresh.frame_ids
        for f in s.frame_ids:
            assert twin.poses[f].rotation.as_array().tobytes() == \
                fresh.poses[f].rotation.as_array().tobytes()
            assert twin.poses[f].translation.tobytes() == fresh.poses[f].translation.tobytes()
            assert twin.emit_token(f).features.tobytes() == fresh.emit_token(f).features.tobytes()
        for j in (1, 12, 30):
            srcs = [i for i in s.frame_ids if i != j]
            assert_same_bits(twin.emit_edges(srcs, j), fresh.emit_edges(srcs, j))
        # the original scene is untouched
        assert s.config == config
        assert_same_bits(s.emit_edges(sources, 12), before)

    @pytest.mark.parametrize("mult", [0.0, 0.5, -1.0, math.inf, math.nan])
    def test_rejects_multipliers_below_one_or_non_finite(self, mult):
        with pytest.raises(InvalidConfig):
            scene(frames=10).noisier(mult)


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


def per_row_edges(scene, other, twin, plan, ctx, stream_id):
    """The context edges of a distractor plan's frame stream_id by one
    emission per row: clean pairs from scene, any other pair from twin,
    the noisier other scene, a self-pair moved on by one frame."""
    entry = plan.entries[stream_id - 1]
    rows = []
    for src in ctx:
        src_entry = plan.entries[src - 1]
        a, b = src_entry.scene_frame, entry.scene_frame
        if entry.kind == "clean" and src_entry.kind == "clean":
            rows.append(scene.emit_edges([a], b))
        else:
            if a == b:
                b = a % len(other.frame_ids) + 1
            rows.append(twin.emit_edges([a], b))
    return EdgeBatch.concat(rows).relabel(list(ctx), stream_id)


class PerRowStream(DistractorStream):
    """A DistractorStream whose context edges are emitted one row at a
    time, the reference that its blocks must match bit for bit."""

    def __init__(self, scene, other, plan, noise_mult=10.0):
        super().__init__(scene, other, plan, noise_mult=noise_mult)
        self._plan = plan

    def emit_edges(self, context_stream_ids, stream_id):
        return per_row_edges(self.scene, self.other, self._noisy_other, self._plan,
                             context_stream_ids, stream_id)


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
        got = self.stream.emit_edges([a], b)[0]
        want = self.scene.emit_edges([ea.scene_frame], eb.scene_frame)[0]
        assert np.array_equal(got.rel_translation, want.rel_translation)
        assert (got.src, got.dst) == (a, b)

    def test_distractor_confidence_much_lower(self):
        clean = self.ids_of("clean")
        distract = self.ids_of("distractor")
        ctx = clean[:3]
        lo = np.mean(self.stream.emit_edges(ctx, distract[0]).mean_conf)
        hi = np.mean(self.stream.emit_edges(ctx, clean[5]).mean_conf)
        assert lo < 0.15 * hi

    def test_tokens_keyed_by_stream_id(self):
        sid = self.ids_of("distractor")[0]
        tok = self.stream.emit_token(sid)
        assert tok.id == sid
        entry = self.plan.entries[sid - 1]
        assert np.array_equal(tok.features,
                              self.other.emit_token(entry.scene_frame).features)

    def test_token_reuses_the_scene_features(self):
        # the scene's checked, read-only features under the stream id: the
        # bits a fresh FrameToken of them would hold, not validated again
        for entry in self.plan.entries:
            source = self.scene if entry.kind == "clean" else self.other
            scene_token = source.emit_token(entry.scene_frame)
            tok = self.stream.emit_token(entry.stream_id)
            assert tok.id == entry.stream_id
            fresh = FrameToken(entry.stream_id, scene_token.features)
            assert tok.features.tobytes() == fresh.features.tobytes()
            assert tok.features.tobytes() == scene_token.features.tobytes()
            assert not tok.features.flags.writeable
            with pytest.raises(ValueError):
                tok.features[0] = 0.0

    def per_row(self, twin, ctx, stream_id):
        """Context edges into stream_id by one emission per row."""
        return per_row_edges(self.scene, self.other, twin, self.plan, ctx, stream_id)

    def test_frames_equal_per_row_emission_in_context_order(self):
        twin = self.other.noisier(10.0)
        two_group_clean = 0
        for entry in self.plan.entries[1:]:
            sid = entry.stream_id
            # context in an order that interleaves clean and distractor ids
            ctx = list(range(sid - 1, 0, -1))
            kinds = {self.plan.entries[c - 1].kind for c in ctx}
            if entry.kind == "clean" and kinds == {"clean", "distractor"}:
                two_group_clean += 1
            assert_same_bits(self.stream.emit_edges(ctx, sid), self.per_row(twin, ctx, sid))
        assert two_group_clean > 0

    def grow_and_shrink(self):
        """A stream's contexts: every frame joins, and every third frame
        one context id other than the first leaves."""
        ctx, requests = [1], []
        for sid in range(2, len(self.plan.entries) + 1):
            requests.append((list(ctx), sid))
            ctx.append(sid)
            if sid % 3 == 0:
                del ctx[len(ctx) // 2]
        return requests

    def assert_per_row(self, stream, requests):
        twin = self.other.noisier(10.0)
        for ctx, sid in requests:
            assert_same_bits(stream.emit_edges(ctx, sid), self.per_row(twin, ctx, sid))

    def requests(self, case):
        last = len(self.plan.entries)
        return {
            "grow and shrink": self.grow_and_shrink(),
            "reversed": [(ctx[::-1], sid) for ctx, sid in self.grow_and_shrink()],
            "miss": [([1, 2], 3), ([1, 2, 30], 5), ([1, 2, 3, 4], 6), ([3, 1], 6),
                     ([1, 2, 3, 4, 5], 6), ([1, 6], 7)],
            "before the block": [([1, 2, 3], 20), ([1, 2], 4), ([1, 2, 3], 21)],
            "source after the destination": [([10, 1], 5), ([1, 12, 3], 6),
                                             ([last, last - 1], 2), ([1, 7], 6)],
            "repeated source": [([1, 1, 2], 5), ([2, 1, 2], 6)],
            "last frames": [([1, 2], last - 1), ([1, 2, last - 1], last)],
        }[case]

    @pytest.mark.parametrize("case", [
        "grow and shrink", "reversed", "miss", "before the block",
        "source after the destination", "repeated source", "last frames"])
    def test_blocks_equal_per_row_emission(self, case):
        self.assert_per_row(self.stream, self.requests(case))

    def test_empty_context_gives_an_empty_batch(self):
        empty = EdgeBatch([], [], np.empty((0, 4)), np.empty((0, 3)), [], [])
        for sid in (5, 6, 2, 30, len(self.plan.entries), 6):
            assert_same_bits(self.stream.emit_edges([], sid), empty)
        assert_same_bits(self.stream.emit_edges([], 7), self.stream.emit_edges(iter(()), 7))

    def test_both_scene_groups_in_one_frame(self, monkeypatch):
        sid = self.ids_of("clean")[-1]
        ctx = list(range(1, sid))
        assert {self.plan.entries[c - 1].kind for c in ctx} == {"clean", "distractor"}
        want = self.per_row(self.other.noisier(10.0), ctx, sid)
        calls = []
        for source in (self.scene, self.stream._noisy_other):
            monkeypatch.setattr(source, "emit_edges", recording(source.emit_edges, calls))
        assert_same_bits(self.stream.emit_edges(ctx, sid), want)
        assert len(calls) == 2

    def test_unknown_stream_id_raises_key_error(self):
        last = len(self.plan.entries)
        for ctx, sid in (([1], 0), ([1], last + 1), ([0], 5), ([1, last + 1], 5),
                         ([-1], 5), ([], last + 1), ([1], 2**70)):
            with pytest.raises(KeyError):
                self.stream.emit_edges(ctx, sid)
        self.stream.emit_edges([1, 2], 3)          # a block from 3 on
        with pytest.raises(KeyError):
            self.stream.emit_edges([1, 2, last + 1], 4)
        for sid in (0, last + 1):
            with pytest.raises(KeyError):
                self.stream.emit_token(sid)

    def test_ids_that_are_not_integers_raise_value_error(self):
        self.stream.emit_edges([1, 2], 3)
        for ctx, sid in (([1, 2], 4.0), ([1, 2.0], 4), ([1.5], 4), ([1], 30.0),
                         ([1, True], 4)):
            with pytest.raises(ValueError, match="frame id must be an integer"):
                self.stream.emit_edges(ctx, sid)
        with pytest.raises(ValueError, match="frame id must be an integer"):
            self.stream.emit_token(2.0)

    def test_numpy_ids_give_the_same_bits(self):
        ctx = np.array([1, 3, 2], dtype=np.int64)
        want = self.stream.emit_edges([1, 3, 2], 4)
        for form in (ctx, ctx.astype(np.uint64), list(ctx)):
            stream = DistractorStream(self.scene, self.other, self.plan, noise_mult=10.0)
            assert_same_bits(stream.emit_edges(form, np.int64(4)), want)
            assert_same_bits(self.stream.emit_edges(form, np.uint64(4)), want)

    def test_plan_ids_must_run_from_one_in_order(self):
        entries = self.plan.entries
        for bad in (entries[1:], entries[:2] + entries[3:], entries[::-1]):
            with pytest.raises(ValueError, match="stream ids"):
                DistractorStream(self.scene, self.other, DistractorPlan(bad))

    def test_a_block_emits_no_pair_the_other_scene_lacks(self):
        # clean frames past the other scene's end have no cross-scene edge;
        # a block must not emit one that no request asks for
        short = scene(seed=99, frames=20, family="random-walk")
        plan = make_distractor_stream(self.scene, short, 40, 6, 3)
        twin = short.noisier(10.0)
        clean = [e.stream_id for e in plan.entries if e.kind == "clean"]
        for k, sid in enumerate(clean[1:], start=1):
            stream = DistractorStream(self.scene, short, plan, noise_mult=10.0)
            assert_same_bits(stream.emit_edges(clean[:k], sid),
                             per_row_edges(self.scene, short, twin, plan, clean[:k], sid))
        far = next(e.stream_id for e in plan.entries
                   if e.kind == "distractor" and e.stream_id > clean[25])
        with pytest.raises(UnknownFrame):
            DistractorStream(self.scene, short, plan).emit_edges(clean[:26], far)

    def test_same_edges_when_the_other_scene_is_a_proxy(self):
        proxied = DistractorStream(self.scene, DelegatingProxy(self.other),
                                   self.plan, noise_mult=10.0)
        for entry in self.plan.entries[1:]:
            ctx = list(range(1, entry.stream_id))
            assert_same_bits(proxied.emit_edges(ctx, entry.stream_id),
                             self.stream.emit_edges(ctx, entry.stream_id))

    def test_noise_multiplier_below_one_rejected(self):
        with pytest.raises(InvalidConfig):
            DistractorStream(self.scene, self.other, self.plan, noise_mult=0.0)


def recording(emit, calls):
    """emit_edges, as a method or bound to a scene, that records the
    number of rows of each call."""
    def wrapped(*args):
        sources, _ = args[-2:]
        calls.append(len(sources))
        return emit(*args)
    return wrapped


ROBUST_CONFIGS = [pytest.param(StreamConfig(), id="default gate"),
                  pytest.param(StreamConfig(tau_out=0.0), id="gate disabled"),
                  pytest.param(StreamConfig(m_max=8), id="m_max=8")]


class TestRobustnessRunEmission:
    """Whole robustness runs, with the trials of acceptance criterion 09."""

    def trials(self):
        cfg = OracleConfig(frames=60, outlier_prob=0.0)
        for n_distract, trial in ((10, 0), (30, 1), (50, 2)):
            seed = 900 + n_distract * 101 + trial
            yield (generate_scene(cfg, seed), generate_scene(cfg, seed + 50021),
                   n_distract, seed)

    @pytest.mark.parametrize("config", ROBUST_CONFIGS)
    def test_events_equal_per_frame_emission(self, monkeypatch, config):
        for clean, other, n_distract, seed in self.trials():
            report, state, events, _ = runner.robustness_run(
                clean, other, 30, n_distract, seed, config)
            with monkeypatch.context() as m:
                m.setattr(runner, "DistractorStream", PerRowStream)
                want_report, want_state, want_events, _ = runner.robustness_run(
                    clean, other, 30, n_distract, seed, config)
            assert report == want_report
            assert [e.to_json() for e in events] == [e.to_json() for e in want_events]
            assert state.trajectory.keys() == want_state.trajectory.keys()
            for fid, pose in state.trajectory.items():
                want = want_state.trajectory[fid]
                assert pose.rotation.as_array().tobytes() == want.rotation.as_array().tobytes()
                assert pose.translation.tobytes() == want.translation.tobytes()

    @pytest.mark.parametrize("config", ROBUST_CONFIGS)
    def test_calls_and_rows_per_block(self, monkeypatch, config):
        calls, asked = [], []
        monkeypatch.setattr(SyntheticScene, "emit_edges",
                            recording(SyntheticScene.emit_edges, calls))
        edges = DistractorStream.emit_edges

        def asking(stream, ctx, stream_id):
            asked.append(len(ctx))
            return edges(stream, ctx, stream_id)

        monkeypatch.setattr(DistractorStream, "emit_edges", asking)
        for clean, other, n_distract, seed in self.trials():
            calls.clear()
            asked.clear()
            _, _, _, plan = runner.robustness_run(clean, other, 30, n_distract, seed, config)
            # every frame after the first asks; a block serves _BLOCK of them
            assert len(asked) == len(plan.entries) - 1
            blocks = math.ceil(len(asked) / _BLOCK)
            assert len(calls) <= 2 * blocks
            assert sum(calls) <= sum(asked) + _BLOCK ** 2 * blocks

    def test_reset_requests_are_logged_and_ignored(self):
        # the second trial's plan holds runs of up to seven distractors,
        # which the gate rejects in a row
        clean, other, n_distract, seed = list(self.trials())[1]
        config = StreamConfig()
        _, state, events, plan = runner.robustness_run(
            clean, other, 30, n_distract, seed, config)
        decided = [e for e in events if e.kind in ("Accepted", "Rejected")]
        assert [e.frame for e in decided] == [e.stream_id for e in plan.entries]
        # each rejection from the n_rej-th in a row on requests a reset; the
        # run logs every request and carries out none
        run, requested = 0, []
        for e in decided:
            run = run + 1 if e.kind == "Rejected" else 0
            if run >= config.n_rej:
                requested.append(e.frame)
        assert len(requested) >= 3
        assert [e.frame for e in events if e.kind == "SegmentReset"] == requested
        assert state.segment_index == 0


class TestPerCallPathRaisesNothing:
    """The per-call emission path enters no np.errstate block, so nothing
    on it may warn: uint64 wrap-around stays on arrays, never on a numpy
    scalar, whose arithmetic reports overflow."""

    @pytest.mark.parametrize("jitter", [0.0, 0.3])
    def test_emit_edges_under_raise(self, jitter):
        s = scene(seed=11, frames=40, conf_jitter=jitter)
        ids = np.array(s.frame_ids, dtype=np.int64)
        with np.errstate(all="raise"):
            s.emit_edges([3, 1, 9, 40], 7)                  # one dst id
            s.emit_edges(ids[:-1], ids[1:])                 # a dst per row
            s.emit_edges(list(range(1, 21)), list(range(21, 41)))
            s.emit_edges([5], 6)

    def test_distractor_stream_edges_under_raise(self):
        clean = scene(seed=2, frames=40, family="circle")
        other = scene(seed=99, frames=40)
        plan = make_distractor_stream(clean, other, 25, 10, 3)
        stream = DistractorStream(clean, other, plan)
        with np.errstate(all="raise"):
            for entry in plan.entries[1:]:
                stream.emit_edges(list(range(1, entry.stream_id)), entry.stream_id)


class TestEmitPairs:
    def test_equals_one_emission_per_pair_in_order(self):
        s = scene(seed=5, frames=25, conf_jitter=0.2)
        rng = np.random.default_rng(0)
        pairs = [(int(a), int(b)) for a, b in rng.integers(1, 26, size=(300, 2)) if a != b]
        got = s.emit_pairs(pairs)
        want = EdgeBatch.concat([s.emit_edges([i], j) for i, j in pairs])
        assert_same_bits(got, want)

    def test_one_destination_and_no_pairs(self):
        s = scene(frames=10)
        assert_same_bits(s.emit_pairs([(3, 7), (1, 7), (9, 7)]), s.emit_edges([3, 1, 9], 7))
        assert len(s.emit_pairs([])) == 0

    @pytest.mark.parametrize("pairs, bad", [
        pytest.param([(2, True)], True, id="bool dst"),
        pytest.param([(np.True_, 2)], np.True_, id="np.bool src"),
        pytest.param([(1, 2), (3, 4.0)], 4.0, id="float dst"),
    ])
    def test_ids_reach_emit_edges_as_given(self, pairs, bad):
        # NumPy would read True as 1 and 4.0 as 4 in an array of the pairs
        s = scene(frames=10)
        with pytest.raises(UnknownFrame) as info:
            s.emit_pairs(pairs)
        assert info.value.args == (bad,) and type(info.value.args[0]) is type(bad)

    def test_an_array_of_pairs_is_read_row_by_row(self):
        s = scene(frames=10)
        assert_same_bits(s.emit_pairs(np.array([[2, 7], [9, 4]], dtype=np.int32)),
                         s.emit_pairs([(2, 7), (9, 4)]))

    @pytest.mark.parametrize("pairs", [
        pytest.param([1, 2, 3, 4], id="flat ids"),
        pytest.param(np.array([1, 2, 3, 4]), id="flat id array"),
        pytest.param([(1, 2, 3)], id="three ids"),
        pytest.param([(1, 2), (3,)], id="one id"),
        pytest.param(np.ones((2, 3), dtype=np.int64), id="rows of three"),
    ])
    def test_a_pair_holds_exactly_two_ids(self, pairs):
        with pytest.raises(ValueError, match="^each pair must hold exactly two frame ids$"):
            scene(frames=10).emit_pairs(pairs)


INTEGER_FORMS = [
    pytest.param(list, id="list"),
    pytest.param(lambda ids: np.array(ids, dtype=np.int32), id="int32"),
    pytest.param(lambda ids: np.array(ids, dtype=np.int64), id="int64"),
    pytest.param(lambda ids: np.array(ids, dtype=np.uint64), id="uint64"),
]
SINGLE_FORMS = [pytest.param(int, id="int"), pytest.param(np.int64, id="np.int64"),
                pytest.param(np.uint64, id="np.uint64")]


class TestFrameRowRule:
    """Every lookup takes id i to row i - 1 (ids run from 1) and only
    integer ids pass, whatever form they come in."""

    @pytest.mark.parametrize("form", INTEGER_FORMS)
    @pytest.mark.parametrize("single", SINGLE_FORMS)
    def test_every_integer_form_gives_the_same_rows(self, form, single):
        s = scene(seed=3, frames=20, conf_jitter=0.2)
        sources = [4, 1, 20, 9]
        want = reference_edges(s, sources, 12)
        assert_same_bits(s.emit_edges(form(sources), single(12)), want)
        assert_same_bits(s.emit_edges(form(sources), form([12] * 4)), want)
        assert s.noise_scales(single(4), single(12)) == s.noise_scales(4, 12)
        token = s.emit_token(single(1))
        assert type(token.id) is int and token.id == 1
        assert token.features.tobytes() == s.emit_token(1).features.tobytes()

    @pytest.mark.parametrize("empty", [pytest.param([], id="list"),
                                       pytest.param(np.array([], dtype=np.int64), id="int64"),
                                       pytest.param(np.array([]), id="float64")])
    def test_no_sources_give_an_empty_batch(self, empty):
        s = scene(frames=10)
        for dst in (7, empty):
            edges = s.emit_edges(empty, dst)
            assert len(edges) == 0 and edges.src.dtype == np.int64

    @pytest.mark.parametrize("bad", [0, 21, 2 ** 40])
    @pytest.mark.parametrize("single", SINGLE_FORMS)
    def test_unknown_single_id_is_named_as_an_int(self, bad, single):
        s = scene(frames=20)
        calls = [lambda i: s.emit_token(i),
                 lambda i: s.noise_scales(i, 5), lambda i: s.noise_scales(5, i),
                 lambda i: s.emit_edges([1, 2], i)]
        for call in calls:
            with pytest.raises(UnknownFrame) as info:
                call(single(bad))
            assert info.value.args == (bad,) and type(info.value.args[0]) is int

    @pytest.mark.parametrize("bad", [0, 21])
    @pytest.mark.parametrize("form", INTEGER_FORMS)
    def test_unknown_id_in_a_sequence_is_named_as_an_int(self, bad, form):
        s = scene(frames=20)
        for sources, dsts in (([3, bad, 7], [9, 9, 9]), ([3, 5, 7], [9, bad, 9])):
            with pytest.raises(UnknownFrame) as info:
                s.emit_edges(form(sources), form(dsts))
            assert info.value.args == (bad,) and type(info.value.args[0]) is int

    @pytest.mark.parametrize("bad, dtype", [(-1, np.int64), (-2 ** 63, np.int64),
                                            (2 ** 63 + 5, np.uint64), (2 ** 64 - 1, np.uint64)])
    def test_ids_at_the_ends_of_the_integer_range_are_named(self, bad, dtype):
        s = scene(frames=20)
        calls = [lambda i: s.emit_token(i), lambda i: s.emit_token(dtype(i)),
                 lambda i: s.emit_edges(np.array([3, i], dtype=dtype), 9),
                 lambda i: s.emit_edges([3, 4], np.array([9, i], dtype=dtype))]
        for call in calls:
            with pytest.raises(UnknownFrame) as info:
                call(bad)
            assert info.value.args == (bad,) and type(info.value.args[0]) is int

    @pytest.mark.parametrize("bad", [
        pytest.param(2.0, id="float"), pytest.param(True, id="bool"),
        pytest.param(np.float64(2.0), id="np.float64"), pytest.param(np.True_, id="np.bool")])
    def test_float_or_bool_id_raises(self, bad):
        s = scene(frames=10)
        calls = [lambda i: s.emit_token(i),
                 lambda i: s.noise_scales(i, 5), lambda i: s.emit_edges([1, 3], i)]
        for call in calls:
            with pytest.raises(UnknownFrame):
                call(bad)

    @pytest.mark.parametrize("ids", [
        pytest.param([1.0, True], id="float-and-bool list"),
        pytest.param([1, True], id="int-and-bool list"),
        pytest.param([1, np.True_], id="int-and-np.bool list"),
        pytest.param([2.0, 3.0], id="float list"),
        pytest.param(np.array([2.0, 3.0]), id="float array"),
        pytest.param(np.array([True, False]), id="bool array"),
    ])
    def test_float_or_bool_array_raises(self, ids):
        s = scene(frames=10)
        with pytest.raises(UnknownFrame):
            s.emit_edges(ids, 5)
        with pytest.raises(UnknownFrame):
            s.emit_edges([1, 3], ids)

    @pytest.mark.parametrize("ids, bad", [
        pytest.param([3, 2 ** 63 + 5], 2 ** 63 + 5, id="past int64"),
        pytest.param([3, 2.5], 2.5, id="float"),
        pytest.param([3, np.float64(4.0)], np.float64(4.0), id="np.float64"),
    ])
    def test_first_bad_id_in_a_mixed_list_is_named(self, ids, bad):
        # NumPy turns these lists into float arrays, whose first element
        # is a valid id
        s = scene(frames=20)
        for call in (lambda: s.emit_edges(ids, 9), lambda: s.emit_edges([5, 6], ids)):
            with pytest.raises(UnknownFrame) as info:
                call()
            assert info.value.args == (bad,) and type(info.value.args[0]) is type(bad)

    def test_integers_of_mixed_types_give_the_same_rows(self):
        # np.int64 with np.uint64 makes a float array; read one by one,
        # every id is an integer in range
        s = scene(seed=3, frames=20)
        want = reference_edges(s, [4, 1, 20], 12)
        assert_same_bits(s.emit_edges([np.int64(4), np.uint64(1), 20], 12), want)
        assert_same_bits(s.emit_edges([4, 1, 20], [np.int64(12), np.uint64(12), 12]), want)

    @pytest.mark.parametrize("ids", [pytest.param(np.int64(3), id="0-d"),
                                     pytest.param(np.array([[1, 2]]), id="2-d")])
    def test_ids_that_are_not_one_dimensional_raise(self, ids):
        s = scene(frames=10)
        with pytest.raises(ValueError, match="must be 1-D"):
            s.emit_edges(ids, 5)


def counting(function, calls):
    """function, recording each call by its name in calls."""
    def wrapped(*args, **kwargs):
        calls.append(function.__name__)
        return function(*args, **kwargs)
    return wrapped


class TestEachCheckRunsOnce:
    """What the oracle computes is checked once, where it is made: no
    stream frame enters the checking EdgeBatch constructor or FrameToken's
    check, and a distractor stream labels a block once, not each frame."""

    def count(self, monkeypatch):
        calls = []
        for owner, name in ((EdgeBatch, "__init__"), (EdgeBatch, "relabel"),
                            (FrameToken, "__post_init__"),
                            (DistractorStream, "_emit_block")):
            monkeypatch.setattr(owner, name, counting(getattr(owner, name), calls))
        return calls

    @pytest.mark.parametrize("config", ROBUST_CONFIGS)
    def test_robustness_run_labels_each_block_once(self, monkeypatch, config):
        calls = self.count(monkeypatch)
        for clean, other, n_distract, seed in TestRobustnessRunEmission().trials():
            calls.clear()
            _, _, _, plan = runner.robustness_run(clean, other, 30, n_distract, seed, config)
            blocks = calls.count("_emit_block")
            assert 0 < blocks <= math.ceil((len(plan.entries) - 1) / _BLOCK)
            assert calls.count("relabel") == blocks
            assert calls.count("__init__") == calls.count("__post_init__") == 0

    def test_stream_scene_builds_no_checked_batch_or_token(self, monkeypatch):
        s = scene(seed=4, frames=120)
        calls = self.count(monkeypatch)
        state, events = runner.stream_scene(s, StreamConfig(m_max=10), forced_reset_at=60)
        assert state.segment_index == 1 and len(state.trajectory) == 120
        assert calls == []

    def planted(self, monkeypatch, column, row, value):
        """A scene whose emissions carry value at row of a _noisy_columns
        column, and the message EdgeBatch gives those columns."""
        s = scene(seed=8, frames=30)
        columns = [np.array(c) for c in s._noisy_columns(np.arange(4), 9)]
        columns[column][row] = value
        with pytest.raises(ValueError) as info:
            EdgeBatch([1, 2, 3, 4], 10, *columns)
        noisy_columns = SyntheticScene._noisy_columns

        def planting(scene, si, ji):
            columns = noisy_columns(scene, si, ji)
            columns[column][row] = value
            return columns

        monkeypatch.setattr(SyntheticScene, "_noisy_columns", planting)
        return s, str(info.value)

    @pytest.mark.parametrize("column, row, value", [
        pytest.param(1, (2, 1), math.nan, id="NaN translation"),
        pytest.param(2, 1, 0.0, id="zero confidence"),
        pytest.param(3, 3, math.inf, id="inf confidence"),
        pytest.param(0, 0, 0.0, id="zero rotation row"),
    ])
    def test_emission_checks_the_columns_it_computed(self, monkeypatch, column, row, value):
        s, message = self.planted(monkeypatch, column, row, value)
        for call in (lambda: s.emit_edges([1, 2, 3, 4], 10),
                     lambda: s.emit_edges([1, 2, 3, 4], [10, 10, 10, 10]),
                     lambda: s.emit_pairs([(1, 10), (2, 10), (3, 10), (4, 10)])):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message

    def tokens_with(self, monkeypatch, row, value):
        generate = oracle._generate_tokens
        raw = []

        def planting(*args):
            tokens = generate(*args)
            tokens[row] = value(tokens[row])
            raw.append(tokens.copy())
            return tokens

        monkeypatch.setattr(oracle, "_generate_tokens", planting)
        return raw

    @pytest.mark.parametrize("value", [lambda r: r * math.nan, lambda r: r * 0.0],
                             ids=["NaN row", "zero row"])
    def test_a_bad_token_row_fails_the_scene(self, monkeypatch, value):
        self.tokens_with(monkeypatch, 5, value)
        with pytest.raises(ValueError, match="token features must be finite and nonzero"):
            scene(seed=3, frames=20)

    def test_token_rows_have_the_bits_of_a_frame_token(self, monkeypatch):
        raw = self.tokens_with(monkeypatch, 5, lambda r: r * 2.0)
        s = scene(seed=3, frames=20)
        assert np.linalg.norm(raw[0][5]) == pytest.approx(2.0)
        for fid, row in zip(s.frame_ids, raw[0]):
            token = s.emit_token(fid)
            assert token.id == fid
            assert token.features.tobytes() == FrameToken(fid, row).features.tobytes()

    def test_adopted_arrays_alias_nothing(self):
        # without noise, _noisy_columns hands the true relative poses on
        # as they are, so nothing but the adopting itself copies them
        s = scene(seed=6, frames=40, family="circle", base_rot_noise=0.0,
                  base_trans_noise=0.0)
        other = scene(seed=61, frames=40, base_rot_noise=0.0, base_trans_noise=0.0)
        plan = make_distractor_stream(s, other, 30, 8, 2)
        stream = DistractorStream(s, other, plan)
        ids = np.array(s.frame_ids, dtype=np.int64)
        batches = [s.emit_edges([1, 5, 3], 9), s.emit_edges([1, 5, 3], 9),
                   s.emit_edges(ids[:-1], ids[1:]), s.emit_pairs([(2, 7), (7, 2)]),
                   stream.emit_edges([1, 2, 3], 4), stream.emit_edges([1, 2, 3, 4], 5),
                   stream.emit_edges([1, 2], 3)]
        held = [a for source in (s, other) for a in vars(source).values()
                if isinstance(a, np.ndarray)]
        for k, batch in enumerate(batches):
            for name in EdgeBatch._COLUMNS:
                column = getattr(batch, name)
                assert not column.flags.writeable, name
                with pytest.raises(ValueError):
                    column[0] = 0
                others = held + [getattr(b, n) for b in batches[:k] for n in EdgeBatch._COLUMNS]
                assert not any(np.shares_memory(column, a) for a in others), name
        for token in (s.emit_token(3), stream.emit_token(4), other.emit_token(7)):
            assert not token.features.flags.writeable
            with pytest.raises(ValueError):
                token.features[0] = 0.0

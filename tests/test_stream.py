import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relpose import runner
from relpose.geom import Pose, UnitQuaternion
from relpose.oracle import OracleConfig, generate_scene
from relpose.posegraph import EdgeBatch, PoseEdge
from relpose.stream import (BridgeTooLong, BridgeTooShort,
                            FrameToken, KeyframeBank, MissingContextEdges,
                            NonMonotoneFrameId, OutlierGate,
                            StreamConfig, StreamEvent, StreamState,
                            admit_check, cull, gate_score, process_frame,
                            segment_reset, write_event_log)
from conftest import edge_batch


def token(fid, direction, dim=8):
    f = np.zeros(dim)
    a, b = direction
    f[a % dim] = np.cos(b)
    f[(a + 1) % dim] = np.sin(b)
    return FrameToken(fid, f)


def basis_token(fid, axis, dim=8):
    f = np.zeros(dim)
    f[axis % dim] = 1.0
    return FrameToken(fid, f)


def ctx_edges(context, fid, conf=1.0, t=(0.1, 0, 0)):
    return edge_batch(PoseEdge(s, fid, UnitQuaternion.identity(),
                               np.array(t, float), conf, conf) for s in context)


def run_frames(state, n, start=1, conf=None, tok=None):
    """Drive n frames through the stream with identity-rotation edges."""
    all_events = []
    for i in range(n):
        fid = start + i
        tk = tok(fid) if tok else basis_token(fid, fid)
        edges = ctx_edges(state.context_ids, fid,
                          conf=conf(fid) if conf else 1.0)
        all_events.extend(process_frame(state, tk, edges))
    return all_events


class TestStreamConfig:
    @pytest.mark.parametrize("k", [0, -1, -2])
    def test_rejects_non_positive_k(self, k):
        with pytest.raises(ValueError, match="k must be"):
            StreamConfig(k=k)

    @pytest.mark.parametrize("k", [None, 1, 5])
    def test_accepts_all_or_positive_k(self, k):
        assert StreamConfig(k=k).k == k

    @pytest.mark.parametrize("m_max", [0, -3])
    def test_rejects_bank_capacity_below_one(self, m_max):
        with pytest.raises(ValueError, match="m_max must be"):
            StreamConfig(m_max=m_max)


class TestFrameToken:
    def test_normalizes(self):
        t = FrameToken(1, np.array([3.0, 4.0]))
        assert np.isclose(np.linalg.norm(t.features), 1.0)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            FrameToken(1, np.zeros(4))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValueError):
            FrameToken(1, np.array([1.0, value, 0.0, 0.0]))

    def test_features_read_only(self):
        t = basis_token(1, 0)
        with pytest.raises(ValueError):
            t.features[0] = 0.5

    def test_norm_is_the_one_of_np_linalg_norm(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            f = rng.normal(size=int(rng.integers(1, 40))) * rng.choice([1e-6, 1.0, 1e6])
            assert FrameToken(1, f).features.tobytes() == (f / np.linalg.norm(f)).tobytes()

    def test_rejects_features_that_are_not_1d(self):
        for f in (np.ones((2, 2)), np.ones((1, 1)), np.array(1.0)):
            with pytest.raises(ValueError, match="1-D"):
                FrameToken(1, f)

    def test_relabel_shares_the_features(self):
        t = token(4, (1, 0.3))
        u = t.relabel(9)
        assert (u.id, t.id) == (9, 4)
        assert u.features is t.features and not u.features.flags.writeable

    @pytest.mark.parametrize("bad", [math.nan, 2.5, True, np.float64(3.0), np.True_, "4"])
    def test_rejects_an_id_that_is_not_an_integer(self, bad):
        with pytest.raises(ValueError, match="frame id must be an integer"):
            FrameToken(bad, np.ones(4))
        with pytest.raises(ValueError, match="frame id must be an integer"):
            basis_token(1, 0).relabel(bad)

    @pytest.mark.parametrize("fid", [np.int64(1), np.int32(1), np.uint64(1)])
    def test_numpy_integer_id_becomes_a_plain_int(self, fid, tmp_path):
        token = FrameToken(fid, np.ones(4))
        assert type(token.id) is int and token.id == 1
        assert type(token.relabel(fid).id) is int
        # an origin with such an id reaches the trajectory, the bank and
        # the event log as the plain int 1
        state = StreamState(StreamConfig())
        events = process_frame(state, token, [])
        assert list(state.trajectory) == [1] and state.bank.ids() == [1]
        assert all(type(k) is int for k in [*state.trajectory, *state.bank.ids()])
        path = tmp_path / "events.jsonl"
        write_event_log(events, path)
        assert [json.loads(line)["frame"] for line in path.read_text().splitlines()] == [1, 1]


class TestAdmitCheck:
    def test_novel_token_admitted(self):
        bank = KeyframeBank()
        bank.add(1, basis_token(1, 0), Pose.identity(), 1.0)
        assert admit_check(bank, basis_token(2, 1), tau=0.98,
                           frames_since_admit=0, delta_max=20)

    def test_redundant_token_skipped(self):
        bank = KeyframeBank()
        bank.add(1, basis_token(1, 0), Pose.identity(), 1.0)
        assert not admit_check(bank, basis_token(2, 0), tau=0.98,
                               frames_since_admit=0, delta_max=20)

    def test_force_admit_when_stale(self):
        bank = KeyframeBank()
        bank.add(1, basis_token(1, 0), Pose.identity(), 1.0)
        assert admit_check(bank, basis_token(2, 0), tau=0.98,
                           frames_since_admit=20, delta_max=20)


class TestKeyframeBank:
    def test_add_rejects_an_id_not_above_the_last(self):
        bank = KeyframeBank()
        bank.add(3, basis_token(3, 0), Pose.identity(), 1.0)
        for fid in (3, 2):
            with pytest.raises(NonMonotoneFrameId):
                bank.add(fid, basis_token(fid, 1), Pose.identity(), 1.0)
        assert bank.ids() == [3] and len(bank.tokens) == len(bank.best_conf) == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_rows_match_a_reallocating_reference(self, seed):
        # the rows as the bank kept them when every add stacked a new array
        # and every evict deleted from one: the same bits after each step,
        # through several doublings and evictions of the first and last rows
        rng = np.random.default_rng(seed)
        bank = KeyframeBank()
        ids, tokens = [], np.empty((0, 8))
        rotations, translations, best = np.empty((0, 4)), np.empty((0, 3)), np.empty(0)
        fid, evicted_last = 0, False
        for step in range(300):
            if len(ids) > 1 and rng.random() < 0.35:
                row = int(rng.integers(len(ids))) if rng.random() < 0.8 else -1
                evicted_last |= row in (-1, len(ids) - 1)
                assert bank.evict(row) == ids.pop(row)
                tokens, rotations, translations, best = (
                    np.delete(a, row, axis=0) for a in (tokens, rotations, translations, best))
            else:
                fid += int(rng.integers(1, 4))
                tk = FrameToken(fid, rng.normal(size=8))
                pose = Pose(UnitQuaternion(*rng.normal(size=4)), rng.normal(size=3))
                conf = float(rng.exponential())
                bank.add(fid, tk, pose, conf)
                ids.append(fid)
                tokens = np.vstack([tokens, tk.features[None]])
                rotations = np.vstack([rotations, pose.rotation.as_array()])
                translations = np.vstack([translations, pose.translation])
                best = np.append(best, conf)
            assert bank.ids() == ids and len(bank) == len(ids)
            for got, want in ((bank.tokens, tokens), (bank.rotations, rotations),
                              (bank.translations, translations), (bank.best_conf, best)):
                assert got.shape == want.shape and np.array_equal(got, want)
        assert evicted_last
        assert len(bank._buffers[0]) >= 32       # grown past more than one doubling

    def test_best_conf_updates_in_place(self):
        bank = KeyframeBank()
        for fid in (1, 2, 3):
            bank.add(fid, basis_token(fid, fid), Pose.identity(), 0.5)
        np.maximum(bank.best_conf, np.array([0.1, 2.0, 0.7]), out=bank.best_conf)
        bank.add(4, basis_token(4, 4), Pose.identity(), 0.25)
        assert bank.best_conf.tolist() == [0.5, 2.0, 0.7, 0.25]

    def test_add_reads_ids_by_the_frame_id_rule(self):
        bank = KeyframeBank()
        bank.add(np.int64(3), basis_token(3, 0), Pose.identity(), 1.0)
        bank.add(np.uint64(5), basis_token(5, 1), Pose.identity(), 1.0)
        assert bank.ids() == [3, 5] and all(type(fid) is int for fid in bank.ids())
        for bad in (5.5, np.float64(6.5), 7.0, True):
            with pytest.raises(ValueError, match="frame id must be an integer"):
                bank.add(bad, basis_token(9, 2), Pose.identity(), 1.0)
        assert bank.ids() == [3, 5] and len(bank.tokens) == 2

    def test_add_rejects_another_feature_width(self):
        bank = KeyframeBank()
        bank.add(1, basis_token(1, 0, dim=8), Pose.identity(), 1.0)
        with pytest.raises(ValueError, match="shape"):
            bank.add(2, FrameToken(2, np.ones(1)), Pose.identity(), 1.0)
        assert bank.ids() == [1] and bank.tokens.shape == (1, 8)


class TestCull:
    def make_bank(self, confs):
        bank = KeyframeBank()
        for i, c in enumerate(confs):
            bank.add(i + 1, token(i + 1, (0, 0.4 * i)), Pose.identity(), c)
        return bank

    def test_evicts_lowest_utility(self):
        # all tokens orthogonal, so utility reduces to confidence
        bank = KeyframeBank()
        bank.add(1, basis_token(1, 0), Pose.identity(), 1.0)
        bank.add(2, basis_token(2, 1), Pose.identity(), 1.0)
        bank.add(3, basis_token(3, 2), Pose.identity(), 1.0)
        bank.add(4, basis_token(4, 3), Pose.identity(), 0.01)
        assert cull(bank) == 4
        assert bank.ids() == [1, 2, 3]

    def test_redundancy_drives_eviction(self):
        # equal confidences; entry 4 is nearly parallel to entry 3
        bank = KeyframeBank()
        bank.add(1, basis_token(1, 0), Pose.identity(), 1.0)
        bank.add(2, basis_token(2, 1), Pose.identity(), 1.0)
        bank.add(3, token(3, (2, 0.0)), Pose.identity(), 1.0)
        bank.add(4, token(4, (2, 0.1)), Pose.identity(), 1.0)
        assert cull(bank) == 3  # 3 and 4 tie on distinctiveness, lower id goes

    def test_never_evicts_protected(self):
        # row 0 has the lowest utility by far, yet stays
        bank = self.make_bank([0.0001, 1.0, 1.0])
        assert cull(bank) != 1 and bank.ids()[0] == 1

    def test_tie_breaks_to_lowest_id(self):
        bank = KeyframeBank()
        bank.add(5, basis_token(5, 0), Pose.identity(), 1.0)
        # identical tokens and confidences: 7 and 9 tie exactly
        bank.add(7, basis_token(7, 1), Pose.identity(), 1.0)
        bank.add(9, basis_token(9, 1), Pose.identity(), 1.0)
        assert cull(bank) == 7


class TestOutlierGate:
    def test_never_rejects_before_baseline(self):
        gate = OutlierGate(n_cal=3, tau_out=0.15)
        assert gate.check(1e-9) and gate.check(1e-9)
        assert gate.baseline is None

    def test_baseline_is_mean_of_calibration(self):
        gate = OutlierGate(n_cal=3, tau_out=0.15)
        for s in (1.0, 2.0, 3.0):
            gate.check(s)
        assert gate.baseline == pytest.approx(2.0)

    @pytest.mark.parametrize("n_cal", [1, 2, 3, 4])
    def test_stream_calibrates_on_its_first_n_cal_frames(self, n_cal):
        # the origin has no score but counts as a calibration frame, so
        # n_cal 1 and 2 both wait for one score; after a reset every
        # calibration frame is scored
        state = StreamState(StreamConfig(n_cal=n_cal))
        process_frame(state, basis_token(1, 0), [])
        scored = list(range(2, 2 + max(n_cal - 1, 1)))
        for fid in scored:
            assert state.gate.baseline is None
            run_frames(state, 1, start=fid, conf=float)
        assert state.gate.baseline == pytest.approx(np.mean(scored))
        segment_reset(state, [(fid, Pose.identity(), basis_token(fid, fid))
                              for fid in (10, 11, 12)])
        for fid in range(13, 13 + n_cal):
            assert state.gate.baseline is None
            run_frames(state, 1, start=fid, conf=lambda _: 2.0)
        assert state.gate.baseline == pytest.approx(2.0)

    def test_rejects_below_thresh_and_counts(self):
        gate = OutlierGate(n_cal=1, tau_out=0.15)
        gate.check(1.0)
        assert not gate.check(0.1)
        assert not gate.check(0.1)
        assert gate.consecutive_rejections == 2
        assert gate.check(0.5)
        assert gate.consecutive_rejections == 0

    def test_boundary_score_passes(self):
        gate = OutlierGate(n_cal=1, tau_out=0.15)
        gate.check(1.0)
        assert gate.check(0.15)


class TestGateScore:
    def test_mean_of_pair_means(self):
        edges = edge_batch([
            PoseEdge(1, 9, UnitQuaternion.identity(), np.zeros(3), 1.0, 3.0),
            PoseEdge(2, 9, UnitQuaternion.identity(), np.zeros(3), 2.0, 2.0)])
        assert gate_score(edges) == pytest.approx(2.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            gate_score(edge_batch([]))


class TestProcessFrame:
    def test_first_frame_is_origin_and_protected(self):
        state = StreamState(StreamConfig())
        events = process_frame(state, basis_token(1, 0), [])
        kinds = [e.kind for e in events]
        assert kinds == ["Accepted", "AdmittedToBank"]
        assert np.allclose(state.trajectory[1].translation, 0)
        assert state.bank.ids() == [1]

    def test_non_monotone_id_raises(self):
        state = StreamState(StreamConfig())
        process_frame(state, basis_token(5, 0), [])
        with pytest.raises(NonMonotoneFrameId):
            process_frame(state, basis_token(5, 1), [])

    def test_missing_context_edge_raises(self):
        state = StreamState(StreamConfig())
        process_frame(state, basis_token(1, 0), [])
        process_frame(state, basis_token(2, 1), ctx_edges([1], 2))
        with pytest.raises(MissingContextEdges):
            process_frame(state, basis_token(3, 2), ctx_edges([1], 3))

    def test_empty_edge_list_with_context_raises(self):
        # [] is what the runners pass for a first frame; later it names no
        # context edge, and the frame is refused before any state changes
        state = StreamState(StreamConfig())
        process_frame(state, basis_token(1, 0), [])
        with pytest.raises(MissingContextEdges):
            process_frame(state, basis_token(2, 1), [])
        events = process_frame(state, basis_token(2, 1), ctx_edges([1], 2))
        assert events[0].kind == "Accepted" and 2 in state.trajectory

    def test_extra_edge_raises(self):
        state = StreamState(StreamConfig())
        process_frame(state, basis_token(1, 0), [])
        with pytest.raises(MissingContextEdges):
            process_frame(state, basis_token(2, 1), ctx_edges([1, 7], 2))

    def test_frame_with_bad_edges_can_be_retried(self):
        state = StreamState(StreamConfig())
        process_frame(state, basis_token(1, 0), [])
        with pytest.raises(MissingContextEdges):
            process_frame(state, basis_token(2, 1), ctx_edges([1, 7], 2))
        events = process_frame(state, basis_token(2, 1), ctx_edges([1], 2))
        assert events[0].kind == "Accepted" and 2 in state.trajectory

    def test_accepted_pose_composes_translation(self):
        state = StreamState(StreamConfig())
        process_frame(state, basis_token(1, 0), [])
        process_frame(state, basis_token(2, 1),
                      ctx_edges([1], 2, t=(0.5, 0, 0)))
        assert np.allclose(state.trajectory[2].translation, [0.5, 0, 0])

    def test_redundant_token_not_admitted(self):
        state = StreamState(StreamConfig())
        process_frame(state, basis_token(1, 0), [])
        events = process_frame(state, basis_token(2, 0),
                               ctx_edges([1], 2))
        assert [e.kind for e in events] == ["Accepted"]
        assert state.context_ids == [1]

    def test_best_confidence_refreshed_from_edges(self):
        state = StreamState(StreamConfig())
        process_frame(state, basis_token(1, 0), [])
        # same token as frame 1, so not admitted; only the refresh acts
        process_frame(state, basis_token(2, 0), ctx_edges([1], 2, conf=2.0))
        process_frame(state, basis_token(3, 0), ctx_edges([1], 3, conf=1.0))
        assert state.bank.ids() == [1] and state.bank.best_conf.tolist() == [2.0]
        process_frame(state, basis_token(4, 1), ctx_edges([1], 4, conf=3.0))
        assert state.bank.ids() == [1, 4]
        assert state.bank.best_conf.tolist() == [3.0, 3.0]
        # an admitted frame starts from its strongest edge
        process_frame(state, basis_token(5, 2),
                      EdgeBatch.concat([ctx_edges([1], 5, conf=2.5),
                                        ctx_edges([4], 5, conf=5.0)]))
        assert state.bank.best_conf.tolist() == [3.0, 5.0, 5.0]

    def test_bank_respects_capacity(self):
        state = StreamState(StreamConfig(m_max=4))
        process_frame(state, basis_token(1, 0, dim=64), [])
        for fid in range(2, 30):
            process_frame(state, basis_token(fid, fid, dim=64),
                          ctx_edges(state.context_ids, fid))
            assert len(state.bank) <= 4
        assert 1 in state.bank.ids()

    def test_gate_rejection_and_reset_request(self):
        cfg = StreamConfig(n_cal=3, tau_out=0.15, n_rej=3)
        state = StreamState(cfg)
        process_frame(state, basis_token(1, 0), [])
        for fid in (2, 3):
            process_frame(state, basis_token(fid, fid),
                          ctx_edges(state.context_ids, fid, conf=1.0))
        assert state.gate.baseline is not None
        kinds = []
        for fid in (4, 5, 6):
            evs = process_frame(state, basis_token(fid, fid),
                                ctx_edges(state.context_ids, fid, conf=0.01))
            kinds.extend(e.kind for e in evs)
        assert kinds.count("Rejected") == 3
        assert kinds.count("SegmentReset") == 1
        assert state.reset_pending
        assert 6 not in state.trajectory

    def test_rejected_frame_not_in_trajectory_or_bank(self):
        cfg = StreamConfig(n_cal=2)
        state = StreamState(cfg)
        process_frame(state, basis_token(1, 0), [])
        process_frame(state, basis_token(2, 1), ctx_edges([1], 2))
        evs = process_frame(state, basis_token(3, 2),
                            ctx_edges(state.context_ids, 3, conf=0.001))
        assert [e.kind for e in evs][0] == "Rejected"
        assert 3 not in state.trajectory and 3 not in state.bank.ids()

    def test_scheduled_reset_at_segment_cap(self):
        state = StreamState(StreamConfig(l_max=5))
        process_frame(state, basis_token(1, 0), [])
        kinds = []
        for fid in range(2, 7):
            evs = process_frame(state, basis_token(fid, fid),
                                ctx_edges(state.context_ids, fid))
            kinds.extend(e.kind for e in evs)
        assert kinds.count("SegmentReset") == 1
        assert state.reset_pending

    def test_force_admit_after_delta_max(self):
        state = StreamState(StreamConfig(delta_max=3))
        process_frame(state, basis_token(1, 0), [])
        admitted = []
        for fid in range(2, 8):
            evs = process_frame(state, basis_token(fid, 0),
                                ctx_edges(state.context_ids, fid))
            admitted.extend(e.frame for e in evs if e.kind == "AdmittedToBank")
        # identical tokens, so only the staleness cap can admit
        assert admitted == [5]


class TestSegmentReset:
    def make_state(self):
        state = StreamState(StreamConfig())
        process_frame(state, basis_token(1, 0), [])
        for fid in range(2, 8):
            process_frame(state, basis_token(fid, fid),
                          ctx_edges(state.context_ids, fid))
        return state

    def bridge(self, state, ids):
        return [(fid, state.trajectory[fid], basis_token(fid, fid))
                for fid in ids]

    def bridge_of(self, poses):
        return [(fid, pose, basis_token(fid, fid)) for fid, pose in poses.items()]

    def test_bridge_length_limits(self):
        state = self.make_state()
        with pytest.raises(BridgeTooShort):
            segment_reset(state, self.bridge(state, [5, 6]))
        with pytest.raises(BridgeTooLong):
            long_bridge = [(fid, Pose.identity(), basis_token(fid, fid))
                           for fid in range(1, 12)]
            segment_reset(state, long_bridge)

    @pytest.mark.parametrize("bridge_len, error", [(0, BridgeTooShort), (2, BridgeTooShort),
                                                   (11, BridgeTooLong)])
    def test_stream_scene_checks_bridge_len_before_the_first_frame(
            self, monkeypatch, bridge_len, error):
        frames = []
        monkeypatch.setattr(runner, "process_frame", lambda *args: frames.append(args))
        scene = generate_scene(OracleConfig(family="random-walk", frames=20), 0)
        with pytest.raises(error):
            runner.stream_scene(scene, StreamConfig(), bridge_len=bridge_len)
        assert frames == []

    @pytest.mark.parametrize("bridge_len", [3, 10])
    def test_stream_scene_resets_on_a_bridge_of_3_to_10(self, monkeypatch, bridge_len):
        bridges = []
        reset = runner.segment_reset

        def recording(state, bridge):
            bridges.append([fid for fid, _, _ in bridge])
            return reset(state, bridge)

        monkeypatch.setattr(runner, "segment_reset", recording)
        scene = generate_scene(OracleConfig(family="random-walk", frames=40), 0)
        state, _ = runner.stream_scene(scene, StreamConfig(), forced_reset_at=20,
                                       bridge_len=bridge_len)
        assert bridges == [list(range(21 - bridge_len, 21))]
        assert state.segment_index == 1

    def test_non_increasing_bridge_raises_before_any_change(self):
        state = self.make_state()
        bank, gate, before = state.bank, state.gate, list(state.trajectory.items())
        for ids in ([5, 7, 6], [5, 6, 6]):
            with pytest.raises(NonMonotoneFrameId):
                segment_reset(state, [(fid, Pose.identity(), basis_token(fid, fid))
                                      for fid in ids])
        assert state.bank is bank and state.gate is gate
        assert all(a == b and pa is pb for (a, pa), (b, pb)
                   in zip(before, state.trajectory.items()))
        assert len(state.trajectory) == len(before) and state.segment_index == 0

    def test_bridge_id_that_is_not_an_integer_raises_before_any_change(self):
        state = self.make_state()
        bank, gate, before = state.bank, state.gate, dict(state.trajectory)
        for ids in ([1.5, 2.5, np.float64(3.5)], [10, 11, 12.0], [10, True, 12]):
            with pytest.raises(ValueError, match="frame id must be an integer"):
                segment_reset(state, [(fid, Pose.identity(), basis_token(9, 9))
                                      for fid in ids])
        assert state.bank is bank and state.gate is gate
        assert state.trajectory == before and state.segment_index == 0

    def test_numpy_bridge_ids_enter_as_plain_ints(self):
        state = self.make_state()                   # frames 1-7
        segment_reset(state, [(fid, Pose.identity(), basis_token(fid, fid))
                              for fid in (np.int64(10), np.uint64(11), np.int32(12))])
        assert state.bank.ids() == [10, 11, 12]
        assert all(type(fid) is int for fid in state.bank.ids())
        assert all(type(fid) is int for fid in state.trajectory)

    def test_frame_not_above_the_bridge_raises(self):
        state = self.make_state()                   # frames 1-7
        segment_reset(state, [(fid, Pose.identity(), basis_token(fid, fid))
                              for fid in (10, 11, 12)])
        with pytest.raises(NonMonotoneFrameId, match="after frame 12"):
            process_frame(state, basis_token(8, 8), ctx_edges([10, 11, 12], 8))
        assert state.bank.ids() == [10, 11, 12] and 8 not in state.trajectory
        process_frame(state, basis_token(13, 13), ctx_edges([10, 11, 12], 13))
        assert 13 in state.trajectory

    def test_reset_reseeds_bank_and_gate(self):
        state = self.make_state()
        old_baseline = state.gate.baseline
        assert old_baseline is not None
        segment_reset(state, self.bridge(state, [5, 6, 7]))
        assert state.bank.ids() == [5, 6, 7]
        assert state.gate.baseline is None
        assert state.segment_index == 1
        assert not state.reset_pending

    def test_reset_keeps_the_most_recent_bridge_frames_within_capacity(self):
        state = self.make_state()
        state.config = StreamConfig(m_max=2)
        poses = {fid: state.trajectory[fid] for fid in (3, 4, 5, 6, 7)}
        state.trajectory.clear()
        segment_reset(state, self.bridge_of(poses))
        assert state.bank.ids() == [6, 7]
        assert sorted(state.trajectory) == [3, 4, 5, 6, 7]

    @pytest.mark.parametrize("m_max", [1, 2])
    def test_bank_bound_holds_after_every_frame_through_a_reset(self, monkeypatch, m_max):
        sizes = []

        def checked(fn):
            def wrapper(state, *args):
                out = fn(state, *args)
                sizes.append(len(state.bank))
                return out
            return wrapper

        monkeypatch.setattr(runner, "process_frame", checked(runner.process_frame))
        monkeypatch.setattr(runner, "segment_reset", checked(runner.segment_reset))
        scene = generate_scene(OracleConfig(family="random-walk", frames=60), 0)
        state, events = runner.stream_scene(scene, StreamConfig(m_max=m_max),
                                            forced_reset_at=30)
        assert state.segment_index >= 1
        assert len(sizes) == 60 + state.segment_index
        assert max(sizes) <= m_max
        assert len(state.trajectory) == sum(e.kind == "Accepted" for e in events)

    def test_trajectory_continues_after_reset(self):
        state = self.make_state()
        segment_reset(state, self.bridge(state, [5, 6, 7]))
        process_frame(state, basis_token(8, 8),
                      ctx_edges(state.context_ids, 8, t=(0.1, 0, 0)))
        # equal-confidence fusion over the bridge context keeps the old frame
        mean_t = np.mean([state.trajectory[f].translation for f in (5, 6, 7)],
                         axis=0)
        assert np.allclose(state.trajectory[8].translation,
                           mean_t + [0.1, 0, 0], atol=1e-9)

    def test_earlier_trajectory_kept(self):
        state = self.make_state()
        before = dict(state.trajectory)
        segment_reset(state, self.bridge(state, [5, 6, 7]))
        for fid, pose in before.items():
            assert np.array_equal(state.trajectory[fid].translation,
                                  pose.translation)


def snapshot(state):
    """What a process_frame call that raises must leave as it was."""
    gate = {k: list(v) if isinstance(v, list) else v
            for k, v in vars(state.gate).items()}
    return (state.bank.ids(), state.bank.best_conf.tolist(),
            [(fid, id(pose)) for fid, pose in state.trajectory.items()],
            gate, state._last_frame_id, state.frames_since_admit,
            state.segment_accepted, state.reset_pending)


def check_invariants(state):
    cfg, bank = state.config, state.bank
    ids = bank.ids()
    assert all(a < b for a, b in zip(ids, ids[1:]))
    assert 1 <= len(ids) <= cfg.m_max
    assert len(bank.tokens) == len(bank.rotations) == len(bank.best_conf) == len(ids)
    assert state.frames_since_admit <= cfg.delta_max
    for pose in state.trajectory.values():
        assert np.isfinite(pose.rotation.as_array()).all()
        assert np.isfinite(pose.translation).all()


def context_batch(context, fid, conf, rng):
    n = len(context)
    return EdgeBatch(context, fid, rng.normal(size=(n, 4)),
                     rng.normal(scale=0.1, size=(n, 3)),
                     conf * rng.uniform(0.5, 2.0, n), conf * rng.uniform(0.5, 2.0, n))


def corrupt(edges, how, rng):
    """The context edges with one missing, one repeated, or one from a
    frame outside the context."""
    rows = np.arange(len(edges))
    if how == "dropped":
        return edges.take(np.delete(rows, rng.integers(len(rows))))
    if how == "duplicated":
        return edges.take(np.append(rows, rng.integers(len(rows))))
    dst = int(edges.dst[0])
    return EdgeBatch.concat([edges, edges.take([0]).relabel([dst + 1], dst)])


@st.composite
def stream_runs(draw):
    cfg = StreamConfig(m_max=draw(st.integers(1, 6)), delta_max=draw(st.integers(1, 5)),
                       n_cal=draw(st.integers(1, 4)), n_rej=draw(st.integers(1, 3)),
                       l_max=draw(st.integers(3, 40)),
                       tau=draw(st.sampled_from([0.5, 0.9, 0.98])))
    low_prefix = draw(st.integers(0, 4))
    steps = draw(st.lists(st.tuples(
        st.integers(1, 3),                                   # id gap
        st.integers(0, 2 ** 32 - 1),                         # geometry seed
        st.sampled_from([1e-3, 0.05, 1.0, 30.0]),            # confidence
        st.sampled_from(["exact", "shuffled", "dropped", "duplicated",
                         "extra", "stale id"]),
        st.booleans()),                                      # forced reset after
        min_size=1, max_size=40))
    return cfg, low_prefix, steps


class TestProcessFrameProperties:
    @settings(max_examples=150, deadline=None)
    @given(stream_runs())
    def test_random_streams_keep_the_invariants(self, run):
        cfg, low_prefix, steps = run
        state = StreamState(cfg)
        tokens, last = {}, None
        for k, (gap, seed, conf, how, reset_after) in enumerate(steps):
            rng = np.random.default_rng(seed)
            fid = gap if last is None else last + gap
            tokens[fid] = tk = FrameToken(fid, rng.normal(size=8))
            conf = 1e-3 if k < low_prefix else conf
            edges = context_batch(state.context_ids, fid, conf, rng)
            if how == "shuffled":
                edges = edges.take(rng.permutation(len(edges)))
            elif last is not None and how != "exact":
                before = snapshot(state)
                if how == "stale id":
                    bad, error = (FrameToken(last - int(rng.integers(3)), tk.features),
                                  edges), NonMonotoneFrameId
                else:
                    bad, error = (tk, corrupt(edges, how, rng)), MissingContextEdges
                with pytest.raises(error):
                    process_frame(state, *bad)
                assert snapshot(state) == before
            process_frame(state, tk, edges)
            last = fid
            check_invariants(state)
            if state.reset_pending or reset_after:
                ids = sorted(state.trajectory)[-5:]
                if len(ids) >= 3:
                    segment_reset(state, [(i, state.trajectory[i], tokens[i]) for i in ids])
                    check_invariants(state)
                state.reset_pending = False


def stream_oracle_frames(scene, frames, cfg, order):
    """Stream frames of a scene through process_frame, each frame's oracle
    edges reordered by order(n), a permutation of their n rows."""
    state, events = StreamState(cfg), []
    for fid in frames:
        ctx = state.context_ids
        edges = scene.emit_edges(ctx, fid) if ctx else []
        if ctx:
            edges = edges.take(order(len(edges)))
        events.extend(process_frame(state, scene.emit_token(fid), edges))
        state.reset_pending = False
    return state, events


class TestContextOrder:
    """process_frame sorts a frame's edges only when they are not in
    context order; both paths give the same bits."""

    def test_shuffled_edges_give_the_same_stream(self):
        scene = generate_scene(OracleConfig(frames=60), 4)
        cfg = StreamConfig(m_max=8, delta_max=4)
        rng = np.random.default_rng(9)
        a, events_a = stream_oracle_frames(scene, scene.frame_ids, cfg, np.arange)
        b, events_b = stream_oracle_frames(scene, scene.frame_ids, cfg, rng.permutation)
        assert [e.to_json() for e in events_a] == [e.to_json() for e in events_b]
        assert any(e.kind == "Evicted" for e in events_a)
        assert a.trajectory.keys() == b.trajectory.keys()
        for fid, pose in a.trajectory.items():
            assert pose.rotation == b.trajectory[fid].rotation
            assert np.array_equal(pose.translation, b.trajectory[fid].translation)
        assert a.bank.ids() == b.bank.ids()
        for name in ("tokens", "rotations", "translations", "best_conf"):
            assert np.array_equal(getattr(a.bank, name), getattr(b.bank, name))

    @pytest.mark.parametrize("shuffle", [False, True])
    @pytest.mark.parametrize("how", ["wrong dst", "foreign src"])
    def test_malformed_batch_raises_before_any_change(self, shuffle, how):
        scene = generate_scene(OracleConfig(frames=12), 4)
        *frames, fid = scene.frame_ids
        state, _ = stream_oracle_frames(scene, frames, StreamConfig(tau=2.0), np.arange)
        ctx = state.context_ids
        src, dst = np.array(ctx), np.full(len(ctx), fid)
        if how == "wrong dst":
            dst[len(ctx) // 2] = fid + 1
        else:
            src[-1] = fid + 5
        edges = scene.emit_edges(ctx, fid).relabel(src, dst)
        if shuffle:
            edges = edges.take(np.random.default_rng(1).permutation(len(ctx)))
        before = snapshot(state)
        with pytest.raises(MissingContextEdges):
            process_frame(state, scene.emit_token(fid), edges)
        assert snapshot(state) == before
        process_frame(state, scene.emit_token(fid), scene.emit_edges(ctx, fid))
        assert fid in state.trajectory


def counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


class TestStreamFrameCalls:
    def test_no_stack_clip_or_take_per_frame(self, monkeypatch):
        # a stream frame calls none of these wrappers: the batched pose ops
        # fill one output, the oracle clips in place, and in-order edges are
        # not re-sorted
        calls = {"stack": 0, "clip": 0, "take": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        scene = generate_scene(OracleConfig(frames=200), 3)
        monkeypatch.setattr(np, "stack", counted("stack", np.stack))
        monkeypatch.setattr(np, "clip", counted("clip", np.clip))
        monkeypatch.setattr(EdgeBatch, "take", counted("take", EdgeBatch.take))
        state, events = runner.stream_scene(scene, StreamConfig(m_max=30))
        assert calls == {"stack": 0, "clip": 0, "take": 0}
        assert len(state.trajectory) > 150
        assert any(e.kind == "Evicted" for e in events)

    def test_bank_rows_are_written_in_place(self, monkeypatch):
        # an admission writes one row and an eviction shifts rows up, into
        # buffers the bank keeps: no array is stacked, appended or deleted
        calls = {"vstack": 0, "append": 0, "delete": 0}
        scene = generate_scene(OracleConfig(frames=200), 3)
        for name in calls:
            monkeypatch.setattr(np, name, counting(calls, name, getattr(np, name)))
        state, events = runner.stream_scene(scene, StreamConfig(m_max=30))
        assert calls == {"vstack": 0, "append": 0, "delete": 0}
        assert sum(e.kind == "Evicted" for e in events) > 10

    def test_one_mean_conf_array_per_frame(self, monkeypatch):
        # the gate, the best_conf refresh and the admission maximum read
        # one array per frame's batch, computed once and read-only
        seen = {}           # id(batch) -> the arrays mean_conf returned
        batches = []        # keeps the batches alive, so their ids stay unique
        getter = EdgeBatch.mean_conf.fget

        def recorded(batch):
            m = getter(batch)
            if id(batch) not in seen:
                batches.append(batch)
            seen.setdefault(id(batch), []).append(m)
            return m

        scene = generate_scene(OracleConfig(frames=200), 3)
        monkeypatch.setattr(EdgeBatch, "mean_conf", property(recorded))
        state, events = runner.stream_scene(scene, StreamConfig(m_max=30))
        reads = [len(arrays) for arrays in seen.values()]
        assert len(seen) == 199                 # one batch a frame after the origin
        # the gate reads it; an accepted frame's refresh and admission again
        assert sum(n == 2 for n in reads) > 150 and set(reads) <= {1, 2}
        assert any(e.kind == "AdmittedToBank" for e in events[2:])
        for arrays in seen.values():
            assert all(a is arrays[0] for a in arrays)
            assert not arrays[0].flags.writeable


def read_log(path):
    """The event log as the JSON objects of its lines."""
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestEventLog:
    def test_round_trip(self, tmp_path):
        events = [StreamEvent("Accepted", 1, {"score": 1.25}),
                  StreamEvent("Rejected", 2, {"score": 0.1, "threshold": 0.2}),
                  StreamEvent("SegmentReset", 3, {"reason": "x"})]
        path = tmp_path / "events.jsonl"
        write_event_log(events, path)
        lines = path.read_text().splitlines()
        objects = read_log(path)
        assert len(lines) == len(objects) == len(events)
        for line, obj, ev in zip(lines, objects, events):
            assert line == json.dumps(obj, sort_keys=True)   # one sorted-key object
            assert obj == {"kind": ev.kind, "frame": ev.frame, "details": ev.details}

    def test_details_independent_of_key_order_and_read_only(self):
        a = StreamEvent("Rejected", 2, {"threshold": 0.2, "score": 0.1})
        assert a == StreamEvent("Rejected", 2, {"score": 0.1, "threshold": 0.2})
        assert a.details == {"score": 0.1, "threshold": 0.2}
        assert StreamEvent("AdmittedToBank", 3).details == {}
        with pytest.raises(AttributeError):
            a.frame = 5

    def test_byte_stable(self, tmp_path):
        events = [StreamEvent("Accepted", 1, {"b": 1.0, "a": 2.0})]
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_event_log(events, p1)
        write_event_log([StreamEvent(d["kind"], d["frame"], d["details"])
                         for d in read_log(p1)], p2)
        assert p1.read_bytes() == p2.read_bytes()

"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line on success; thresholds are stated
inline next to the asserts.
"""

import math
import os
import time

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.spatial.transform import Rotation
from scipy.stats import binomtest

from relpose import metrics
from relpose.cli import main
from relpose.geom import (Pose, UnitQuaternion, quat_apply, quat_exp, quat_multiply,
                          quat_to_matrix, umeyama_sim3)
from relpose.loss import conf_loss
from relpose.oracle import OracleConfig, generate_scene
from relpose.posegraph import PoseEdge, fuse_candidates
from relpose.refine import (RefinementProblem, _Workspace, solve)
from relpose.runner import (offline_trajectory, refine_trajectory,
                            robustness_run, stream_scene)
from relpose.stream import StreamConfig, StreamState, process_frame, segment_reset
from conftest import (CandidatePose, angle_deg, candidate_batch, edge_batch,
                      random_pose, random_quat, relative_pose)


def _ok(msg):
    print(f"PASS {msg}")


def test_criterion_01_geometry_matches_matrix_oracle():
    """1,000 quaternion/pose ops vs rotation matrices at 1e-9; Umeyama
    recovers 100 planted similarity transforms at 1e-6; < 5 s."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    for _ in range(1000):
        qa, qb = random_quat(rng), random_quat(rng)
        Ra = Rotation.from_quat([qa.x, qa.y, qa.z, qa.w])
        Rb = Rotation.from_quat([qb.x, qb.y, qb.z, qb.w])
        prod = quat_multiply(qa, qb)
        assert np.allclose(quat_to_matrix(prod.as_array()), (Ra * Rb).as_matrix(), atol=1e-9)
        v = rng.normal(size=3)
        assert np.allclose(quat_apply(qa.as_array(), v), Ra.apply(v), atol=1e-9)
        pa, pb = random_pose(rng), random_pose(rng)
        rel = relative_pose(pa, pb)
        Ta = np.eye(4)
        Ta[:3, :3] = quat_to_matrix(pa.rotation.as_array())
        Ta[:3, 3] = pa.translation
        Tb = np.eye(4)
        Tb[:3, :3] = quat_to_matrix(pb.rotation.as_array())
        Tb[:3, 3] = pb.translation
        Trel = np.linalg.inv(Ta) @ Tb
        assert np.allclose(quat_to_matrix(rel.rotation.as_array()), Trel[:3, :3], atol=1e-9)
        assert np.allclose(rel.translation, Trel[:3, 3], atol=1e-9)
    for _ in range(100):
        src = rng.normal(size=(12, 3))
        s = float(rng.uniform(0.2, 5.0))
        R = Rotation.random(random_state=rng).as_matrix()
        t = rng.normal(size=3)
        tgt = s * src @ R.T + t
        s_fit, R_fit, t_fit = umeyama_sim3(src, tgt)
        assert abs(s_fit - s) < 1e-6
        assert np.allclose(R_fit, R, atol=1e-6)
        assert np.allclose(t_fit, t, atol=1e-6)
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _ok(f"criterion 1: geometry vs matrix oracle at 1e-9, "
        f"100 planted Sim(3) recovered at 1e-6 in {elapsed:.2f}s")


def test_criterion_02_fusion_contracts():
    """Permutation invariance, single-candidate identity, convex-hull
    containment, equal-confidence mean equivalence: 10,000 cases total."""
    rng = np.random.default_rng(202)

    def cands(n, equal_conf=False):
        out = []
        for i in range(n):
            c = 1.0 if equal_conf else float(rng.uniform(0.2, 3.0))
            out.append(CandidatePose(random_pose(rng), c,
                                     c if equal_conf else float(rng.uniform(0.2, 3.0)),
                                     i))
        return out

    for _ in range(2500):  # permutation invariance
        cs = cands(int(rng.integers(2, 7)))
        a = fuse_candidates(candidate_batch(cs))
        b = fuse_candidates(candidate_batch([cs[i] for i in rng.permutation(len(cs))]))
        assert np.allclose(a.translation, b.translation, atol=1e-12)
        assert angle_deg(a.rotation, b.rotation) < 1e-10
    for _ in range(2500):  # single-candidate identity
        c = cands(1)[0]
        fused = fuse_candidates(candidate_batch([c]))
        assert np.allclose(fused.translation, c.proposed.translation, atol=1e-12)
        assert angle_deg(fused.rotation, c.proposed.rotation) < 1e-10
    for _ in range(2500):  # convex-hull (bounding box) containment
        cs = cands(int(rng.integers(2, 7)))
        fused = fuse_candidates(candidate_batch(cs))
        ts = np.array([c.proposed.translation for c in cs])
        assert np.all(fused.translation >= ts.min(axis=0) - 1e-12)
        assert np.all(fused.translation <= ts.max(axis=0) + 1e-12)
    for _ in range(2500):  # equal confidences reduce to the plain mean
        cs = cands(int(rng.integers(2, 7)), equal_conf=True)
        fused = fuse_candidates(candidate_batch(cs))
        mean_t = np.mean([c.proposed.translation for c in cs], axis=0)
        assert np.allclose(fused.translation, mean_t, atol=1e-12)
    _ok("criterion 2: fusion contracts hold on 10,000 randomized cases")


def test_criterion_03_loss_fixed_point():
    """argmin_c (c*l - alpha*log c) equals alpha/l for 1,000 sampled l,
    numeric vs closed form within 1e-6."""
    rng = np.random.default_rng(303)
    alpha = 0.2
    for _ in range(1000):
        resid = float(np.exp(rng.uniform(np.log(0.01), np.log(10.0))))
        closed = alpha / resid
        res = minimize_scalar(lambda c: conf_loss(resid, c, alpha),
                              bounds=(1e-6, 1e3), method="bounded",
                              options={"xatol": 1e-10})
        assert abs(res.x - closed) / closed < 1e-6
    _ok("criterion 3: confidence fixed point alpha/l matches numeric argmin "
        "at 1e-6 on 1,000 residuals")


def test_criterion_04_confidence_reliability_bins():
    """10,000 oracle edges: per-bin mean error strictly decreases across
    5 equal-mass confidence bins for rotation and translation."""
    scene = generate_scene(OracleConfig(frames=100), 404)
    rng = np.random.default_rng(404)
    rot_samples, trans_samples = [], []
    ids = scene.frame_ids
    pairs = []
    while len(pairs) < 10000:
        a, b = rng.integers(0, len(ids), size=2)
        if a == b:
            continue
        pairs.append((ids[a], ids[b]))
    for (i, j), e in zip(pairs, scene.emit_pairs(pairs)):
        gt = relative_pose(scene.poses[i], scene.poses[j])
        rot_samples.append((e.conf_rot,
                            angle_deg(e.rel_rotation, gt.rotation)))
        trans_samples.append((e.conf_trans,
                              float(np.linalg.norm(e.rel_translation
                                                   - gt.translation))))
    for name, samples in (("rotation", rot_samples),
                          ("translation", trans_samples)):
        summary = metrics.confidence_bins(samples, 5)
        assert np.all(np.diff(summary.mean_error) < 0), name
    _ok("criterion 4: mean error strictly decreases across 5 confidence "
        "bins (rotation and translation, 10,000 edges)")


def test_criterion_05_aggregation_ablation_trend():
    """Mean ATE ordering Top-1 >= Top-5 >= Top-10 >= All >= All+PGO over
    20 seeds, each adjacent pair winning a paired sign test at p < 0.05;
    < 5 min."""
    t0 = time.time()
    cfg = OracleConfig(family="random-walk", frames=40)
    res = {name: [] for name in ("top1", "top5", "top10", "all", "pgo")}
    for seed in range(20):
        scene = generate_scene(cfg, seed)
        gt = scene.ground_truth()
        for name, k in (("top1", 1), ("top5", 5), ("top10", 10), ("all", None)):
            traj = offline_trajectory(scene, k=k)
            res[name].append(metrics.ate(traj, gt)[0])
            if name == "all":
                refined = refine_trajectory(scene, traj)
                res["pgo"].append(metrics.ate(refined.poses, gt)[0])
    order = ["top1", "top5", "top10", "all", "pgo"]
    for a, b in zip(order, order[1:]):
        assert np.mean(res[a]) >= np.mean(res[b]), (a, b)
        diff = np.array(res[a]) - np.array(res[b])
        wins = int((diff > 0).sum())
        decided = int((diff != 0).sum())
        p = binomtest(wins, decided, alternative="greater").pvalue
        assert p < 0.05, (a, b, p)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _ok(f"criterion 5: ATE ordering top1>=top5>=top10>=all>=all+pgo over 20 "
        f"seeds, sign tests p<0.05, in {elapsed:.1f}s")


def test_criterion_06_confidence_beats_uniform():
    """Confidence-weighted fusion yields strictly lower mean ATE than
    uniform weighting over 20 seeds."""
    cfg = OracleConfig(family="random-walk", frames=40)
    conf_ates, unif_ates = [], []
    for seed in range(20):
        scene = generate_scene(cfg, seed)
        gt = scene.ground_truth()
        conf_ates.append(metrics.ate(offline_trajectory(scene), gt)[0])
        unif_ates.append(metrics.ate(offline_trajectory(scene, uniform=True),
                                     gt)[0])
    assert np.mean(conf_ates) < np.mean(unif_ates)
    _ok(f"criterion 6: confidence weighting mean ATE "
        f"{np.mean(conf_ates):.4f} < uniform {np.mean(unif_ates):.4f} "
        f"over 20 seeds")


def test_criterion_07_bounded_memory_liveness():
    """A 10,000-frame stream completes with bank size <= 100 at every
    step and admission gaps <= 20; resident entry counts bounded."""
    config = StreamConfig()
    scene = generate_scene(OracleConfig(frames=10000,
                                        family="random-walk"), 707)
    state = StreamState(config)
    events = []
    max_bank = 0
    max_gap = 0
    for fid in scene.frame_ids:
        token = scene.emit_token(fid)
        ctx = state.context_ids
        edges = scene.emit_edges(ctx, fid) if ctx else []
        events.extend(process_frame(state, token, edges))
        max_bank = max(max_bank, len(state.bank))
        max_gap = max(max_gap, state.frames_since_admit)
        assert len(state.bank) <= config.m_max
        assert state.frames_since_admit <= config.delta_max
        if state.reset_pending:
            ids = sorted(state.trajectory)[-5:]
            segment_reset(state, [(f, state.trajectory[f],
                                   scene.emit_token(f)) for f in ids])
        # resident state beyond the emitted trajectory stays O(m_max)
        assert len(state.gate._cal_scores) <= config.n_cal
    assert len(state.trajectory) > 9000
    _ok(f"criterion 7: 10,000-frame stream live with bank<= {max_bank} "
        f"(cap 100) and admission gaps <= {max_gap} (cap 20)")


def test_criterion_08_refinement_contracts():
    """Objective non-increasing on every instance; analytic gradient vs
    central differences at 1e-5 relative on 50 problems; planted recovery
    at 1e-6; refinement improves mean ATE over 20 seeds."""
    rng = np.random.default_rng(808)

    def random_problem(n):
        poses = {i: random_pose(rng) for i in range(n)}
        pairs = list(zip(range(n - 1), range(1, n))) + [(0, n - 1)]
        edges = []
        for i, j in pairs:
            rel = relative_pose(poses[i], poses[j])
            dq = UnitQuaternion(*quat_exp(rng.normal(scale=0.05, size=3)).tolist())
            edges.append(PoseEdge(i, j, quat_multiply(rel.rotation, dq),
                                  rel.translation + rng.normal(scale=0.05, size=3),
                                  float(rng.uniform(0.5, 3)),
                                  float(rng.uniform(0.5, 3))))
        return RefinementProblem(poses, edge_batch(edges))

    # gradient vs central finite differences
    for _ in range(50):
        prob = random_problem(int(rng.integers(5, 11)))
        ws = _Workspace(prob)
        x0 = ws.initial_params() + rng.normal(scale=0.02,
                                              size=ws.initial_params().shape)
        _, g = ws.objective_and_gradient(x0)
        h = 1e-6
        for idx in range(len(x0)):
            xp, xm = x0.copy(), x0.copy()
            xp[idx] += h
            xm[idx] -= h
            fd = (ws.objective_and_gradient(xp)[0]
                  - ws.objective_and_gradient(xm)[0]) / (2 * h)
            assert abs(g[idx] - fd) / max(1.0, abs(fd)) < 1e-5

    # planted-perturbation recovery
    truth = {i: random_pose(rng) for i in range(6)}
    pairs = list(zip(range(5), range(1, 6))) + [(0, 5), (1, 4), (2, 5)]
    edges = []
    for i, j in pairs:
        rel = relative_pose(truth[i], truth[j])
        edges.append(PoseEdge(i, j, rel.rotation, rel.translation, 1.0, 1.0))
    init = {0: truth[0]}
    for i in range(1, 6):
        dq = UnitQuaternion(*quat_exp(rng.normal(scale=0.02, size=3)).tolist())
        init[i] = Pose(quat_multiply(truth[i].rotation, dq),
                       truth[i].translation + rng.normal(scale=0.05, size=3))
    result = solve(RefinementProblem(init, edge_batch(edges)))
    assert result.final_objective <= result.initial_objective
    for i in range(6):
        assert math.radians(angle_deg(result.poses[i].rotation,
                                      truth[i].rotation)) < 1e-6
        assert np.linalg.norm(result.poses[i].translation
                              - truth[i].translation) < 1e-6

    # refinement improves mean ATE, never increases the objective
    cfg = OracleConfig(family="random-walk", frames=30)
    pre, post = [], []
    for seed in range(20):
        scene = generate_scene(cfg, seed)
        gt = scene.ground_truth()
        traj = offline_trajectory(scene)
        refined = refine_trajectory(scene, traj)
        assert refined.final_objective <= refined.initial_objective + 1e-12
        pre.append(metrics.ate(traj, gt)[0])
        post.append(metrics.ate(refined.poses, gt)[0])
    assert np.mean(post) < np.mean(pre)
    _ok(f"criterion 8: gradients at 1e-5, planted recovery at 1e-6, mean "
        f"ATE {np.mean(pre):.4f} -> {np.mean(post):.4f} over 20 seeds")


def test_criterion_09_robustness_protocol():
    """30 clean frames with 10/30/50 distractors at 10 seeds each:
    SR >= 0.95 and BFS >= 0.9 at default gate constants; gate disabled
    drives SR to 0.  The clean stream is outlier-free by construction so
    the gate's calibration sees only nominal confidences."""
    scene_cfg = OracleConfig(frames=60, outlier_prob=0.0)
    for n_distract in (10, 30, 50):
        srs, bfss = [], []
        for trial in range(10):
            seed = 900 + n_distract * 101 + trial
            scene = generate_scene(scene_cfg, seed)
            other = generate_scene(scene_cfg, seed + 50021)
            rep, _, _, _ = robustness_run(scene, other, 30, n_distract,
                                          seed, StreamConfig())
            srs.append(rep.distractor_reject_rate)
            bfss.append(rep.bfs)
        assert np.mean(srs) >= 0.95, n_distract
        assert np.mean(bfss) >= 0.9, n_distract
    disabled = StreamConfig(tau_out=0.0)  # threshold 0: nothing rejected
    srs = []
    for trial in range(10):
        seed = 990 + trial
        scene = generate_scene(scene_cfg, seed)
        other = generate_scene(scene_cfg, seed + 50021)
        rep, _, _, _ = robustness_run(scene, other, 30, 10, seed, disabled)
        srs.append(rep.distractor_reject_rate)
    assert np.mean(srs) == 0.0
    _ok("criterion 9: SR>=0.95 and BFS>=0.9 at gate defaults for 10/30/50 "
        "distractors; gate disabled gives SR=0")


def test_criterion_10_segment_reset_continuity():
    """A forced mid-stream reset with a 5-frame bridge changes final ATE
    by < 10% against the no-reset run."""
    for seed in range(5):
        scene = generate_scene(OracleConfig(frames=80), seed)
        gt = scene.ground_truth()
        base, _ = stream_scene(scene, StreamConfig())
        forced, _ = stream_scene(scene, StreamConfig(), forced_reset_at=40,
                                 bridge_len=5)
        a0 = metrics.ate(base.trajectory,
                         {f: gt[f] for f in base.trajectory})[0]
        a1 = metrics.ate(forced.trajectory,
                         {f: gt[f] for f in forced.trajectory})[0]
        assert forced.segment_index >= 1
        assert abs(a1 - a0) / a0 < 0.10, seed
    _ok("criterion 10: forced reset with 5-frame bridge shifts ATE by "
        "< 10% on 5 seeds")


def test_criterion_11_cli_determinism(tmp_path):
    """Every CLI command writes byte-identical artifacts across two runs
    with the same config and seed."""
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(
        "seed: 11\n"
        "oracle:\n  frames: 50\n"
        "robust:\n  n_clean: 12\n  n_distract: [4, 8]\n  trials: 2\n"
        "refine:\n  enabled: true\n"
        "diag_edges: 2000\n")
    ref_scene = generate_scene(OracleConfig(frames=50), 11)
    est_path, ref_path = str(tmp_path / "est.tum"), str(tmp_path / "ref.tum")
    state, _ = stream_scene(ref_scene, StreamConfig())
    from relpose import io
    io.write_tum(state.trajectory, est_path)
    io.write_tum({f: ref_scene.poses[f] for f in state.trajectory}, ref_path)

    commands = {
        "stream": [], "offline": [], "robust": [], "diag": [],
        "eval": [est_path, ref_path],
    }
    for name, extra in commands.items():
        outs = []
        for run in ("a", "b"):
            out = str(tmp_path / f"{name}_{run}")
            rc = main([name, "--config", str(cfg_path), "--out", out] + extra)
            assert rc == 0, name
            artifacts = {}
            for fn in sorted(os.listdir(out)):
                with open(os.path.join(out, fn), "rb") as f:
                    artifacts[fn] = f.read()
            outs.append(artifacts)
        assert outs[0] == outs[1], name
    _ok("criterion 11: stream/offline/robust/diag/eval artifacts "
        "byte-identical across repeated runs")

import math
import re

import numpy as np
import pytest

from scipy.spatial.transform import Rotation

from relpose.geom import (Pose, UnitQuaternion, quat_exp, quat_multiply,
                          quat_to_matrix, right_jacobian)
from relpose.metrics import edge_errors
from relpose.oracle import OracleConfig, generate_scene
from relpose.posegraph import (EdgeBatch, PoseEdge, compose_candidate,
                               fuse_candidates)
from relpose.refine import (_DIAG_FLOOR, RefinementProblem, _huber_weights, _sums,
                            _Workspace, _vee_trace, huber, solve)
from relpose.runner import (all_pair_edges, offline_trajectory,
                            refine_trajectory)
from conftest import angle_deg, edge_batch, random_pose, random_quat, relative_pose


def perfect_edges(poses, pairs, conf=1.0):
    edges = []
    for i, j in pairs:
        rel = relative_pose(poses[i], poses[j])
        edges.append(PoseEdge(i, j, rel.rotation, rel.translation, conf, conf))
    return edge_batch(edges)


def chain_pairs(ids):
    return list(zip(ids[:-1], ids[1:]))


def random_problem(rng, n=6, noise=0.05):
    poses = {i: random_pose(rng) for i in range(n)}
    pairs = chain_pairs(list(range(n))) + [(0, n - 1), (1, n - 2)]
    edges = []
    for i, j in pairs:
        rel = relative_pose(poses[i], poses[j])
        dq = UnitQuaternion(*quat_exp(rng.normal(scale=noise, size=3)).tolist())
        edges.append(PoseEdge(
            i, j, UnitQuaternion(*_mul(rel.rotation, dq)),
            rel.translation + rng.normal(scale=noise, size=3),
            float(rng.uniform(0.5, 3)), float(rng.uniform(0.5, 3))))
    return RefinementProblem(poses, edge_batch(edges))


def _mul(a, b):
    q = quat_multiply(a, b)
    return (q.w, q.x, q.y, q.z)


def edge_residuals(poses, edges):
    """(rotation residuals in radians, translation residuals) of each edge
    against the relative pose of its endpoints, by metrics.edge_errors:
    through quaternions and atan2, independent of refinement's
    matrix/arccos residual pass."""
    rot_deg, trans = edge_errors(edges, poses)
    return np.radians(rot_deg), trans


def oracle_scene(frames, seed=0):
    return generate_scene(OracleConfig(family="random-walk", frames=frames), seed)


def oracle_problem(frames, seed=0):
    """Fused full-context trajectory refined over all pair edges, as
    `relpose offline --refine` sets it up."""
    scene = oracle_scene(frames, seed)
    return RefinementProblem(offline_trajectory(scene), all_pair_edges(scene))


def evaluate(problem):
    """Objective and gradient at the problem's initialization."""
    ws = _Workspace(problem)
    return ws.objective_and_gradient(ws.initial_params())


def objective(problem):
    return evaluate(problem)[0]


def result_bytes(result):
    """Every field of a RefinementResult, floats and poses as raw bytes."""
    scalars = [np.float64(result.initial_objective).tobytes(),
               np.float64(result.final_objective).tobytes(), result.iterations,
               result.converged, result.stop_reason, result.evaluations]
    poses = [(fid, pose.rotation.as_array().tobytes(),
              np.asarray(pose.translation).tobytes())
             for fid, pose in sorted(result.poses.items())]
    return scalars, poses


class TestHuber:
    def test_quadratic_inside(self):
        assert huber(0.02, 0.05) == pytest.approx(0.5 * 0.02 ** 2)

    def test_linear_outside(self):
        d = 0.05
        assert huber(1.0, d) == pytest.approx(d * (1.0 - 0.5 * d))

    def test_continuous_at_knee(self):
        d = 0.1
        assert huber(d - 1e-12, d) == pytest.approx(huber(d + 1e-12, d))

    def test_slope_bounded_by_delta(self):
        d = 0.05
        g = (huber(2.0 + 1e-6, d) - huber(2.0, d)) / 1e-6
        assert g == pytest.approx(d, rel=1e-4)


def broadcast_huber_weights(c, e, delta, direction):
    """The IRLS weights c * min(1, delta / e) * (I - [e > delta] u u^T) by
    the broadcast formula w I - radial u u^T, the reference for the
    solver's in-place construction."""
    w = c * delta / np.maximum(e, delta)
    radial = np.where(e > delta, w, 0.0)
    return (w[:, None, None] * np.eye(3)
            - radial[:, None, None] * direction[:, :, None] * direction[:, None, :])


class TestHuberWeights:
    def test_bitwise_equal_to_the_broadcast_formula(self, rng):
        n, delta = 400, 0.1
        c = rng.uniform(0.1, 5.0, n)
        e = rng.uniform(0.0, 3 * delta, n)
        u = rng.normal(size=(n, 3))
        u /= np.linalg.norm(u, axis=1)[:, None]
        # the knee itself, just beyond it, a zero residual with a zero
        # direction, and axis-aligned directions beyond the knee, whose
        # zero products carry signs
        e[:6] = [delta, np.nextafter(delta, 1.0), 0.0, 2 * delta, 2 * delta, 0.5 * delta]
        u[2] = 0.0
        u[3], u[4], u[5] = [1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]
        assert (e <= delta).sum() > 50 and (e > delta).sum() > 50
        got = _huber_weights(c, e, delta, u)
        want = broadcast_huber_weights(c, e, delta, u)
        assert got.shape == want.shape == (n, 3, 3)
        assert got.tobytes() == want.tobytes()


class TestEdgeResiduals:
    def test_zero_on_consistent_edge(self, rng):
        poses = {0: random_pose(rng), 1: random_pose(rng)}
        [er], [et] = edge_residuals(poses, perfect_edges(poses, [(0, 1)]))
        assert er < 1e-10 and et < 1e-10

    def test_translation_residual_norm(self):
        poses = {0: Pose.identity(),
                 1: Pose(UnitQuaternion.identity(), np.array([1.0, 0, 0]))}
        e = PoseEdge(0, 1, UnitQuaternion.identity(),
                     np.array([1.0, 2.0, 0.0]), 1.0, 1.0)
        _, [et] = edge_residuals(poses, edge_batch([e]))
        assert et == pytest.approx(2.0)

    def test_rotation_residual_radians(self):
        poses = {0: Pose.identity(),
                 1: Pose(UnitQuaternion(*quat_exp([0, 0, 0.3]).tolist()))}
        e = PoseEdge(0, 1, UnitQuaternion.identity(), np.zeros(3), 1.0, 1.0)
        [er], _ = edge_residuals(poses, edge_batch([e]))
        assert er == pytest.approx(0.3, abs=1e-9)


class TestObjective:
    def test_zero_on_perfect_problem(self, rng):
        poses = {i: random_pose(rng) for i in range(5)}
        edges = perfect_edges(poses, chain_pairs(list(range(5))))
        assert objective(RefinementProblem(poses, edges)) < 1e-15

    def test_matches_manual_sum(self, rng):
        prob = random_problem(rng, n=5)
        total = 0.0
        for e, er, et in zip(prob.edges, *edge_residuals(prob.poses, prob.edges)):
            total += e.conf_rot * huber(er, prob.delta_rot)
            total += e.conf_trans * huber(et, prob.delta_trans)
        assert objective(prob) == pytest.approx(total, rel=1e-9)

    def test_confidence_scales_cost(self, rng):
        poses = {0: Pose.identity(),
                 1: Pose(UnitQuaternion.identity(), np.array([1.0, 0, 0]))}
        bad = np.array([1.0, 0.2, 0.0])
        e1 = PoseEdge(0, 1, UnitQuaternion.identity(), bad, 1.0, 1.0)
        e2 = PoseEdge(0, 1, UnitQuaternion.identity(), bad, 1.0, 3.0)
        c1 = objective(RefinementProblem(poses, edge_batch([e1])))
        c2 = objective(RefinementProblem(poses, edge_batch([e2])))
        assert c2 == pytest.approx(3.0 * c1)


class TestObjectivePass:
    def test_objective_is_the_linearization_value_bitwise(self, rng):
        # solve accepts a trial step by comparing objective(x + dx) with the
        # linearization's value, so the two must be the same number
        prob = random_problem(rng, n=6, noise=0.2)
        ws = _Workspace(prob)
        for scale in (0.0, 0.05, 0.5):
            x = rng.normal(scale=scale, size=ws.initial_params().shape)
            f = ws.objective(x)
            assert f == ws.objective_and_gradient(x)[0]
            assert f == ws.objective_and_gradient(x, hessian=True)[0]

    @pytest.mark.parametrize("seed", [0, 1009])
    def test_linearized_once_per_accepted_iterate(self, monkeypatch, seed):
        calls = []
        lin, obj = _Workspace.objective_and_gradient, _Workspace.objective

        def traced_lin(self, x, hessian=False):
            out = lin(self, x, hessian)
            calls.append(("lin", x.copy(), out[0]))
            return out

        def traced_obj(self, x):
            f = obj(self, x)
            calls.append(("obj", x.copy(), f))
            return f

        monkeypatch.setattr(_Workspace, "objective_and_gradient", traced_lin)
        monkeypatch.setattr(_Workspace, "objective", traced_obj)
        result = solve(oracle_problem(100, seed))

        kind, x, f = calls[0]
        assert kind == "lin" and not x.any()
        accepted = linearized = trials = 0
        k = 1
        while k < len(calls):
            kind, x, f_trial = calls[k]
            assert kind == "obj", "a trial step was linearized"
            trials += 1
            k += 1
            if f_trial > f:
                continue                                # rejected step
            accepted += 1
            f = f_trial
            if k < len(calls) and calls[k][0] == "lin":
                assert np.array_equal(calls[k][1], x) and calls[k][2] == f
                linearized += 1
                k += 1
            else:                  # an accepted step that stops at "ftol"
                assert k == len(calls) and result.stop_reason == "ftol"
                assert linearized == accepted - 1
        assert accepted == result.iterations > 1
        assert result.evaluations == 1 + trials
        assert result.final_objective == f

    @pytest.mark.parametrize("seed", [0, 1009])
    def test_one_residual_pass_per_evaluation(self, monkeypatch, seed):
        # an accepted trial step's pass is the one the next linearization
        # starts from, so no iterate's residuals are computed twice
        passes = [0]
        residuals = _Workspace._residuals

        def counted(self, x):
            passes[0] += 1
            return residuals(self, x)

        monkeypatch.setattr(_Workspace, "_residuals", counted)
        result = solve(oracle_problem(100, seed))
        assert result.iterations > 1
        assert passes[0] == result.evaluations

    def test_rejected_trial_pass_is_dropped_before_the_next_solve(self, monkeypatch):
        # the first trial step is forced to be rejected; its pass must not
        # stay alive beside H and its LU copy through the next damped solve
        problem = oracle_problem(30)
        workspaces, kept_at_solve, rejected = [], [], []
        obj, lu_solve = _Workspace.objective, np.linalg.solve

        def rejecting(self, x):
            workspaces.append(self)
            f = obj(self, x)
            if not rejected:
                rejected.append(f)
                return math.inf
            return f

        def traced_solve(a, b):
            kept_at_solve.append(workspaces[-1]._kept if workspaces else None)
            return lu_solve(a, b)

        monkeypatch.setattr(_Workspace, "objective", rejecting)
        monkeypatch.setattr(np.linalg, "solve", traced_solve)
        result = solve(problem)
        assert rejected and result.iterations > 1
        assert len(kept_at_solve) == result.evaluations - 1 > result.iterations
        assert all(kept is None for kept in kept_at_solve)

    def test_linearizing_from_the_kept_pass_is_bitwise_fresh(self, monkeypatch):
        problem = oracle_problem(40)
        ws = _Workspace(problem)
        x = np.random.default_rng(3).normal(scale=0.01, size=ws.initial_params().shape)
        y = x.copy()
        y[4] += 1e-3
        passes = [0]
        residuals = ws._residuals

        def counted(x):
            passes[0] += 1
            return residuals(x)

        monkeypatch.setattr(ws, "_residuals", counted)

        def assert_fresh(got, at):
            want = _Workspace(problem).objective_and_gradient(at, hessian=True)
            for a, b in zip(got, want):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

        f = ws.objective(x)
        got = ws.objective_and_gradient(x.copy(), hessian=True)  # x by value
        assert passes[0] == 1 and got[0] == f
        assert_fresh(got, x)
        # the kept pass is used once
        assert_fresh(ws.objective_and_gradient(x, hessian=True), x)
        assert passes[0] == 2
        # and only at its own x
        ws.objective(x)
        assert_fresh(ws.objective_and_gradient(y, hessian=True), y)
        assert passes[0] == 4

    def test_final_iterate_of_an_ftol_stop_is_not_linearized(self, monkeypatch):
        # exact poses and edges: the objective is 0.0 at x0, so the first
        # step predicts no decrease and stops the solve at "ftol"; it is
        # accepted, as the objective does not increase
        poses = {i: Pose(UnitQuaternion.identity(), np.array([i, 2.0 * i, 0.0]))
                 for i in range(4)}
        edges = perfect_edges(poses, chain_pairs(list(range(4))) + [(0, 3)])
        count = [0]
        lin = _Workspace.objective_and_gradient

        def counted(self, x, hessian=False):
            count[0] += 1
            return lin(self, x, hessian)

        monkeypatch.setattr(_Workspace, "objective_and_gradient", counted)
        result = solve(RefinementProblem(poses, edges), grad_tol=0.0)
        assert (result.stop_reason, result.iterations, result.evaluations) == (
            "ftol", 1, 2)
        assert count[0] == 1


def local_frame_gradient(ws, x):
    """The gradient as the solver computed it before world-frame increments:
    local right perturbations R = Exp(w) Exp(eps) R0, einsum products and
    np.add.at scatters."""
    prob = ws.problem
    w, t = ws.unpack(x)
    A = quat_to_matrix(quat_exp(w))
    R = A @ ws.R0
    ei, ej = ws.ei, ws.ej
    Ri, Rj = R[ei], R[ej]
    Rhat = ws.RhatT.transpose(0, 2, 1)
    d = t[ej] - t[ei]
    u = np.einsum("nji,nj->ni", Ri, d)
    r = u - ws.that
    eT = np.linalg.norm(r, axis=1)
    wT = np.where(eT <= prob.delta_trans, 1.0,
                  prob.delta_trans / np.maximum(eT, 1e-300))
    g_r = (ws.cT * wT)[:, None] * r
    E = np.einsum("nji,njk->nik", Rhat, np.einsum("nji,njk->nik", Ri, Rj))
    tr = np.trace(E, axis1=1, axis2=2)
    cos_e = np.clip((tr - 1.0) / 2.0, -1.0, 1.0)
    eR = np.arccos(cos_e)
    sin_e = np.sqrt(np.maximum(1.0 - cos_e * cos_e, 1e-300))
    ratio = np.where(eR < 1e-6, 1.0 + eR * eR / 6.0, eR / sin_e)
    g_tr = np.where(eR <= prob.delta_rot, -0.5 * ws.cR * ratio,
                    -0.5 * ws.cR * prob.delta_rot / sin_e)
    grad_t = np.zeros_like(t)
    grad_eps = np.zeros_like(w)
    Ri_gr = np.einsum("nij,nj->ni", Ri, g_r)
    np.add.at(grad_t, ej, Ri_gr)
    np.add.at(grad_t, ei, -Ri_gr)
    R0i = ws.R0[ei]
    np.add.at(grad_eps, ei, np.cross(np.einsum("nij,nj->ni", R0i, g_r),
                                     np.einsum("nij,nj->ni", R0i, u)))
    Mj = ws.R0[ej] @ np.einsum("nji,nkj->nik", Rhat, Ri) @ A[ej]
    np.add.at(grad_eps, ej, g_tr[:, None] * _vee_trace(Mj))
    Mi = (np.einsum("nji,njk->nik", A[ei], Rj)
          @ np.einsum("nji,nkj->nik", Rhat, ws.R0[ei]))
    np.add.at(grad_eps, ei, -g_tr[:, None] * _vee_trace(Mi))
    grad_w = np.einsum("nji,nj->ni", right_jacobian(w[ws.free]), grad_eps[ws.free])
    return np.concatenate([grad_w, grad_t[ws.free]], axis=1).ravel()


class TestGradient:
    def test_world_frame_gradient_matches_local_frame_formula(self, rng):
        scene = oracle_scene(40)
        ws = _Workspace(RefinementProblem(offline_trajectory(scene),
                                          all_pair_edges(scene)))
        for scale in (0.0, 0.02, 0.2):
            x = rng.normal(scale=scale, size=ws.initial_params().shape)
            g = ws.objective_and_gradient(x)[1]
            ref = local_frame_gradient(ws, x)
            assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_matches_finite_differences(self, rng):
        for _ in range(5):
            prob = random_problem(rng, n=5)
            ws = _Workspace(prob)
            x0 = ws.initial_params() + rng.normal(scale=0.02, size=ws.initial_params().shape)
            _, g = ws.objective_and_gradient(x0)
            h = 1e-6
            for idx in range(len(x0)):
                xp, xm = x0.copy(), x0.copy()
                xp[idx] += h
                xm[idx] -= h
                fd = (ws.objective_and_gradient(xp)[0]
                      - ws.objective_and_gradient(xm)[0]) / (2 * h)
                denom = max(1.0, abs(fd))
                assert abs(g[idx] - fd) / denom < 1e-5

    def test_zero_at_perfect_init(self, rng):
        poses = {i: random_pose(rng) for i in range(4)}
        edges = perfect_edges(poses, chain_pairs(list(range(4))))
        _, g = evaluate(RefinementProblem(poses, edges))
        assert np.linalg.norm(g) < 1e-8


class TestSolve:
    def test_recovers_planted_solution(self, rng):
        truth = {i: random_pose(rng) for i in range(6)}
        pairs = chain_pairs(list(range(6))) + [(0, 5), (1, 4), (2, 5)]
        edges = perfect_edges(truth, pairs)
        # perturb the initialization away from the consistent optimum
        init = {0: truth[0]}
        for i in range(1, 6):
            q = random_quat(rng)
            dq = UnitQuaternion(*quat_exp(rng.normal(scale=0.02, size=3)).tolist())
            init[i] = Pose(UnitQuaternion(*_mul(truth[i].rotation, dq)),
                           truth[i].translation + rng.normal(scale=0.05, size=3))
        result = solve(RefinementProblem(init, edges))
        assert result.final_objective < 1e-12
        for i in range(6):
            assert angle_deg(result.poses[i].rotation,
                             truth[i].rotation) * math.pi / 180 < 1e-6
            assert np.linalg.norm(result.poses[i].translation
                                  - truth[i].translation) < 1e-6

    def test_objective_never_increases(self, rng):
        for _ in range(3):
            prob = random_problem(rng)
            result = solve(prob)
            assert result.final_objective <= result.initial_objective + 1e-12

    def test_gauge_node_bitwise_fixed(self, rng):
        prob = random_problem(rng)
        gauge = min(prob.poses)
        result = solve(prob)
        after = result.poses[gauge]
        assert after.rotation == prob.poses[gauge].rotation
        assert np.array_equal(after.translation, prob.poses[gauge].translation)


class TestNormalMatrix:
    def test_is_the_hessian_at_zero_residual(self, rng):
        # with every residual zero, J^T W J is the exact Hessian; evaluate it
        # away from x = 0 so the chain through Exp(w) Jr(w) is exercised
        truth = {i: random_pose(rng) for i in range(5)}
        edges = perfect_edges(truth, chain_pairs(list(range(5))) + [(0, 3), (4, 1)],
                              conf=2.0)
        init = {i: Pose(quat_multiply(UnitQuaternion(*quat_exp(
                            rng.normal(scale=0.3, size=3)).tolist()), truth[i].rotation),
                        truth[i].translation + rng.normal(size=3))
                for i in range(5)}
        init[0] = truth[0]
        ws = _Workspace(RefinementProblem(init, edges))

        def rotation(q):
            return Rotation.from_quat([q.x, q.y, q.z, q.w])  # xyzw

        x = np.concatenate([np.concatenate([
            (rotation(truth[i].rotation) * rotation(init[i].rotation).inv()).as_rotvec(),
            truth[i].translation - init[i].translation]) for i in range(1, 5)])
        f, _, H = ws.objective_and_gradient(x, hessian=True)
        assert f < 1e-20
        h = 1e-6
        fd = np.empty_like(H)
        for k in range(len(x)):
            step = np.zeros_like(x)
            step[k] = h
            fd[:, k] = (ws.objective_and_gradient(x + step)[1]
                        - ws.objective_and_gradient(x - step)[1]) / (2 * h)
        assert np.abs(H - fd).max() < 1e-6 * np.abs(fd).max()

    def test_translation_block_is_the_huber_hessian(self, rng):
        # translation residuals are linear in the translations, so on those
        # parameters J^T W J is the exact Hessian, inside the Huber knee and
        # beyond it, where the weight keeps no curvature along the residual
        prob = random_problem(rng, n=6, noise=0.08)
        e_t = edge_residuals(prob.poses, prob.edges)[1]
        assert min(e_t) < prob.delta_trans < max(e_t)
        ws = _Workspace(prob)
        x = ws.initial_params()
        trans = np.array([6 * k + c for k in range(len(ws.free)) for c in (3, 4, 5)])
        H = ws.objective_and_gradient(x, hessian=True)[2][np.ix_(trans, trans)]
        h = 1e-6
        fd = np.empty_like(H)
        for col, k in enumerate(trans):
            step = np.zeros_like(x)
            step[k] = h
            fd[:, col] = (ws.objective_and_gradient(x + step)[1][trans]
                          - ws.objective_and_gradient(x - step)[1][trans]) / (2 * h)
        assert np.abs(H - fd).max() < 1e-6 * np.abs(fd).max()

    def test_each_linearization_refills_every_block(self):
        # H is a view of one buffer per workspace; a block the second
        # linearization left unwritten would still hold x's entries
        problem = oracle_problem(30)
        ws = _Workspace(problem)
        # steps large enough to carry every pair's translation residual
        # beyond the Huber knee, where its weight depends on the poses
        x, y = np.random.default_rng(5).normal(
            scale=0.1, size=(2,) + ws.initial_params().shape)
        H_x = ws.objective_and_gradient(x, hessian=True)[2]
        at_x = H_x.copy()
        H_y = ws.objective_and_gradient(y, hessian=True)[2]
        assert np.shares_memory(H_x, H_y)
        fresh = _Workspace(problem).objective_and_gradient(y, hessian=True)[2]
        assert H_y.tobytes() == fresh.tobytes()
        # every 3x3 block moves from x to y, so a stale one would show
        m = len(x) // 3
        moved = (at_x != fresh).reshape(m, 3, m, 3).any(axis=(1, 3))
        assert moved.all()

    @pytest.mark.parametrize("seed", [0, 1009])
    def test_damping_the_shared_buffer_in_place_is_exact(self, monkeypatch, seed):
        # solve damps H's diagonal in place and restores it; on the
        # workspace's buffer that must equal working on a private copy
        problem = oracle_problem(100, seed)
        shared = solve(problem)
        lin = _Workspace.objective_and_gradient

        def private(self, x, hessian=False):
            out = lin(self, x, hessian)
            return out[:2] + (out[2].copy(),) if hessian else out

        monkeypatch.setattr(_Workspace, "objective_and_gradient", private)
        copied = solve(problem)
        assert result_bytes(shared) == result_bytes(copied)


class TestPairSums:
    """The normal matrix's pair-indexed block sums scatter each pair's first
    edge and add its repeats after it, in edge order: bitwise the sums that
    np.bincount gives through _sums, signed zeros included."""

    @pytest.mark.parametrize("repeats", [False, True])
    def test_equal_to_bincount_sums_bitwise(self, rng, repeats):
        n = 9
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        if repeats:     # most pairs several times, some not at all
            pairs = [pairs[k] for k in rng.integers(len(pairs), size=300)]
        src, dst = np.array(pairs).T
        m = len(pairs)
        edges = EdgeBatch(src, dst, rng.normal(size=(m, 4)), rng.normal(size=(m, 3)),
                          np.ones(m), np.ones(m))
        ws = _Workspace(RefinementProblem({i: random_pose(rng) for i in range(n)}, edges))
        assert len(ws.repeats) == (m - len(set(pairs)))
        # values whose sums depend on the order they are added in
        V = rng.choice([0.0, -0.0, 1.5, -2.0, 3e-16], size=(m, 3, 3))
        got = ws._pair_sums(V)
        want = _sums(ws.ei * n + ws.ej, V, n * n).reshape(n, n, 3, 3)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestLevenbergMarquardt:
    def test_oracle_all_pair_problem_converges(self):
        result = solve(oracle_problem(30))
        assert result.stop_reason != "max_iters"
        assert result.converged
        assert 1 <= result.iterations <= 30
        assert result.evaluations >= result.iterations + 1

    @pytest.mark.parametrize("seed", [0, 1009])
    def test_stop_does_not_depend_on_edge_order(self, seed):
        # reordering the edges changes only the rounding of the objective's
        # sum, which the stop rule must not read
        problem = oracle_problem(100, seed)
        n = len(problem.edges)
        orders = [np.arange(n), np.arange(n)[::-1],
                  np.random.default_rng(7).permutation(n)]
        results = [solve(RefinementProblem(problem.poses, problem.edges.take(order)))
                   for order in orders]
        stops = {(r.stop_reason, r.iterations, r.evaluations) for r in results}
        assert len(stops) == 1 and results[0].converged
        f = results[0].final_objective
        for r in results[1:]:
            assert abs(r.final_objective - f) <= 1e-12 * f

    @pytest.mark.parametrize("frames, seed, final", [
        (30, 0, 18.861126259772142), (30, 1009, 18.623532780913678),
        (100, 0, 352.2568372374435), (100, 1009, 351.60200296731716)])
    def test_fused_start_converges_in_three_linearizations(self, frames, seed, final):
        # a fused trajectory is a good start: damping from tau = 1e-6 takes
        # the near Gauss-Newton steps at once.  final is the objective that
        # the earlier 1e-3, x0.1/x10 schedule reached in 4 iterations and 5
        # evaluations
        result = solve(oracle_problem(frames, seed))
        assert (result.stop_reason, result.iterations, result.evaluations) == ("ftol", 3, 4)
        assert abs(result.final_objective - final) <= 1e-10 * final

    def test_damping_follows_the_gain_ratio_schedule(self, monkeypatch):
        # trials 1-3 and 5 are forced to be rejected; the damping of each
        # solve is read off the damped diagonal handed to np.linalg.solve
        # against the diagonal of the latest linearization
        diags, lams, trials = [], [], [0]
        lin, obj, lu_solve = (_Workspace.objective_and_gradient,
                              _Workspace.objective, np.linalg.solve)

        def traced_lin(self, x, hessian=False):
            out = lin(self, x, hessian)
            diags.append(np.diag(out[2]).copy())
            return out

        def rejecting(self, x):
            trials[0] += 1
            f = obj(self, x)
            return math.inf if trials[0] in (1, 2, 3, 5) else f

        def traced_solve(a, b):
            lam = (np.diag(a) - diags[-1]) / np.maximum(diags[-1], _DIAG_FLOOR)
            assert np.allclose(lam, lam[0], rtol=1e-6, atol=0)
            lams.append(lam[0])
            return lu_solve(a, b)

        monkeypatch.setattr(_Workspace, "objective_and_gradient", traced_lin)
        monkeypatch.setattr(_Workspace, "objective", rejecting)
        monkeypatch.setattr(np.linalg, "solve", traced_solve)
        result = solve(oracle_problem(30))
        assert result.converged and len(lams) >= 6
        # three rejections in a row: x2, x4, x8; trial 4 is accepted, and the
        # next rejection starts again at x2
        growth = [lams[1] / lams[0], lams[2] / lams[1], lams[3] / lams[2],
                  lams[5] / lams[4]]
        assert growth == pytest.approx([2, 4, 8, 2], rel=1e-6)
        assert lams[0] == pytest.approx(1e-6, rel=1e-6)
        # the accepted step, well modelled, cuts the damping by 3
        assert lams[4] / lams[3] == pytest.approx(1 / 3, rel=1e-6)

    def test_iteration_limit_is_reported(self):
        result = solve(oracle_problem(30), max_iters=1)
        assert result.iterations == 1
        assert result.stop_reason == "max_iters"
        assert not result.converged
        assert result.final_objective < result.initial_objective

    def test_negative_iteration_limit_rejected(self, rng):
        with pytest.raises(ValueError, match="max_iters"):
            solve(random_problem(rng), max_iters=-1)

    def test_node_without_edges_is_left_unchanged(self, rng):
        prob = random_problem(rng, n=5)
        lonely = random_pose(rng)
        poses = dict(prob.poses)
        poses[9] = lonely
        result = solve(RefinementProblem(poses, prob.edges))
        assert result.converged
        assert result.final_objective < result.initial_objective
        assert result.poses[9].rotation == lonely.rotation
        assert np.array_equal(result.poses[9].translation, lonely.translation)

    def test_problem_without_edges_is_trivial(self, rng):
        poses = {0: Pose.identity(), 1: random_pose(rng)}
        result = solve(RefinementProblem(poses, edge_batch([])))
        assert result.stop_reason == "trivial"
        assert (result.iterations, result.evaluations) == (0, 0)
        assert result.poses == poses


class TestValidation:
    def test_edge_to_unknown_node(self, rng):
        poses = {0: Pose.identity(), 1: random_pose(rng)}
        e = PoseEdge(0, 7, UnitQuaternion.identity(), np.zeros(3), 1.0, 1.0)
        with pytest.raises(ValueError):
            RefinementProblem(poses, edge_batch([e]))

    @pytest.mark.parametrize("concatenated", [False, True])
    @pytest.mark.parametrize("end", ["src", "dst"])
    def test_unknown_endpoint_named(self, rng, concatenated, end):
        poses = {i: random_pose(rng) for i in range(4)}
        pairs = chain_pairs(list(range(4)))
        bad = (9, 2) if end == "src" else (2, 9)
        pairs.insert(1, bad)
        edges = perfect_edges({**poses, 9: random_pose(rng)}, pairs)
        if concatenated:
            # one-row batches joined as all_pair_edges joins batches, past
            # the constructor's checks
            edges = EdgeBatch.concat([edges.take([k]) for k in range(len(edges))])
        with pytest.raises(ValueError, match=r"edge \(%d,%d\) references" % bad):
            RefinementProblem(poses, edges)

    @pytest.mark.parametrize("bad", [1.5, True, np.float64(1.0)])
    def test_node_id_that_is_not_an_integer_named(self, rng, bad):
        # np.fromiter would truncate 1.5 to node 1 and solve against it
        poses = {bad: random_pose(rng), 2: random_pose(rng), 3: random_pose(rng)}
        edges = perfect_edges({1: poses[bad], 2: poses[2], 3: poses[3]}, [(1, 2), (2, 3)])
        message = re.escape(f"frame id must be an integer, got {bad!r}")
        with pytest.raises(ValueError, match=message):
            RefinementProblem(poses, edges)

    def test_numpy_integer_node_ids_pass(self, rng):
        poses = {np.int64(1): random_pose(rng), np.uint64(2): random_pose(rng)}
        RefinementProblem(poses, perfect_edges({1: poses[1], 2: poses[2]}, [(1, 2)]))

    def test_bad_delta(self, rng):
        poses = {0: Pose.identity(), 1: random_pose(rng)}
        with pytest.raises(ValueError):
            RefinementProblem(poses, edge_batch([]), delta_rot=0.0)

    @pytest.mark.parametrize("field", ["delta_rot", "delta_trans"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_knee_named(self, rng, field, value):
        # a NaN knee would surface only as NonFiniteObjective, and an
        # infinite one would make the IRLS weights inf / inf
        poses = {0: Pose.identity(), 1: random_pose(rng)}
        edges = perfect_edges(poses, [(0, 1)])
        with pytest.raises(ValueError, match=field + " must satisfy 0 < delta < inf"):
            RefinementProblem(poses, edges, **{field: value})


class TestEdgeBatchInput:
    def test_all_pair_edges_grouped_by_destination(self):
        scene = oracle_scene(7)
        ids = scene.frame_ids
        n = len(ids)
        edges = all_pair_edges(scene)
        assert isinstance(edges, EdgeBatch)
        assert len(edges) == n * (n - 1)
        assert edges.dst.tolist() == [j for j in ids for _ in range(n - 1)]
        assert edges.src.tolist() == [i for j in ids for i in ids if i != j]
        per_frame = EdgeBatch.concat([scene.emit_edges([i for i in ids if i != j], j)
                                      for j in ids])
        for name in EdgeBatch._COLUMNS:
            assert getattr(edges, name).tobytes() == getattr(per_frame, name).tobytes()

    def test_refine_trajectory_builds_no_pose_edge(self, monkeypatch):
        scene = oracle_scene(30)
        init = offline_trajectory(scene)

        def no_pose_edge(self):
            raise AssertionError("refinement built a PoseEdge")

        monkeypatch.setattr(PoseEdge, "__post_init__", no_pose_edge)
        result = refine_trajectory(scene, init)
        assert result.converged
        assert result.final_objective < result.initial_objective


class CountingScene:
    """Delegates to a scene and counts its emit_edges calls."""

    def __init__(self, scene):
        self._scene = scene
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._scene, name)

    def emit_edges(self, sources, dst):
        self.calls += 1
        return self._scene.emit_edges(sources, dst)


def per_frame_offline_trajectory(scene):
    """Offline fusion with one emit_edges call per fused frame."""
    ids = scene.frame_ids
    rotations = np.zeros((len(ids), 4))
    translations = np.zeros((len(ids), 3))
    traj = {ids[0]: Pose.identity()}
    rotations[0, 0] = 1.0
    for pos, j in enumerate(ids[1:], start=1):
        edges = scene.emit_edges(ids[:pos], j)
        pose = traj[j] = fuse_candidates(
            compose_candidate(rotations[:pos], translations[:pos], edges))
        rotations[pos] = pose.rotation.as_array()
        translations[pos] = pose.translation
    return traj


class TestOneEmissionPerPath:
    @pytest.mark.parametrize("seed", [0, 1009])
    def test_offline_trajectory_equals_the_per_frame_loop(self, seed):
        scene = oracle_scene(40, seed)
        got = offline_trajectory(scene)
        want = per_frame_offline_trajectory(scene)
        assert list(got) == list(want)
        for fid in want:
            assert got[fid].rotation.as_array().tobytes() == \
                want[fid].rotation.as_array().tobytes()
            assert got[fid].translation.tobytes() == want[fid].translation.tobytes()

    @pytest.mark.parametrize("path", [offline_trajectory, all_pair_edges])
    def test_one_emit_edges_call(self, path):
        scene = CountingScene(oracle_scene(12))
        path(scene)
        assert scene.calls == 1

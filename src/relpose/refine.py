"""Confidence-weighted pose-graph refinement.

Pose-only optimization over relative-pose edges: each edge contributes
c_rot * Huber(rotation residual) + c_trans * Huber(translation residual),
with the first pose held fixed.  The edges arrive as one EdgeBatch, the
same struct of arrays that the stream and offline fusion pass along, and
the workspace reads its columns directly.  Rotations are locally
parameterized by axis-angle increments composed onto the initialization;
the objective and its analytic gradient are evaluated vectorized over all
edges, with the exponential map, rotation matrices and right Jacobian from
geom's batched section.

The solve is Levenberg-Marquardt on the dense normal equations, in the
style of g2o (Kuemmerle et al., ICRA 2011): Huber enters as IRLS weights
on the per-edge residuals, each iteration assembles J^T W J over the
6(N-1) free parameters and solves the damped system with
numpy.linalg.solve, and a step is accepted only if the exact objective
does not increase.  With all-pair edges every block of J^T W J is
nonzero, so the system is dense.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geom import (Pose, UnitQuaternion, pose_relative, quat_exp,
                   quat_geodesic_deg, quat_product, quat_to_matrix,
                   right_jacobian, skew)
from .posegraph import EdgeBatch, PoseEdge, parse_edge, format_edge


class NonFiniteObjective(ValueError):
    pass


@dataclass(frozen=True)
class RefinementProblem:
    poses: dict                    # frame id -> Pose, the initialization
    edges: EdgeBatch               # a PoseEdge sequence is stacked into one
    delta_rot: float = 0.05        # Huber knee for rotation residuals, rad
    delta_trans: float = 0.1       # Huber knee for translation residuals
    fixed: int | None = None       # gauge node; defaults to the lowest id
    rot_residual: str = "geodesic"  # geodesic | chordal

    def __post_init__(self):
        if self.delta_rot <= 0 or self.delta_trans <= 0:
            raise ValueError("Huber deltas must be positive")
        edges = EdgeBatch.of(self.edges)
        object.__setattr__(self, "edges", edges)
        ids = np.fromiter(self.poses, dtype=np.int64, count=len(self.poses))
        unknown = ~np.isin(np.stack([edges.src, edges.dst]), ids).all(axis=0)
        if unknown.any():
            k = int(np.argmax(unknown))
            raise ValueError(f"edge ({edges.src[k]},{edges.dst[k]}) "
                             "references an unknown node")
        if self.fixed is None:
            object.__setattr__(self, "fixed", min(self.poses))
        elif self.fixed not in self.poses:
            raise ValueError("fixed node has no pose")
        if self.rot_residual not in ("geodesic", "chordal"):
            raise ValueError(f"unknown rot_residual {self.rot_residual!r}")


# Levenberg-Marquardt damping: each iteration solves
# (H + lam * diag(max(diag H, _DIAG_FLOOR))) dx = -g.  The floor keeps the
# system solvable when no edge constrains a parameter (an isolated node).
_LAMBDA_INIT = 1e-3
_LAMBDA_UP = 10.0      # after a rejected step
_LAMBDA_DOWN = 0.1     # after an accepted step
_LAMBDA_MIN = 1e-12
_DIAG_FLOOR = 1e-9
# Converged when an accepted step lowers the objective by at most _FTOL
# relative (the ftol L-BFGS used), or when a step is rejected although the
# model predicted a relative decrease of at most _ROUNDING: a decrease that
# small is lost in the rounding error of the objective's sum over edges.
_FTOL = 1e-15
_ROUNDING = 1e-12


@dataclass(frozen=True)
class RefinementResult:
    poses: dict
    initial_objective: float
    final_objective: float
    iterations: int        # accepted steps
    converged: bool        # stop_reason is "grad_tol" or "ftol"
    stop_reason: str       # "grad_tol" | "ftol" | "max_iters" | "trivial"
    evaluations: int       # objective-and-gradient evaluations


def huber(r, delta):
    """Huber loss: r^2/2 inside the knee, linear with matched slope outside."""
    r = np.asarray(r, dtype=float)
    out = np.where(r <= delta, 0.5 * r * r, delta * (r - 0.5 * delta))
    return out if out.ndim else float(out)


def edge_residuals(pose_i: Pose, pose_j: Pose, edge: PoseEdge):
    """(rotation residual in radians, translation residual) of one edge
    against the relative pose induced by the two node poses."""
    rel = pose_relative(pose_i, pose_j)
    e_r = math.radians(quat_geodesic_deg(rel.rotation, edge.rel_rotation))
    e_t = float(np.linalg.norm(rel.translation - edge.rel_translation))
    return e_r, e_t


def _huber_weights(c, e, delta, direction):
    """Per-edge 3x3 IRLS weights of a Huber-penalized 3-vector residual:
    c * min(1, delta / e) * I.  Beyond the knee, where the loss is linear in
    e, the weight keeps no curvature along the residual's unit direction."""
    w = c * delta / np.maximum(e, delta)
    radial = np.where(e > delta, w, 0.0)
    return (w[:, None, None] * np.eye(3)
            - radial[:, None, None] * direction[:, :, None] * direction[:, None, :])


def _vee_trace(M):
    """d tr(M Exp(eps)) / d eps at eps = 0."""
    return np.stack([M[..., 1, 2] - M[..., 2, 1],
                     M[..., 2, 0] - M[..., 0, 2],
                     M[..., 0, 1] - M[..., 1, 0]], axis=-1)


class _Workspace:
    """Flattened arrays of one refinement problem."""

    def __init__(self, problem: RefinementProblem):
        self.problem = problem
        self.ids = sorted(problem.poses)
        self.fixed_idx = self.ids.index(problem.fixed)
        self.free = np.delete(np.arange(len(self.ids)), self.fixed_idx)
        self.q0 = np.array([problem.poses[i].rotation.as_array() for i in self.ids])
        self.R0 = quat_to_matrix(self.q0)
        self.t0 = np.array([problem.poses[i].translation for i in self.ids])
        edges = problem.edges
        self.ei, self.ej = np.searchsorted(self.ids, np.stack([edges.src, edges.dst]))
        self.Rhat = quat_to_matrix(edges.rotation)
        self.that = edges.translation
        self.cR = edges.conf_rot
        self.cT = edges.conf_trans

    def initial_params(self):
        return np.zeros(6 * len(self.free))

    def unpack(self, x):
        n = len(self.ids)
        w = np.zeros((n, 3))
        t = self.t0.copy()
        per = x.reshape(len(self.free), 6)
        w[self.free] = per[:, :3]
        t[self.free] = self.t0[self.free] + per[:, 3:]
        return w, t

    def objective_and_gradient(self, x):
        prob = self.problem
        w, t = self.unpack(x)
        A = quat_to_matrix(quat_exp(w))
        R = A @ self.R0
        ei, ej = self.ei, self.ej
        Ri, Rj = R[ei], R[ej]

        # translation residual r = R_i^T (t_j - t_i) - that
        d = t[ej] - t[ei]
        u = np.einsum("nji,nj->ni", Ri, d)
        r = u - self.that
        eT = np.linalg.norm(r, axis=1)
        loss_t = self.cT * huber(eT, prob.delta_trans)
        wT = np.where(eT <= prob.delta_trans, 1.0,
                      prob.delta_trans / np.maximum(eT, 1e-300))
        g_r = (self.cT * wT)[:, None] * r           # dLoss/dr per edge

        # rotation residual from E = Rhat^T R_i^T R_j
        RiT_Rj = np.einsum("nji,njk->nik", Ri, Rj)
        E = np.einsum("nji,njk->nik", self.Rhat, RiT_Rj)
        tr = np.trace(E, axis1=1, axis2=2)
        if prob.rot_residual == "geodesic":
            cos_e = np.clip((tr - 1.0) / 2.0, -1.0, 1.0)
            eR = np.arccos(cos_e)
            sin_e = np.sqrt(np.maximum(1.0 - cos_e * cos_e, 1e-300))
            # dLoss/dtr = cR * rho'(e) * (-1 / (2 sin e)); the small-angle
            # branch uses the smooth e/sin(e) factor
            small = eR <= prob.delta_rot
            ratio = np.where(eR < 1e-6, 1.0 + eR * eR / 6.0, eR / sin_e)
            g_tr = np.where(small, -0.5 * self.cR * ratio,
                            -0.5 * self.cR * prob.delta_rot / sin_e)
            loss_r = self.cR * huber(eR, prob.delta_rot)
        else:  # chordal: ||R_rel - Rhat||_F = sqrt(6 - 2 tr E)
            eR = np.sqrt(np.maximum(6.0 - 2.0 * tr, 0.0))
            safe = np.maximum(eR, 1e-12)
            g_tr = np.where(eR <= prob.delta_rot, -self.cR,
                            -self.cR * prob.delta_rot / safe)
            loss_r = self.cR * huber(eR, prob.delta_rot)

        total = float(loss_t.sum() + loss_r.sum())
        if not np.isfinite(total):
            raise NonFiniteObjective("objective evaluated to a non-finite value")

        grad_t = np.zeros_like(t)
        grad_eps = np.zeros_like(w)
        Ri_gr = np.einsum("nij,nj->ni", Ri, g_r)
        np.add.at(grad_t, ej, Ri_gr)
        np.add.at(grad_t, ei, -Ri_gr)

        # translation residual's pull on node i's rotation
        R0i = self.R0[ei]
        R0u = np.einsum("nij,nj->ni", R0i, u)
        R0g = np.einsum("nij,nj->ni", R0i, g_r)
        np.add.at(grad_eps, ei, np.cross(R0g, R0u))

        # rotation residual's pull on both endpoint rotations
        # Mj = R0_j Rhat^T R_i^T A_j
        RhatT_RiT = np.einsum("nji,nkj->nik", self.Rhat, Ri)
        Mj = self.R0[ej] @ RhatT_RiT @ A[ej]
        np.add.at(grad_eps, ej, g_tr[:, None] * _vee_trace(Mj))
        Mi = np.einsum("nji,njk->nik", A[ei], Rj) @ np.einsum("nji,nkj->nik", self.Rhat, self.R0[ei])
        np.add.at(grad_eps, ei, -g_tr[:, None] * _vee_trace(Mi))

        # chain local right-perturbation gradients through the parameters
        Jr = right_jacobian(w[self.free])
        grad_w = np.einsum("nji,nj->ni", Jr, grad_eps[self.free])
        grad = np.concatenate([grad_w, grad_t[self.free]], axis=1).ravel()
        return total, grad

    def normal_matrix(self, x):
        """Gauss-Newton matrix J^T W J at x over the free parameters, in the
        order of x.

        Residuals are the translation R_i^T (t_j - t_i) - that and the
        rotation Log(Rhat^T R_i^T R_j), each weighted by _huber_weights
        (for chordal rotation residuals, times d(e^2/2)/d(theta^2/2) =
        2 sin(theta) / theta).  Jacobians are taken with respect to
        world-frame increments R -> Exp(phi) R: the translation residual's
        is R_i^T [[t_j - t_i]x, -I, 0, I] over (phi_i, t_i, phi_j, t_j) and
        the rotation residual's is R_j^T [-I, I] over (phi_i, phi_j), its
        inverse right Jacobian dropped (exact at zero residual).  Every
        block is then a sum over edges of rotated 3x3 weights, and the
        chain phi = Exp(w) Jr(w) dw to the parameters runs once per node.
        """
        prob = self.problem
        n = len(self.ids)
        w, t = self.unpack(x)
        A = quat_to_matrix(quat_exp(w))
        R = A @ self.R0
        ei, ej = self.ei, self.ej
        Ri, Rj = R[ei], R[ej]

        d = t[ej] - t[ei]
        r = np.einsum("nji,nj->ni", Ri, d) - self.that
        eT = np.linalg.norm(r, axis=1)
        r_world = np.einsum("nij,nj->ni", Ri, r)
        WT = _huber_weights(self.cT, eT, prob.delta_trans,
                            r_world / np.maximum(eT, prob.delta_trans)[:, None])

        E = self.Rhat.transpose(0, 2, 1) @ (Ri.transpose(0, 2, 1) @ Rj)
        tr = np.trace(E, axis1=1, axis2=2)
        theta = np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0))
        # rotation axis of E in the world frame, from vee(E - E^T) =
        # 2 sin(theta) axis; 0 where it is undefined
        axis = np.einsum("nij,nj->ni", Rj, _vee_trace(E.transpose(0, 2, 1)))
        axis /= np.maximum(np.linalg.norm(axis, axis=1), 1e-300)[:, None]
        if prob.rot_residual == "geodesic":
            WR = _huber_weights(self.cR, theta, prob.delta_rot, axis)
        else:
            eR = np.sqrt(np.maximum(6.0 - 2.0 * tr, 0.0))
            slope = 2.0 * np.sinc(theta / np.pi)     # 2 sin(theta) / theta
            WR = _huber_weights(self.cR * slope, eR, prob.delta_rot, axis)

        def blocks(index, M, count):
            """Sums of the per-edge 3x3 blocks M by index, as (count, 3, 3)."""
            idx = (index[:, None] * 9 + np.arange(9)).ravel()
            return np.bincount(idx, M.ravel(),
                               minlength=count * 9).reshape(count, 3, 3)

        pair = ei * n + ej
        k = np.arange(n)

        def laplacian(W):
            """Blocks of sum_e [-I, I]^T W_e [-I, I] on the (i, j) endpoints."""
            S = blocks(pair, W, n * n).reshape(n, n, 3, 3)
            S = S + S.transpose(1, 0, 3, 2)
            out = -S
            out[k, k] += S.sum(axis=1)
            return out

        skew_d = skew(d)
        X = -(skew_d @ WT)                    # [d]x^T W_T
        H = np.empty((n, n, 6, 6))
        H[:, :, :3, :3] = laplacian(WR)
        H[k, k, :3, :3] += blocks(ei, X @ skew_d, n)
        H[:, :, 3:, 3:] = laplacian(WT)
        Xp = blocks(pair, X, n * n).reshape(n, n, 3, 3)
        Xp[k, k] -= Xp.sum(axis=1)
        H[:, :, :3, 3:] = Xp
        H[:, :, 3:, :3] = Xp.transpose(1, 0, 3, 2)

        T = np.zeros((n, 6, 6))
        T[:, :3, :3] = A @ right_jacobian(w)
        T[:, 3:, 3:] = np.eye(3)
        H = T.transpose(0, 2, 1)[:, None] @ H @ T[None, :]
        free = self.free
        m = len(free)
        return H[np.ix_(free, free)].transpose(0, 2, 1, 3).reshape(6 * m, 6 * m)

    def to_poses(self, x):
        w, t = self.unpack(x)
        q = quat_product(quat_exp(w), self.q0)
        out = {}
        for k, fid in enumerate(self.ids):
            if k == self.fixed_idx:
                out[fid] = self.problem.poses[fid]  # gauge node, bitwise preserved
            else:
                out[fid] = Pose(UnitQuaternion(*q[k].tolist()), t[k])
        return out


def solve(problem: RefinementProblem, max_iters=100, grad_tol=1e-8) -> RefinementResult:
    """Levenberg-Marquardt on the dense normal equations (module docstring).

    Stops at "grad_tol" when the largest gradient component is below
    grad_tol, at "ftol" when the objective stops decreasing (see _FTOL),
    or at "max_iters" after max_iters accepted steps.  A problem without
    edges has nothing to refine and stops at "trivial".
    """
    if max_iters < 0:
        raise ValueError("max_iters must be non-negative")
    if not problem.edges:
        return RefinementResult(dict(problem.poses), 0.0, 0.0, 0, False,
                                "trivial", 0)
    ws = _Workspace(problem)
    x = ws.initial_params()
    f0, g = ws.objective_and_gradient(x)
    f, evaluations, iterations, lam = f0, 1, 0, _LAMBDA_INIT
    stop = None
    while True:
        if np.max(np.abs(g)) < grad_tol:
            stop = "grad_tol"
            break
        if iterations == max_iters:
            stop = "max_iters"
            break
        H = ws.normal_matrix(x)
        damping = np.maximum(np.diag(H), _DIAG_FLOOR)
        while True:
            dx = np.linalg.solve(H + np.diag(lam * damping), -g)
            f_new, g_new = ws.objective_and_gradient(x + dx)
            evaluations += 1
            if f_new <= f:
                break
            predicted = -(g @ dx) - 0.5 * (dx @ H @ dx)
            if predicted <= _ROUNDING * max(abs(f), 1.0):
                stop = "ftol"
                break
            lam *= _LAMBDA_UP
        if stop is not None:
            break
        f_old, x, f, g = f, x + dx, f_new, g_new
        iterations += 1
        lam = max(lam * _LAMBDA_DOWN, _LAMBDA_MIN)
        if f_old - f <= _FTOL * max(abs(f_old), abs(f), 1.0):
            stop = "ftol"
            break
    return RefinementResult(ws.to_poses(x), f0, f, iterations,
                            stop in ("grad_tol", "ftol"), stop, evaluations)


# --- problem dump/load: node-pose block plus the edge text format ---

def dump_problem(problem: RefinementProblem, path):
    with open(path, "w") as f:
        f.write(f"# deltas {problem.delta_rot!r} {problem.delta_trans!r} "
                f"fixed {problem.fixed} rot {problem.rot_residual}\n")
        f.write("nodes\n")
        for fid in sorted(problem.poses):
            p = problem.poses[fid]
            q, t = p.rotation, p.translation
            vals = (q.w, q.x, q.y, q.z, t[0], t[1], t[2])
            f.write(" ".join([str(fid)] + [repr(float(v)) for v in vals])
                    + "\n")
        f.write("edges\n")
        for e in problem.edges:
            f.write(format_edge(e) + "\n")


def load_problem(path) -> RefinementProblem:
    poses = {}
    edges = []
    delta_rot, delta_trans, fixed = 0.05, 0.1, None
    rot_residual = "geodesic"
    section = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line.split()
                if "deltas" in parts:
                    k = parts.index("deltas")
                    delta_rot, delta_trans = float(parts[k + 1]), float(parts[k + 2])
                if "fixed" in parts:
                    fixed = int(parts[parts.index("fixed") + 1])
                if "rot" in parts:
                    rot_residual = parts[parts.index("rot") + 1]
                continue
            if line in ("nodes", "edges"):
                section = line
                continue
            if section == "nodes":
                parts = line.split()
                if len(parts) != 8:
                    raise ValueError("expected 8 fields per node line, "
                                     f"got {len(parts)}")
                fid = int(parts[0])
                qw, qx, qy, qz, tx, ty, tz = (float(v) for v in parts[1:])
                if not all(map(math.isfinite, (qw, qx, qy, qz, tx, ty, tz))):
                    raise ValueError("non-finite rotation or translation in node line")
                poses[fid] = Pose(UnitQuaternion(qw, qx, qy, qz),
                                  np.array([tx, ty, tz]))
            elif section == "edges":
                edges.append(parse_edge(line))
    return RefinementProblem(poses, edges, delta_rot, delta_trans,
                             fixed, rot_residual)

"""Confidence-weighted pose-graph refinement.

Pose-only optimization over relative-pose edges: each edge contributes
c_rot * Huber(geodesic rotation residual) + c_trans * Huber(translation
residual), with the pose of the lowest frame id held fixed as the gauge.
The edges arrive as one EdgeBatch, the same struct of arrays that the
stream and offline fusion pass along, and the workspace reads its columns
directly.  Rotations are locally parameterized by axis-angle increments
composed onto the initialization.  One residual pass, vectorized over all
edges with geom's batched exponential map, rotation matrices and right
Jacobian, gives the objective.

The solve is Levenberg-Marquardt on the dense normal equations, in the
style of g2o (Kuemmerle et al., ICRA 2011): Huber enters as IRLS weights
on the per-edge residuals, and each accepted iterate is linearized once.
That linearization reuses the residual pass's per-edge arrays for the
exact gradient and for J^T W J over the 6(N-1) free parameters, both
derived in world-frame increments R -> Exp(phi) R (Sola et al., "A micro
Lie theory for state estimation in robotics", 2018) and chained to the
parameters once per node.  The normal matrix is allocated once per
solve and refilled in place by each linearization.  The damped system is
solved with numpy.linalg.solve, and a trial step costs one residual
pass: it is taken only if the objective does not increase, and then the
next linearization starts from that same pass, so no iterate's residuals
are computed twice.  The solve stops when the model predicts a step's
decrease to be at most 1e-10 relative (the gain test of Madsen, Nielsen
& Tingleff, 2004), read from g and H, not from two rounded objectives.
With all-pair edges every block of J^T W J is nonzero, so the system is
dense.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geom import (Pose, UnitQuaternion, quat_exp, quat_product, quat_to_matrix,
                   right_jacobian, skew)
from .posegraph import EdgeBatch, as_frame_id, as_int


class NonFiniteObjective(ValueError):
    pass


@dataclass(frozen=True)
class RefinementProblem:
    poses: dict                    # frame id -> Pose, the initialization
    edges: EdgeBatch
    delta_rot: float = 0.05        # Huber knee for rotation residuals, rad
    delta_trans: float = 0.1       # Huber knee for translation residuals

    def __post_init__(self):
        for name in ("delta_rot", "delta_trans"):
            delta = getattr(self, name)
            if not 0 < delta < math.inf:
                raise ValueError(f"{name} must satisfy 0 < delta < inf, got {delta}")
        ids = np.fromiter(map(as_frame_id, self.poses), dtype=np.int64,
                          count=len(self.poses))
        unknown = ~np.isin(np.stack([self.edges.src, self.edges.dst]), ids).all(axis=0)
        if unknown.any():
            k = int(np.argmax(unknown))
            raise ValueError(f"edge ({self.edges.src[k]},{self.edges.dst[k]}) "
                             "references an unknown node")


# Levenberg-Marquardt damping: each iteration solves
# (H + lam * diag(max(diag H, _DIAG_FLOOR))) dx = -g.  The floor keeps the
# system solvable when no edge constrains a parameter (an isolated node).
# lam follows Madsen, Nielsen & Tingleff (2004, section 3.2) and Nielsen
# ("Damping parameter in Marquardt's method", 1999).  It starts at tau =
# 1e-6, theirs for an x0 that is a good approximation, as a fused one is.
# An accepted step scales it by max(1/3, 1 - (2 rho - 1)^3), rho = actual
# / predicted decrease (1/3 when the model holds, so f's rounding does not
# enter), and sets nu = 2; a rejected one scales it by nu, then nu *= 2.
_LAMBDA_INIT = 1e-6
_LAMBDA_MIN = 1e-12
_DIAG_FLOOR = 1e-9
# Converged when a trial step's predicted decrease is at most _RTOL
# relative: unlike an actual decrease, it is not lost in rounding.
_RTOL = 1e-10


@dataclass(frozen=True)
class RefinementResult:
    poses: dict
    initial_objective: float
    final_objective: float
    iterations: int        # steps taken and the ftol trial, taken or not
    stop_reason: str       # "grad_tol" | "ftol" | "max_iters" | "trivial";
                           # "ftol": a step's predicted decrease <= _RTOL
    evaluations: int       # objective evaluations: x0 and every trial step

    @property
    def converged(self) -> bool:
        return self.stop_reason in ("grad_tol", "ftol")


def huber(r, delta):
    """Huber loss: r^2/2 inside the knee, linear with matched slope outside."""
    r = np.asarray(r, dtype=float)
    out = np.where(r <= delta, 0.5 * r * r, delta * (r - 0.5 * delta))
    return out if out.ndim else float(out)


def _huber_weights(c, e, delta, direction):
    """Per-edge 3x3 IRLS weights of a Huber-penalized 3-vector residual:
    c * min(1, delta / e) * I.  Beyond the knee, where the loss is linear in
    e, the weight keeps no curvature along the residual's unit direction."""
    w = c * delta / np.maximum(e, delta)
    radial = np.where(e > delta, w, 0.0)
    # w I - radial u u^T without broadcast temporaries: the outer product in
    # the same multiplication order, subtracted from zero in place (so that
    # zero entries keep the sign 0.0 - p gives them), then w added on the
    # diagonal.  Every entry rounds as in the broadcast formula.
    W = (radial[:, None] * direction)[:, :, None] * direction[:, None, :]
    np.subtract(0.0, W, out=W)
    W.reshape(-1, 9)[:, ::4] += w[:, None]
    return W


def _vee_trace(M):
    """d tr(M Exp(eps)) / d eps at eps = 0."""
    return np.stack([M[..., 1, 2] - M[..., 2, 1],
                     M[..., 2, 0] - M[..., 0, 2],
                     M[..., 0, 1] - M[..., 1, 0]], axis=-1)


def _sums(index, V, count):
    """Sums of the per-edge rows of V by index, as (count, *V.shape[1:])."""
    size = V[0].size
    idx = (index[:, None] * size + np.arange(size)).ravel()
    return np.bincount(idx, V.ravel(), minlength=count * size).reshape(
        (count,) + V.shape[1:])


class _Workspace:
    """Flattened arrays of one refinement problem."""

    def __init__(self, problem: RefinementProblem):
        self.problem = problem
        self.ids = sorted(problem.poses)
        # row 0, the lowest id, is the gauge, so x holds entries 6 onwards
        # of the per-node (phi, t) layout
        self.free = np.arange(1, len(self.ids))
        self.q0 = np.array([problem.poses[i].rotation.as_array() for i in self.ids])
        self.R0 = quat_to_matrix(self.q0)
        self.t0 = np.array([problem.poses[i].translation for i in self.ids])
        edges = problem.edges
        self.ei, self.ej = np.searchsorted(self.ids, np.stack([edges.src, edges.dst]))
        # pair keys for the block sums of H: the first edge of each pair is
        # scattered, a repeat (none in an all-pair set) added after it
        n = len(self.ids)
        self.pair = self.ei * n + self.ej
        order = np.argsort(self.pair, kind="stable")
        keys = self.pair[order]
        first = np.ones(len(keys), dtype=bool)
        first[order[1:]] = keys[1:] != keys[:-1]
        self.repeats = np.flatnonzero(~first)
        self.firsts = np.flatnonzero(first) if len(self.repeats) else slice(None)
        self.RhatT = quat_to_matrix(edges.rotation).transpose(0, 2, 1).copy()
        self.that = edges.translation
        self.cR = edges.conf_rot
        self.cT = edges.conf_trans
        # (x, _residuals(x)) of the latest objective call, until the next
        # pass, until objective_and_gradient(x) takes it or until the step
        # is rejected (drop_pass)
        self._kept = None
        # the (n, 6, n, 6) normal matrix, allocated by the first hessian=True
        # call and refilled, every block, by each later one
        self._H = None

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

    def _pair_sums(self, V):
        """Sums of the per-edge rows of V by (ei, ej) pair, as (n, n,
        *V.shape[1:]): the bits of _sums over the pair keys, as bincount
        adds onto 0.0 in edge order, without its n_edges * size index."""
        n = len(self.ids)
        out = np.zeros((n * n,) + V.shape[1:])
        out[self.pair[self.firsts]] = V[self.firsts]
        out += 0.0      # 0.0 + v: a -0.0 sum reads +0.0, as in bincount
        np.add.at(out, self.pair[self.repeats], V[self.repeats])
        return out.reshape((n, n) + V.shape[1:])

    def _residuals(self, x):
        """One pass over the edges at x: the objective and the per-edge
        arrays the linearization reuses.  Matrix-vector products use einsum,
        which measures faster than matmul on (n, 3) stacks."""
        prob = self.problem
        w, t = self.unpack(x)
        A = quat_to_matrix(quat_exp(w))
        R = A @ self.R0
        # np.take gathers rows about twice as fast as fancy indexing
        Ri, Rj = np.take(R, self.ei, axis=0), np.take(R, self.ej, axis=0)
        # E before d and r, so that its product's temporary, the pass's
        # peak, is not alive beside them
        E = self.RhatT @ (Ri.transpose(0, 2, 1) @ Rj)
        tr = np.trace(E, axis1=1, axis2=2)
        eR = np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0))
        d = np.take(t, self.ej, axis=0) - np.take(t, self.ei, axis=0)
        r = np.einsum("nji,nj->ni", Ri, d) - self.that   # R_i^T d - that
        eT = np.linalg.norm(r, axis=1)
        total = float((self.cT * huber(eT, prob.delta_trans)).sum()
                      + (self.cR * huber(eR, prob.delta_rot)).sum())
        if not np.isfinite(total):
            raise NonFiniteObjective("objective evaluated to a non-finite value")
        return total, (w, A, Ri, Rj, d, r, eT, E, tr, eR)

    def objective(self, x):
        """The objective at x.  Its residual pass is kept, in one slot, for
        objective_and_gradient(x) to linearize from: an accepted trial step
        costs one pass, not two."""
        self._kept = None       # at most one pass is alive
        out = self._residuals(x)
        self._kept = (x.copy(), out)
        return out[0]

    def drop_pass(self):
        """Empty the slot: a rejected trial's pass is never linearized from,
        so it is not kept alive through the next damped solve."""
        self._kept = None

    def _pass(self, x):
        """_residuals(x), taken from the slot if objective(x) was the latest
        pass, else computed; either way the slot is emptied."""
        kept, self._kept = self._kept, None
        if kept is not None and np.array_equal(kept[0], x):
            return kept[1]
        del kept
        return self._residuals(x)

    def objective_and_gradient(self, x, hessian=False):
        """(f, g) at x, or (f, g, H) with H the Gauss-Newton matrix J^T W J,
        all over the free parameters in the order of x.

        Derivatives are taken with respect to world-frame increments
        R -> Exp(phi) R.  The translation residual R_i^T (t_j - t_i) - that
        has Jacobian R_i^T [[t_j - t_i]x, -I, 0, I] over (phi_i, t_i, phi_j,
        t_j), and tr E moves by (R_j vee_trace(E)) . (phi_j - phi_i).  For H
        the rotation residual Log(Rhat^T R_i^T R_j) has Jacobian
        R_j^T [-I, I] over (phi_i, phi_j), its inverse right Jacobian
        dropped (exact at zero residual), and each residual is weighted by
        _huber_weights.  Every block of H is then a sum over edges of
        rotated 3x3 weights.  g and H chain to the parameters once per node,
        through phi = Q dw with Q = Exp(w) Jr(w).  H is a view of the
        workspace's buffer, valid until the next hessian=True call refills it.
        """
        prob = self.problem
        n = len(self.ids)
        ei, ej = self.ei, self.ej
        f, (w, A, Ri, Rj, d, r, eT, E, tr, eR) = self._pass(x)

        # each 3x3 stack is freed once read, and before the next is built
        r_world = np.einsum("nij,nj->ni", Ri, r)
        del Ri, r
        # the residual's rotation axis in the world frame, scaled by
        # 2 sin(theta): R_j vee_trace(E)
        axis = np.einsum("nij,nj->ni", Rj, _vee_trace(E))
        del Rj, E
        wT = self.cT * prob.delta_trans / np.maximum(eT, prob.delta_trans)
        g_t = wT[:, None] * r_world                  # R_i dLoss/dr per edge
        cos_e = np.clip((tr - 1.0) / 2.0, -1.0, 1.0)
        # dLoss/dtr = cR * rho'(e) * (-1 / (2 sin e)); the small-angle
        # branch uses the smooth e/sin(e) factor
        sin_e = np.sqrt(np.maximum(1.0 - cos_e * cos_e, 1e-300))
        ratio = np.where(eR < 1e-6, 1.0 + eR * eR / 6.0, eR / sin_e)
        g_tr = np.where(eR <= prob.delta_rot, -0.5 * self.cR * ratio,
                        -0.5 * self.cR * prob.delta_rot / sin_e)
        g_rot = g_tr[:, None] * axis
        g = (_sums(ej, np.concatenate([g_rot, g_t], axis=1), n)
             + _sums(ei, np.concatenate([np.cross(g_t, d) - g_rot, -g_t], axis=1), n))
        del g_t, g_rot, wT, cos_e, sin_e, ratio, g_tr, tr
        Q = A @ right_jacobian(w)
        g[:, :3] = np.einsum("nji,nj->ni", Q, g[:, :3])
        g = g.ravel()[6:]
        if not hessian:
            return f, g

        WT = _huber_weights(self.cT, eT, prob.delta_trans,
                            r_world / np.maximum(eT, prob.delta_trans)[:, None])
        del r_world
        axis /= np.maximum(np.linalg.norm(axis, axis=1), 1e-300)[:, None]
        WR = _huber_weights(self.cR, eR, prob.delta_rot, axis)
        del axis, eT, eR

        k = np.arange(n)

        def laplacian(W):
            """Blocks of sum_e [-I, I]^T W_e [-I, I] on the (i, j) endpoints."""
            S = self._pair_sums(W)
            S = S + S.transpose(1, 0, 3, 2)
            out = -S
            out[k, k] += S.sum(axis=1)
            return out.transpose(0, 2, 1, 3)

        # H[i, :, j, :] is the 6x6 block of nodes i and j over (phi, t)
        if self._H is None:
            self._H = np.empty((n, 6, n, 6))
        H = self._H
        H[:, :3, :, :3] = laplacian(WR)
        H[:, 3:, :, 3:] = laplacian(WT)
        skew_d = skew(d)
        X = -(skew_d @ WT)                    # [d]x^T W_T
        del WR, WT
        H[k, :3, k, :3] += _sums(ei, X @ skew_d, n)
        Xp = self._pair_sums(X)
        del X, skew_d
        Xp[k, k] -= Xp.sum(axis=1)
        H[:, :3, :, 3:] = Xp.transpose(0, 2, 1, 3)
        H[:, 3:, :, :3] = Xp.transpose(1, 3, 0, 2)
        del Xp

        # D^T H D with D = diag(Q_k, I): rotate the rotation rows, then columns
        rows = H.reshape(n, 6, 6 * n)
        rows[:, :3] = Q.transpose(0, 2, 1) @ rows[:, :3]
        cols = H.reshape(6 * n, n, 6)
        cols[:, :, :3] = (cols[:, :, :3].transpose(1, 0, 2) @ Q).transpose(1, 0, 2)
        return f, g, H.reshape(6 * n, 6 * n)[6:, 6:]

    def to_poses(self, x):
        w, t = self.unpack(x)
        q = quat_product(quat_exp(w), self.q0)
        out = {}
        for k, fid in enumerate(self.ids):
            if k == 0:
                out[fid] = self.problem.poses[fid]  # gauge node, bitwise preserved
            else:
                out[fid] = Pose(UnitQuaternion(*q[k].tolist()), t[k])
        return out


def solve(problem: RefinementProblem, max_iters=100, grad_tol=1e-8) -> RefinementResult:
    """Levenberg-Marquardt on the dense normal equations (module docstring).

    Stops at "grad_tol" when max|g| is below grad_tol (absolute), at
    "ftol" when a trial step's predicted decrease -g.dx - dx.H.dx / 2 is
    at most _RTOL * max(|f|, 1) (the step is taken if f does not rise),
    or at "max_iters" after max_iters accepted steps; a problem without
    edges stops at "trivial".  The initialization and every accepted
    iterate that does not stop are linearized once; iterations counts the
    steps taken and the ftol trial, taken or not, and evaluations the
    objective at the initialization and at each trial step.  The
    damping follows the gain-ratio schedule above _LAMBDA_INIT.  Each
    trial step's residual pass is computed once: when the step is taken,
    the linearization at the new iterate starts from that pass; when it
    is rejected, the pass is dropped before the next damped solve.
    """
    max_iters = as_int(max_iters, "max_iters", 0)
    if not problem.edges:
        return RefinementResult(dict(problem.poses), 0.0, 0.0, 0, "trivial", 0)
    ws = _Workspace(problem)
    x = ws.initial_params()
    f0, g, H = ws.objective_and_gradient(x, hessian=True)
    f, evaluations, iterations, lam, nu = f0, 1, 0, _LAMBDA_INIT, 2.0
    stop = None
    while True:
        if np.max(np.abs(g)) < grad_tol:
            stop = "grad_tol"
            break
        if iterations == max_iters:
            stop = "max_iters"
            break
        diag = np.diag(H).copy()
        damping = np.maximum(diag, _DIAG_FLOOR)
        while stop is None:
            # damp H in place and restore its diagonal, rather than hold a
            # damped copy beside the workspace's buffer (46 MB at 400 frames)
            np.fill_diagonal(H, diag + lam * damping)
            dx = np.linalg.solve(H, -g)
            np.fill_diagonal(H, diag)
            predicted = -(g @ dx) - 0.5 * (dx @ H @ dx)
            if predicted <= _RTOL * max(abs(f), 1.0):
                stop = "ftol"
            f_new = ws.objective(x + dx)
            evaluations += 1
            iterations += f_new <= f or stop is not None  # ftol's trial counts either way
            if f_new <= f:
                if stop is None:        # then predicted > 0: rho is defined
                    rho = (f - f_new) / predicted
                    lam = max(lam * max(1 / 3, 1 - (2 * rho - 1) ** 3), _LAMBDA_MIN)
                    nu = 2.0
                x, f = x + dx, f_new
                break
            ws.drop_pass()
            lam, nu = lam * nu, 2 * nu
        if stop is not None:
            break
        _, g, H = ws.objective_and_gradient(x, hessian=True)   # refills H
    return RefinementResult(ws.to_poses(x), f0, f, iterations, stop, evaluations)

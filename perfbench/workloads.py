"""The benchmark's workloads, the frame source it hands to the runner,
and the checks on each pass's outputs.

Every workload drives the package only through its public entry points
(`oracle.generate_scene`, `runner.*`, `metrics.*`).  The runner
functions are looked up on the module at call time so that a traced
pass sees the wrappers installed by `layers.Tracer`.
"""

import bisect
import math
import os
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import reference
from relpose import io as relpose_io
from relpose import metrics, runner
from relpose import stream as relpose_stream
from relpose.config import RefineConfig, RobustConfig
from relpose.oracle import OracleConfig, generate_scene
from relpose.stream import StreamConfig

clock = time.perf_counter


class FrameSource:
    """Stands in for a scene: delegates every call to it, and records
    when each frame starts and how long each edge emission takes.

    A frame starts at the first `emit_token` of its id (mark="token") or
    at each `emit_edges` call (mark="edges", offline fusion asks for one
    frame's edges per call).  With mark="token" and a `probe`, the source
    also samples the core's speed before every `block`-th frame; the
    probe's time is recorded as a pause and left out of the frame times.
    No hook goes into the package; the runner simply receives this object
    as its scene.
    """

    def __init__(self, scene, mark=None, marks=None, probe=None, block=None):
        self._scene = scene
        self.frame_ids = scene.frame_ids
        self.mark = mark
        self.marks = [] if marks is None else marks
        self.emissions = []          # (start, seconds) of each emission
        self.pauses = []             # (start, seconds) of each probe
        self.speeds = []             # the probe's readings (core speeds)
        self.probe = probe
        self.block = block
        self.max_context = 0
        self._seen = set()

    def __getattr__(self, name):
        return getattr(self._scene, name)

    def emit_token(self, i):
        if self.mark == "token" and i not in self._seen:
            self._seen.add(i)
            if self.probe and self.marks and len(self.marks) % self.block == 0:
                t0 = clock()
                self.speeds.append(self.probe())
                self.pauses.append((t0, clock() - t0))
            self.marks.append(clock())
        return self._scene.emit_token(i)

    def emit_edges(self, sources, j):
        t0 = clock()
        if self.mark == "edges":
            self.marks.append(t0)
        edges = self._scene.emit_edges(sources, j)
        self.emissions.append((t0, clock() - t0))
        self.max_context = max(self.max_context, len(sources))
        return edges

    def emit_edge(self, i, j):
        t0 = clock()
        edge = self._scene.emit_edge(i, j)
        self.emissions.append((t0, clock() - t0))
        return edge


def _per_frame(marks, intervals, frames):
    """ms of the (start, seconds) intervals that fall in each frame."""
    out = [0.0] * frames
    for t0, seconds in intervals:
        k = bisect.bisect_right(marks, t0) - 1
        if 0 <= k < frames:
            out[k] += seconds * 1e3
    return out


def frame_latencies(marks, end, emissions, pauses=()):
    """Per-frame latency and engine time (latency minus edge emission),
    in ms, both without the pauses.  A frame runs from its mark to the
    next one; the last frame ends at `end`, when the runner call returned."""
    bounds = list(marks) + [end]
    latency = [(b - a) * 1e3 for a, b in zip(bounds, bounds[1:])]
    paused = _per_frame(marks, pauses, len(latency))
    latency = [lat - p for lat, p in zip(latency, paused)]
    oracle = _per_frame(marks, emissions, len(latency))
    return latency, [lat - o for lat, o in zip(latency, oracle)]


def pose_finite(pose):
    q = pose.rotation
    return (math.isfinite(q.w) and math.isfinite(q.x) and math.isfinite(q.y)
            and math.isfinite(q.z) and bool(np.all(np.isfinite(pose.translation))))


def check_stream(frame_ids, trajectory, events, max_context, m_max):
    """Frame ids that fail the stream checks: a non-finite pose, no
    Accepted/Rejected decision, or a context (the bank) above m_max, which
    fails every frame since the bank bound is a property of the run."""
    if max_context > m_max:
        return set(frame_ids)
    decided = {ev.frame for ev in events if ev.kind in ("Accepted", "Rejected")}
    failed = {f for f in frame_ids if f not in decided}
    failed.update(f for f, pose in trajectory.items() if not pose_finite(pose))
    return failed


def _report_exception(what):
    print(f"perfbench: {what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


@dataclass
class PassResult:
    wall_s: float                  # the timed runner calls only
    blocks: list                   # (seconds, core speed) of each fixed piece
    frames: int
    frame_ms: list                 # per-frame latency, oracle included
    engine_ms: list                # per-frame latency, oracle excluded
    attempted: int
    failed: int
    rpe_t: float                   # accuracy; nan when the pass failed
    events: list = field(default_factory=list)
    trajectory: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)   # name -> (value, unit)


def failed_pass(wall_s, frames, attempted, failed, latency=(), engine=()):
    return PassResult(wall_s, [(wall_s, math.nan)], frames, list(latency),
                      list(engine), attempted, failed, math.nan)


def blocks_between(seconds, speeds):
    """Pairs each block's seconds with the mean of the core speeds read
    just before and just after it."""
    return [(s, (a + b) / 2) for s, a, b in zip(seconds, speeds, speeds[1:])]


class StreamWorkload:
    """`runner.stream_scene` with the default StreamConfig over random-walk
    scenes, one after the other: the causal hot path.  A pass streams
    every scene; scenes differ in how the bank fills, so a run covers
    several to keep one scene's cost out of the result."""

    name = "stream-2k"
    UNIT = "interpreter"     # the kind of work the speed probe does
    SCENES = 2
    BLOCK = 50         # frames a block

    def __init__(self, seed, frames=2000):
        self.seed = seed
        self.frames = frames
        self.config = StreamConfig()

    def setup(self):
        cfg = OracleConfig(family="random-walk", frames=self.frames)
        self.scenes = [generate_scene(cfg, self.seed * self.SCENES + i)
                       for i in range(self.SCENES)]

    def run_pass(self, tracer=None, probe=reference.quiet):
        parts = [self._stream(scene, tracer, probe) for scene in self.scenes]
        wall = sum(p.wall_s for p in parts)
        return PassResult(
            wall, [b for p in parts for b in p.blocks],
            sum(p.frames for p in parts),
            [x for p in parts for x in p.frame_ms],
            [x for p in parts for x in p.engine_ms],
            sum(p.attempted for p in parts), sum(p.failed for p in parts),
            statistics.mean(p.rpe_t for p in parts),
            [ev for p in parts for ev in p.events], parts[-1].trajectory,
            {"stream_ate": (statistics.mean(p.details["ate"] for p in parts), "m"),
             "oracle_share": (sum(p.details["oracle_s"] for p in parts) / wall,
                              "ratio")})

    def _stream(self, scene, tracer, probe):
        src = FrameSource(scene, mark="token", probe=probe, block=self.BLOCK)
        src.speeds.append(probe())
        t0 = clock()
        try:
            with tracer or nullcontext():
                state, events = runner.stream_scene(src, self.config)
        except Exception:
            _report_exception("stream_scene")
            n = len(scene.frame_ids)
            result = failed_pass(clock() - t0, n, n, n)
            result.details = {"ate": math.nan, "oracle_s": math.nan}
            return result
        end = clock()
        src.speeds.append(probe())
        failed = check_stream(scene.frame_ids, state.trajectory, events,
                              src.max_context, self.config.m_max)
        latency, engine = frame_latencies(src.marks, end, src.emissions,
                                          src.pauses)
        rpe_t = ate = math.nan
        if not failed:
            truth = {f: scene.poses[f] for f in state.trajectory}
            rpe_t = metrics.rpe(state.trajectory, truth)[0]
            ate = metrics.ate(state.trajectory, truth)[0]
        seconds = [1e-3 * sum(latency[k:k + self.BLOCK])
                   for k in range(0, len(latency), self.BLOCK)]
        seconds[0] += src.marks[0] - t0
        return PassResult(
            end - t0 - sum(s for _, s in src.pauses),
            blocks_between(seconds, src.speeds), len(scene.frame_ids),
            latency, engine, len(scene.frame_ids), len(failed), rpe_t, events,
            state.trajectory,
            {"ate": ate, "oracle_s": sum(s for _, s in src.emissions)})


class OfflineWorkload:
    """`runner.offline_trajectory` (k=None) over a random-walk scene,
    then `runner.refine_trajectory` on every pair edge with the default
    RefineConfig, as `relpose offline --refine` calls it."""

    name = "offline-100"
    UNIT = "arrays"

    def __init__(self, seed, frames=100):
        self.seed = seed
        self.frames = frames
        self.refine = RefineConfig()

    def setup(self):
        cfg = OracleConfig(family="random-walk", frames=self.frames)
        self.scene = generate_scene(cfg, self.seed)

    def run_pass(self, tracer=None, probe=reference.quiet):
        scene, rc = self.scene, self.refine
        gt = scene.ground_truth()
        frames = len(scene.frame_ids)
        attempted = (frames - 1) + 1    # the fused frames and the solve
        src = FrameSource(scene, mark="edges")
        speeds = [probe()]
        t0 = clock()
        try:
            with tracer or nullcontext():
                fused = runner.offline_trajectory(src)
        except Exception:
            _report_exception("offline_trajectory")
            return failed_pass(clock() - t0, frames, attempted, attempted)
        end = clock()
        fuse_s = end - t0
        latency, engine = frame_latencies(src.marks, end, src.emissions)
        bad = sum(not pose_finite(p) for p in fused.values())
        if bad:
            return failed_pass(fuse_s, frames, attempted, bad + 1, latency, engine)

        src = FrameSource(scene)
        speeds.append(probe())
        t0 = clock()
        try:
            with tracer or nullcontext():
                result = runner.refine_trajectory(
                    src, fused, delta_rot=rc.delta_rot,
                    delta_trans=rc.delta_trans, max_iters=rc.max_iters,
                    grad_tol=rc.grad_tol)
        except Exception:
            _report_exception("refine_trajectory")
            return failed_pass(fuse_s + clock() - t0, frames, attempted, 1,
                               latency, engine)
        refine_s = clock() - t0
        speeds.append(probe())
        fuse_ate = metrics.ate(fused, gt)[0]
        refine_ate = rpe_t = math.nan
        ok = (all(pose_finite(p) for p in result.poses.values())
              and result.final_objective <= result.initial_objective)
        if ok:
            refine_ate = metrics.ate(result.poses, gt)[0]
            ok = refine_ate < fuse_ate
        if ok:
            rpe_t = metrics.rpe(result.poses, gt)[0]
        return PassResult(
            fuse_s + refine_s, blocks_between([fuse_s, refine_s], speeds),
            frames, latency, engine,
            attempted, int(not ok), rpe_t, [], result.poses,
            {"fuse_s": (fuse_s, "s"), "refine_s": (refine_s, "s"),
             "fuse_ate": (fuse_ate, "m"), "refine_ate": (refine_ate, "m"),
             "fuse_rpe_t": (metrics.rpe(fused, gt)[0], "m"),
             "refine_objective_initial": (result.initial_objective, "1"),
             "refine_objective": (result.final_objective, "1"),
             "refine_iterations": (result.iterations, "count"),
             "refine_converged": (int(result.converged), "count"),
             "refine_oracle_share": (sum(s for _, s in src.emissions) / refine_s,
                                     "ratio")})


class RobustWorkload:
    """The `relpose robust` defaults through `runner.robustness_run`, with
    trial seeds derived as in `cli.cmd_robust`; scenes are generated in
    set-up, outside the timed region."""

    name = "robust-sweep"
    UNIT = "interpreter"
    MIN_BFS = 0.9      # acceptance criterion 09, on each n_distract group

    def __init__(self, seed, frames=100, robust=None):
        self.seed = seed
        self.oracle = OracleConfig(frames=frames)
        self.robust = robust or RobustConfig()
        self.config = StreamConfig()

    def setup(self):
        rc = self.robust
        self.trials = []
        for n_distract in rc.n_distract:
            for trial in range(rc.trials):
                trial_seed = self.seed * 100003 + n_distract * 101 + trial
                self.trials.append((
                    n_distract, trial_seed,
                    generate_scene(self.oracle, trial_seed),
                    generate_scene(self.oracle, trial_seed + 50021)))

    def run_pass(self, tracer=None, probe=reference.quiet):
        rc = self.robust
        seconds, speeds = [], [probe()]   # wall time of each trial
        latency, events, rpes = [], [], []
        groups = {}                       # n_distract -> [bfs or None]
        trajectory = {}
        frames = 0
        for n_distract, trial_seed, scene, other in self.trials:
            frames += rc.n_clean + n_distract
            marks = []
            clean = FrameSource(scene, mark="token", marks=marks)
            distract = FrameSource(other, mark="token", marks=marks)
            t0 = clock()
            try:
                with tracer or nullcontext():
                    report, state, trial_events, plan = runner.robustness_run(
                        clean, distract, rc.n_clean, n_distract, trial_seed,
                        self.config, noise_mult=rc.noise_mult)
            except Exception:
                seconds.append(clock() - t0)
                speeds.append(probe())
                _report_exception("robustness_run")
                groups.setdefault(n_distract, []).append(None)
                continue
            end = clock()
            seconds.append(end - t0)
            speeds.append(probe())
            # No engine time: the noisy distractor edges come from a scene
            # that DistractorStream builds itself, out of the source's sight.
            latency += frame_latencies(marks, end, [])[0]
            events += trial_events
            trajectory = state.trajectory
            kept = [e for e in plan.entries
                    if e.kind == "clean" and e.stream_id in state.trajectory]
            est = {e.stream_id: state.trajectory[e.stream_id] for e in kept}
            ref = {e.stream_id: scene.poses[e.scene_frame] for e in kept}
            if len(est) > 1 and all(pose_finite(p) for p in est.values()):
                rpes.append(metrics.rpe(est, ref)[0])
                groups.setdefault(n_distract, []).append(report.bfs)
            else:
                groups.setdefault(n_distract, []).append(None)

        failed = 0
        details = {}
        for n_distract, bfss in groups.items():
            scored = [b for b in bfss if b is not None]
            mean = float(np.mean(scored)) if scored else math.nan
            details[f"bfs_{n_distract}"] = (mean, "1")
            if not scored or mean < self.MIN_BFS:
                failed += len(bfss)
            else:
                failed += len(bfss) - len(scored)
        all_bfs = [b for bfss in groups.values() for b in bfss if b is not None]
        details["robust_bfs"] = (float(np.mean(all_bfs)) if all_bfs else math.nan, "1")
        rpe_t = statistics.median(rpes) if rpes and not failed else math.nan
        return PassResult(sum(seconds), blocks_between(seconds, speeds),
                          frames, latency, [],
                          len(self.trials), failed, rpe_t, events, trajectory,
                          details)


WORKLOADS = {w.name: w for w in (StreamWorkload, OfflineWorkload, RobustWorkload)}


def make(name, seed):
    return WORKLOADS[name](seed)


def write_outputs(pass_result, directory):
    """Write the pass's event log and trajectory the way the CLI does."""
    relpose_stream.write_event_log(pass_result.events,
                                   os.path.join(directory, "events.jsonl"))
    relpose_io.write_tum(pass_result.trajectory,
                         os.path.join(directory, "trajectory.tum"))

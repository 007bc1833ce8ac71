"""Experiment drivers tying the oracle to the streaming and offline
aggregation machinery."""

from dataclasses import replace

import numpy as np

from . import metrics
from .geom import Pose
from .oracle import DistractorStream, make_distractor_stream
from .posegraph import as_frame_id, as_int, compose_candidate, fuse_candidates
from .refine import RefinementProblem, solve
from .stream import (StreamState, check_bridge_length, process_frame,
                     segment_reset)


def _feed(source, state, events):
    """Stream a frame source (see oracle) through state, adding the events
    to events, and yield each frame id once its frame is done.  A frame
    is its token, then its context edges in one emission: a live stream
    cannot emit into frames it has not seen."""
    for fid in source.frame_ids:
        token = source.emit_token(fid)
        ctx = state.context_ids
        edges = source.emit_edges(ctx, fid) if ctx else []
        events.extend(process_frame(state, token, edges))
        yield fid


def stream_scene(scene, config, forced_reset_at=None, bridge_len=5):
    """Run one causal streaming pass over a synthetic scene.

    Returns (state, events).  Resets fire when the state machine requests
    one (or unconditionally after frame forced_reset_at), re-anchored on a
    bridge of the bridge_len (3 to 10) most recent accepted frames.
    """
    check_bridge_length(as_int(bridge_len, "bridge_len"))
    forced_reset_at = None if forced_reset_at is None else as_frame_id(forced_reset_at)
    state = StreamState(config)
    events = []
    for fid in _feed(scene, state, events):
        if state.reset_pending or fid == forced_reset_at:
            ids = sorted(state.trajectory)[-bridge_len:]
            if len(ids) >= 3:
                segment_reset(state, [(i, state.trajectory[i], scene.emit_token(i))
                                      for i in ids])
            state.reset_pending = False
    return state, events


def offline_trajectory(scene, k=None, uniform=False):
    """Full-context aggregation: every frame fuses candidates from all
    earlier frames.  uniform=True replaces the confidence weights with
    equal weights (ablation baseline)."""
    ids = scene.frame_ids
    rotations = np.zeros((len(ids), 4))
    translations = np.zeros((len(ids), 3))
    traj = {ids[0]: Pose.identity()}
    rotations[0, 0] = 1.0
    # every pair i < j in one emission, by j and then i: frame j (at
    # position pos) owns the pos rows that start at pos * (pos - 1) / 2
    dst, src = np.tril_indices(len(ids), -1)
    id_array = np.array(ids, dtype=np.int64)
    all_edges = scene.emit_edges(id_array[src], id_array[dst])
    for pos, j in enumerate(ids[1:], start=1):
        start = pos * (pos - 1) // 2
        edges = all_edges.take(slice(start, start + pos))
        cands = compose_candidate(rotations[:pos], translations[:pos], edges)
        if uniform:
            ones = np.ones(len(cands))
            cands = replace(cands, conf_rot=ones, conf_trans=ones)
        pose = traj[j] = fuse_candidates(cands, k=k)
        rotations[pos] = pose.rotation.as_array()
        translations[pos] = pose.translation
    return traj


def all_pair_edges(scene):
    """Every directed pair (i, j), i != j, as one EdgeBatch grouped by
    destination in frame order, sources in frame order within a group."""
    ids = np.array(scene.frame_ids, dtype=np.int64)
    dst, src = np.nonzero(~np.eye(len(ids), dtype=bool))
    return scene.emit_edges(ids[src], ids[dst])


def refine_trajectory(scene, initialization, delta_rot=0.05, delta_trans=0.1,
                      max_iters=100, grad_tol=1e-8):
    """Confidence-weighted pose-graph refinement of an aggregated
    trajectory, which must cover every frame, over the all-pair edge set."""
    problem = RefinementProblem(initialization, all_pair_edges(scene),
                                delta_rot, delta_trans)
    return solve(problem, max_iters=max_iters, grad_tol=grad_tol)


def robustness_run(scene, other, n_clean, n_distract, seed, config,
                   noise_mult=10.0):
    """Stream one interleaved distractor plan through the gate.

    Distractor rejections are transient outliers, not loss of track, so
    reset requests are ignored here.  Returns (report, state, events, plan).
    """
    plan = make_distractor_stream(scene, other, n_clean, n_distract, seed)
    source = DistractorStream(scene, other, plan, noise_mult=noise_mult)
    state = StreamState(config)
    events = []
    for _ in _feed(source, state, events):
        state.reset_pending = False
    report = metrics.robustness_score(events, plan.entries)
    return report, state, events, plan

"""Causal streaming over a synthetic scene.

Frames arrive one at a time. Each new frame is paired only against the
active context (frame 1 plus a bounded keyframe bank), its candidate
poses are fused with inverse-variance weights (proportional to the
squared confidences), and the bank admits the frame only when its token
is novel. Run it and watch the bank stay small while the trajectory
stays accurate.
"""

import numpy as np

from relpose import metrics
from relpose.oracle import OracleConfig, generate_scene
from relpose.runner import stream_scene
from relpose.stream import StreamConfig


def main():
    scene = generate_scene(OracleConfig(family="random-walk", frames=300), seed=7)
    config = StreamConfig()  # tau=0.98, m_max=100, delta_max=20

    state, events = stream_scene(scene, config)

    kinds = {}
    for ev in events:
        kinds[ev.kind] = kinds.get(ev.kind, 0) + 1
    print("event counts:", dict(sorted(kinds.items())))
    print(f"bank size at the end: {len(state.bank)} (cap {config.m_max})")
    print(f"segments: {state.segment_index + 1}")

    gt = {fid: scene.poses[fid] for fid in state.trajectory}
    report = metrics.trajectory_report(state.trajectory, gt)
    print(f"ATE-RMSE  {report.ate_rmse:.4f}")
    print(f"ATE-norm  {report.ate_norm:.2f}% of path length")
    print(f"RPE(1)    {report.rpe_t:.4f} / {report.rpe_r:.3f} deg")

    # the bank keeps representative frames, not just recent ones
    ids = np.array(state.bank.ids())
    print(f"bank frame ids span {ids.min()}..{ids.max()} "
          f"(median gap {np.median(np.diff(np.sort(ids))):.0f})")


if __name__ == "__main__":
    main()

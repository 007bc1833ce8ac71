"""Segment resets.

Long streams are cut into segments: sustained gate rejections or the
segment length cap trigger a reset, and the next segment re-anchors
through a short bridge of frames that carry absolute poses from the
previous one. Because the bridge preserves the global frame, a forced
mid-stream reset barely moves the final ATE. The oracle's translations
are metric, so no segment needs a scale of its own.
"""

from relpose import metrics
from relpose.oracle import OracleConfig, generate_scene
from relpose.runner import stream_scene
from relpose.stream import StreamConfig


def ate_of(state, scene):
    gt = {f: scene.poses[f] for f in state.trajectory}
    return metrics.ate(state.trajectory, gt)[0]


def main():
    scene = generate_scene(OracleConfig(frames=120), seed=3)

    plain, _ = stream_scene(scene, StreamConfig())
    forced, _ = stream_scene(scene, StreamConfig(), forced_reset_at=60,
                             bridge_len=5)
    a0, a1 = ate_of(plain, scene), ate_of(forced, scene)
    print(f"no reset:      ATE {a0:.4f} ({plain.segment_index + 1} segment)")
    print(f"forced reset:  ATE {a1:.4f} ({forced.segment_index + 1} segments)")
    print(f"relative change {abs(a1 - a0) / a0:.2%}")


if __name__ == "__main__":
    main()

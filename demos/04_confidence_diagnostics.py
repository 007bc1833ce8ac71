"""Are the confidences worth trusting?

Sample random pairs from a scene, bin the edges into equal-mass
confidence quantiles, and look at the mean error per bin. A useful
confidence signal gives strictly decreasing error as confidence grows;
that monotone shape is what justifies using confidences as fusion
weights, bank utilities, and gate scores.
"""

import numpy as np

from relpose import metrics
from relpose.oracle import OracleConfig, generate_scene


def main():
    scene = generate_scene(OracleConfig(frames=100), seed=1)
    rng = np.random.default_rng(1)
    ids = scene.frame_ids

    pairs = []
    while len(pairs) < 8000:
        a, b = rng.integers(0, len(ids), size=2)
        if a != b:
            pairs.append((ids[a], ids[b]))

    edges = scene.emit_pairs(pairs)
    rot_err, trans_err = metrics.edge_errors(edges, scene.poses)
    rot = np.column_stack([edges.conf_rot, rot_err])
    trans = np.column_stack([edges.conf_trans, trans_err])

    for name, samples in (("rotation (deg)", rot), ("translation", trans)):
        s = metrics.confidence_bins(samples, n_bins=5)
        print(name)
        print("  bin center   mean err   std err    n")
        for c, m, sd, n in zip(s.bin_centers, s.mean_error, s.std_error, s.counts):
            print(f"  {c:10.3f} {m:10.4f} {sd:9.4f} {n:5d}")
        mono = bool(np.all(np.diff(s.mean_error) < 0))
        print(f"  strictly decreasing: {mono}")


if __name__ == "__main__":
    main()

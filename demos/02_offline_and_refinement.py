"""Aggregation ablation and pose-graph refinement.

Offline mode fuses every frame against all earlier frames. Restricting
fusion to the top-K most confident references trades accuracy for
robustness; K=all averaging does best among the feed-forward variants,
and confidence-weighted refinement (PGO) on top of it does better still.
This mirrors the streaming engine's design choice of fusing everything
and letting the confidence weights sort it out.
"""

from relpose import metrics
from relpose.oracle import OracleConfig, generate_scene
from relpose.runner import offline_trajectory, refine_trajectory


def main():
    cfg = OracleConfig(family="random-walk", frames=40)
    variants = [("top-1", 1), ("top-5", 5), ("top-10", 10), ("all", None)]
    sums = {name: 0.0 for name, _ in variants}
    sums["all + PGO"] = 0.0
    sums["uniform weights"] = 0.0
    seeds = range(10)

    for seed in seeds:
        scene = generate_scene(cfg, seed)
        gt = scene.ground_truth()
        for name, k in variants:
            traj = offline_trajectory(scene, k=k)
            sums[name] += metrics.ate(traj, gt)[0]
            if k is None:
                result = refine_trajectory(scene, traj)
                sums["all + PGO"] += metrics.ate(result.poses, gt)[0]
        # ablation: drop the confidence weights entirely
        uni = offline_trajectory(scene, uniform=True)
        sums["uniform weights"] += metrics.ate(uni, gt)[0]

    print(f"mean ATE-RMSE over {len(list(seeds))} seeds")
    for name, total in sums.items():
        print(f"  {name:16s} {total / 10:.4f}")

    # one refinement in detail: the objective is monotone non-increasing
    scene = generate_scene(cfg, 99)
    traj = offline_trajectory(scene)
    result = refine_trajectory(scene, traj)
    print(f"refinement objective {result.initial_objective:.2f} -> "
          f"{result.final_objective:.2f} in {result.iterations} iterations")


if __name__ == "__main__":
    main()

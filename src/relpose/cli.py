"""Batch driver: reproducible streaming/offline/robustness/diagnostic runs.

Subcommands: stream, offline, robust, diag, eval.  Every run writes a
manifest recording the config hash, seed, and package version, so two
runs with identical inputs on one machine and numpy build produce
byte-identical artifacts (np.arctan2 may round unlike math.atan2).
"""

import argparse
import json
import os
import sys

import numpy as np

from . import __version__, io, metrics
from .config import (RunConfig, config_hash, load_config)
from .oracle import generate_scene
from .runner import (offline_trajectory, refine_trajectory, robustness_run,
                     stream_scene)
from .stream import write_event_log


def _write_manifest(out_dir, command, cfg: RunConfig):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump({"command": command, "config_hash": config_hash(cfg),
                   "seed": cfg.seed, "version": __version__}, f,
                  indent=2, sort_keys=True)
        f.write("\n")


def _r(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_report(out_dir, name, report: metrics.TrajectoryReport, extra=()):
    fields = [("ate_rmse", report.ate_rmse), ("ate_norm", report.ate_norm),
              ("rpe_t", report.rpe_t), ("rpe_r", report.rpe_r),
              ("rot_rmse", report.rot_rmse),
              ("frames_evaluated", report.frames_evaluated)] + list(extra)
    with open(os.path.join(out_dir, f"{name}.txt"), "w") as f:
        for key, value in fields:
            f.write(f"{key} {_r(value)}\n")
    io.write_csv(os.path.join(out_dir, f"{name}.csv"),
                 [k for k, _ in fields], [[_r(v) for _, v in fields]])


def _score(trajectory, scene, rpe_delta):
    reference = {fid: scene.poses[fid] for fid in trajectory}
    return metrics.trajectory_report(trajectory, reference,
                                     rpe_delta=rpe_delta)


def cmd_stream(cfg: RunConfig, out_dir):
    scene = generate_scene(cfg.oracle, cfg.seed)
    state, events = stream_scene(scene, cfg.stream)
    io.write_tum(state.trajectory, os.path.join(out_dir, "trajectory.tum"))
    write_event_log(events, os.path.join(out_dir, "events.jsonl"))
    report = _score(state.trajectory, scene, cfg.rpe_delta)
    _write_report(out_dir, "report", report,
                  [("bank_size", len(state.bank)),
                   ("segments", state.segment_index + 1)])
    print(f"stream: {len(state.trajectory)} poses, "
          f"ate_rmse={report.ate_rmse:.6g}")
    return 0


def cmd_offline(cfg: RunConfig, out_dir):
    scene = generate_scene(cfg.oracle, cfg.seed)
    traj = offline_trajectory(scene, k=cfg.stream.k)
    io.write_tum(traj, os.path.join(out_dir, "trajectory_pre.tum"))
    pre = _score(traj, scene, cfg.rpe_delta)
    _write_report(out_dir, "report_pre", pre)
    if cfg.refine.enabled:
        result = refine_trajectory(scene, traj,
                                   delta_rot=cfg.refine.delta_rot,
                                   delta_trans=cfg.refine.delta_trans,
                                   max_iters=cfg.refine.max_iters,
                                   grad_tol=cfg.refine.grad_tol)
        io.write_tum(result.poses, os.path.join(out_dir, "trajectory.tum"))
        post = _score(result.poses, scene, cfg.rpe_delta)
        _write_report(out_dir, "report", post,
                      [("objective_initial", result.initial_objective),
                       ("objective_final", result.final_objective),
                       ("iterations", result.iterations),
                       ("evaluations", result.evaluations),
                       ("converged", result.converged),
                       ("stop_reason", result.stop_reason)])
        print(f"offline: ate_rmse pre={pre.ate_rmse:.6g} "
              f"post={post.ate_rmse:.6g}, objective "
              f"{result.initial_objective:.6g} -> {result.final_objective:.6g}")
    else:
        io.write_tum(traj, os.path.join(out_dir, "trajectory.tum"))
        _write_report(out_dir, "report", pre)
        print(f"offline: ate_rmse={pre.ate_rmse:.6g}")
    return 0


def cmd_robust(cfg: RunConfig, out_dir):
    rows = []
    summary = []
    for n_distract in cfg.robust.n_distract:
        srs, bfss = [], []
        for trial in range(cfg.robust.trials):
            trial_seed = cfg.seed * 100003 + n_distract * 101 + trial
            scene = generate_scene(cfg.oracle, trial_seed)
            other = generate_scene(cfg.oracle, trial_seed + 50021)
            report, _, _, _ = robustness_run(
                scene, other, cfg.robust.n_clean, n_distract, trial_seed,
                cfg.stream, noise_mult=cfg.robust.noise_mult)
            srs.append(report.distractor_reject_rate)
            bfss.append(report.bfs)
            rows.append([n_distract, trial,
                         _r(report.distractor_reject_rate),
                         _r(report.clean_accept_rate), _r(report.bfs)])
        summary.append((n_distract, float(np.mean(srs)), float(np.mean(bfss))))
    io.write_csv(os.path.join(out_dir, "robust_trials.csv"),
                 ["n_distract", "trial", "sr", "clean_accept", "bfs"], rows)
    io.write_csv(os.path.join(out_dir, "robust.csv"),
                 ["n_distract", "mean_sr", "mean_bfs"],
                 [[n, _r(sr), _r(bfs)] for n, sr, bfs in summary])
    for n, sr, bfs in summary:
        print(f"robust: n_distract={n} mean_sr={sr:.4f} mean_bfs={bfs:.4f}")
    return 0


def _diag_samples(cfg: RunConfig):
    """(confidence, error) rows of random oracle edges, as one (n, 2) array
    for rotation (degrees) and one for translation."""
    scene = generate_scene(cfg.oracle, cfg.seed)
    rng = np.random.default_rng([cfg.seed, 0xD1A6])
    ids = scene.frame_ids
    pairs = []
    while len(pairs) < cfg.diag_edges:
        chunk = min(cfg.diag_edges - len(pairs), 2000)
        drawn = rng.integers(0, len(ids), size=(chunk, 2)).tolist()
        pairs += [(ids[a], ids[b]) for a, b in drawn if a != b]
    edges = scene.emit_pairs(pairs)
    rot_err, trans_err = metrics.edge_errors(edges, scene.poses)
    return (np.column_stack([edges.conf_rot, rot_err]),
            np.column_stack([edges.conf_trans, trans_err]))


def cmd_diag(cfg: RunConfig, out_dir, assert_monotone=False):
    rot_samples, trans_samples = _diag_samples(cfg)
    ok = True
    for name, samples in (("rotation", rot_samples), ("translation", trans_samples)):
        summary = metrics.confidence_bins(samples, cfg.bins)
        io.write_csv(os.path.join(out_dir, f"diag_{name}.csv"),
                     ["bin_center", "mean_error", "std_error", "count"],
                     [[_r(c), _r(m), _r(s), int(n)]
                      for c, m, s, n in zip(summary.bin_centers, summary.mean_error,
                                            summary.std_error, summary.counts)])
        monotone = bool(np.all(np.diff(summary.mean_error) < 0)) or cfg.bins == 1
        print(f"diag: {name} bins={cfg.bins} monotone={monotone}")
        ok = ok and monotone
    if assert_monotone and not ok:
        print("diag: per-bin mean error is not strictly decreasing", file=sys.stderr)
        return 1
    return 0


def cmd_eval(cfg: RunConfig, out_dir, est_path, ref_path):
    est, ref = io.read_tum(est_path), io.read_tum(ref_path)
    report = metrics.trajectory_report({k: v for k, v in est.items() if k in ref},
                                       {k: v for k, v in ref.items() if k in est},
                                       rpe_delta=cfg.rpe_delta)
    # written once both files are read and scored, so bad input writes
    # nothing; the manifest hashes rpe_delta, the one field eval reads
    _write_manifest(out_dir, "eval", RunConfig(rpe_delta=cfg.rpe_delta))
    _write_report(out_dir, "report", report)
    print(f"eval: ate_rmse={report.ate_rmse:.6g} rpe_t={report.rpe_t:.6g} "
          f"rpe_r={report.rpe_r:.6g}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="relpose")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("stream", "offline", "robust", "diag", "eval"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="YAML run config")
        p.add_argument("--out", default=None, help="output directory")
        # each subcommand takes only the overrides it reads, as an ignored
        # flag would still change the manifest's config hash
        if name != "eval":
            p.add_argument("--seed", type=int, default=None)
        if name in ("stream", "offline", "robust"):
            p.add_argument("--k", default=None,
                           help="fusion top-K, an integer or 'all'")
        if name == "offline":
            p.add_argument("--refine", action="store_true", default=None)
        if name == "diag":
            p.add_argument("--bins", type=int, default=None)
            p.add_argument("--assert-monotone", action="store_true")
        if name == "eval":
            p.add_argument("estimated", help="estimated trajectory (TUM)")
            p.add_argument("reference", help="reference trajectory (TUM)")
    return parser


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    import dataclasses
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    k = getattr(args, "k", None)
    if k is not None:
        # a k that is not an integer is left to StreamConfig, which names it
        k = None if k.lower() == "all" else int(k) if k.lstrip("-").isdecimal() else k
        cfg = dataclasses.replace(cfg, stream=dataclasses.replace(cfg.stream, k=k))
    if getattr(args, "refine", None):
        cfg = dataclasses.replace(cfg, refine=dataclasses.replace(cfg.refine,
                                                                  enabled=True))
    if getattr(args, "bins", None) is not None:
        cfg = dataclasses.replace(cfg, bins=args.bins)
    return cfg


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        cfg = _apply_overrides(cfg, args)
        out_dir = cfg.resolved_out_dir()
        if args.command == "eval":
            return cmd_eval(cfg, out_dir, args.estimated, args.reference)
        _write_manifest(out_dir, args.command, cfg)
        if args.command == "stream":
            return cmd_stream(cfg, out_dir)
        if args.command == "offline":
            return cmd_offline(cfg, out_dir)
        if args.command == "robust":
            return cmd_robust(cfg, out_dir)
        if args.command == "diag":
            return cmd_diag(cfg, out_dir, assert_monotone=args.assert_monotone)
        raise ValueError(f"unknown command {args.command!r}")
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

import contextlib
import json
import math
import os
import subprocess
import sys
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import yaml

from relpose import io
from relpose.cli import _diag_samples, main
from relpose.config import (ConfigError, OUT_ROOT_ENV, RunConfig,
                            config_from_dict, config_hash, load_config)
from relpose.geom import Pose, UnitQuaternion
from relpose.oracle import generate_scene
from conftest import angle_deg, random_pose, relative_pose


SMALL_CFG = """\
seed: 3
oracle:
  family: circle
  frames: 40
stream:
  m_max: 20
robust:
  n_clean: 12
  n_distract: [4]
  trials: 2
diag_edges: 3000
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(SMALL_CFG)
    return str(path)


def read_dir(d):
    out = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as f:
            out[name] = f.read()
    return out


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.stream.m_max == 100
        assert cfg.oracle.alpha == 0.2
        assert cfg.bins == 5

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError):
            config_from_dict({"sneed": 1})

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError):
            config_from_dict({"stream": {"tau_typo": 0.9}})

    @pytest.mark.parametrize("refine", [
        {"max_iters": -1}, {"delta_rot": 0.0}, {"delta_rot": -1.0},
        {"delta_trans": float("nan")}, {"delta_trans": float("inf")},
        {"grad_tol": -5.0}, {"grad_tol": float("nan")}])
    def test_invalid_refine_section_rejected_at_load(self, refine):
        name = next(iter(refine))
        with pytest.raises(ValueError, match=f"refine.{name}"):
            config_from_dict({"refine": refine})

    def test_refine_limits_accepted(self):
        cfg = config_from_dict({"refine": {"max_iters": 0, "grad_tol": 0.0}})
        assert (cfg.refine.max_iters, cfg.refine.grad_tol) == (0, 0.0)

    @pytest.mark.parametrize("data", [
        {"refine": {"max_iters": 2.5}}, {"refine": {"max_iters": True}},
        {"refine": {"max_iters": "ten"}}, {"refine": {"enabled": 1}},
        {"stream": {"m_max": 2.5}}, {"stream": {"k": 2.0}},
        {"stream": {"k": False}}, {"oracle": {"frames": 40.0}},
        {"oracle": {"alpha": "0.2"}}, {"robust": {"n_distract": 4}},
        {"robust": {"n_distract": [4, 2.5]}}, {"robust": {"noise_mult": True}},
        {"seed": 1.5}, {"out_dir": 3}])
    def test_value_of_the_wrong_type_rejected_at_load(self, data):
        with pytest.raises(ConfigError, match="must be"):
            config_from_dict(data)

    def test_ints_fit_float_fields_and_null_fits_k(self):
        cfg = config_from_dict({"robust": {"noise_mult": 2}, "oracle": {"alpha": 1},
                                "stream": {"k": None}})
        assert (cfg.robust.noise_mult, cfg.oracle.alpha, cfg.stream.k) == (2, 1, None)
        assert config_from_dict({"stream": {"k": 3}}).stream.k == 3

    @pytest.mark.parametrize("data", [
        {"oracle": {"frames": 1}}, {"oracle": {"step": float("nan")}},
        {"oracle": {"outlier_mult": float("inf")}},
        {"robust": {"n_clean": 2}}, {"robust": {"n_distract": [4, -1]}},
        {"robust": {"trials": 0}}, {"robust": {"noise_mult": 0}},
        {"robust": {"noise_mult": 0.5}}, {"robust": {"noise_mult": float("inf")}},
        {"oracle": {"frames": 40}, "robust": {"n_clean": 41, "n_distract": [4]}},
        {"oracle": {"frames": 40}, "robust": {"n_clean": 12, "n_distract": [4, 41]}}])
    def test_oracle_and_robust_values_checked_at_load(self, data):
        with pytest.raises(ValueError):
            config_from_dict(data)

    def test_yaml_load(self, cfg_file):
        cfg = load_config(cfg_file)
        assert cfg.seed == 3
        assert cfg.oracle.family == "circle"
        assert cfg.robust.n_distract == (4,)

    def test_hash_stable_and_sensitive(self, cfg_file):
        a = config_hash(load_config(cfg_file))
        b = config_hash(load_config(cfg_file))
        c = config_hash(RunConfig())
        assert a == b and a != c

    def test_out_root_env(self, monkeypatch):
        monkeypatch.setenv(OUT_ROOT_ENV, "/tmp/xyz")
        assert RunConfig().resolved_out_dir() == "/tmp/xyz"
        assert RunConfig(out_dir="here").resolved_out_dir() == "here"


class TestTumIo:
    def test_round_trip(self, rng, tmp_path):
        traj = {i: random_pose(rng) for i in range(1, 6)}
        path = tmp_path / "t.tum"
        io.write_tum(traj, path)
        loaded = io.read_tum(path)
        assert sorted(loaded) == sorted(traj)
        for i in traj:
            assert np.allclose(loaded[i].translation, traj[i].translation)
            assert np.allclose(loaded[i].rotation.as_array(),
                               traj[i].rotation.as_array(), atol=1e-15)

    def test_line_layout(self, tmp_path):
        traj = {7: Pose(UnitQuaternion.identity(), np.array([1.0, 2.0, 3.0]))}
        path = tmp_path / "t.tum"
        io.write_tum(traj, path)
        parts = path.read_text().split()
        # timestamp tx ty tz qx qy qz qw
        assert parts[0] == "7"
        assert [float(v) for v in parts[1:4]] == [1.0, 2.0, 3.0]
        assert float(parts[7]) == 1.0  # qw last

    def test_byte_stable(self, rng, tmp_path):
        traj = {i: random_pose(rng) for i in range(1, 4)}
        p1, p2 = tmp_path / "a.tum", tmp_path / "b.tum"
        io.write_tum(traj, p1)
        io.write_tum(io.read_tum(p1), p2)
        io.write_tum(io.read_tum(p2), p1)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("stamp", ["inf", "-inf", "nan", "1.7", "1e400"])
    def test_rejects_a_timestamp_that_is_not_a_frame_id(self, tmp_path, stamp):
        path = tmp_path / "t.tum"
        path.write_text(f"{stamp} 0 0 0 0 0 0 1\n")
        with pytest.raises(ValueError, match="timestamp"):
            io.read_tum(path)

    def test_rejects_a_repeated_frame_id(self, tmp_path):
        # 1.0 and 1 name the same frame
        path = tmp_path / "t.tum"
        path.write_text("1 0 0 0 0 0 0 1\n1.0 5 0 0 0 0 0 1\n")
        with pytest.raises(ValueError, match="frame 1 appears twice"):
            io.read_tum(path)


TUM_TOKENS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e400", "1.7", "0", "-0", "1",
                     "0.0", "1e-200", "#", "x", ""]),
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=6))


@st.composite
def pose_rows(draw):
    """(frame id, (tx, ty, tz), (w, x, y, z)) rows with distinct ids."""
    finite = st.floats(-1e6, 1e6, allow_nan=False)
    ids = draw(st.lists(st.integers(-10**9, 10**9), unique=True, max_size=8))
    rows = []
    for fid in ids:
        t = draw(st.tuples(finite, finite, finite))
        q = draw(st.tuples(finite, finite, finite, finite).filter(
            lambda q: math.sqrt(sum(v * v for v in q)) >= 1e-3))
        rows.append((fid, t, q))
    return rows


class TestTumProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(TUM_TOKENS, max_size=10).map(" ".join), max_size=6))
    def test_garbage_raises_value_error_or_reads_finite_poses(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("tum") / "t.tum"
        path.write_text("\n".join(lines) + "\n")
        try:
            trajectory = io.read_tum(path)
        except ValueError:
            return
        for pose in trajectory.values():
            assert np.isfinite(pose.translation).all()
            assert np.isfinite(pose.rotation.as_array()).all()

    @settings(max_examples=100, deadline=None)
    @given(pose_rows())
    def test_write_tum_output_round_trips_exactly(self, tmp_path_factory, rows):
        traj = {fid: Pose(UnitQuaternion(*q), np.array(t)) for fid, t, q in rows}
        path = tmp_path_factory.mktemp("tum") / "t.tum"
        io.write_tum(traj, path)
        loaded = io.read_tum(path)
        assert list(loaded) == sorted(traj)
        for fid, pose in traj.items():
            q = pose.rotation
            # the reader normalizes the written components again, as every
            # UnitQuaternion is, which may move each by about 1 ulp
            assert loaded[fid].rotation == UnitQuaternion(q.w, q.x, q.y, q.z)
            assert np.array_equal(loaded[fid].translation, pose.translation)


class TestStreamCommand:
    def test_artifacts(self, cfg_file, tmp_path):
        out = str(tmp_path / "out")
        assert main(["stream", "--config", cfg_file, "--out", out]) == 0
        names = set(os.listdir(out))
        assert {"manifest.json", "trajectory.tum", "events.jsonl",
                "report.txt", "report.csv"} <= names
        with open(os.path.join(out, "manifest.json")) as f:
            manifest = json.load(f)
        assert manifest["command"] == "stream"
        assert manifest["seed"] == 3

    def test_byte_identical_across_runs(self, cfg_file, tmp_path):
        o1, o2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["stream", "--config", cfg_file, "--out", o1])
        main(["stream", "--config", cfg_file, "--out", o2])
        assert read_dir(o1) == read_dir(o2)

    def test_seed_override_changes_output(self, cfg_file, tmp_path):
        o1, o2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["stream", "--config", cfg_file, "--out", o1])
        main(["stream", "--config", cfg_file, "--out", o2, "--seed", "9"])
        assert read_dir(o1)["trajectory.tum"] != read_dir(o2)["trajectory.tum"]


class TestOfflineCommand:
    def test_plain(self, cfg_file, tmp_path):
        out = str(tmp_path / "out")
        assert main(["offline", "--config", cfg_file, "--out", out]) == 0
        assert {"trajectory.tum", "trajectory_pre.tum",
                "report_pre.txt"} <= set(os.listdir(out))

    def test_refine_flag_adds_objective(self, cfg_file, tmp_path):
        out = str(tmp_path / "out")
        assert main(["offline", "--config", cfg_file, "--out", out,
                     "--refine"]) == 0
        text = open(os.path.join(out, "report.txt")).read()
        assert "objective_initial" in text and "objective_final" in text
        fields = dict(line.split() for line in text.splitlines())
        assert fields["stop_reason"] in ("grad_tol", "ftol", "max_iters")
        assert int(fields["evaluations"]) > int(fields["iterations"])
        assert fields["converged"] == str(int(fields["stop_reason"] != "max_iters"))

    def test_k_flag(self, cfg_file, tmp_path):
        o1 = str(tmp_path / "k1")
        o2 = str(tmp_path / "all")
        assert main(["offline", "--config", cfg_file, "--out", o1,
                     "--k", "1"]) == 0
        assert main(["offline", "--config", cfg_file, "--out", o2,
                     "--k", "all"]) == 0
        assert (read_dir(o1)["trajectory.tum"]
                != read_dir(o2)["trajectory.tum"])


class TestRobustCommand:
    def test_artifacts_and_columns(self, cfg_file, tmp_path):
        out = str(tmp_path / "out")
        assert main(["robust", "--config", cfg_file, "--out", out]) == 0
        trials = open(os.path.join(out, "robust_trials.csv")).read().splitlines()
        assert trials[0] == "n_distract,trial,sr,clean_accept,bfs"
        assert len(trials) == 1 + 2  # header + 2 trials at one level
        summary = open(os.path.join(out, "robust.csv")).read().splitlines()
        assert summary[0] == "n_distract,mean_sr,mean_bfs"


class TestDiagCommand:
    def test_artifacts(self, cfg_file, tmp_path):
        out = str(tmp_path / "out")
        assert main(["diag", "--config", cfg_file, "--out", out]) == 0
        for name in ("diag_rotation.csv", "diag_translation.csv"):
            lines = open(os.path.join(out, name)).read().splitlines()
            assert lines[0] == "bin_center,mean_error,std_error,count"
            assert len(lines) == 6  # header + 5 bins

    def test_assert_monotone_passes_on_calibrated_oracle(self, cfg_file, tmp_path):
        out = str(tmp_path / "out")
        assert main(["diag", "--config", cfg_file, "--out", out,
                     "--assert-monotone"]) == 0

    def test_grouped_samples_equal_per_edge_samples_in_order(self, cfg_file):
        # one emission and one error per edge; the confidences are the
        # same bits, and the errors agree to rounding
        cfg = load_config(cfg_file)
        scene = generate_scene(cfg.oracle, cfg.seed)
        rng = np.random.default_rng([cfg.seed, 0xD1A6])
        ids = scene.frame_ids
        rot, trans = [], []
        while len(rot) < cfg.diag_edges:
            chunk = min(cfg.diag_edges - len(rot), 2000)
            for a, b in rng.integers(0, len(ids), size=(chunk, 2)):
                if a == b:
                    continue
                i, j = ids[a], ids[b]
                edge = scene.emit_edges([i], j)[0]
                gt = relative_pose(scene.poses[i], scene.poses[j])
                rot.append((edge.conf_rot, angle_deg(edge.rel_rotation, gt.rotation)))
                trans.append((edge.conf_trans, float(np.linalg.norm(
                    edge.rel_translation - gt.translation))))
        got_rot, got_trans = _diag_samples(cfg)
        rot, trans = np.array(rot), np.array(trans)
        assert got_rot.shape == rot.shape == (cfg.diag_edges, 2)
        assert np.array_equal(got_rot[:, 0], rot[:, 0])
        assert np.allclose(got_rot[:, 1], rot[:, 1], rtol=1e-14, atol=0)
        assert np.array_equal(got_trans, trans)

    def test_bins_flag(self, cfg_file, tmp_path):
        out = str(tmp_path / "out")
        main(["diag", "--config", cfg_file, "--out", out, "--bins", "3"])
        lines = open(os.path.join(out, "diag_rotation.csv")).read().splitlines()
        assert len(lines) == 4


class TestEvalCommand:
    def test_scores_two_tum_files(self, cfg_file, tmp_path, rng):
        traj = {i: random_pose(rng) for i in range(1, 10)}
        est = {i: Pose(p.rotation, p.translation + rng.normal(scale=0.01, size=3))
               for i, p in traj.items()}
        ref_path, est_path = str(tmp_path / "ref.tum"), str(tmp_path / "est.tum")
        io.write_tum(traj, ref_path)
        io.write_tum(est, est_path)
        out = str(tmp_path / "out")
        assert main(["eval", "--config", cfg_file, "--out", out,
                     est_path, ref_path]) == 0
        text = open(os.path.join(out, "report.txt")).read()
        assert text.startswith("ate_rmse ")

    def test_self_eval_is_zero(self, cfg_file, tmp_path, rng):
        traj = {i: random_pose(rng) for i in range(1, 6)}
        p = str(tmp_path / "t.tum")
        io.write_tum(traj, p)
        out = str(tmp_path / "out")
        assert main(["eval", "--config", cfg_file, "--out", out, p, p]) == 0
        first = open(os.path.join(out, "report.txt")).read().splitlines()[0]
        assert float(first.split()[1]) < 1e-9

    def test_manifest_hashes_only_what_eval_reads(self, tmp_path, rng):
        # eval reads rpe_delta alone: config it never reads leaves its
        # manifest unchanged, and rpe_delta changes it
        p = str(tmp_path / "t.tum")
        io.write_tum({i: random_pose(rng) for i in range(1, 6)}, p)
        manifests = []
        for k, text in enumerate(["", "oracle:\n  frames: 60\n",
                                  "refine:\n  max_iters: 7\nseed: 5\n",
                                  "rpe_delta: 2\n"]):
            cfg, out = tmp_path / f"{k}.yaml", tmp_path / f"out{k}"
            cfg.write_text(text)
            assert main(["eval", "--config", str(cfg), "--out", str(out), p, p]) == 0
            manifests.append((out / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1] == manifests[2] != manifests[3]
        assert json.loads(manifests[0])["config_hash"] == config_hash(RunConfig())


class TestErrors:
    def test_missing_config_file(self, tmp_path):
        assert main(["stream", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "out")]) == 1

    def test_bad_config_key(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("oracle:\n  family: spiral\n")
        assert main(["stream", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize("k", ["0", "-1", "-2"])
    def test_non_positive_k_flag(self, cfg_file, tmp_path, capsys, k):
        out = tmp_path / "out"
        assert main(["offline", "--config", cfg_file, "--out", str(out),
                     "--k", k]) == 1
        assert capsys.readouterr().err.startswith("error: k must be")
        assert not out.exists()

    def test_non_positive_k_in_config(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("stream:\n  k: 0\n")
        assert main(["offline", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: k must be")

    @pytest.mark.parametrize("command, config, flags", [
        ("stream", "", ["--seed", "-1"]), ("diag", "", ["--bins", "0"]),
        ("stream", "rpe_delta: 0", []), ("diag", "diag_edges: 0", []),
        ("offline", "bins: -2", []), ("diag", "", ["--bins", "20000"]),
        ("diag", "diag_edges: 3\nbins: 5", [])])
    def test_invalid_top_level_value_writes_nothing(self, tmp_path, capsys,
                                                    command, config, flags):
        path = tmp_path / "run.yaml"
        path.write_text(config + "\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)] + flags) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_eval_reports_a_non_finite_timestamp(self, tmp_path, capsys):
        path = tmp_path / "t.tum"
        path.write_text("inf 0 0 0 0 0 0 1\n")
        assert main(["eval", "--out", str(tmp_path / "out"), str(path), str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: timestamp")

    def test_eval_reports_overflowing_points(self, tmp_path):
        # finite translations whose squares overflow; the alignment's SVD of
        # a non-finite covariance may never return, so the command runs in a
        # subprocess under a timeout
        path = tmp_path / "t.tum"
        path.write_text("1 1e308 0 0 0 0 0 1\n2 -1e308 0 0 0 0 0 1\n3 0 0 0 0 0 0 1\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "relpose.cli", "eval", "--out",
             str(tmp_path / "out"), str(path), str(path)],
            capture_output=True, text=True, env=env, timeout=30)
        assert done.returncode == 1
        assert done.stderr.startswith("error: ")

    def test_invalid_refine_config_writes_nothing(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("oracle:\n  frames: 20\nrefine:\n  max_iters: -1\n")
        out = tmp_path / "out"
        assert main(["offline", "--config", str(path), "--out", str(out),
                     "--refine"]) == 1
        assert capsys.readouterr().err.startswith("error: refine.max_iters")
        assert not out.exists()

    @pytest.mark.parametrize("override", [
        {"refine": {"max_iters": 2.5}}, {"refine": {"max_iters": "ten"}},
        {"stream": {"m_max": 2.5}}, {"oracle": {"frames": 1}},
        {"robust": {"noise_mult": 0}}, {"robust": {"noise_mult": -1}},
        {"robust": {"n_distract": [4, 50]}}, {"robust": {"n_clean": 2}},
        {"robust": {"trials": 0}}, {"stream": {"tau": float("nan")}},
        {"stream": {"tau_out": float("nan")}}, {"stream": {"tau_out": -1.0}},
        {"stream": {"l_max": 0}}, {"stream": {"n_cal": -3}},
        {"stream": {"n_rej": 0}}, {"stream": {"delta_max": -1}},
        {"stream": {"log_weights": True}}])
    @pytest.mark.parametrize("command", ["offline", "robust", "stream"])
    def test_invalid_value_fails_before_writing(self, tmp_path, capsys,
                                                 override, command):
        data = yaml.safe_load(SMALL_CFG)
        for section, values in override.items():
            data[section] = {**data.get(section, {}), **values}
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(data))
        out = tmp_path / "out"
        flags = ["--refine"] if command == "offline" else []
        assert main([command, "--config", str(path), "--out", str(out)]
                    + flags) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        ("stream", ["--refine"]), ("robust", ["--refine"]),
        ("stream", ["--bins", "3"]), ("offline", ["--bins", "3"]),
        ("diag", ["--k", "2"]), ("diag", ["--refine"]),
        ("eval", ["est.tum", "ref.tum", "--seed", "5"])])
    def test_flag_a_command_does_not_read_is_a_usage_error(
            self, cfg_file, tmp_path, capsys, command, flag):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg_file, "--out", str(out)] + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["seed: [1", "seed: !!python/tuple [1]",
                                      "[" * 2000 + "]" * 2000],
                             ids=["unclosed", "python-tag", "deep-nesting"])
    def test_malformed_yaml_writes_nothing(self, tmp_path, capsys, text):
        path = tmp_path / "bad.yaml"
        path.write_text(text + "\n")
        out = tmp_path / "out"
        assert main(["stream", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: malformed YAML")
        assert not out.exists()


def loads_as_empty(text):
    """Whether YAML reads the text as no config at all, which a run
    accepts (every value at its default)."""
    try:
        return yaml.safe_load(text) in (None, {})
    except Exception:
        return False


class TestConfigProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.text(st.characters(blacklist_categories=("Cs",)), max_size=80)
           | st.text(st.sampled_from(list("[]{}:,-?!&*|>'\"%@#~ \n\tab01.e")),
                     max_size=40))
    def test_garbage_exits_with_error_and_writes_nothing(self, tmp_path_factory, text):
        assume(not loads_as_empty(text))
        tmp = tmp_path_factory.mktemp("garbage")
        path, out = tmp / "run.yaml", tmp / "out"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError):
            load_config(path)
        stderr = StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["stream", "--config", str(path), "--out", str(out)])
        assert code == 1 and stderr.getvalue().startswith("error: ")
        assert not out.exists()


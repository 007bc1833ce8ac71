"""One boundary rule per kind of input: config fields, count parameters and
frame ids.  Every config class reads its fields by the YAML loader's rule,
every count parameter of a public function by the same int rule, and
every entry point that takes a frame id by as_frame_id's rule."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relpose import io, metrics
from relpose.cli import main
from relpose.config import (ConfigError, RefineConfig, RobustConfig, RunConfig,
                            config_from_dict)
from relpose.geom import Pose
from relpose.oracle import (OracleConfig, UnknownFrame, generate_scene,
                            make_distractor_stream)
from relpose.posegraph import EdgeBatch, as_frame_id
from relpose.refine import RefinementProblem
from relpose.runner import offline_trajectory, refine_trajectory, stream_scene
from relpose.stream import FrameToken, KeyframeBank, StreamConfig, StreamState, segment_reset

SECTIONS = {OracleConfig: "oracle", StreamConfig: "stream", RefineConfig: "refine",
            RobustConfig: "robust"}
# every field of every config class, so that a new field cannot skip the rule
FIELDS = [(cls, f) for cls in (*SECTIONS, RunConfig) for f in dataclasses.fields(cls)]
SMALL = OracleConfig(frames=12)

VALUES = st.one_of(
    st.integers(-3, 20), st.integers(-3, 20).map(np.int64),
    st.floats(-4, 4, width=16, allow_subnormal=False),
    st.sampled_from([math.nan, math.inf, -math.inf]), st.booleans(),
    st.sampled_from(["", "circle", "figure-eight", "spiral"]), st.none(),
    st.lists(st.integers(-3, 20), max_size=3))


def declared(value, kind):
    """Whether value has the field's declared type, as the loader keeps it:
    a plain int for an int, an int or a float for a float, a tuple of plain
    ints for a tuple."""
    if kind is float:
        return type(value) in (int, float)
    if kind == int | None:
        return value is None or type(value) is int
    if kind == tuple[int, ...]:
        return type(value) is tuple and all(type(v) is int for v in value)
    return type(value) is kind


def run(cfg: RunConfig):
    """A stream and an offline run, refinement included, of cfg's scene."""
    scene = generate_scene(cfg.oracle, cfg.seed)
    stream_scene(scene, cfg.stream)
    r = cfg.refine
    refine_trajectory(scene, offline_trajectory(scene, k=cfg.stream.k), r.delta_rot,
                      r.delta_trans, r.max_iters, r.grad_tol)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(FIELDS), VALUES)
def test_a_config_field_names_a_bad_value_or_holds_its_declared_type(field, value):
    cls, f = field
    # on a 12-frame scene; a drawn oracle.frames or RunConfig.oracle replaces it
    base = {OracleConfig: {"frames": 12}, RunConfig: {"oracle": SMALL}}.get(cls, {})
    try:
        config = cls(**{**base, f.name: value})
    except ValueError as exc:
        assert f.name in str(exc)
        return
    assert declared(getattr(config, f.name), f.type)
    run(config if cls is RunConfig else RunConfig(**{"oracle": SMALL, SECTIONS[cls]: config}))


def _valid(i):
    """as_frame_id(i), or the message of the ValueError it raises."""
    try:
        return as_frame_id(i), None
    except ValueError as exc:
        return None, str(exc)


IDS = st.one_of(
    st.integers(), st.integers(2**63 - 3, 2**63 + 3), st.integers(-2**63 - 3, -2**63 + 3),
    st.sampled_from([2**64 - 1, 2**70, -2**70]),
    st.sampled_from([np.int8, np.int64, np.uint64]).flatmap(
        lambda t: st.integers(np.iinfo(t).min, np.iinfo(t).max).map(t)),
    st.floats(), st.booleans(), st.just(np.True_), st.sampled_from(["", "1", "x"]), st.none())
POSE, TOKEN = Pose.identity(), FrameToken(1, np.ones(4))
EDGE = ([np.ones(4)], [np.zeros(3)], [1.0], [1.0])
TINY = generate_scene(OracleConfig(frames=4), 0)


def _others(i):
    """Two valid ids that differ from i."""
    return [o for o in (3, 4, 5) if o != i][:2]


def _reset(i, fid):
    # a bridge of i and two valid ids, increasing when i is a valid id
    if fid is None:
        bridge = [i, 1, 2]
    else:
        bridge = [fid - 2, fid - 1, i] if fid > 0 else [i, fid + 1, fid + 2]
    state = segment_reset(StreamState(StreamConfig()), [(k, POSE, TOKEN) for k in bridge])
    assert all(type(k) is int for k in state.trajectory)
    return next(k for k in state.trajectory if k == fid)


def _bank(i, fid):
    bank = KeyframeBank()
    bank.add(i, TOKEN, POSE, 0.0)
    return bank.ids()[0]


def _problem(i, fid):
    a, b = _others(i)
    RefinementProblem({i: POSE, a: POSE, b: POSE}, EdgeBatch([a], [b], *EDGE))
    return fid      # the problem keeps its poses as given


def _forced(i, fid):
    stream_scene(TINY, StreamConfig(), forced_reset_at=i)
    return fid


# each takes an id and returns it as the entry point keeps it
ENTRY_POINTS = {
    "FrameToken": lambda i, fid: FrameToken(i, np.ones(4)).id,
    "EdgeBatch src": lambda i, fid: EdgeBatch([i], _others(i)[:1], *EDGE).src.tolist()[0],
    "EdgeBatch dst": lambda i, fid: EdgeBatch(_others(i)[:1], i, *EDGE).dst.tolist()[0],
    "segment_reset": _reset,
    "KeyframeBank.add": _bank,
    "RefinementProblem": _problem,
    "forced_reset_at": _forced,
}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(IDS)
def test_every_entry_point_accepts_and_rejects_the_same_frame_ids(i):
    fid, message = _valid(i)
    for name, call in ENTRY_POINTS.items():
        if name == "forced_reset_at" and i is None:
            continue        # forced_reset_at=None asks for no forced reset
        if fid is None:
            with pytest.raises(ValueError) as info:
                call(i, fid)
            assert str(info.value) == message, name
        else:
            got = call(i, fid)
            assert got == fid and type(got) is int, name
    # the oracle's emission takes the scene's own ids, and names any other
    # as a plain int if it is an integer, else as given
    other = 1 if fid != 1 else 2
    for emit in (lambda: TINY.emit_edges([i], other), lambda: TINY.emit_edges([other], i)):
        if fid is not None and 1 <= fid <= 4:
            assert len(emit()) == 1
        else:
            with pytest.raises(UnknownFrame) as info:
                emit()
            got = info.value.args[0]
            assert got is i if fid is None else (got == fid and type(got) is int)

SCENE = generate_scene(SMALL, 0)
START = offline_trajectory(SCENE)


@pytest.mark.parametrize("make, name", [
    pytest.param(lambda: OracleConfig(frames=2.5), "oracle.frames", id="oracle.frames"),
    pytest.param(lambda: OracleConfig(token_dim=2.5), "oracle.token_dim", id="oracle.token_dim"),
    pytest.param(lambda: StreamConfig(k=2.5), "stream.k", id="stream.k"),
    pytest.param(lambda: StreamConfig(m_max=2.5), "stream.m_max", id="stream.m_max"),
    pytest.param(lambda: StreamConfig(n_rej=True), "stream.n_rej", id="stream.n_rej"),
    pytest.param(lambda: RefineConfig(max_iters=2.5), "refine.max_iters", id="refine.max_iters"),
    pytest.param(lambda: RobustConfig(trials=2.5), "robust.trials", id="robust.trials"),
    pytest.param(lambda: RunConfig(seed=1.5), "seed", id="seed"),
    pytest.param(lambda: RunConfig(bins=True), "bins", id="bins"),
    pytest.param(lambda: offline_trajectory(SCENE, k=True), "k", id="offline k"),
    pytest.param(lambda: refine_trajectory(SCENE, START, max_iters=1.5), "max_iters",
                 id="refine max_iters float"),
    pytest.param(lambda: refine_trajectory(SCENE, START, max_iters=True), "max_iters",
                 id="refine max_iters bool"),
    pytest.param(lambda: generate_scene(SMALL, 1.5), "seed", id="generate_scene seed"),
    pytest.param(lambda: FrameToken(2**70, np.ones(4)), "frame id", id="FrameToken"),
    pytest.param(lambda: segment_reset(StreamState(StreamConfig()), [
        (2**63 + k, Pose.identity(), FrameToken(1, np.ones(4))) for k in range(3)]),
        "frame id", id="segment_reset"),
    pytest.param(lambda: stream_scene(SCENE, StreamConfig(), bridge_len=3.5), "bridge_len",
                 id="bridge_len"),
    pytest.param(lambda: metrics.rpe(SCENE.poses, SCENE.poses, delta=True), "delta",
                 id="rpe delta bool"),
    pytest.param(lambda: metrics.rpe(SCENE.poses, SCENE.poses, delta=1.5), "delta",
                 id="rpe delta float"),
    pytest.param(lambda: metrics.confidence_bins(np.ones((10, 2)), 2.5), "n_bins",
                 id="confidence_bins"),
    pytest.param(lambda: make_distractor_stream(SCENE, generate_scene(SMALL, 1), 5.5, 3, 0),
                 "n_clean", id="n_clean"),
    pytest.param(lambda: make_distractor_stream(SCENE, generate_scene(SMALL, 1), 5, 3.5, 0),
                 "n_distract", id="n_distract"),
])
def test_a_bad_value_raises_a_value_error_naming_it_where_it_enters(make, name):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)}\b"):
        make()


@pytest.mark.parametrize("data, message", [
    ({"oracle": {"frames": 2.5}}, "oracle.frames must be int, got 2.5"),
    ({"oracle": {"token_dim": 2.5}}, "oracle.token_dim must be int, got 2.5"),
    ({"stream": {"k": 2.5}}, "stream.k must be int or null, got 2.5"),
    ({"stream": {"n_rej": True}}, "stream.n_rej must be int, got True"),
    ({"refine": {"max_iters": 2.5}}, "refine.max_iters must be int, got 2.5"),
    ({"robust": {"trials": 2.5}}, "robust.trials must be int, got 2.5"),
    ({"robust": {"n_distract": [4, 2.5]}}, "robust.n_distract must be a list of int, got [4, 2.5]"),
    ({"seed": 1.5}, "seed must be int, got 1.5"),
    ({"bins": True}, "bins must be int, got True"),
])
def test_the_loader_raises_the_config_classes_type_error_as_a_config_error(data, message):
    with pytest.raises(ConfigError) as info:
        config_from_dict(data)
    assert str(info.value) == message


def test_a_numpy_integer_is_read_as_a_plain_int_and_a_list_as_a_tuple():
    cfg = RunConfig(seed=np.int64(3), robust=RobustConfig(n_distract=[np.uint8(4)]),
                    stream=StreamConfig(k=np.int32(2)))
    assert (cfg.seed, cfg.robust.n_distract, cfg.stream.k) == (3, (4,), 2)
    assert {type(cfg.seed), type(cfg.robust.n_distract[0]), type(cfg.stream.k)} == {int}


def test_a_timestamp_past_the_int64_range_is_rejected(tmp_path, capsys):
    path = tmp_path / "t.tum"
    path.write_text("".join(f"{s} 0 0 0 0 0 0 1\n" for s in ("1", "2", "1e30")))
    with pytest.raises(ValueError, match="frame id 1000000000000000019884624838656 is outside"):
        io.read_tum(path)
    out = tmp_path / "out"
    assert main(["eval", "--out", str(out), str(path), str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: frame id")
    assert not out.exists()


@pytest.mark.parametrize("command", ["stream", "offline", "robust"])
@pytest.mark.parametrize("k", ["2.5", "true"])
def test_a_k_flag_that_is_not_an_integer_is_named(tmp_path, capsys, command, k):
    out = tmp_path / "out"
    assert main([command, "--out", str(out), "--k", k]) == 1
    assert capsys.readouterr().err == f"error: stream.k must be int or null, got {k!r}\n"
    assert not out.exists()

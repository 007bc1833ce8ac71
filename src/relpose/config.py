"""Run configuration: a nested key-value file (YAML) with strict keys.

CLI flags override file values; every field has a documented default in
its dataclass.  Unknown keys, values of the wrong type and values out of
range are rejected on load, before a command writes anything.
"""

import dataclasses
import hashlib
import json
import math
import os
import types
import typing
from dataclasses import dataclass, field

from .oracle import OracleConfig
from .stream import StreamConfig

OUT_ROOT_ENV = "RELPOSE_OUT"


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RefineConfig:
    enabled: bool = False
    delta_rot: float = 0.05
    delta_trans: float = 0.1
    max_iters: int = 100
    grad_tol: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError(f"refine.max_iters must be non-negative, got {self.max_iters}")
        for name in ("delta_rot", "delta_trans"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"refine.{name} must be positive and finite, "
                                 f"got {getattr(self, name)}")
        if not 0 <= self.grad_tol < math.inf:
            raise ValueError("refine.grad_tol must be non-negative and finite, "
                             f"got {self.grad_tol}")


@dataclass(frozen=True)
class RobustConfig:
    n_clean: int = 30
    n_distract: tuple[int, ...] = (10, 30, 50)
    trials: int = 10
    noise_mult: float = 10.0

    def __post_init__(self):
        if self.n_clean < 3:
            raise ValueError(f"robust.n_clean must be at least 3, got {self.n_clean}")
        if any(n < 0 for n in self.n_distract):
            raise ValueError("robust.n_distract must be non-negative, "
                             f"got {list(self.n_distract)}")
        if self.trials < 1:
            raise ValueError(f"robust.trials must be at least 1, got {self.trials}")
        if not 1 <= self.noise_mult < math.inf:
            raise ValueError("robust.noise_mult must be at least 1 and finite, "
                             f"got {self.noise_mult}")


@dataclass(frozen=True)
class RunConfig:
    oracle: OracleConfig = field(default_factory=OracleConfig)
    stream: StreamConfig = field(default_factory=StreamConfig)
    refine: RefineConfig = field(default_factory=RefineConfig)
    robust: RobustConfig = field(default_factory=RobustConfig)
    seed: int = 0
    out_dir: str = ""
    bins: int = 5
    rpe_delta: int = 1
    diag_edges: int = 10000

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        for name in ("bins", "rpe_delta", "diag_edges"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.bins > self.diag_edges:
            # every bin of `relpose diag` needs at least one of its edges
            raise ValueError(f"bins must not exceed diag_edges ({self.diag_edges}), "
                             f"got {self.bins}")

    def resolved_out_dir(self):
        if self.out_dir:
            return self.out_dir
        return os.environ.get(OUT_ROOT_ENV, "runs")


_SECTIONS = {"oracle": OracleConfig, "stream": StreamConfig,
             "refine": RefineConfig, "robust": RobustConfig}


def _fits(value, kind):
    """Whether a loaded value has a field's declared type; an int fits a
    float field, a bool fits only a bool field, a list fits a tuple."""
    if typing.get_origin(kind) is types.UnionType:
        return any(_fits(value, k) for k in typing.get_args(kind))
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        return isinstance(value, (list, tuple)) and all(_fits(v, item) for v in value)
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, kind)


def _type_name(kind):
    if typing.get_origin(kind) is types.UnionType:
        return " or ".join(_type_name(k) for k in typing.get_args(kind))
    if typing.get_origin(kind) is tuple:
        return f"a list of {_type_name(typing.get_args(kind)[0])}"
    return "null" if kind is type(None) else kind.__name__


def _build(cls, data, path):
    known = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"unknown key {path}{key!r}")
        kind = known[key].type
        if not _fits(value, kind):
            raise ConfigError(f"{path}{key} must be {_type_name(kind)}, "
                              f"got {value!r}")
        if isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)


def config_from_dict(data) -> RunConfig:
    data = dict(data or {})
    kwargs = {}
    for name, cls in _SECTIONS.items():
        if name in data:
            section = data.pop(name)
            if not isinstance(section, dict):
                raise ConfigError(f"section {name!r} must be a mapping")
            kwargs[name] = _build(cls, section, f"{name}.")
    top = _build(RunConfig, data, "")
    cfg = dataclasses.replace(top, **kwargs)
    frames = cfg.oracle.frames
    for name, counts in (("n_clean", (cfg.robust.n_clean,)),
                         ("n_distract", cfg.robust.n_distract)):
        if max(counts, default=0) > frames:
            raise ConfigError(f"robust.{name} must not exceed oracle.frames "
                              f"({frames}), got {max(counts)}")
    return cfg


def load_config(path) -> RunConfig:
    import yaml  # only YAML files need it; importing it costs about 1 MB
    with open(path) as f:
        try:
            data = yaml.safe_load(f)
        except (yaml.YAMLError, RecursionError) as exc:
            raise ConfigError(f"malformed YAML: {exc}") from None
    if data is not None and not isinstance(data, dict):
        raise ConfigError("config file must contain a mapping")
    return config_from_dict(data)


def config_hash(cfg: RunConfig) -> str:
    d = dataclasses.asdict(cfg)
    d.pop("out_dir", None)  # where results land does not affect them
    canon = json.dumps(d, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]

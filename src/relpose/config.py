"""Run configuration: a nested key-value file (YAML) with strict keys.

CLI flags override file values; every field has a documented default in
its dataclass.  Unknown keys are rejected on load.
"""

import dataclasses
import hashlib
import json
import math
import os
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
    n_distract: tuple = (10, 30, 50)
    trials: int = 10
    noise_mult: float = 10.0


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

    def resolved_out_dir(self):
        if self.out_dir:
            return self.out_dir
        return os.environ.get(OUT_ROOT_ENV, "runs")


_SECTIONS = {"oracle": OracleConfig, "stream": StreamConfig,
             "refine": RefineConfig, "robust": RobustConfig}


def _build(cls, data, path):
    known = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"unknown key {path}{key!r}")
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
    return dataclasses.replace(top, **kwargs)


def load_config(path) -> RunConfig:
    import yaml  # only YAML files need it; importing it costs about 1 MB
    with open(path) as f:
        data = yaml.safe_load(f)
    if data is not None and not isinstance(data, dict):
        raise ConfigError("config file must contain a mapping")
    return config_from_dict(data)


def config_to_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)


def config_hash(cfg: RunConfig) -> str:
    d = config_to_dict(cfg)
    d.pop("out_dir", None)  # where results land does not affect them
    canon = json.dumps(d, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]

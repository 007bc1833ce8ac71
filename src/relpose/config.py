"""Run configuration: a nested key-value file (YAML) with strict keys.

CLI flags override file values; every field has a documented default in
its dataclass.  Unknown keys are rejected on load; the dataclasses reject
values of the wrong type (check_fields) or out of range.
"""

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

from .oracle import OracleConfig
from .posegraph import ConfigError, as_int, check_fields
from .stream import StreamConfig

OUT_ROOT_ENV = "RELPOSE_OUT"


@dataclass(frozen=True)
class RefineConfig:
    enabled: bool = False
    delta_rot: float = 0.05
    delta_trans: float = 0.1
    max_iters: int = 100
    grad_tol: float = 1e-8

    def __post_init__(self):
        check_fields(self, "refine.")
        as_int(self.max_iters, "refine.max_iters", 0)
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
        check_fields(self, "robust.")
        as_int(self.n_clean, "robust.n_clean", 3)
        if any(n < 0 for n in self.n_distract):
            raise ValueError("robust.n_distract must be non-negative, "
                             f"got {list(self.n_distract)}")
        as_int(self.trials, "robust.trials", 1)
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
        check_fields(self)
        as_int(self.seed, "seed", 0)
        for name in ("bins", "rpe_delta", "diag_edges"):
            as_int(getattr(self, name), name, 1)
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


def _build(cls, data, path):
    known = {f.name for f in dataclasses.fields(cls)}
    for key in data:
        if key not in known:
            raise ConfigError(f"unknown key {path}{key!r}")
    return cls(**data)


def config_from_dict(data) -> RunConfig:
    data = dict(data or {})
    kwargs = {}
    for name, cls in _SECTIONS.items():
        if name in data:
            section = data.pop(name)
            if not isinstance(section, dict):
                raise ConfigError(f"section {name!r} must be a mapping")
            kwargs[name] = _build(cls, section, f"{name}.")
    cfg = _build(RunConfig, data | kwargs, "")
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

"""Golden artifact digests: the SHA-256 of every file and of the stdout of
the CLI's default runs, compared against tests/golden_digests.json.

The runs are `relpose stream`, `offline`, `offline --refine`, `robust`,
`diag` and `eval` on seeds 0 and 1009, and a 2,000-frame `stream` on both
seeds.  `eval` scores the stream's trajectory against the scene's ground
truth, written by `io.write_tum`, whose digest is kept too.

Byte identity holds on one numpy/BLAS build and CPU (see the README), so
the digests are compared only on the build they were recorded on; on any
other build the test skips and names both builds.  A change that alters
an artifact on purpose re-records the file,

    RELPOSE_RECORD_GOLDEN=1 python -m pytest tests/test_golden.py

which lists the changed digest keys in its skip message; name each of
them, and why it changed, in CHANGES.md.
"""

import contextlib
import hashlib
import json
import os
import pathlib
import platform
from io import StringIO

import numpy as np
import pytest

from relpose import io
from relpose.cli import main
from relpose.oracle import OracleConfig, generate_scene

GOLDEN = pathlib.Path(__file__).with_name("golden_digests.json")
SEEDS = (0, 1009)


def current_build():
    """The numpy version, BLAS, machine and the CPU features numpy
    dispatches on: what the artifacts' last bits depend on."""
    from numpy._core._multiarray_umath import __cpu_features__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas['name']} {blas.get('version', '')}".rstrip(),
            "machine": platform.machine(),
            "cpu_features": sorted(k for k, on in __cpu_features__.items() if on)}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def cli_digests(name, argv, out):
    """Digests of every file one CLI run writes into out, and of its stdout,
    keyed by name/file."""
    stdout = StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv + ["--out", str(out)]) == 0, name
    digests = {f"{name}/{p.name}": sha256(p.read_bytes()) for p in sorted(out.iterdir())}
    digests[f"{name}/stdout"] = sha256(stdout.getvalue().encode())
    return digests


def golden_runs(tmp):
    long_stream = tmp / "stream-2k.yaml"
    long_stream.write_text("oracle:\n  frames: 2000\n")
    digests = {}
    for seed in SEEDS:
        s = ["--seed", str(seed)]
        runs = {"stream": ["stream", *s], "offline": ["offline", *s],
                "offline-refine": ["offline", "--refine", *s],
                "robust": ["robust", *s], "diag": ["diag", *s],
                "stream-2k": ["stream", "--config", str(long_stream), *s]}
        for name, argv in runs.items():
            name = f"{name}-seed{seed}"
            digests.update(cli_digests(name, argv, tmp / name))
        truth = tmp / f"truth-seed{seed}.tum"
        io.write_tum(generate_scene(OracleConfig(), seed).ground_truth(), truth)
        digests[f"eval-seed{seed}/{truth.name}"] = sha256(truth.read_bytes())
        est = tmp / f"stream-seed{seed}" / "trajectory.tum"
        name = f"eval-seed{seed}"
        digests.update(cli_digests(name, ["eval", str(est), str(truth)], tmp / name))
    return digests


def differing(want, got):
    """The keys, sorted, whose digests differ or that only one side has."""
    return sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))


def test_cli_artifacts_match_the_golden_digests(tmp_path):
    build = current_build()
    if os.environ.get("RELPOSE_RECORD_GOLDEN"):
        digests = golden_runs(tmp_path)
        old = json.loads(GOLDEN.read_text())["digests"] if GOLDEN.exists() else {}
        GOLDEN.write_text(json.dumps({"build": build, "digests": digests},
                                     indent=1, sort_keys=True) + "\n")
        changed = differing(old, digests)
        pytest.skip(f"recorded {len(digests)} digests in {GOLDEN.name}; "
                    f"{len(changed)} changed: {changed}")
    golden = json.loads(GOLDEN.read_text())
    if golden["build"] != build:
        pytest.skip(f"digests recorded on build {golden['build']}, "
                    f"this is build {build}")
    differ = differing(golden["digests"], golden_runs(tmp_path))
    assert not differ, f"{len(differ)} artifacts differ from {GOLDEN.name}: {differ}"

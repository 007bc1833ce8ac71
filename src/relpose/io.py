"""Trajectory file I/O (TUM format) and small CSV helpers.

TUM lines are `timestamp tx ty tz qx qy qz qw`; timestamps are frame ids,
so read_tum rejects a timestamp that is not a whole number and a frame id
that appears twice.
"""

import csv

import numpy as np

from .geom import Pose, UnitQuaternion


def write_tum(trajectory, path):
    with open(path, "w") as f:
        for fid in sorted(trajectory):
            p = trajectory[fid]
            q = p.rotation
            t = p.translation
            vals = (t[0], t[1], t[2], q.x, q.y, q.z, q.w)
            f.write(" ".join([str(fid)] + [repr(float(v)) for v in vals])
                    + "\n")


def read_tum(path):
    trajectory = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 8:
                raise ValueError(f"expected 8 fields per TUM line, got {len(parts)}")
            stamp = float(parts[0])
            if not stamp.is_integer():
                raise ValueError(f"timestamp must be a whole frame id, got {parts[0]!r}")
            fid = int(stamp)
            if fid in trajectory:
                raise ValueError(f"frame {fid} appears twice")
            tx, ty, tz, qx, qy, qz, qw = (float(v) for v in parts[1:])
            trajectory[fid] = Pose(UnitQuaternion(qw, qx, qy, qz),
                                   np.array([tx, ty, tz]))
    return trajectory


def write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)

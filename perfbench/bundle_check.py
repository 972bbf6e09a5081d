"""Checks on a written report bundle; a study whose bundle fails one counts as failed."""

from __future__ import annotations

import csv
import hashlib
import os

# Restated here rather than imported, so a wrong constant in the program
# fails the check instead of moving it.
SPEED_OF_LIGHT_KM_S = 299_792.458
PROBE_ID = 0
GROUND_ID = 1
PROTOCOL_COUNT = 3
# Slack on the straight-line bound, in hours, for the last bit of a float sum.
TIME_SLACK_HR = 1e-12


class BundleError(Exception):
    """A bundle broke one of the checks; the message names which."""


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def manifest_files(out_dir: str) -> list[str]:
    """File names listed under ``[files]`` in the bundle's manifest."""
    names: list[str] = []
    with open(os.path.join(out_dir, "manifest.txt"), encoding="utf-8") as fh:
        in_files = False
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("["):
                in_files = line == "[files]"
            elif in_files and line:
                names.append(line)
    return names


def check_bundle(out_dir: str, config, written: list[str]) -> dict:
    """Check one bundle and return facts read from its packets table.

    Raises BundleError when a route leaves the wrong node or reaches the wrong
    one, the packets row count is not runs x packets x 3, a transmission time
    beats the straight line at light speed, or the manifest and the directory
    disagree on which files were written.
    """
    on_disk = set(os.listdir(out_dir))
    listed = set(manifest_files(out_dir)) | {"manifest.txt"}
    if listed != on_disk or set(written) != on_disk:
        raise BundleError(
            "manifest mismatch: unlisted "
            f"{sorted(on_disk - listed)}, listed but missing {sorted(listed - on_disk)}, "
            f"returned but not on disk {sorted(set(written) - on_disk)}"
        )

    path = os.path.join(out_dir, "packets.csv")
    if not os.path.exists(path):
        raise BundleError("packets.csv missing")
    floor_hr = config.end_to_end_km / SPEED_OF_LIGHT_KM_S / 3600.0 - TIME_SLACK_HR
    rows = 0
    max_hops: dict[str, int] = {}
    revisits: dict[str, int] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            rows += 1
            nodes = [int(v) for v in row["route"].split("-")]
            if nodes[0] != PROBE_ID or nodes[-1] != GROUND_ID:
                raise BundleError(
                    f"run {row['run']} packet {row['packet']} {row['protocol']}: "
                    f"route {row['route']} does not go from {PROBE_ID} to {GROUND_ID}"
                )
            if float(row["transmission_time_hr"]) < floor_hr:
                raise BundleError(
                    f"run {row['run']} packet {row['packet']} {row['protocol']}: "
                    f"time {row['transmission_time_hr']} hr beats the straight line"
                )
            p = row["protocol"]
            max_hops[p] = max(max_hops.get(p, 0), len(nodes) - 1)
            revisits[p] = revisits.get(p, 0) + (len(set(nodes)) < len(nodes))
    expected = config.run_count * config.packet_count * PROTOCOL_COUNT
    if rows != expected:
        raise BundleError(f"packets.csv has {rows} rows, expected {expected}")
    return {
        "packets_digest": file_digest(path),
        "max_hops": max_hops,
        "revisit_routes": revisits,
        "files": len(on_disk),
        "bytes": sum(os.path.getsize(os.path.join(out_dir, n)) for n in on_disk),
    }

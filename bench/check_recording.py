#!/usr/bin/env python3
"""Checks that two WP_JSON recordings of one grid agree on guest-side bytes.

Usage: python3 bench/check_recording.py OLD.json NEW.json

A re-recording (new host, new job count, a host-side optimisation) may
change every host time in a WP_JSON report, but never a simulated
number. This script matches the cells of both reports by their grid
point and requires icache_energy, total_energy, delay, ed_product,
cycles and instructions to be identical (the reports print doubles at
17 significant digits, so equal values parse to equal floats). Both
reports must hold the same set of cells. Exits 0 when they agree, 1
otherwise, naming every difference.
"""

import json
import sys

GUEST_FIELDS = ("icache_energy", "total_energy", "delay", "ed_product",
                "cycles", "instructions")
KEY_FIELDS = ("workload", "icache_size_bytes", "ways", "line_bytes", "scheme",
              "wp_area_bytes", "intraline_skip", "wm_precise_invalidation",
              "drowsy_window", "layout", "fault", "corun_quantum",
              "corun_tlb", "corun_partners")


def cells(path):
    with open(path, encoding="utf-8") as f:
        report = json.load(f)
    out = {}
    for cell in report["cells"]:
        key = tuple(cell.get(k) for k in KEY_FIELDS)
        if key in out:
            sys.exit(f"{path}: two cells share the grid point {key}")
        out[key] = cell
    return out


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    old, new = cells(argv[1]), cells(argv[2])
    problems = []
    for key in sorted(old.keys() - new.keys(), key=str):
        problems.append(f"only in {argv[1]}: {key}")
    for key in sorted(new.keys() - old.keys(), key=str):
        problems.append(f"only in {argv[2]}: {key}")
    for key in sorted(old.keys() & new.keys(), key=str):
        for field in GUEST_FIELDS:
            if old[key][field] != new[key][field]:
                problems.append(f"{key}: {field} {old[key][field]!r} != "
                                f"{new[key][field]!r}")
    for p in problems:
        print(p)
    print(f"{len(old.keys() & new.keys())} cells compared on "
          f"{', '.join(GUEST_FIELDS)}: "
          f"{'identical' if not problems else f'{len(problems)} difference(s)'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

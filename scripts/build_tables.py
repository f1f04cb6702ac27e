#!/usr/bin/env python3
"""Build and cache the equal-mean MI tables used by density evolution.

Tables land in the package data directory and ship with the wheel; this
script only needs rerunning when the grid, sample count, or seed policy
changes. Building the q=128 or q=256 table takes a few minutes on one
core. Density evolution only loads these files; an order without one
is an error that points here.
"""

import argparse
import os
import sys
import time

from hybridldpc.density_evolution import JTable, _table_dir


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--orders", type=int, nargs="+",
                    default=[2, 4, 8, 16, 32, 64, 128, 256])
    ap.add_argument("--force", action="store_true", help="rebuild existing tables")
    args = ap.parse_args()

    out_dir = _table_dir()
    os.makedirs(out_dir, exist_ok=True)
    for q in args.orders:
        path = os.path.join(out_dir, f"jc_q{q}.json")
        if os.path.exists(path) and not args.force:
            print(f"q={q}: already present, skipping")
            continue
        t0 = time.perf_counter()
        table = JTable.build(q)
        table.save(path)
        print(f"q={q}: built in {time.perf_counter() - t0:.1f}s -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and cache the equal-mean MI tables used by density evolution.

Tables land in the package data directory and ship with the wheel; this
script only needs rerunning when the grid, sample count, or seed policy
changes. Density evolution only loads these files; an order without one
is an error that points here.

``JTable.build`` runs the streamed Monte Carlo walk that J_v families
use, with its grid split over the usable CPUs; the split gives the
serial walk's bytes. Measured on a 2-core x86 machine (Python 3.11,
numpy 2.4), split over both cores: q=8 1.3 s, q=256 20.7 s, against
2.4 s and 41.6 s serial in the same session. Earlier serial builds,
under tracemalloc: q=2 2.3 s, q=4 2.6 s, q=8 3.2 s, q=16 5.7 s, q=32
8.9 s, q=64 15.7 s, q=128 30.5 s, q=256 61.3 s. A serial build traces
an 18 MB peak at every order: two (512, 2048) blocks of the walk; split
in two, this process traces 10.5 MB at q=8 (the forked half is not
traced). The whole-chunk walk it replaced held a (512, 20,000) array,
82 MB, and two of them across a chunk boundary (165 MB traced).

A rebuild does not reproduce a table byte for byte on every machine:
values move in the last bits with the platform's math library. With
``--force``, a file whose rebuild moves no grid value by more than
ROUNDING_ONLY is left untouched, and the largest change is printed.
"""

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hybridldpc.density_evolution import JTable, _table_dir
from hybridldpc.groups import validate_order

ROUNDING_ONLY = 1e-12


def table_change(old: JTable, new: JTable) -> float:
    """Largest change of a grid value between two tables of one order;
    inf when their sample count, seed or grid size differ."""
    if (old.n_samples, old.seed, old.grid_m.shape) != (new.n_samples, new.seed, new.grid_m.shape):
        return float("inf")
    return float(max(np.max(np.abs(old.grid_m - new.grid_m)),
                     np.max(np.abs(old.grid_i - new.grid_i))))


def write_table(table: JTable, path: str) -> str:
    """Save ``table`` at ``path`` unless the file there already holds it
    up to rounding. Returns what was done."""
    if os.path.exists(path):
        change = table_change(JTable.load(path), table)
        if change <= ROUNDING_ONLY:
            return f"max |change| {change:.1e}, rounding only; kept {path}"
        table.save(path)
        return f"max |change| {change:.1e}; wrote {path}"
    table.save(path)
    return f"wrote {path}"


def group_order(text: str) -> int:
    """An ``--orders`` value: a group order that density evolution supports."""
    try:
        return validate_order(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not a group order: {exc}") from None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    # checked while parsing, before any table is built
    ap.add_argument("--orders", type=group_order, nargs="+",
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
        print(f"q={q}: built in {time.perf_counter() - t0:.1f}s, {write_table(table, path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

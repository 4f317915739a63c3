"""Compare two output dumps written by perfbench/run.py.

    python3 perfbench/compare.py OLD.npz NEW.npz [--tol 1e-12]

A dump holds the numeric outputs (chi, slope, populations, coherences, the
oracle's rho13 harmonic, ...) of the first round of jobs of one run.  Runs
with the same workload and seed hold the same jobs, so dumps from two
commits show how far their outputs moved.  For each array this prints the
largest relative difference |new - old| / max(|old|, 1e-3 * max|old|),
then the largest over all arrays.  Exit status 1 when the dumps hold
different arrays or shapes, or when a difference exceeds --tol.
"""

import argparse
import sys

import numpy as np

REL_FLOOR = 1e-3


def max_rel_diff(old: np.ndarray, new: np.ndarray) -> float:
    if old.size == 0:
        return 0.0
    floor = max(REL_FLOOR * float(np.abs(old).max()), np.finfo(float).tiny)
    return float((np.abs(new - old) / np.maximum(np.abs(old), floor)).max())


def compare(old_path, new_path) -> tuple[dict, list]:
    """Per-array max relative difference, and the problems that block a comparison."""
    with np.load(old_path) as old, np.load(new_path) as new:
        problems = [f"only in {old_path}: {k}" for k in sorted(set(old) - set(new))]
        problems += [f"only in {new_path}: {k}" for k in sorted(set(new) - set(old))]
        diffs = {}
        for key in sorted(set(old) & set(new)):
            if old[key].shape != new[key].shape:
                problems.append(f"{key}: shape {old[key].shape} != {new[key].shape}")
            else:
                diffs[key] = max_rel_diff(old[key], new[key])
    return diffs, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--tol", type=float, default=None,
                        help="fail when any relative difference exceeds this")
    args = parser.parse_args(argv)
    diffs, problems = compare(args.old, args.new)
    for key, value in diffs.items():
        print(f"{key}: {value:.3e}")
    worst = max(diffs.values(), default=0.0)
    print(f"max relative difference: {worst:.3e} over {len(diffs)} arrays")
    for problem in problems:
        print(f"mismatch: {problem}")
    if problems or (args.tol is not None and worst > args.tol):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

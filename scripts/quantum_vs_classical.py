#!/usr/bin/env python3
"""Difference-of-two-spins meter against its classical ball-and-connector twin.

Both systems produce the same set of outcome labels; the quantum version
sums amplitudes over the two zero-difference paths before squaring, while
the classical network can only add their probabilities.  The conditional
means disagree accordingly, and seeded sampling reproduces both.
"""

import argparse

import numpy as np

from qpathnet import (
    MeterSpec,
    PointerProfile,
    build_difference_meter,
    chain_comparator,
    classical_mean,
    classical_sample,
    path_amplitudes,
    reading_distribution,
    sample_trials,
    strong_limit_bins,
    strong_mean,
    window_masses,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=20260810)
    args = parser.parse_args()

    preset = build_difference_meter()
    chain, functional = preset.chain, preset.meters[0].functional
    amps = path_amplitudes(chain)

    bins = strong_limit_bins(chain, functional)
    classical_zero = abs(amps[0]) ** 2 + abs(amps[3]) ** 2
    print("probability of reading 'difference = 0' after selection:")
    print(f"  quantum (amplitudes first) : {bins[0.0]:.6f}")
    print(f"  classical (probabilities)  : {classical_zero:.6f}")
    print(f"quantum conditional mean     : {strong_mean(chain, functional):+.6f}")

    # one comparator entry per (final branch, path), branch-major
    paths = chain_comparator(chain)
    per_path = np.tile(functional.values(chain), len(paths) // chain.n_paths)
    print(f"classical conditional mean   : {classical_mean(paths, per_path, {'f0'}):+.6f}")

    # seeded sampling on both sides
    trials = sample_trials(
        chain, [MeterSpec(functional, PointerProfile.rectangular(0.5))], args.trials, args.seed
    )
    success = trials.branches == 0
    readings = trials.readings[success, 0]
    print()
    print(f"quantum sampling, {args.trials} runs, {int(success.sum())} selected:")
    dist = reading_distribution(chain, preset.meters[0])
    exact = window_masses(dist, [-2.0, 0.0, 2.0])
    total = sum(exact.values())
    for value in (-2.0, 0.0, 2.0):
        freq = float(np.mean(np.abs(readings - value) <= 0.25))
        print(f"  reading ~{value:+.0f}: frequency {freq:.4f}  exact {exact[value] / total:.4f}")

    counts = classical_sample(paths, args.trials, args.seed)
    kept = np.array([p.receptacle == "f0" for p in paths])
    empirical = float((counts[kept] * per_path[kept]).sum() / counts[kept].sum())
    print(f"classical sampling conditional mean: {empirical:+.6f}")


if __name__ == "__main__":
    main()

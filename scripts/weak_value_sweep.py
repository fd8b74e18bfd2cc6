#!/usr/bin/env python3
"""Sweep the meter width on the near-cancelling two-path transition.

The two path amplitudes have ratio -1.01, so the amplitude-weighted mean of
the first-path indicator is -100 even though an accurate measurement can
only ever read 0 or 1.  As the pointer profile widens, the measured mean
crawls from the accurate value (inside [0, 1]) out to -100.
"""

import argparse

import numpy as np

from qpathnet import (
    MeasurementChain,
    MeasurementStep,
    Observable,
    PathFunctional,
    Propagator,
    build_minus_hundred,
    states_for_target_weak_value,
    strong_mean,
    weak_limit_report,
    weak_value,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--widths", type=float, nargs="+", default=[0.01, 0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0])
    parser.add_argument("--target", type=float, default=None, help="also build states for this weak mean")
    args = parser.parse_args()

    preset = build_minus_hundred()
    functional = preset.meters[0].functional
    print(f"accurate mean  : {strong_mean(preset.chain, functional):+.6f}")
    print(f"weak mean      : {weak_value(preset.chain, functional).real:+.6f}")
    print()
    report = weak_limit_report(preset.chain, functional, args.widths)
    print(f"{'width':>10}  {'mean reading':>14}  {'|error|':>10}")
    for width, mean, err in zip(report.widths, report.means, report.errors):
        print(f"{width:>10g}  {mean:>14.6f}  {err:>10.3g}")

    if args.target is not None:
        psi, phi = states_for_target_weak_value(args.target)
        spin = Observable.from_eigensystem([1.0, -1.0], np.eye(2, dtype=complex))
        chain = MeasurementChain(psi, (MeasurementStep(0.5, spin),), Propagator.free(2), phi, 1.0)
        wv = weak_value(chain, PathFunctional.step_eigenvalue(0))
        print()
        print(f"states tuned for target {args.target}: weak mean = {wv.real:+.9f}")


if __name__ == "__main__":
    main()

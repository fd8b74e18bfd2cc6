#!/usr/bin/env python3
"""Three-path transition with amplitudes (C, -C, C).

Two wide meters, coupled to the first- and third-path indicators at the
same time, both read mean shift 1; since the relative amplitudes add up to
one, the middle path's is -1.  Making the first meter accurate instead
destroys the interference and drags the second meter's conditional mean to
the value it reads on the surviving path.
"""

from qpathnet import (
    Grid,
    MeterSpec,
    PathFunctional,
    PointerProfile,
    build_three_box,
    joint_reading_distribution,
    mean_reading,
    relative_amplitudes,
    strong_limit_probabilities,
)


def main():
    preset = build_three_box()
    chain = preset.chain

    joint = joint_reading_distribution(chain, list(preset.meters))
    print("simultaneous wide meters:")
    print(f"  mean reading, first-path indicator : {joint.marginal_mean(0):+.6f}")
    print(f"  mean reading, third-path indicator : {joint.marginal_mean(1):+.6f}")

    rel = relative_amplitudes(chain, PathFunctional.step_eigenvalue(0))
    print("  relative amplitudes:", {k: f"{v.real:+.3f}" for k, v in sorted(rel.items())})

    for label, path in (("first", (0,)), ("third", (2,))):
        probs = strong_limit_probabilities(chain, PathFunctional.path_indicator(path))
        print(f"accurate {label}-path indicator reads 1 with probability {probs[1.0]:.12f}")

    # accurate meter 1 + wide meter 2: condition on meter 1 reading near 1
    meters = [
        MeterSpec(PathFunctional.path_indicator((0,)), PointerProfile.rectangular(0.5)),
        MeterSpec(PathFunctional.path_indicator((2,)), PointerProfile.gaussian(1000.0)),
    ]
    grids = [
        Grid.cover([0.0, 1.0], 0.5, step=0.5 / 50),
        Grid.cover([0.0, 1.0], 1000.0, step=1000.0 / 50),
    ]
    mixed = joint_reading_distribution(chain, meters, grids)
    kept = mixed.restricted(0, 0.75, 1.25)
    mean2 = mean_reading(kept)
    print()
    print("first meter accurate, conditioned on it reading ~1:")
    print(f"  second meter's conditional mean    : {mean2:+.6f}  (was +1 when both were wide)")


if __name__ == "__main__":
    main()

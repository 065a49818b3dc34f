#!/usr/bin/env python3
"""Simulate one sensor field and picture the fused decisions.

Two hundred sensors land uniformly in a 20 x 20 field. Sensors inside
the lower-left square sit in event 1, sensors inside the upper-right
square sit in event 2, everyone else sees background. Each sensor
makes a ternary local decision from one noisy reading, then replaces
it with the quorum vote of its five nearest neighbors. The maps below
render one character per sensor, so the cleanup from local to fused
is visible directly.
"""

import numpy as np

from dualdetect import (
    FieldConfig,
    LikelihoodThresholds,
    SignalModel,
    gammas_from_lambdas,
    generate_field,
    run_detection,
)

GLYPHS = {0: ".", 1: "1", -1: "2"}


def render(positions, codes, width, height, columns=56, rows=24):
    """Draw one character per sensor on a coarse grid, errors win ties."""
    grid = [[" "] * columns for _ in range(rows)]
    for (x, y), code in zip(positions, codes):
        c = min(int(x / width * columns), columns - 1)
        r = min(int((height - y) / height * rows), rows - 1)
        glyph = GLYPHS.get(int(code), "x")
        if grid[r][c] in (" ", "."):
            grid[r][c] = glyph
    return "\n".join("".join(row) for row in grid)


def main():
    config = FieldConfig()
    model = SignalModel(m0=0.0, m1=3.0, m2=6.0)
    lambdas = LikelihoodThresholds(lambda1=0.9829, lambda2=1.8496)
    gammas = gammas_from_lambdas(model, lambdas)

    rngs = [np.random.default_rng(11)]
    field = generate_field(config, rngs)
    result = run_detection(field, model, gammas, None, rngs)

    print("ground truth ('.' normal, '1' event 1, '2' event 2):")
    print(render(field.positions, field.truth, config.width, config.height))
    print()
    # error_rates columns: local, clean_final, reported, final.
    print("local decisions, error rate %.1f%%:" % (100 * result.error_rates[0, 0]))
    print(render(field.positions, result.local, config.width, config.height))
    print()
    print("fused decisions, error rate %.1f%%:" % (100 * result.error_rates[0, 3]))
    print(render(field.positions, result.final, config.width, config.height))
    print()

    wrong_local = int(np.sum(result.local != field.truth))
    wrong_final = int(np.sum(result.final != field.truth))
    fixed = int(np.sum((result.local != field.truth) & (result.final == field.truth)))
    broken = int(np.sum((result.local == field.truth) & (result.final != field.truth)))
    print("local errors: %d of %d" % (wrong_local, config.sensor_count))
    print("fused errors: %d of %d" % (wrong_final, config.sensor_count))
    print("fusion fixed %d sensors and broke %d" % (fixed, broken))


if __name__ == "__main__":
    main()

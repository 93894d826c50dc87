#!/usr/bin/env python3
"""How much entanglement survives as the cross rate approaches the bound.

Scans g12 from independent baths (0) to the positivity boundary
(sqrt(g11 g22)) and records the long-time entanglement envelope and the
surviving excitation probability.  The protected point sits exactly on
the boundary.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cobath import (
    JCParams,
    build_jc,
    integrate,
    jc_initial,
    jc_space,
    sector_entries,
    two_qubit_projection,
    x_state_concurrence,
)
from cobath.runner import write_csv
from cobath.svgplot import emit_svg

OUT = Path(__file__).resolve().parents[1] / "out"


def main():
    OUT.mkdir(exist_ok=True)
    g = 0.01
    t_end = 20.0 / (2 * g)
    grid = np.linspace(0.0, t_end, 151)
    fractions = np.linspace(0.0, 1.0, 11)
    final_env, final_energy = [], []
    for frac in fractions:
        p = JCParams(omega0=1.0, eps=0.1, g11=g, g22=g, g12=frac * g)
        space = jc_space(p)
        final = integrate(build_jc(p), jc_initial(p), grid)[-1]
        final_env.append(x_state_concurrence(two_qubit_projection(final, space)))
        r11, _, r22 = sector_entries(final, space, 1)
        final_energy.append(r11 + r22)
        print(f"g12/g = {frac:4.2f}: final C = {final_env[-1]:.4f}, stored energy = {final_energy[-1]:.4f}")

    cols = [("final_concurrence", np.array(final_env)), ("stored_energy", np.array(final_energy))]
    write_csv(OUT / "cross_rate_scan.csv", fractions, cols)
    (OUT / "cross_rate_scan.svg").write_text(
        emit_svg(fractions, cols, title="long-time survival vs cross rate", xlabel="g12 / g"),
        encoding="utf-8",
    )
    print(f"artifacts in {OUT}")


if __name__ == "__main__":
    main()

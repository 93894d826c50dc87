#!/usr/bin/env python3
"""Protected vs. unprotected decay of a single shared excitation.

Runs the symmetric shared-bath point (collective channel has a dark
state) against the same point with mirror loss added, and writes the
population, entanglement envelope, and no-jump conditional concurrence
of both runs to out/.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cobath import (
    JCParams,
    asymptotic_state,
    build_jc,
    conditional_state,
    excited_population,
    integrate,
    jc_initial,
    two_qubit_projection,
    x_state_concurrence,
)
from cobath.runner import write_csv
from cobath.svgplot import emit_svg

OUT = Path(__file__).resolve().parents[1] / "out"


def run_point(p: JCParams, grid: np.ndarray):
    states = integrate(build_jc(p), jc_initial(p), grid)
    rho, space = states.matrices, states.space
    pop = excited_population(rho, space)
    env = x_state_concurrence(two_qubit_projection(rho, space))
    cond = conditional_state(rho, space, 1).concurrence
    return pop, env, cond


def main():
    OUT.mkdir(exist_ok=True)
    grid = np.linspace(0.0, 1000.0, 401)
    protected = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.01, g12=0.01)
    leaky = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.01, g12=0.01, k_mirror=0.05)

    for name, p in (("protected", protected), ("mirror_loss", leaky)):
        pop, env, cond = run_point(p, grid)
        cols = [
            ("population", pop),
            ("concurrence", env),
            ("concurrence_conditional", cond),
        ]
        write_csv(OUT / f"dfs_{name}.csv", grid, cols)
        (OUT / f"dfs_{name}.svg").write_text(
            emit_svg(grid, cols, title=f"shared bath, {name}"), encoding="utf-8"
        )
        state, label = asymptotic_state(p)
        print(
            f"{name:>12}: classified {label!r}; final envelope C = {env[-1]:.4f}, "
            f"conditional C = {cond[-1]:.4f}, P+ = {pop[-1]:.4f}"
        )
    print(f"artifacts in {OUT}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Monte Carlo ensemble error vs. trajectory count.

Compares wave-function ensembles of increasing size against direct
integration on the protected shared-bath point and prints the expected
1/sqrt(N) trend beside the largest entrywise standard error of each mean.
"""

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cobath import JCParams, basis_ket, build_jc, integrate, jc_initial, jc_space, mcwf_unravel
from cobath.runner import write_csv

OUT = Path(__file__).resolve().parents[1] / "out"


def main():
    OUT.mkdir(exist_ok=True)
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.01, g12=0.01)
    me = build_jc(p)
    grid = np.linspace(0.0, 1000.0, 101)
    direct = integrate(me, jc_initial(p), grid).matrices

    t0 = time.time()
    counts, devs, stderrs = (100, 1000, 10_000), [], []
    for n in counts:
        # the same seed: each ensemble extends the one before it
        res = mcwf_unravel(me, basis_ket(jc_space(p), (0, 0)), grid, n_traj=n, seed=20240817)
        devs.append(float(np.max(np.abs(res.averages[-1] - direct))))
        stderrs.append(float(np.max(res.stderr)))
        print(f"n_traj = {n:>6}: max entrywise deviation = {devs[-1]:.4f}, "
              f"max standard error = {stderrs[-1]:.4f}")
    print(f"({time.time() - t0:.1f}s; deviations should shrink like 1/sqrt(n))")

    write_csv(
        OUT / "ensemble_convergence.csv",
        np.array(counts, dtype=float),
        [("max_deviation", np.array(devs)), ("max_stderr", np.array(stderrs))],
    )
    print(f"artifacts in {OUT}")


if __name__ == "__main__":
    main()

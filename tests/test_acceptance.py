"""End-to-end acceptance suite.

Each test pins one release criterion at its stated tolerance and prints a
single PASS line (run with ``pytest tests/test_acceptance.py -v -s`` to
see them); a failed assertion prints the same line with FAIL.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from cobath.core import DensityMatrix, basis_ket
from cobath.eigenops import decompose, eigenoperators
from cobath.jc import (
    JCParams,
    build_jc,
    closed_form_block,
    dark_state,
    excitation_number,
    excited_population,
    ground_state,
    jc_initial,
    jc_space,
    two_qubit_projection,
    wootters_concurrence,
)
from cobath.master_equation import SpectralTensor, diagonalize_gamma, integrate
from cobath.trajectories import hierarchy_sector, mcwf_unravel
from concurrence_reference import (
    block_concurrence_exact,
    block_concurrence_variant,
    conditional_two_qubit,
)
from conftest import random_hermitian
from dissipator_reference import build_dissipator, pair_sum_rhs
from hierarchy_reference import linear_system as block_system
from hierarchy_reference import sector_block
from operator_reference import make_atom_ops, make_cavity_ops, verify_rwa_conservation

REPO = Path(__file__).resolve().parents[1]
DFS_PARAMS = dict(omega0=1.0, eps=0.1, g11=0.01, g22=0.01, g12=0.01)


def _report(num, name, detail):
    print(f"[criterion {num:02d}] {name}: PASS ({detail})")


def _fail(num, name, detail):
    print(f"[criterion {num:02d}] {name}: FAIL ({detail})")
    pytest.fail(f"criterion {num}: {detail}")


def _check(num, name, ok, detail):
    if ok:
        _report(num, name, detail)
    else:
        _fail(num, name, detail)


def test_criterion_01_closed_system_rabi():
    eps = 0.1
    p = JCParams(omega0=1.0, eps=eps, g11=0.0, g22=0.0, g12=0.0)
    t = np.linspace(0.0, 20.0 / eps, 801)
    want = np.cos(eps * t) ** 2
    blk = closed_form_block(p, 1, t)
    err_closed = float(np.max(np.abs(blk.rho11.real - want)))
    states = integrate(build_jc(p), jc_initial(p), t)
    pop = np.array([excited_population(s, jc_space(p)) for s in states])
    err_int = float(np.max(np.abs(pop - want)))
    err = max(err_closed, err_int)
    _check(1, "closed-system Rabi population", err <= 1e-8, f"max |P - cos^2| = {err:.2e}")


def test_criterion_02_generator_hygiene():
    me = build_jc(JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.02, g12=0.006 + 0.004j))
    rng = np.random.default_rng(7)
    worst_tr, worst_herm = 0.0, 0.0
    for _ in range(100):
        rho = random_hermitian(rng, me.space.total_dim)
        rho /= np.linalg.norm(rho)
        out = pair_sum_rhs(me, rho)
        worst_tr = max(worst_tr, abs(complex(np.trace(out))))
        worst_herm = max(worst_herm, float(np.max(np.abs(out - out.conj().T))))
    ok = worst_tr <= 1e-11 and worst_herm <= 1e-11
    _check(2, "generator trace/hermiticity", ok, f"trace {worst_tr:.2e}, herm {worst_herm:.2e}")


def test_criterion_03_hierarchy_reconstruction():
    # the blocks propagated as their own block-bidiagonal system (one expm on
    # the full stack of n_exc + 1 blocks), summed, against the master equation
    worst = 0.0
    for n_exc in (1, 2):
        p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.02, g12=0.01, n_exc=n_exc)
        me = build_jc(p)
        t = np.linspace(0.0, 60.0, 121)
        n = hierarchy_sector(me, jc_initial(p), excitation_number(jc_space(p)))
        d = me.space.total_dim
        stack = np.zeros((n + 1, d, d), dtype=complex)
        stack[n] = jc_initial(p).matrix
        step = expm(block_system(me, -1)[1](np.arange(stack.size)) * (t[1] - t[0]))
        y = stack.reshape(-1)
        rec = [stack.sum(axis=0)]
        for _ in t[1:]:
            y = step @ y
            rec.append(y.reshape(stack.shape).sum(axis=0))
        direct = integrate(me, jc_initial(p), t)
        worst = max(
            worst,
            max(float(np.max(np.abs(a - b.matrix))) for a, b in zip(rec, direct)),
        )
    _check(3, "trajectory sum equals direct integration", worst <= 1e-6, f"max dev = {worst:.2e}")


def test_criterion_04_diagonalized_jumps_rebuild_dissipator():
    me = build_jc(JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.02, g12=0.006 + 0.005j))
    d = build_dissipator(me)
    ops = [L.matrix for _, L in diagonalize_gamma(me.tensor, me.couplings)]
    dim = me.space.total_dim
    worst = 0.0
    for i in range(dim):
        for j in range(dim):
            unit = np.zeros((dim, dim), dtype=complex)
            unit[i, j] = 1.0
            rebuilt = np.zeros_like(unit)
            for L in ops:
                ll = L.conj().T @ L
                rebuilt += L @ unit @ L.conj().T - 0.5 * (ll @ unit + unit @ ll)
            worst = max(worst, float(np.max(np.abs(d(unit) - rebuilt))))
    _check(4, "diagonalized-jump rebuild on matrix units", worst <= 1e-12, f"max dev = {worst:.2e}")


def test_criterion_05_mcwf_statistical_equivalence():
    p = JCParams(**DFS_PARAMS)
    me = build_jc(p)
    space = jc_space(p)
    grid = np.linspace(0.0, 1000.0, 101)
    res = mcwf_unravel(
        me,
        basis_ket(space, (0, 0)),
        grid,
        n_traj=10_000,
        seed=424242,
        snapshot_counts=(100, 1000),
    )
    direct = np.array([s.matrix for s in integrate(me, jc_initial(p), grid)])
    devs = [float(np.max(np.abs(avg - direct))) for avg in res.averages]
    ok = devs[-1] <= 5e-2 and devs[0] > devs[1] > devs[2]
    _check(
        5,
        "ensemble average converges to integration",
        ok,
        f"devs at (100, 1000, 10000) = ({devs[0]:.3f}, {devs[1]:.3f}, {devs[2]:.3f})",
    )


def test_criterion_06_protected_asymptotics():
    p = JCParams(**DFS_PARAMS)
    me = build_jc(p)
    space = jc_space(p)
    t_end = 20.0 / (p.g11 + p.g22)
    grid = np.linspace(0.0, t_end, 201)
    final = integrate(me, jc_initial(p), grid)[-1]
    target = 0.5 * dark_state(p).projector().matrix + 0.5 * ground_state(space).projector().matrix
    gap = float(np.max(np.abs(final.matrix - target)))
    # the state a detector that saw no emission up to t_end prepares: the
    # normalized top block
    top = sector_block(final.matrix, excitation_number(space), 1)
    cond = DensityMatrix(space, (top + top.conj().T) / 2.0 / np.trace(top).real, tolerance=1e-7)
    c = wootters_concurrence(two_qubit_projection(cond, space))
    ok = gap <= 1e-3 and c >= 0.999
    _check(6, "protected half/half asymptote", ok, f"state gap = {gap:.2e}, C_cond = {c:.6f}")


def test_criterion_07_mirror_loss_destroys_protection():
    p = JCParams(**DFS_PARAMS, k_mirror=5 * DFS_PARAMS["g11"])
    me = build_jc(p)
    space = jc_space(p)
    t_end = 20.0 / (p.g11 + p.g22)
    grid = np.linspace(0.0, t_end, 201)
    states = integrate(me, jc_initial(p), grid)
    gap = float(np.max(np.abs(states[-1].matrix - ground_state(space).projector().matrix)))
    env = np.array([wootters_concurrence(two_qubit_projection(s, space)) for s in states])
    ok = gap <= 1e-3 and env.max() > 0.05 and env[-1] < 0.05
    _check(
        7,
        "mirror loss erases the built-up coherence",
        ok,
        f"ground gap = {gap:.2e}, peak C = {env.max():.3f}, final C = {env[-1]:.2e}",
    )


def test_criterion_08_two_bath_reduction():
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.02, g12=0.0)
    me = build_jc(p)
    from cobath.master_equation import MasterEquation

    diag = SpectralTensor(me.tensor.frequencies, (np.diag([0.01, 0.02]).astype(complex),))
    d_zero = build_dissipator(me)
    d_diag = build_dissipator(MasterEquation(me.H_S, me.couplings, diag))
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        rho = random_hermitian(rng, me.space.total_dim)
        worst = max(worst, float(np.max(np.abs(d_zero(rho) - d_diag(rho)))))
    t = np.linspace(0.0, 250.0, 1001)
    pop = np.array(
        [excited_population(s, jc_space(p)) for s in integrate(me, jc_initial(p), t)]
    )
    peaks = [pop[i] for i in range(1, len(pop) - 1) if pop[i] > pop[i - 1] and pop[i] > pop[i + 1]]
    decreasing = all(b < a for a, b in zip(peaks, peaks[1:]))
    ok = worst == 0.0 and len(peaks) >= 4 and decreasing
    _check(
        8,
        "independent-bath limit",
        ok,
        f"dissipator diff = {worst!r}, {len(peaks)} strictly decreasing peaks",
    )


def test_criterion_09_concurrence_oracle_report():
    rng = np.random.default_rng(90210)
    worst_route = 0.0
    worst_variant = 0.0
    worst_case = None
    mean_variant = 0.0
    n = 1000
    for _ in range(n):
        r11 = rng.uniform(0.0, 1.0)
        r22 = rng.uniform(0.0, 1.0 - r11)
        if r11 + r22 < 1e-6:
            r11 = 0.3
        r12 = math.sqrt(r11 * r22) * rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        spin_flip = wootters_concurrence(conditional_two_qubit(r11, r12, r22))
        algebraic = block_concurrence_exact(r11, r12, r22)
        variant = block_concurrence_variant(r11, r12, r22)
        worst_route = max(worst_route, abs(spin_flip - algebraic))
        gap = abs(spin_flip - variant)
        mean_variant += gap / n
        if gap > worst_variant:
            worst_variant = gap
            worst_case = (r11, abs(r12), r22)
    report = REPO / "docs" / "concurrence_discrepancy.md"
    report.parent.mkdir(exist_ok=True)
    report.write_text(
        "\n".join(
            [
                "# Conditional-concurrence formula comparison",
                "",
                "The shipped `concurrence` envelope comes from the X-state closed",
                "form (`x_state_concurrence`). A state with an entry off the X",
                "pattern falls back to the spin-flip eigenvalue construction",
                "(`wootters_concurrence`). This report checks the spin-flip",
                "route against the algebraic closed form 2|r12| / (r11 + r22)",
                "for one-excitation blocks. A difference-of-roots variant",
                "(`block_concurrence_variant`) is retained for comparison only;",
                "it disagrees with the spin-flip value and is never used for",
                "shipped results.",
                "",
                f"- samples: {n} random valid conditional blocks (seed 90210)",
                f"- max |eigenvalue route - algebraic route|: {worst_route:.3e}",
                f"- max |spin-flip - variant|: {worst_variant:.6f}",
                f"- mean |spin-flip - variant|: {mean_variant:.6f}",
                f"- worst case (r11, |r12|, r22): ({worst_case[0]:.6f}, {worst_case[1]:.6f}, {worst_case[2]:.6f})",
                "",
                "At the maximally entangled block (r11 = r22 = 1/2, |r12| = 1/2)",
                "the variant evaluates to sqrt(2) while the true concurrence is 1.",
                "",
                "The sector evolution itself is computed from the exact 2x2",
                "non-Hermitian propagator; difference-of-roots style population",
                "transcriptions carry doubled decay rates relative to the",
                "authoritative generator and are likewise not shipped.",
                "",
            ]
        ),
        encoding="utf-8",
        newline="\n",
    )
    ok = worst_route <= 1e-8 and report.exists() and worst_variant > 0.1
    _check(
        9,
        "concurrence eigenvalue oracle + discrepancy report",
        ok,
        f"route agreement {worst_route:.1e}, variant max gap {worst_variant:.3f}, report at docs/",
    )


def test_criterion_10_eigenoperator_suite():
    # completeness and ladder identities on the jc split
    p = JCParams(**DFS_PARAMS)
    space = jc_space(p)
    atom = make_atom_ops(space, 0)
    cav = make_cavity_ops(space, 1)
    h_bare = 0.5 * atom["S_z"] + cav["n_op"]
    d = decompose(h_bare)
    worst_complete = 0.0
    worst_ladder = 0.0
    for a in (atom["S_plus"] + atom["S_minus"], cav["a"] + cav["a_dag"]):
        parts = eigenoperators(a, d)
        total = sum(part.op.matrix for part in parts)
        worst_complete = max(worst_complete, float(np.max(np.abs(total - a.matrix))))
        for part in parts:
            comm = h_bare.matrix @ part.op.matrix - part.op.matrix @ h_bare.matrix
            scale = max(1.0, float(np.linalg.norm(part.op.matrix)))
            worst_ladder = max(
                worst_ladder,
                float(np.max(np.abs(comm + part.frequency * part.op.matrix))) / scale,
            )
    # free-energy conservation on the toy atom + single-mode model
    from cobath.core import HilbertSpace, Operator

    sz = np.diag([1.0, -1.0]).astype(complex)
    sm = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    sp_b = HilbertSpace((3,))
    b = np.diag(np.sqrt(np.arange(1, 3)), 1).astype(complex)
    residual = verify_rwa_conservation(
        Operator(HilbertSpace((2,)), 0.5 * sz),
        Operator(sp_b, b.conj().T @ b),
        [
            (Operator(HilbertSpace((2,)), sm), Operator(sp_b, b.conj().T)),
            (Operator(HilbertSpace((2,)), sm.conj().T), Operator(sp_b, b)),
        ],
    )
    ok = worst_complete <= 1e-10 and worst_ladder <= 1e-9 and residual < 1e-12
    _check(
        10,
        "eigenoperator completeness/ladder/conservation",
        ok,
        f"completeness {worst_complete:.1e}, ladder {worst_ladder:.1e}, residual {residual:.1e}",
    )


def test_criterion_11_closed_form_vs_propagator():
    rng = np.random.default_rng(1177)
    worst = 0.0
    for _ in range(20):
        g11, g22 = rng.uniform(0, 0.2, size=2)
        g12 = math.sqrt(g11 * g22) * rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        p = JCParams(
            omega0=rng.uniform(0.5, 2.0),
            eps=rng.uniform(0.05, 0.3) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            g11=g11,
            g22=g22,
            g12=g12,
            n_exc=3,
        )
        n = int(rng.integers(1, 4))
        rn = math.sqrt(n)
        bn = np.array(
            [
                [
                    p.omega0 * (n - 0.5) - 0.5j * (p.g11 + (n - 1) * p.g22),
                    rn * (p.eps - 0.5j * p.g12),
                ],
                [
                    rn * (np.conj(p.eps) - 0.5j * np.conj(p.g12)),
                    p.omega0 * (n - 0.5) - 0.5j * (n * p.g22),
                ],
            ]
        )
        t = float(rng.uniform(0.5, 25.0))
        blk = closed_form_block(p, n, np.array([0.0, t]))
        u = expm(-1j * bn * t)
        r = u @ np.diag([1.0, 0.0]).astype(complex) @ u.conj().T
        worst = max(
            worst,
            abs(blk.rho11[1] - r[0, 0]),
            abs(blk.rho12[1] - r[0, 1]),
            abs(blk.rho22[1] - r[1, 1]),
        )
    _check(11, "sector closed form vs matrix exponential", worst <= 1e-10, f"max dev = {worst:.2e}")


def test_criterion_12_byte_determinism(tmp_path):
    cfg = {
        "model": "jc-common",
        "params": {"omega0": 1.0, "eps": 0.1, "g11": 0.01, "g22": 0.01, "g12": 0.01},
        "grid": {"t_end": 120.0, "n_steps": 61},
        "outputs": ["population", "concurrence", "trace"],
        "engine": "mcwf",
        "mcwf": {"n_traj": 80, "seed": 99},
    }
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(cfg))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    outs = []
    for sub in ("a", "b"):
        r = subprocess.run(
            [
                sys.executable,
                "-m",
                "cobath",
                "trajectories",
                "--config",
                str(cfg_path),
                "--out",
                str(tmp_path / sub),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert r.returncode == 0, r.stderr
        outs.append(
            (
                (tmp_path / sub / "det.csv").read_bytes(),
                (tmp_path / sub / "det.svg").read_bytes(),
            )
        )
    ok = outs[0][0] == outs[1][0] and outs[0][1] == outs[1][1]
    _check(
        12,
        "seeded reruns are byte-identical",
        ok,
        f"csv {len(outs[0][0])} bytes, svg {len(outs[0][1])} bytes",
    )

"""Reference solutions the emitted states are checked against.

- ``liouvillian``: the master equation assembled here from its textbook
  terms (atom lowering S_-, mode lowering a, rate matrix gamma) on the
  benchmark's own operator matrices, propagated exactly with one matrix
  exponential per grid step.  It shares no code with cobath's
  integrators and applies to every single-excitation case, the
  custom-tensor one included.
- ``closed_form_block``: cobath's analytic 2x2 sector propagator, for every
  jc case; for n_exc > 1 it checks the top excitation sector.
- Monte Carlo ensembles are checked in units of 0.5/sqrt(n_traj), the
  largest binomial standard deviation of a population estimate.
- A hierarchy case with a ``pair`` is also checked against the states of
  the integrate case with the same parameters.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

DEV_TOL = 1e-7  # deterministic engines: largest entry deviation that passes
MCWF_K = 5.0  # Monte Carlo: allowed deviation in units of 0.5/sqrt(n_traj)


def _complex(v) -> complex:
    return complex(v[0], v[1]) if isinstance(v, list) else complex(v)


def _n_max(params) -> int:
    n_exc = params.get("n_exc", 1)
    return params.get("n_max", n_exc + 2)


def _model(cfg):
    """Hamiltonian, channel operators (S_-, a) and rate matrix of a config."""
    p = cfg["params"]
    n_ph = _n_max(p) + 1
    lower = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # atom index 0 is excited
    a = np.diag(np.sqrt(np.arange(1.0, n_ph)), 1).astype(complex)
    s_minus = np.kron(lower, np.eye(n_ph))
    a_full = np.kron(np.eye(2), a)
    w0, eps = float(p["omega0"]), _complex(p["eps"])
    h = (0.5 * w0 * np.kron(np.diag([1.0, -1.0]), np.eye(n_ph))
         + w0 * a_full.conj().T @ a_full
         + eps * a_full @ s_minus.conj().T + np.conj(eps) * a_full.conj().T @ s_minus)
    if cfg["model"] == "custom-tensor":
        tensor = p["tensor"]
        gamma = np.zeros((2, 2), dtype=complex)
        for w, g in zip(tensor["frequencies"], tensor["gamma"]):
            if abs(w - w0) > 1e-9:
                raise ValueError(f"oracle: rate at frequency {w} has no channel")
            gamma += np.array([[_complex(x) for x in row] for row in g])
    else:
        g12 = _complex(p.get("g12", 0.0))
        gamma = np.array([[p["g11"], g12], [np.conj(g12), p["g22"] + p.get("k_mirror", 0.0)]],
                         dtype=complex)
    return h, (s_minus, a_full), gamma


def _initial_index(cfg) -> int:
    if cfg.get("initial", "atom") != "atom":
        raise ValueError("oracle: only the 'atom' initial state is generated")
    p = cfg["params"]
    return p.get("n_exc", 1) - 1  # |n_exc - 1 photons, atom excited>


def liouvillian_states(cfg, grid: np.ndarray) -> np.ndarray:
    """Exact states (n_t, d, d) from expm of the assembled Liouvillian."""
    h, ops, gamma = _model(cfg)
    d = h.shape[0]
    eye = np.eye(d)
    lv = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for a in range(2):
        for b in range(2):
            if gamma[a, b] == 0:
                continue
            k = ops[a].conj().T @ ops[b]
            lv += gamma[a, b] * (np.kron(ops[b], ops[a].conj())
                                 - 0.5 * np.kron(k, eye) - 0.5 * np.kron(eye, k.T))
    step = expm(lv * (grid[-1] - grid[0]) / (len(grid) - 1))  # the grid is uniform
    rho = np.zeros(d * d, dtype=complex)
    i0 = _initial_index(cfg)
    rho[i0 * d + i0] = 1.0
    out = np.empty((len(grid), d * d), dtype=complex)
    out[0] = rho
    for k in range(1, len(grid)):
        out[k] = rho = step @ rho
    return out.reshape(len(grid), d, d)


def sector_block(cfg, grid: np.ndarray):
    """Top-sector indices and entries (r11, r12, r22) from closed_form_block."""
    from cobath.jc import JCParams, closed_form_block

    p = cfg["params"]
    n_exc = p.get("n_exc", 1)
    jp = JCParams(
        omega0=p["omega0"], eps=_complex(p["eps"]), g11=p["g11"], g22=p["g22"],
        g12=_complex(p.get("g12", 0.0)), k_mirror=p.get("k_mirror", 0.0),
        n_exc=n_exc, n_max=p.get("n_max"),
    )
    blk = closed_form_block(jp, n_exc, grid)
    n_ph = _n_max(p) + 1
    return (n_exc - 1, n_ph + n_exc), blk.rho11, blk.rho12, blk.rho22


def prepare(cfg, perturb: float = 0.0) -> dict:
    """Every reference for one single-run config.

    ``perturb`` is added to the reference states; the self-test uses it to
    show that the checks are live.
    """
    grid = np.linspace(0.0, cfg["grid"]["t_end"], cfg["grid"]["n_steps"])
    ref = {"cfg": cfg, "n_t": len(grid)}
    if cfg["params"].get("n_exc", 1) == 1:
        ref["full"] = liouvillian_states(cfg, grid) + perturb
    if cfg["model"] != "custom-tensor":
        idx, r11, r12, r22 = sector_block(cfg, grid)
        ref["sector"] = (idx, r11 + perturb, r12, r22)
    return ref


def _max_abs(x) -> float:
    return float(np.max(np.abs(x))) if np.size(x) else 0.0


def check(ref: dict, states: np.ndarray, paired: np.ndarray | None = None) -> dict:
    """Compare emitted states (n_t, d, d) with the references of one config.

    Returns ``ok``; ``dev``, the largest deviation of a deterministic
    quantity; and for Monte Carlo runs ``z``, the largest population
    deviation in units of 0.5/sqrt(n_traj).
    """
    cfg = ref["cfg"]
    if states.shape[0] != ref["n_t"]:
        return {"ok": False, "dev": math.inf, "why": "wrong number of states"}
    if cfg["engine"] == "mcwf":
        n_ph = _n_max(cfg["params"]) + 1
        pop = np.einsum("tii->t", states[:, :n_ph, :n_ph]).real
        exact = np.einsum("tii->t", ref["full"][:, :n_ph, :n_ph]).real
        z = _max_abs(pop - exact) / (0.5 / math.sqrt(cfg["mcwf"]["n_traj"]))
        dev = _max_abs(np.einsum("tii->t", states) - 1.0)
        ok = z <= MCWF_K and dev <= DEV_TOL
        return {"ok": ok, "dev": dev, "z": z, "why": "" if ok else f"z = {z:.2f}"}
    devs = []
    if "full" in ref:
        devs.append(_max_abs(states - ref["full"]))
    if "sector" in ref:
        (i, j), r11, r12, r22 = ref["sector"]
        devs += [_max_abs(states[:, i, i] - r11), _max_abs(states[:, i, j] - r12),
                 _max_abs(states[:, j, j] - r22)]
    if paired is not None:
        devs.append(_max_abs(states - paired))
    dev = max(devs)
    ok = dev <= DEV_TOL
    return {"ok": ok, "dev": dev, "why": "" if ok else f"deviation {dev:.3e}"}

"""Seeded inputs for the three workloads, built with numpy alone.

The workload process calls `generate` before it imports hqm, so the inputs
cannot depend on the library under test. The same seed gives the same
inputs. Only values change with the seed: grid sizes, step counts, job
types and family shapes are fixed, so every seed costs the same work.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi

# evolve_long: one CLI evolve run at n = 256 with dt at 1/4 of the explicit
# stability bound 2m/(hbar k_max^2), k_max = n/2; m = hbar = 1 makes dt and
# t1 exact binary fractions, so (t1 - t0)/dt is an exact integer. 2000 steps
# keep a run to a few seconds, so one measurement holds several runs to take
# the upper quartile of their durations over.
EVOLVE_N = 256
EVOLVE_STEPS = 2000
EVOLVE_STRIDE = 20
EVOLVE_DT = 0.25 * 2.0 / (EVOLVE_N // 2) ** 2

# dense_ops: one round is every (job, n) pair below, in this order; a fixed
# order keeps the allocation sequence, and so peak RSS, the same for every seed.
DENSE_JOBS = (
    [("resolve", n) for n in (48, 64, 96, 128)]
    + [("dyson", n) for n in (32, 48, 64)]
    + [("short_time", n) for n in (32, 48, 64)]
)
DYSON_TERMS = 4
DYSON_QUAD = 17
SHORT_TIME_STEPS = 16
DENSE_ROUNDS = 64  # input pool; a run repeats the pool if it needs more

# fourier_multi: (kind, n, N or cross half-width, parameters sampled?)
FOURIER_FAMILIES = (
    ("PhaseForm", 512, 24, False),
    ("PhaseForm", 1024, 32, False),
    ("PhaseForm", 512, 24, True),
    ("PhaseForm", 1024, 32, True),
    ("ExpForm", 512, 24, False),
    ("ExpForm", 1024, 32, False),
    ("ExpForm", 512, 24, True),
    ("ExpForm", 1024, 32, True),
    ("TwoIndex", 512, 11, False),
    ("TwoIndex", 1024, 20, False),
)
FOURIER_TARGETS = 16  # per family: the first half planted, the rest random


def nodes(n: int) -> np.ndarray:
    return np.arange(n) * (TWO_PI / n)


def _num(value: float) -> str:
    """A float literal the config grammar reads back to the same double."""
    return repr(float(value))


def _trig_terms(rng, ks, lo, hi):
    """[(amplitude, k, phase, 'sin'|'cos')] for a band-limited real function."""
    return [(rng.uniform(lo, hi), k, rng.uniform(0.0, TWO_PI), rng.choice(["sin", "cos"]))
            for k in ks]


def _trig_expr(const: float, terms) -> str:
    parts = [_num(const)]
    for amp, k, phase, fn in terms:
        parts.append(f"{_num(amp)}*{fn}({k}*x + {_num(phase)})")
    return " + ".join(parts)


def _trig_eval(const: float, terms, x: np.ndarray) -> np.ndarray:
    out = np.full_like(x, const)
    for amp, k, phase, fn in terms:
        out = out + amp * (np.sin if fn == "sin" else np.cos)(k * x + phase)
    return out


def _band_function(rng, x, k_max, scale=1.0):
    out = np.full_like(x, rng.normal() * scale)
    for k in range(1, k_max + 1):
        out += scale * (rng.normal() * np.cos(k * x) + rng.normal() * np.sin(k * x)) / k
    return out


def _band_state(rng, x, k_max, components=4):
    """Band-limited (n, 4) state with unit inner norm; zero beyond `components`."""
    values = np.zeros((len(x), 4))
    for c in range(components):
        values[:, c] = _band_function(rng, x, k_max)
    h = TWO_PI / len(x)
    return values / math.sqrt(h * np.sum(values**2))


def _operator_data(rng, n, *, quaternionic_potential):
    """alpha, V and W for one freshly drawn Hamiltonian on n points."""
    x = nodes(n)
    alpha = 0.3 * _band_function(rng, x, 2, scale=0.5)
    V = _band_function(rng, x, 3)
    W = complex(*rng.uniform(0.2, 0.5, 2) * rng.choice([-1.0, 1.0], 2)) \
        if quaternionic_potential else 0j
    return {"n": n, "alpha": alpha, "V": V, "W": W}


def _evolve_inputs(rng, work_dir: Path) -> dict:
    x = nodes(EVOLVE_N)
    alpha = (0.0, _trig_terms(rng, (1, 2), 0.1, 0.4))
    V = (rng.uniform(-0.5, 0.5), _trig_terms(rng, (1, 3), 0.3, 1.0))
    W = rng.uniform(0.2, 0.5, 2) * rng.choice([-1.0, 1.0], 2)
    psi = [(rng.uniform(0.2, 1.0), _trig_terms(rng, (1, 2), 0.1, 0.5)) for _ in range(4)]
    lines = [
        "# generated by perfbench/inputs.py",
        f"grid_points = {EVOLVE_N}",
        f"alpha = {_trig_expr(*alpha)}",
        f"V_re = {_trig_expr(*V)}",
        f"W_re = {_num(W[0])}",
        f"W_im = {_num(W[1])}",
    ]
    lines += [f"psi0_x{c} = {_trig_expr(*psi[c])}" for c in range(4)]
    lines += [
        f"t1 = {_num(EVOLVE_STEPS * EVOLVE_DT)}",
        f"dt = {_num(EVOLVE_DT)}",
        f"stride = {EVOLVE_STRIDE}",
    ]
    work_dir.mkdir(parents=True, exist_ok=True)
    config = work_dir / "evolve.cfg"
    config.write_text("\n".join(lines) + "\n")
    psi0 = np.stack([_trig_eval(*psi[c], x) for c in range(4)], axis=-1)
    psi0 /= math.sqrt((TWO_PI / EVOLVE_N) * np.sum(psi0**2))
    return {
        "config": config,
        "out": work_dir / "cli_out",
        "n": EVOLVE_N,
        "steps": EVOLVE_STEPS,
        "stride": EVOLVE_STRIDE,
        "dt": EVOLVE_DT,
        "alpha": _trig_eval(*alpha, x),
        "V": _trig_eval(*V, x),
        "W": complex(W[0], W[1]),
        "psi0": psi0,
    }


def _dense_inputs(rng) -> dict:
    jobs = []
    for _ in range(DENSE_ROUNDS):
        for kind, n in DENSE_JOBS:
            data = _operator_data(rng, n, quaternionic_potential=(kind != "resolve"))
            x = nodes(n)
            if kind == "resolve":
                data["probe"] = rng.normal(size=(4 * n, 4))  # for the reconstruction check
            elif kind == "dyson":
                data["psi0"] = _band_state(rng, x, 4, components=2)  # complex data
            elif kind == "short_time":
                data["psi0"] = _band_state(rng, x, 4)
            # t * (a bound on ||H||) is fixed so the truncation and quadrature
            # errors stay far below the oracle tolerance at every size.
            h_bound = (n / 2 + np.max(np.abs(data["alpha"]))) ** 2 / 2 \
                + np.max(np.abs(data["V"])) + abs(data["W"])
            data["t1"] = (0.05 if kind == "dyson" else 0.5) / h_bound
            jobs.append((kind, data))
    return {"jobs": jobs, "round": len(DENSE_JOBS)}


def _cross(N):
    out = [(m, 0) for m in range(-N, N + 1)]
    out += [(0, n) for n in range(-N, N + 1) if n != 0]
    return tuple(out)


def family_values(kind: str, x, index_set, phi0, xi0, theta0) -> np.ndarray:
    """(size, n, 4) samples straight from the defining formulas."""
    out = []
    for idx in index_set:
        if kind == "PhaseForm":
            z0 = np.cos(idx * x) * np.exp(1j * phi0)
            z1 = np.sin(idx * x) * np.exp(1j * xi0)
        elif kind == "ExpForm":
            z0 = np.cos(theta0) * np.exp(1j * idx * x)
            z1 = np.sin(theta0) * np.exp(-1j * idx * x)
        else:
            m, k = idx
            z0 = np.cos(theta0) * np.exp(1j * m * x)
            z1 = np.sin(theta0) * np.exp(1j * k * x)
        z0, z1 = np.broadcast_arrays(z0 + 0j, z1 + 0j)
        out.append(np.stack([z0.real, z0.imag, z1.real, z1.imag], axis=-1))
    return np.stack(out)


def _fourier_inputs(rng, work_dir: Path) -> dict:
    families = []
    for kind, n, N, sampled in FOURIER_FAMILIES:
        x = nodes(n)
        if sampled:
            params = {p: _band_function(rng, x, 3, scale=0.7) for p in ("phi0", "xi0", "theta0")}
        else:
            params = {p: float(rng.uniform(0.1, TWO_PI - 0.1)) for p in ("phi0", "xi0", "theta0")}
        if kind == "TwoIndex":
            params["theta0"] = float(rng.uniform(0.3, 1.2))  # keeps the Gram system well posed
            indices = _cross(N)
        else:
            indices = None
        index_set = list(indices) if indices is not None else list(range(-N, N + 1))
        basis = family_values(kind, x, index_set, params["phi0"], params["xi0"], params["theta0"])
        targets = []
        for t in range(FOURIER_TARGETS):
            if t < FOURIER_TARGETS // 2:
                coeffs = rng.uniform(-2.0, 2.0, size=len(index_set))
                values = np.tensordot(coeffs, basis, axes=(0, 0))
            else:
                coeffs = None  # the oracle is a least-squares projection
                values = _band_state(rng, x, N + 4)
            targets.append((values, coeffs))
        families.append({"kind": kind, "n": n, "N": N, "indices": indices,
                         "sampled": sampled, "params": params,
                         "basis": basis, "targets": targets,
                         "csv": work_dir / f"family{len(families):02d}.csv"})
    work_dir.mkdir(parents=True, exist_ok=True)
    return {"families": families}


def generate(workload: str, seed: int, work_dir: Path) -> dict:
    rng = np.random.default_rng([seed, sum(map(ord, workload))])
    if workload == "evolve_long":
        return _evolve_inputs(rng, work_dir)
    if workload == "dense_ops":
        return _dense_inputs(rng)
    if workload == "fourier_multi":
        return _fourier_inputs(rng, work_dir)
    raise ValueError(f"unknown workload {workload!r}")

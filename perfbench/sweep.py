"""Grid-size sweep of single hqm calls, for traced runs only and not gated.

Each entry is the median wall time of repeated calls at one grid size,
with a gauge field and W != 0, as `sweep.<call>.n<size>_ms`.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import inputs

PER_STEP_SIZES = (32, 256, 1024)
MATRIX_SIZES = (32, 64, 128)
DYSON_SIZES = (32, 64)


def _median_ms(call, budget_s=0.15, max_repeats=200) -> float:
    call()  # warm-up: lazy imports, allocator, FFT plan caches
    start = time.perf_counter()
    call()
    first = time.perf_counter() - start
    times = [first]
    for _ in range(max(2, min(max_repeats, int(budget_s / max(first, 1e-9))))):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def _spec(hqm, rng, n, W=0.4 + 0.3j):
    x = inputs.nodes(n)
    return hqm.HamiltonianSpec(grid=hqm.Grid(n), alpha=0.3 * np.sin(x) + 0.1 * np.cos(2 * x),
                               V=np.cos(x) + 0.2 * rng.normal() * np.sin(3 * x), W=W)


def run(hqm, seed: int) -> dict[str, float]:
    from hqm.operators import spectral_derivative
    rng = np.random.default_rng(seed)
    out = {}
    for n in PER_STEP_SIZES:
        spec = _spec(hqm, rng, n)
        values = rng.normal(size=(n, 4))
        other = rng.normal(size=(n, 4))
        psi = hqm.QFunction(spec.grid, values / np.sqrt(spec.grid.h * np.sum(values**2)))
        h_op = hqm.hamiltonian(spec)
        dt = 0.25 * 2.0 / (n // 2) ** 2
        out[f"sweep.qmul.n{n}_ms"] = _median_ms(lambda: hqm.quaternion.qmul(values, other))
        out[f"sweep.spectral_derivative.n{n}_ms"] = _median_ms(
            lambda: spectral_derivative(values, spec.grid))
        out[f"sweep.H_apply.n{n}_ms"] = _median_ms(lambda: h_op.apply_values(values))
        out[f"sweep.step.n{n}_ms"] = _median_ms(lambda: hqm.step(spec, psi, dt))
        out[f"sweep.probability_fields.n{n}_ms"] = _median_ms(
            lambda: hqm.probability_fields(spec, psi))
    for n in MATRIX_SIZES:
        spec = _spec(hqm, rng, n, W=0.0)  # self-adjoint, so decompose accepts it
        out[f"sweep.QOperator_matrix.n{n}_ms"] = _median_ms(
            lambda: hqm.hamiltonian(spec).matrix)
        h_op = hqm.hamiltonian(spec)
        h_op.matrix  # decompose alone, on an operator already realized
        out[f"sweep.decompose.n{n}_ms"] = _median_ms(lambda: hqm.decompose(h_op), max_repeats=5)
    for n in DYSON_SIZES:
        spec = _spec(hqm, rng, n)
        out[f"sweep.dyson_propagator.n{n}_ms"] = _median_ms(
            lambda: hqm.dyson_propagator(spec, 0.0, 1e-4, inputs.DYSON_TERMS, inputs.DYSON_QUAD),
            budget_s=0.0)
    return out

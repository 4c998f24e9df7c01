"""Independent references for the workload checks; nothing here imports hqm.

Operators are assembled as dense (4n)x(4n) real matrices from an explicit
DFT derivative matrix and 4x4 left/right quaternion-multiplication blocks
written out from the Hamilton product, then evolved with scipy's expm or
diagonalised with numpy's eigvalsh. State vectors are (n, 4) component
arrays flattened row-major, index 4*node + component.

Each tolerance is fixed here from the method's error bound, not from the
observed error, and every check returns (max_err, ok).
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi

TOL = {
    # RK4 at dt = 1/4 of the stability bound on band-limited data: global
    # error O(dt^4) in the few occupied modes, far below 1e-7.
    "evolve_long": 1e-7,
    # eigenvalues relative to max(1, |lambda|): decompose averages clusters
    # within 1e-8 relative, and rounding in eigh is ~1e-13 relative.
    "eigenvalues": 1e-8,
    "reconstruction": 1e-9,
    # Dyson at t ||H|| <= 0.05, 4 terms, 17 nodes: truncation (0.05)^5/5!
    # and level-3 trapezoid error ~ (0.05)^3 / 6 / 512 are both < 1e-7.
    "dyson": 1e-6,
    # 16 fourth-order Taylor factors at dt ||H|| <= 0.03: ~1e-10 per factor.
    "short_time": 1e-8,
    # Gram solves of condition number < 1e3 on O(1) coefficients.
    "coefficients": 1e-8,
}


def left_block(a) -> np.ndarray:
    """4x4 matrix of p -> a p (Hamilton product with a on the left)."""
    a0, a1, a2, a3 = a
    return np.array([[a0, -a1, -a2, -a3],
                     [a1, a0, -a3, a2],
                     [a2, a3, a0, -a1],
                     [a3, -a2, a1, a0]], dtype=float)


def right_block(b) -> np.ndarray:
    """4x4 matrix of p -> p b (Hamilton product with b on the right)."""
    b0, b1, b2, b3 = b
    return np.array([[b0, -b1, -b2, -b3],
                     [b1, b0, b3, -b2],
                     [b2, -b3, b0, b1],
                     [b3, b2, -b1, b0]], dtype=float)


def block_diag(blocks: np.ndarray) -> np.ndarray:
    """(n, 4, 4) node blocks -> (4n, 4n) block-diagonal matrix."""
    n = blocks.shape[0]
    out = np.zeros((n, 4, n, 4))
    idx = np.arange(n)
    out[idx, :, idx, :] = blocks
    return out.reshape(4 * n, 4 * n)


def dft_derivative(n: int) -> np.ndarray:
    """d/dx on n periodic nodes through an explicit DFT matrix; Nyquist mode to 0."""
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    F = np.exp(-2j * np.pi * j * k / n)
    freqs = np.where(np.arange(n) < (n + 1) // 2, np.arange(n), np.arange(n) - n).astype(float)
    if n % 2 == 0:
        freqs[n // 2] = 0.0
    return np.real(F.conj().T @ np.diag(1j * freqs) @ F) / n


def hamiltonian_matrix(n, alpha, V, W, mass=1.0, hbar=1.0) -> np.ndarray:
    """H = -(hbar^2/2m)(d/dx - A)^2 + U with A = alpha i and U = V + W j."""
    V = np.broadcast_to(np.asarray(V, dtype=complex), (n,))
    W = np.broadcast_to(np.asarray(W, dtype=complex), (n,))
    zero = np.zeros(n)
    gauge = block_diag(np.stack([left_block(q) for q in zip(zero, alpha, zero, zero)]))
    potential = block_diag(np.stack([left_block(q) for q in
                                     zip(V.real, V.imag, W.real, W.imag)]))
    d_a = np.kron(dft_derivative(n), np.eye(4)) - gauge
    return (-hbar**2 / (2.0 * mass)) * (d_a @ d_a) + potential


def generator(H: np.ndarray, hbar=1.0) -> np.ndarray:
    """G with dPsi/dt = G Psi for hbar dPsi/dt i = H Psi, i.e. G = -(1/hbar) R_i H."""
    n = H.shape[0] // 4
    return (-1.0 / hbar) * np.kron(np.eye(n), right_block((0.0, 1.0, 0.0, 0.0))) @ H


def expm(matrix: np.ndarray) -> np.ndarray:
    import scipy.linalg
    return scipy.linalg.expm(matrix)


def inner_norm(values: np.ndarray) -> float:
    """Norm under the real inner product, h * sum of squared components."""
    n = values.shape[-2]
    return math.sqrt((TWO_PI / n) * float(np.sum(values**2)))


# ---------------------------------------------------------------------------
# Per-workload checks
# ---------------------------------------------------------------------------

def check_trajectory(inp: dict, rows: np.ndarray) -> tuple[float, bool]:
    """Every written row (t, then n*4 components) against expm of the generator."""
    n, dt, stride = inp["n"], inp["dt"], inp["stride"]
    step = expm(generator(hamiltonian_matrix(n, inp["alpha"], inp["V"], inp["W"]))
                * (stride * dt))
    psi = inp["psi0"].ravel()
    expected_rows = inp["steps"] // stride + 1
    if rows.shape != (expected_rows, 1 + 4 * n) or not np.all(np.isfinite(rows)):
        return math.inf, False
    err = 0.0
    for r in range(expected_rows):
        err = max(err, abs(rows[r, 0] - r * stride * dt),
                  float(np.max(np.abs(rows[r, 1:] - psi))))
        psi = step @ psi
    return err, err <= TOL["evolve_long"]


def check_resolve(data: dict, eigenvalues, multiplicities, recon_probe) -> tuple[float, bool]:
    """Eigenvalues against eigvalsh, and sum_k lambda_k P_k against H on probe vectors."""
    H = hamiltonian_matrix(data["n"], data["alpha"], data["V"], data["W"])
    ref = np.linalg.eigvalsh(0.5 * (H + H.T))
    got = np.repeat(eigenvalues, multiplicities)
    if got.shape != ref.shape or not np.all(np.isfinite(recon_probe)):
        return math.inf, False
    eig_err = float(np.max(np.abs(got - ref))) / max(1.0, float(np.max(np.abs(ref))))
    h_probe = H @ data["probe"]
    rec_err = float(np.linalg.norm(recon_probe - h_probe) / np.linalg.norm(h_probe))
    return max(eig_err, rec_err), eig_err <= TOL["eigenvalues"] and rec_err <= TOL["reconstruction"]


def check_propagated(data: dict, psi_t: np.ndarray, tol_key: str) -> tuple[float, bool]:
    H = hamiltonian_matrix(data["n"], data["alpha"], data["V"], data["W"])
    ref = (expm(generator(H) * data["t1"]) @ data["psi0"].ravel()).reshape(-1, 4)
    if psi_t.shape != ref.shape or not np.all(np.isfinite(psi_t)):
        return math.inf, False
    err = inner_norm(psi_t - ref)
    return err, err <= TOL[tol_key]


def projection_coefficients(basis: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of target over the stacked basis samples."""
    flat = basis.reshape(basis.shape[0], -1)
    coeffs, *_ = np.linalg.lstsq(flat.T, target.ravel(), rcond=None)
    return coeffs


def check_coefficients(basis, ref, got_coeffs, got_synth) -> tuple[float, bool]:
    """Coefficients against planted or least-squares ones, and the synthesis they give."""
    if got_coeffs.shape != ref.shape or not np.all(np.isfinite(got_synth)):
        return math.inf, False
    synth = np.tensordot(ref, basis, axes=(0, 0))
    err = max(float(np.max(np.abs(got_coeffs - ref))),
              float(np.max(np.abs(got_synth - synth))))
    return err, err <= TOL["coefficients"]

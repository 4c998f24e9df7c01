"""Spectral resolution of self-adjoint operators under the real inner product.

Self-adjointness makes the matrix realization symmetric in the uniform real
coordinates, so the spectrum is real and the eigenspaces are orthogonal;
eigenvalues within a clustering tolerance are merged into one projection and
the operator is recovered as sum_k lambda_k P_k.

A right-quaternion-linear operator (the Hamiltonian, left multiplications)
is solved on the symplectic pair (w0, w1) of Psi = w0 + j w1, where right
multiplication by i is multiplication by i: there it is a Hermitian 2n x 2n
complex matrix H_c, and each complex eigenvector u gives the real
eigenvectors Psi_u and Psi_u i.  Right multiplication by j is the
antiunitary Kramers map (w0, w1) -> (-conj w1, conj w0), which commutes
with H_c, so every eigenvalue of H_c is doubly degenerate and real
multiplicities come in 4s (Dongarra, Gabriel, Koelling & Wilkinson, Linear
Algebra Appl. 60, 1984).
When the operator also commutes with left multiplication by i, H_c is block
diagonal (the complex sector of Adler's quaternionic quantum mechanics) and
only its n x n w0 block is diagonalized.  Every other operator goes through
one real (4n)x(4n) eigh.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, NotSelfAdjointError
from .hilbert import _FLOAT, Grid, QFunction
from .operators import QOperator, _from_pair, _RightLinearOperator, _to_pair

__all__ = ["SpectralResolution", "decompose", "project", "write_spectrum_csv"]


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make the first significant coordinate of each column positive (reproducibility)."""
    mag = np.abs(vectors)
    first = np.argmax(mag > 1e-10 * np.max(mag, axis=0), axis=0)
    lead = vectors[first, np.arange(vectors.shape[1])]
    return vectors * np.where(lead < 0, -1.0, 1.0)


@dataclass(frozen=True, eq=False)
class SpectralResolution:
    """Eigenvalues (ascending, multiplicity-aggregated) with projection factors.

    Projections are stored via orthonormal eigenbasis factors Q_k of shape
    (4n, multiplicity); P_k acts as Q_k Q_k^T on stacked components.
    """

    grid: Grid
    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    factors: tuple[np.ndarray, ...]

    @property
    def n_spaces(self) -> int:
        return len(self.eigenvalues)

    def _factor(self, k: int) -> np.ndarray:
        """Q_k; an index outside [0, n_spaces) raises IndexError (no negative wrap-around)."""
        if not 0 <= k < self.n_spaces:
            raise IndexError(f"eigenspace index {k} out of range [0, {self.n_spaces})")
        return self.factors[k]

    def projection(self, k: int) -> QOperator:
        self._factor(k)
        return QOperator(self.grid, lambda v: self.project_values(k, v), f"P[{k}]")

    def project_values(self, k: int, values: np.ndarray) -> np.ndarray:
        """P_k on (..., n, 4) values, broadcasting over the leading axes."""
        q = self._factor(k)
        flat = values.reshape(values.shape[:-2] + (q.shape[0],))
        return ((flat @ q) @ q.T).reshape(values.shape)

    def reconstruction_matrix(self) -> np.ndarray:
        """sum_k lambda_k Q_k Q_k^T as one product (Q lambda) Q^T over the stacked factors."""
        q = np.hstack(self.factors)
        return (q * np.repeat(self.eigenvalues, self.multiplicities)) @ q.T

    def eigenfunctions(self, k: int) -> list[QFunction]:
        """Orthonormal (unit inner norm) functions spanning the k-th eigenspace."""
        q = self._factor(k)
        scale = 1.0 / math.sqrt(self.grid.h)  # Euclidean-unit columns carry norm sqrt(h)
        return [QFunction(self.grid, (scale * q[:, i]).reshape(-1, 4))
                for i in range(q.shape[1])]


def _pair_eigh(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real eigenpairs of a symmetric right-linear realization from the complex pair.

    Column k of H_c is the pair of the unit-1 column 4k, column n + k that of
    the unit-j column 4k + 2.  Each complex eigenvector u yields the real
    columns Psi_u and Psi_u i; in the complex sector u in C^n stands for the
    Kramers pair (u, 0), (0, conj u).
    """
    n = sym.shape[0] // 4
    cols = _to_pair(sym.reshape(n, 4, n, 4)[..., ::2].transpose(3, 2, 0, 1))
    h_c = cols.transpose(2, 3, 0, 1).reshape(2 * n, 2 * n)
    if np.any(h_c[n:, :n]):
        eigvals, u = np.linalg.eigh(h_c)
        pairs = u.T.reshape(2 * n, 2, n)
    else:
        eigvals, u = np.linalg.eigh(h_c[:n, :n])
        eigvals = np.repeat(eigvals, 2)
        pairs = np.zeros((n, 2, 2, n), dtype=complex)
        pairs[:, 0, 0] = u.T
        pairs[:, 1, 1] = u.T.conj()
        pairs = pairs.reshape(2 * n, 2, n)
    real = _from_pair(np.stack([pairs, 1j * pairs], axis=1))
    return np.repeat(eigvals, 2), real.reshape(4 * n, 4 * n).T


def decompose(
    T: QOperator,
    *,
    selfadjoint_tol: float = 1e-8,
    cluster_tol: float = 1e-8,
) -> SpectralResolution:
    """Eigendecompose a self-adjoint operator into its spectral resolution.

    Rejects inputs whose relative asymmetry exceeds selfadjoint_tol or is NaN
    (non-finite matrix entries); adjacent eigenvalues with
    |a - b| < cluster_tol * max(1, |a|, |b|) are merged into one eigenspace.
    A right-linear operator is solved on the complex pair: an n x n eigh in
    the complex sector, whose multiplicities are multiples of 4 by
    construction, and a 2n x 2n one otherwise, whose Kramers partners differ
    by rounding only, far inside the default cluster_tol.  Any other
    operator takes one real (4n)x(4n) eigh.
    """
    asym = T.asymmetry()
    if not asym <= selfadjoint_tol:  # a NaN asymmetry fails the contract too
        raise NotSelfAdjointError(asym, selfadjoint_tol)
    m = T.matrix
    sym = 0.5 * (m + m.T)
    if isinstance(T, _RightLinearOperator):
        eigvals, eigvecs = _pair_eigh(sym)
    else:
        eigvals, eigvecs = np.linalg.eigh(sym)
    eigvecs = _fix_signs(eigvecs)

    prev, cur = eigvals[:-1], eigvals[1:]
    scale = np.maximum(1.0, np.maximum(np.abs(cur), np.abs(prev)))
    starts = np.flatnonzero(np.abs(cur - prev) >= cluster_tol * scale) + 1
    clusters = np.split(eigvals, starts)
    lams = np.array([float(np.mean(c)) for c in clusters])
    mults = np.array([len(c) for c in clusters], dtype=int)
    factors = tuple(np.ascontiguousarray(q) for q in np.split(eigvecs, starts, axis=1))
    return SpectralResolution(T.grid, lams, mults, factors)


def project(res: SpectralResolution, k: int, f: QFunction) -> QFunction:
    """Component of f in the k-th eigenspace; the components sum back to f."""
    if f.grid != res.grid:
        raise GridMismatchError("function grid does not match the resolution grid")
    return QFunction(res.grid, res.project_values(k, f.values))


def write_spectrum_csv(res: SpectralResolution, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eigenvalue", "multiplicity"])
        for lam, mult in zip(res.eigenvalues, res.multiplicities):
            writer.writerow([_FLOAT % lam, str(int(mult))])

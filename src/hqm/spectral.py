"""Spectral resolution of self-adjoint operators under the real inner product.

Self-adjointness makes the matrix realization symmetric in the uniform real
coordinates, so the spectrum is real and the eigenspaces are orthogonal;
eigenvalues within a clustering tolerance are merged into one projection and
the operator is recovered as sum_k lambda_k P_k.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotSelfAdjointError
from .hilbert import _FLOAT, Grid, QFunction
from .operators import QOperator

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

    def projection(self, k: int) -> QOperator:
        q = self.factors[k]
        return QOperator(self.grid, lambda v: (q @ (q.T @ v.ravel())).reshape(-1, 4),
                         f"P[{k}]")

    def project_values(self, k: int, values: np.ndarray) -> np.ndarray:
        q = self.factors[k]
        return (q @ (q.T @ values.ravel())).reshape(-1, 4)

    def reconstruction_matrix(self) -> np.ndarray:
        """sum_k lambda_k Q_k Q_k^T as one product (Q lambda) Q^T over the stacked factors."""
        q = np.hstack(self.factors)
        return (q * np.repeat(self.eigenvalues, self.multiplicities)) @ q.T

    def eigenfunctions(self, k: int) -> list[QFunction]:
        """Orthonormal (unit inner norm) functions spanning the k-th eigenspace."""
        q = self.factors[k]
        scale = 1.0 / math.sqrt(self.grid.h)  # Euclidean-unit columns carry norm sqrt(h)
        return [QFunction(self.grid, (scale * q[:, i]).reshape(-1, 4))
                for i in range(q.shape[1])]


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
    """
    asym = T.asymmetry()
    if not asym <= selfadjoint_tol:  # a NaN asymmetry fails the contract too
        raise NotSelfAdjointError(asym, selfadjoint_tol)
    m = T.matrix
    sym = 0.5 * (m + m.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    eigvecs = _fix_signs(eigvecs)

    clusters: list[list[int]] = [[0]]
    for i in range(1, len(eigvals)):
        prev = eigvals[clusters[-1][-1]]
        if abs(eigvals[i] - prev) < cluster_tol * max(1.0, abs(eigvals[i]), abs(prev)):
            clusters[-1].append(i)
        else:
            clusters.append([i])

    lams = np.array([float(np.mean(eigvals[c])) for c in clusters])
    mults = np.array([len(c) for c in clusters], dtype=int)
    factors = tuple(np.ascontiguousarray(eigvecs[:, c]) for c in clusters)
    return SpectralResolution(T.grid, lams, mults, factors)


def project(res: SpectralResolution, k: int, f: QFunction) -> QFunction:
    """Component of f in the k-th eigenspace; the components sum back to f."""
    if not 0 <= k < res.n_spaces:
        raise IndexError(f"eigenspace index {k} out of range [0, {res.n_spaces})")
    if f.grid != res.grid:
        raise ValueError("function grid does not match the resolution grid")
    return QFunction(res.grid, res.project_values(k, f.values))


def write_spectrum_csv(res: SpectralResolution, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eigenvalue", "multiplicity"])
        for lam, mult in zip(res.eigenvalues, res.multiplicities):
            writer.writerow([_FLOAT % lam, str(int(mult))])

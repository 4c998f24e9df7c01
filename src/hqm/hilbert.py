"""Grid-discretized quaternion-valued functions on [0, 2pi) and their real inner product.

The inner product <f, g> = integral of Re[f * conj(g)] dx is real and symmetric;
the vector-space structure is real-linear (real scalars only).  Quadrature is
the uniform trapezoidal rule on the periodic grid, which is exact for
band-limited trigonometric integrands.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BasisValidationError, GridMismatchError, RankDeficiencyError
from .quaternion import Quaternion, from_complex_pair, qconj, qmul, to_complex_pair

__all__ = [
    "Grid",
    "QFunction",
    "inner",
    "norm",
    "gram_matrix",
    "gram_schmidt",
    "expand_in_basis",
    "combine",
    "write_qfunction_csv",
    "read_qfunction_csv",
]

TWO_PI = 2.0 * math.pi

# Format of every float in artifacts and summaries; 17 digits read back bit-exactly.
_FLOAT = "%.17e"


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, 2pi): nodes x_k = 2 pi k / n, endpoint excluded."""

    n_points: int

    def __post_init__(self):
        if self.n_points < 4:
            raise ValueError(f"grid needs at least 4 points, got {self.n_points}")

    @property
    def h(self) -> float:
        return TWO_PI / self.n_points

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n_points) * self.h


@dataclass(frozen=True, eq=False)
class QFunction:
    """A quaternion-valued function sampled on a grid; values has shape (n, 4)."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if vals.shape != (self.grid.n_points, 4):
            raise ValueError(
                f"values must have shape ({self.grid.n_points}, 4), got {vals.shape}"
            )
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_components(grid: Grid, x0=0.0, x1=0.0, x2=0.0, x3=0.0) -> "QFunction":
        n = grid.n_points
        cols = [np.broadcast_to(np.asarray(c, dtype=float), (n,)) for c in (x0, x1, x2, x3)]
        return QFunction(grid, np.stack(cols, axis=-1))

    @staticmethod
    def from_complex(grid: Grid, z0=0.0, z1=0.0) -> "QFunction":
        """Build from the symplectic pair: f = z0 + z1 j with complex samples."""
        n = grid.n_points
        z0 = np.broadcast_to(np.asarray(z0, dtype=complex), (n,))
        z1 = np.broadcast_to(np.asarray(z1, dtype=complex), (n,))
        return QFunction(grid, from_complex_pair(z0, z1))

    @staticmethod
    def constant(grid: Grid, q: Quaternion | float) -> "QFunction":
        if not isinstance(q, Quaternion):
            q = Quaternion(float(q))
        return QFunction(grid, np.tile(q.as_array(), (grid.n_points, 1)))

    @staticmethod
    def zero(grid: Grid) -> "QFunction":
        return QFunction(grid, np.zeros((grid.n_points, 4)))

    # -- views --------------------------------------------------------------

    @property
    def z0(self) -> np.ndarray:
        return to_complex_pair(self.values)[0]

    @property
    def z1(self) -> np.ndarray:
        return to_complex_pair(self.values)[1]

    # -- real-linear vector operations ---------------------------------------

    def _check_same_grid(self, other: "QFunction"):
        if self.grid != other.grid:
            raise GridMismatchError(
                f"grids differ: {self.grid.n_points} vs {other.grid.n_points} points"
            )

    def __add__(self, other: "QFunction") -> "QFunction":
        self._check_same_grid(other)
        return QFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "QFunction") -> "QFunction":
        self._check_same_grid(other)
        return QFunction(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "QFunction":
        return QFunction(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "QFunction":
        return QFunction(self.grid, -self.values)

    # -- pointwise quaternion operations (function ops, not vector-space ops) --

    def conj(self) -> "QFunction":
        return QFunction(self.grid, qconj(self.values))

    def left_mul(self, other) -> "QFunction":
        """Pointwise product other * f (other: QFunction, Quaternion or (n,4) array)."""
        return QFunction(self.grid, qmul(self._factor(other), self.values))

    def right_mul(self, other) -> "QFunction":
        """Pointwise product f * other."""
        return QFunction(self.grid, qmul(self.values, self._factor(other)))

    def _factor(self, other) -> np.ndarray:
        if isinstance(other, QFunction):
            self._check_same_grid(other)
            return other.values
        if isinstance(other, Quaternion):
            return other.as_array()
        return np.asarray(other, dtype=float)


def inner(f: QFunction, g: QFunction) -> float:
    """Real inner product: quadrature of Re[f * conj(g)] = componentwise dot.

    Symmetric and bilinear over real scalars; positive definite on the grid.
    """
    f._check_same_grid(g)
    return float(f.grid.h * np.sum(f.values * g.values))


def norm(f: QFunction) -> float:
    return math.sqrt(max(inner(f, f), 0.0))


def gram_matrix(fs: list[QFunction]) -> np.ndarray:
    """Gram matrix G[a, b] = inner(fs[a], fs[b]) via one dense product."""
    if not fs:
        return np.zeros((0, 0))
    grid = fs[0].grid
    for f in fs[1:]:
        fs[0]._check_same_grid(f)
    flat = np.stack([f.values.ravel() for f in fs])
    return grid.h * (flat @ flat.T)


def gram_schmidt(fs: list[QFunction], *, dep_tol: float = 1e-10,
                 gram_tol: float = 1e-8) -> list[QFunction]:
    """Orthonormalize under `inner` (modified Gram-Schmidt, one re-orthogonalization).

    Raises RankDeficiencyError naming the first element whose residual after
    projection drops below dep_tol relative to its original norm; the output
    Gram matrix is verified against the identity to gram_tol (max entry).
    """
    out: list[QFunction] = []
    for idx, f in enumerate(fs):
        original = norm(f)
        if original == 0.0:
            raise RankDeficiencyError(idx, 0.0)
        v = f
        for _ in range(2):  # second pass restores orthogonality lost to cancellation
            for e in out:
                v = v - inner(v, e) * e
        resid = norm(v)
        if resid <= dep_tol * original:
            raise RankDeficiencyError(idx, resid / original)
        out.append((1.0 / resid) * v)
    if out:
        gram_resid = np.max(np.abs(gram_matrix(out) - np.eye(len(out))))
        if gram_resid > gram_tol:
            raise BasisValidationError(
                f"orthonormalization left Gram residual {gram_resid:.3e} > {gram_tol:.3e}"
            )
    return out


def expand_in_basis(
    f: QFunction,
    basis: list[QFunction],
    *,
    check_orthonormal: bool = True,
    gram_tol: float = 1e-8,
) -> np.ndarray:
    """Coefficients c_a = inner(f, basis_a) against an orthonormal basis.

    With check_orthonormal the basis Gram matrix must match the identity to
    gram_tol (max-entry), otherwise BasisValidationError.
    """
    if check_orthonormal:
        resid = np.max(np.abs(gram_matrix(basis) - np.eye(len(basis))))
        if resid > gram_tol:
            raise BasisValidationError(
                f"basis is not orthonormal: Gram residual {resid:.3e} > {gram_tol:.3e}"
            )
    return np.array([inner(f, b) for b in basis])


def combine(basis: list[QFunction], coeffs) -> QFunction:
    """Real-linear combination sum_a coeffs[a] * basis[a]."""
    coeffs = np.asarray(coeffs, dtype=float)
    if len(basis) != coeffs.shape[0]:
        raise ValueError(f"{len(basis)} basis elements vs {coeffs.shape[0]} coefficients")
    if not basis:
        raise ValueError("empty basis")
    acc = np.zeros_like(basis[0].values)
    for c, b in zip(coeffs, basis):
        basis[0]._check_same_grid(b)
        acc = acc + c * b.values
    return QFunction(basis[0].grid, acc)


# ---------------------------------------------------------------------------
# CSV serialization: columns x, x0, x1, x2, x3; row order = node order
# ---------------------------------------------------------------------------

_CSV_HEADER = ["x", "x0", "x1", "x2", "x3"]


def write_qfunction_csv(f: QFunction, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for x, row in zip(f.grid.nodes, f.values):
            writer.writerow([_FLOAT % x] + [_FLOAT % v for v in row])


def read_qfunction_csv(path) -> QFunction:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != _CSV_HEADER:
            raise ValueError(f"expected header {','.join(_CSV_HEADER)} in {path}")
        rows = [[float(v) for v in row] for row in reader if row]
    data = np.asarray(rows)
    grid = Grid(len(rows))
    if not np.allclose(data[:, 0], grid.nodes, rtol=0.0, atol=1e-9):
        raise ValueError(f"node column of {path} is not the uniform grid on [0, 2pi)")
    return QFunction(grid, data[:, 1:])

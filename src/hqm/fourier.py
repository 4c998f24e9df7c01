"""Quaternionic Fourier series over unitary-quaternion basis families.

Four families are provided, all built from the unit-quaternion template
cos(a) e^{i b} + sin(a) e^{i c} j sampled on the periodic grid:

  PhaseForm   cos(nx) e^{i phi0}   + sin(nx) e^{i xi0} j,   n in [-N, N]
  ExpForm     cos(theta0) e^{inx}  + sin(theta0) e^{-inx} j
  TwoIndex    cos(theta0) e^{imx}  + sin(theta0) e^{inx} j, (m, n) in [-N, N]^2
  ThreeIndex  cos(lx) e^{imx}      + sin(lx) e^{inx} j,     |l| <= L <= N

PhaseForm and ExpForm are orthogonal with <L_n, L_n'> = 2 pi delta, even when
their parameters are arbitrary sampled functions.  Multi-index families are
generally non-orthogonal (TwoIndex full rectangles are exactly rank-deficient,
since only row and column sums of the coefficient table reach the span), so
coefficient extraction goes through the Gram linear system with an explicit
conditioning contract.  Expansion coefficients are real: the inner product is
real.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ConditioningError, GridMismatchError
from .hilbert import _FLOAT, TWO_PI, Grid, QFunction, combine, inner, norm

__all__ = [
    "FamilyKind",
    "BasisFamily",
    "QFourierExpansion",
    "basis_element",
    "gram",
    "analyze",
    "synthesize",
    "completeness_residual",
    "reference_full_basis",
    "write_expansion_csv",
    "read_expansion_csv",
]

Index = int | tuple[int, ...]


class FamilyKind(str, Enum):
    PHASE_FORM = "PhaseForm"
    EXP_FORM = "ExpForm"
    TWO_INDEX = "TwoIndex"
    THREE_INDEX = "ThreeIndex"


def _as_param(value, grid: Grid, name: str) -> float | np.ndarray:
    """A family parameter is a finite real constant or a finite real function on the grid."""
    param = float(value) if np.isscalar(value) else np.asarray(value, dtype=float)
    if not isinstance(param, float) and param.shape != (grid.n_points,):
        raise ValueError(f"{name} must be scalar or shape ({grid.n_points},), got {param.shape}")
    if not np.all(np.isfinite(param)):
        raise ValueError(f"{name} has non-finite samples")
    return param


@dataclass(frozen=True, eq=False)
class BasisFamily:
    """One basis construction with its index ranges and parameters.

    `indices` optionally restricts the family to an explicit subset of the
    rectangular index range, e.g. to pick a linearly independent sub-family
    of a TwoIndex rectangle.
    """

    kind: FamilyKind
    grid: Grid
    N: int
    L: int | None = None
    phi0: float | np.ndarray = 0.0
    xi0: float | np.ndarray = 0.0
    theta0: float | np.ndarray = 0.0
    indices: tuple[Index, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", FamilyKind(self.kind))
        if self.N < 0:
            raise ValueError("N must be nonnegative")
        if 4 * self.N >= self.grid.n_points:
            raise ValueError(
                f"truncation N={self.N} too large for {self.grid.n_points}-point grid "
                f"(need N < n_points/4 for the anti-aliasing margin)"
            )
        for name in ("phi0", "xi0", "theta0"):
            object.__setattr__(self, name, _as_param(getattr(self, name), self.grid, name))
        if self.kind is FamilyKind.THREE_INDEX:
            if self.L is None:
                raise ValueError("ThreeIndex family needs L")
            if not (0 <= self.L <= self.N):
                raise ValueError(f"need 0 <= L <= N, got L={self.L}, N={self.N}")
        if self.indices is not None:
            idx = tuple(self.indices)
            if len(set(idx)) != len(idx):
                raise ValueError("explicit index list contains duplicates")
            full = set(self._full_range())
            for i in idx:
                if i not in full:
                    raise IndexError(f"index {i!r} outside the family ranges")
            object.__setattr__(self, "indices", idx)

    def _full_range(self) -> list[Index]:
        ns = range(-self.N, self.N + 1)
        if self.kind in (FamilyKind.PHASE_FORM, FamilyKind.EXP_FORM):
            return list(ns)
        if self.kind is FamilyKind.TWO_INDEX:
            return [(m, n) for m in ns for n in ns]
        ls = range(-self.L, self.L + 1)
        return [(l, m, n) for l in ls for m in ns for n in ns]

    def index_set(self) -> list[Index]:
        return list(self.indices) if self.indices is not None else self._full_range()

    @property
    def size(self) -> int:
        return len(self.index_set())

    def element(self, index: Index) -> QFunction:
        if index not in set(self.index_set()):
            raise IndexError(f"index {index!r} not in this family")
        return QFunction(self.grid, self._element_values(index))

    def _element_values(self, index: Index) -> np.ndarray:
        x = self.grid.nodes
        if self.kind is FamilyKind.PHASE_FORM:
            n = index
            z0 = np.cos(n * x) * np.exp(1j * np.asarray(self.phi0))
            z1 = np.sin(n * x) * np.exp(1j * np.asarray(self.xi0))
        elif self.kind is FamilyKind.EXP_FORM:
            n = index
            z0 = np.cos(self.theta0) * np.exp(1j * n * x)
            z1 = np.sin(self.theta0) * np.exp(-1j * n * x)
        elif self.kind is FamilyKind.TWO_INDEX:
            m, n = index
            z0 = np.cos(self.theta0) * np.exp(1j * m * x)
            z1 = np.sin(self.theta0) * np.exp(1j * n * x)
        else:
            l, m, n = index
            z0 = np.cos(l * x) * np.exp(1j * m * x)
            z1 = np.sin(l * x) * np.exp(1j * n * x)
        z0, z1 = np.broadcast_arrays(z0 + 0j, z1 + 0j)
        return np.stack([z0.real, z0.imag, z1.real, z1.imag], axis=-1)

    def sample_all(self) -> np.ndarray:
        """All elements stacked, shape (size, n_points, 4)."""
        return np.stack([self._element_values(i) for i in self.index_set()])


def basis_element(family: BasisFamily, index: Index) -> QFunction:
    return family.element(index)


def gram(family: BasisFamily) -> np.ndarray:
    """Gram matrix under the real inner product, ordered like index_set()."""
    flat = family.sample_all().reshape(family.size, -1)
    return family.grid.h * (flat @ flat.T)


@dataclass(frozen=True, eq=False)
class QFourierExpansion:
    """Real expansion coefficients over a basis family, ordered like index_set()."""

    family: BasisFamily
    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        if coeffs.shape != (self.family.size,):
            raise ValueError(
                f"expected {self.family.size} coefficients, got shape {coeffs.shape}"
            )
        object.__setattr__(self, "coefficients", coeffs)


def analyze(
    f: QFunction,
    family: BasisFamily,
    *,
    cond_cap: float = 1e12,
    scaling: str = "exact",
) -> QFourierExpansion:
    """Expansion coefficients of f over the family.

    scaling="exact" (default) solves the Gram system G a = <f, L_index>, which
    makes synthesize(analyze(f)) the identity on the family's span; for
    orthogonal families this reduces to a_n = <f, L_n> / (2 pi).
    scaling="sqrt2pi" instead returns <f, L_n> / sqrt(2 pi), the historical
    convention for the single-index series; it is off by a constant factor in
    round trips and is kept for comparison only.
    """
    if f.grid != family.grid:
        raise GridMismatchError(
            f"function on {f.grid.n_points} points, family on {family.grid.n_points}"
        )
    flat = family.sample_all().reshape(family.size, -1)
    b = family.grid.h * (flat @ f.values.ravel())
    if scaling == "sqrt2pi":
        return QFourierExpansion(family, b / math.sqrt(TWO_PI))
    if scaling != "exact":
        raise ValueError(f"unknown scaling {scaling!r}")
    G = family.grid.h * (flat @ flat.T)
    # G is symmetric positive semi-definite: one eigh gives the condition
    # number and the solve
    lam, vecs = np.linalg.eigh(G)
    cond = lam[-1] / lam[0] if lam[0] > 0 else math.inf
    if not (cond <= cond_cap):
        raise ConditioningError(float(cond), cond_cap)
    coeffs = vecs @ ((vecs.T @ b) / lam)
    return QFourierExpansion(family, coeffs)


def synthesize(e: QFourierExpansion) -> QFunction:
    """Pointwise real-weighted sum of the basis elements."""
    stacked = e.family.sample_all()
    values = np.tensordot(e.coefficients, stacked, axes=(0, 0))
    return QFunction(e.family.grid, values)


def completeness_residual(f: QFunction, basis: BasisFamily | list[QFunction]) -> float:
    """Relative distance from f to the truncated span: ||f - proj f|| / ||f||.

    Accepts either a BasisFamily (projection via analyze/synthesize, subject
    to its conditioning contract) or an explicit function list (least-squares
    projection).
    """
    nf = norm(f)
    if nf == 0.0:
        raise ValueError("completeness residual is undefined for the zero function")
    if isinstance(basis, BasisFamily):
        recon = synthesize(analyze(f, basis))
    else:
        flat = np.stack([b.values.ravel() for b in basis])
        coeffs, *_ = np.linalg.lstsq(flat.T, f.values.ravel(), rcond=None)
        recon = combine(basis, coeffs)
    return norm(f - recon) / nf


def reference_full_basis(grid: Grid, N: int) -> list[QFunction]:
    """Orthonormal {1, cos nx, sin nx} x {1, i, j, k} family, 4(2N+1) elements.

    Complete for band-limited quaternionic functions up to frequency N; serves
    as the ground-truth span for completeness diagnostics.
    """
    if 4 * N >= grid.n_points:
        raise ValueError(f"N={N} too large for {grid.n_points}-point grid")
    x = grid.nodes
    base = [np.full_like(x, 1.0 / math.sqrt(TWO_PI))]
    for n in range(1, N + 1):
        base.append(np.cos(n * x) / math.sqrt(math.pi))
        base.append(np.sin(n * x) / math.sqrt(math.pi))
    out = []
    for fn in base:
        for unit in range(4):
            values = np.zeros((grid.n_points, 4))
            values[:, unit] = fn
            out.append(QFunction(grid, values))
    return out


# ---------------------------------------------------------------------------
# Serialization: coefficients CSV plus a sidecar key-value descriptor
# ---------------------------------------------------------------------------

_INDEX_COLUMNS = {
    FamilyKind.PHASE_FORM: ["n"],
    FamilyKind.EXP_FORM: ["n"],
    FamilyKind.TWO_INDEX: ["m", "n"],
    FamilyKind.THREE_INDEX: ["l", "m", "n"],
}


def _sidecar_path(path) -> Path:
    return Path(str(path) + ".meta")


def write_expansion_csv(e: QFourierExpansion, path) -> None:
    fam = e.family
    cols = _INDEX_COLUMNS[fam.kind]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols + ["coefficient"])
        for idx, c in zip(fam.index_set(), e.coefficients):
            parts = [idx] if isinstance(idx, int) else list(idx)
            writer.writerow([str(p) for p in parts] + [_FLOAT % c])
    lines = [f"kind = {fam.kind.value}", f"grid_points = {fam.grid.n_points}", f"N = {fam.N}"]
    if fam.L is not None:
        lines.append(f"L = {fam.L}")
    for name in ("phi0", "xi0", "theta0"):
        value = getattr(fam, name)
        lines.append(f"{name} = " + (_FLOAT % value if np.isscalar(value) else "sampled-function"))
    if fam.indices is not None:
        lines.append("indices = " + ";".join(
            str(i) if isinstance(i, int) else ",".join(map(str, i)) for i in fam.indices))
    _sidecar_path(path).write_text("\n".join(lines) + "\n")


def read_expansion_csv(path) -> QFourierExpansion:
    """Rebuild an expansion from CSV + sidecar (constant-parameter families only)."""
    meta = {}
    for line in _sidecar_path(path).read_text().splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            meta[key.strip()] = value.strip()
    if "sampled-function" in meta.values():
        raise ValueError("cannot rebuild a family with sampled-function parameters from a sidecar")
    kind = FamilyKind(meta["kind"])
    indices = None
    if "indices" in meta:
        parts = meta["indices"].split(";")
        if kind in (FamilyKind.PHASE_FORM, FamilyKind.EXP_FORM):
            indices = tuple(int(p) for p in parts)
        else:
            indices = tuple(tuple(int(v) for v in p.split(",")) for p in parts)
    family = BasisFamily(
        kind=kind,
        grid=Grid(int(meta["grid_points"])),
        N=int(meta["N"]),
        L=int(meta["L"]) if "L" in meta else None,
        phi0=float(meta["phi0"]),
        xi0=float(meta["xi0"]),
        theta0=float(meta["theta0"]),
        indices=indices,
    )
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        coeffs = [float(row[-1]) for row in reader if row]
    return QFourierExpansion(family, np.asarray(coeffs))

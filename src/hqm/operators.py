"""Real-linear operators on the discretized quaternion function space.

An operator here is any map closed under real scalar combinations of inputs;
that covers left multiplication by quaternion functions, derivatives, and
right multiplication by constant quaternions (which is real- but not
quaternion-linear).  Every operator admits a dense (4n)x(4n) real matrix
realization over stacked components, built lazily from impulse responses: one
per stacked real component in general.

The Hamiltonian and the generalized momentum act on the symplectic pair of
Psi = w0 + j w1 (w0 = x0 + i x1, w1 = x2 - i x3): left multiplication by
p0 + p1 j is the per-node block [[p0, -p1], [conj p1, conj p0]], the
derivative a Fourier multiplier, and right multiplication by i plain
multiplication by i.  H commutes with right multiplication by constant
quaternions (the image of e_k u is the image of e_k times u), so its
realization applies H once to the stack of the n real-unit impulses.

Because the quadrature weights are uniform, the adjoint with respect to the
real inner product is exactly the matrix transpose.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import GridMismatchError
from .hilbert import Grid, QFunction, inner
from .quaternion import (
    I, J, K, ONE, Quaternion, left_mult_matrix, qmul, right_mult_matrix, to_complex_pair,
)

__all__ = [
    "QOperator",
    "HamiltonianSpec",
    "NormalPair",
    "NormalConditionsReport",
    "spectral_derivative",
    "central_derivative",
    "adjoint",
    "expectation",
    "momentum_pi",
    "hamiltonian",
    "normal_conditions",
]


# ---------------------------------------------------------------------------
# Periodic derivatives and the symplectic pair (w0, w1) of Psi = w0 + j w1
# ---------------------------------------------------------------------------

def spectral_derivative(values: np.ndarray, grid: Grid) -> np.ndarray:
    """FFT derivative of each real component along the node axis (axis -2).

    Exact for band-limited samples.  The Nyquist mode of an even grid has no
    odd counterpart, so its derivative is set to zero (the standard convention).
    """
    n = grid.n_points
    spec = np.fft.rfft(values, axis=-2)
    k = np.arange(spec.shape[-2])
    if n % 2 == 0:
        k[-1] = 0
    spec *= 1j * k[:, None]
    return np.fft.irfft(spec, n=n, axis=-2)


def central_derivative(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Second-order centered difference with periodic wraparound along axis -2."""
    return (np.roll(values, -1, axis=-2) - np.roll(values, 1, axis=-2)) / (2.0 * grid.h)


_DERIVATIVES = {"spectral": spectral_derivative, "central": central_derivative}


def _derivative_symbol(deriv: str, grid: Grid) -> np.ndarray:
    """Fourier multiplier of the derivative scheme along the last axis of a full FFT.

    spectral: ik with the Nyquist mode zeroed, as in spectral_derivative;
    central: i sin(kh)/h, the symbol of the centered difference.
    """
    if deriv not in _DERIVATIVES:
        raise ValueError(f"unknown derivative scheme {deriv!r}")
    n = grid.n_points
    k = np.arange(n)
    k[k > n // 2] -= n
    if n % 2 == 0:
        k[n // 2] = 0
    if deriv == "central":
        return 1j * (np.sin(k * grid.h) / grid.h)
    return 1j * k


def _to_pair(values: np.ndarray) -> np.ndarray:
    """(..., n, 4) components -> (..., 2, n) pair w0 = x0 + i x1, w1 = x2 - i x3."""
    z0, z1 = to_complex_pair(values)
    return np.stack([z0, z1.conj()], axis=-2)


def _from_pair(w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Components of w0 + j w1, written into out (shape (..., n, 4)) when given."""
    if out is None:
        out = np.empty(w.shape[:-2] + (w.shape[-1], 4))
    w0, w1 = w[..., 0, :], w[..., 1, :]
    out[..., 0] = w0.real
    out[..., 1] = w0.imag
    out[..., 2] = w1.real
    np.subtract(0.0, w1.imag, out=out[..., 3])  # 0 - y, not -y: writes +0.0 for zero
    return out


# Right multiplication by the basis units 1, i, j, k on the four components.
_UNIT_RIGHT = np.stack([right_mult_matrix(u) for u in (ONE, I, J, K)])


# ---------------------------------------------------------------------------
# QOperator
# ---------------------------------------------------------------------------

class QOperator:
    """A real-linear operator wrapping an action on raw (n, 4) value arrays."""

    def __init__(self, grid: Grid, action: Callable[[np.ndarray], np.ndarray], name: str = ""):
        self.grid = grid
        self._action = action
        self.name = name
        self._matrix: np.ndarray | None = None
        self._lock = threading.Lock()

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def identity(grid: Grid) -> "QOperator":
        return QOperator(grid, lambda v: v.copy(), "identity")

    @staticmethod
    def from_matrix(grid: Grid, matrix: np.ndarray, name: str = "") -> "QOperator":
        matrix = np.asarray(matrix, dtype=float)
        dim = 4 * grid.n_points
        if matrix.shape != (dim, dim):
            raise ValueError(f"matrix must be {dim}x{dim}, got {matrix.shape}")
        op = QOperator(grid, lambda v: (matrix @ v.ravel()).reshape(-1, 4), name)
        op._matrix = matrix
        return op

    @staticmethod
    def left_multiplication(factor: QFunction | Quaternion, grid: Grid | None = None) -> "QOperator":
        """Psi -> a Psi for a quaternion constant or sampled function a."""
        if isinstance(factor, QFunction):
            values = factor.values
            return QOperator(factor.grid, lambda v: qmul(values, v), "left-mult")
        if grid is None:
            raise ValueError("grid required for a constant factor")
        arr = factor.as_array()
        return QOperator(grid, lambda v: qmul(arr, v), "left-mult")

    @staticmethod
    def right_multiplication(q: Quaternion, grid: Grid) -> "QOperator":
        """Psi -> Psi q; real-linear but not quaternion-linear."""
        arr = q.as_array()
        return QOperator(grid, lambda v: qmul(v, arr), "right-mult")

    @staticmethod
    def position(grid: Grid) -> "QOperator":
        x = grid.nodes[:, None]
        return QOperator(grid, lambda v: x * v, "position")

    # -- action ---------------------------------------------------------------

    def apply_values(self, values: np.ndarray) -> np.ndarray:
        return self._action(np.asarray(values, dtype=float))

    def __call__(self, f: QFunction) -> QFunction:
        if f.grid != self.grid:
            raise GridMismatchError(
                f"operator on {self.grid.n_points}-point grid applied to "
                f"{f.grid.n_points}-point function"
            )
        return QFunction(self.grid, self.apply_values(f.values))

    # -- algebra ----------------------------------------------------------------

    def __matmul__(self, other: "QOperator") -> "QOperator":
        if other.grid != self.grid:
            raise GridMismatchError("cannot compose operators on different grids")
        return QOperator(self.grid, lambda v: self.apply_values(other.apply_values(v)),
                         f"({self.name}@{other.name})")

    def __add__(self, other: "QOperator") -> "QOperator":
        if other.grid != self.grid:
            raise GridMismatchError("cannot add operators on different grids")
        return QOperator(self.grid, lambda v: self.apply_values(v) + other.apply_values(v))

    def __sub__(self, other: "QOperator") -> "QOperator":
        return self + (-1.0) * other

    def __mul__(self, scalar: float) -> "QOperator":
        s = float(scalar)
        return QOperator(self.grid, lambda v: s * self.apply_values(v))

    __rmul__ = __mul__

    # -- matrix realization -------------------------------------------------------

    @property
    def matrix(self) -> np.ndarray:
        """Dense realization over stacked real components (cached, single writer)."""
        if self._matrix is None:
            with self._lock:
                if self._matrix is None:
                    self._matrix = self._realize()
        return self._matrix

    def _realize(self) -> np.ndarray:
        """One column per stacked real component, each the image of its unit impulse."""
        dim = 4 * self.grid.n_points
        cols = np.empty((dim, dim))
        impulse = np.zeros((self.grid.n_points, 4))
        flat = impulse.ravel()
        for col in range(dim):
            flat[col] = 1.0
            cols[:, col] = self.apply_values(impulse).ravel()
            flat[col] = 0.0
        return cols

    def adjoint(self) -> "QOperator":
        """Unique S with inner(T f, g) = inner(f, S g); the weighted transpose.

        Uniform quadrature weights make this literally the matrix transpose.
        """
        return QOperator.from_matrix(self.grid, self.matrix.T,
                                     f"adj({self.name})" if self.name else "")

    def asymmetry(self) -> float:
        """Relative self-adjointness defect ||M - M^T||_F / max(1, ||M||_F)."""
        m = self.matrix
        return float(np.linalg.norm(m - m.T) / max(1.0, np.linalg.norm(m)))


class _RightLinearOperator(QOperator):
    """An operator with T(Psi q) = T(Psi) q for every constant quaternion q.

    The column of the impulse e_k u (node k, basis unit u) is T(e_k) u, so
    the n real-unit impulses e_k determine the whole realization.  The action
    must broadcast over a leading axis: it is applied once to all n impulses.
    """

    def _realize(self) -> np.ndarray:
        n = self.grid.n_points
        impulses = np.zeros((n, n, 4))
        impulses[np.arange(n), np.arange(n), 0] = 1.0
        images = self.apply_values(impulses)  # images[k] = T(e_k)
        # entry (4r + a, 4k + c) is component a at node r of T(e_k) u_c
        cols = np.einsum("cab,krb->rakc", _UNIT_RIGHT, images)
        return cols.reshape(4 * n, 4 * n)


def adjoint(T: QOperator) -> QOperator:
    return T.adjoint()


def expectation(O: QOperator, psi: QFunction, *, normalize: bool = False) -> float:
    """Real expectation value inner(O psi, psi).

    Equals the symmetrized quadrature of (O Psi) conj(Psi) + Psi conj(O Psi)
    over 2; real for arbitrary real-linear O.  With normalize the value is
    divided by ||psi||^2.
    """
    n2 = inner(psi, psi)
    if n2 == 0.0:
        raise ValueError("expectation value of the zero state is undefined")
    value = inner(O(psi), psi)
    return value / n2 if normalize else value


# ---------------------------------------------------------------------------
# Hamiltonian with quaternionic gauge potential and potential
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class HamiltonianSpec:
    """H = -(hbar^2/2m)(d/dx - A)^2 + U on a periodic grid.

    A = alpha i + beta j is a pure-imaginary quaternion field (alpha real,
    beta complex) and U = V + W j acts by left multiplication (V, W complex).
    """

    grid: Grid
    mass: float = 1.0
    hbar: float = 1.0
    alpha: np.ndarray | float = 0.0
    beta: np.ndarray | complex = 0.0
    V: np.ndarray | complex = 0.0
    W: np.ndarray | complex = 0.0

    def __post_init__(self):
        if not (self.mass > 0 and self.hbar > 0):
            raise ValueError("mass and hbar must be positive")
        n = self.grid.n_points
        for name, dtype in (("alpha", float), ("beta", complex), ("V", complex), ("W", complex)):
            arr = np.broadcast_to(np.asarray(getattr(self, name), dtype=dtype), (n,)).copy()
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} has non-finite samples")
            object.__setattr__(self, name, arr)

    def gauge_values(self) -> np.ndarray:
        """Component samples of A = alpha i + beta j (shape (n, 4), zero real part)."""
        n = self.grid.n_points
        out = np.zeros((n, 4))
        out[:, 1] = self.alpha
        out[:, 2] = self.beta.real
        out[:, 3] = self.beta.imag
        return out

    def potential_values(self) -> np.ndarray:
        """Component samples of U = V + W j."""
        n = self.grid.n_points
        out = np.zeros((n, 4))
        out[:, 0] = self.V.real
        out[:, 1] = self.V.imag
        out[:, 2] = self.W.real
        out[:, 3] = self.W.imag
        return out

    @property
    def is_real_potential(self) -> bool:
        return bool(np.all(self.V.imag == 0.0) and np.all(self.W == 0.0))


def _pair_covariant_derivative(spec: HamiltonianSpec, deriv: str):
    """(D - A) on (..., 2, n) complex pairs; D is _derivative_symbol along the node axis.

    A = alpha i + beta j acts per node as [[i alpha, -beta], [conj beta, -i alpha]],
    applied as col0 * w0 + col1 * w1 over its (2, n) columns.
    """
    symbol = _derivative_symbol(deriv, spec.grid)
    fft, ifft = np.fft.fft, np.fft.ifft
    a0 = np.array([1j * spec.alpha, spec.beta.conj()])
    a1 = np.array([-spec.beta, -1j * spec.alpha])

    def d_a(w: np.ndarray) -> np.ndarray:
        return ifft(symbol * fft(w)) - (a0 * w[..., :1, :] + a1 * w[..., 1:, :])

    return d_a


def _pair_hamiltonian(spec: HamiltonianSpec, deriv: str, scale: complex = 1.0):
    """scale * H_c on (..., 2, n) complex pairs, with the scale folded into the coefficients.

    H_c = c (D - A)(D - A) + U with c = -hbar^2/2m, and U = V + W j acts per
    node as [[V, -W], [conj W, conj V]].
    """
    d_a = _pair_covariant_derivative(spec, deriv)
    kinetic = scale * (-spec.hbar**2 / (2.0 * spec.mass))
    u0 = scale * np.array([spec.V, spec.W.conj()])
    u1 = scale * np.array([-spec.W, spec.V.conj()])

    def h_c(w: np.ndarray) -> np.ndarray:
        return kinetic * d_a(d_a(w)) + (u0 * w[..., :1, :] + u1 * w[..., 1:, :])

    return h_c


def momentum_pi(spec: HamiltonianSpec, deriv: str = "spectral") -> QOperator:
    """Generalized momentum: Pi Psi = -hbar ((d/dx - A) Psi) i.

    The imaginary unit multiplies from the right; with A = 0 this is
    self-adjoint on the periodic grid and sends e^{ikx} to hbar k e^{ikx}.
    On the symplectic pair the right factor i is multiplication by i, so the
    action is -hbar i (D - A) w.
    """
    d_a = _pair_covariant_derivative(spec, deriv)
    coef = -1j * spec.hbar
    return QOperator(spec.grid, lambda v: _from_pair(coef * d_a(_to_pair(v))), "momentum")


def hamiltonian(spec: HamiltonianSpec, deriv: str = "spectral") -> QOperator:
    """H Psi = -(hbar^2/2m) (d/dx - A)((d/dx - A) Psi) + U Psi.

    Applied as H_c on the symplectic pair of Psi; the action broadcasts over
    leading axes of (..., n, 4) arrays.  Generally neither hermitian nor
    anti-hermitian once W or Im V is nonzero.  Derivatives and left
    multiplications commute with right multiplication by constant
    quaternions, so the matrix is realized from the n real-unit impulses in
    one batched application.
    """
    h_c = _pair_hamiltonian(spec, deriv)
    return _RightLinearOperator(spec.grid, lambda v: _from_pair(h_c(_to_pair(v))),
                                "hamiltonian")


# ---------------------------------------------------------------------------
# Normal operators in symplectic form N = N0 + N1 j
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NormalPair:
    """Complex blocks of N = N0 + N1 j acting on quaternion coordinate vectors."""

    N0: np.ndarray
    N1: np.ndarray

    def __post_init__(self):
        n0 = np.asarray(self.N0, dtype=complex)
        n1 = np.asarray(self.N1, dtype=complex)
        if n0.ndim != 2 or n0.shape[0] != n0.shape[1]:
            raise ValueError("N0 must be square")
        if n1.shape != n0.shape:
            raise ValueError("N0 and N1 must have equal shapes")
        object.__setattr__(self, "N0", n0)
        object.__setattr__(self, "N1", n1)

    @property
    def dim(self) -> int:
        return self.N0.shape[0]

    def realization(self) -> np.ndarray:
        """Real 4d x 4d matrix of x -> N x (entrywise left quaternion multiplication)."""
        d = self.dim
        out = np.zeros((4 * d, 4 * d))
        for a in range(d):
            for b in range(d):
                q = Quaternion(self.N0[a, b].real, self.N0[a, b].imag,
                               self.N1[a, b].real, self.N1[a, b].imag)
                out[4 * a:4 * a + 4, 4 * b:4 * b + 4] = left_mult_matrix(q)
        return out


@dataclass(frozen=True)
class NormalConditionsReport:
    """Commutator norms for the full operator and its symplectic block conditions."""

    full_commutator: float      # ||[N, N^dagger]||_F with the true (transpose) adjoint
    block_normal: float         # ||[N0, N0^dagger]||_F
    block_coupling: float       # ||[N0 + N0^dagger, N1]||_F
    tol: float

    @property
    def blocks_hold(self) -> bool:
        return self.block_normal < self.tol and self.block_coupling < self.tol

    @property
    def full_holds(self) -> bool:
        return self.full_commutator < self.tol

    @property
    def equivalence_consistent(self) -> bool:
        """Whether the block conditions and the full commutator agree.

        They coincide when the blocks are symmetric matrices (so entrywise
        conjugation and the adjoint agree), e.g. multiplication operators;
        a False value records a counterexample candidate to the claimed
        block/full equivalence.
        """
        return self.blocks_hold == self.full_holds


def normal_conditions(p: NormalPair, *, tol: float = 1e-9) -> NormalConditionsReport:
    """Evaluate [N, N^dagger] against the two symplectic block conditions.

    The full commutator uses the operator's true adjoint under the real inner
    product (the transpose of the real realization); the block conditions are
    evaluated independently with complex matrix algebra.
    """
    real = p.realization()
    adj = real.T
    full = float(np.linalg.norm(real @ adj - adj @ real))
    n0, n1 = p.N0, p.N1
    n0h = n0.conj().T
    block_normal = float(np.linalg.norm(n0 @ n0h - n0h @ n0))
    block_coupling = float(np.linalg.norm((n0 + n0h) @ n1 - n1 @ (n0 + n0h)))
    return NormalConditionsReport(full, block_normal, block_coupling, tol)

"""Quaternion algebra: Hamilton product, conjugation, symplectic form.

A quaternion q = x0 + x1 i + x2 j + x3 k is stored as four real components.
The symplectic view q = z0 + z1 j with complex z0 = x0 + x1 i, z1 = x2 + x3 i
is a conversion, not a second storage format.  Everything here is immutable.

Array helpers (``qmul``, ``qconj``, ...) act on float arrays of shape
(..., 4) so grid-sampled quaternion functions stay vectorized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Quaternion",
    "UnitQuaternion",
    "qmul",
    "qconj",
    "to_complex_pair",
    "from_complex_pair",
    "left_mult_matrix",
    "right_mult_matrix",
]


@dataclass(frozen=True)
class Quaternion:
    """x0 + x1 i + x2 j + x3 k with real components and i^2 = j^2 = k^2 = -1."""

    x0: float = 0.0
    x1: float = 0.0
    x2: float = 0.0
    x3: float = 0.0

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_array(a) -> "Quaternion":
        a = np.asarray(a, dtype=float)
        return Quaternion(float(a[0]), float(a[1]), float(a[2]), float(a[3]))

    @staticmethod
    def symplectic_join(z0: complex, z1: complex) -> "Quaternion":
        """Assemble z0 + z1 j from the two complex components."""
        return Quaternion(z0.real, z0.imag, z1.real, z1.imag)

    # -- views --------------------------------------------------------------

    def as_array(self) -> np.ndarray:
        return np.array([self.x0, self.x1, self.x2, self.x3], dtype=float)

    def symplectic_split(self) -> tuple[complex, complex]:
        """Return (z0, z1) with q = z0 + z1 j."""
        return complex(self.x0, self.x1), complex(self.x2, self.x3)

    @property
    def real(self) -> float:
        return self.x0

    # -- algebra ------------------------------------------------------------

    def conj(self) -> "Quaternion":
        return Quaternion(self.x0, -self.x1, -self.x2, -self.x3)

    def norm2(self) -> float:
        return self.x0**2 + self.x1**2 + self.x2**2 + self.x3**2

    def norm(self) -> float:
        return math.sqrt(self.norm2())

    def __add__(self, other: "Quaternion") -> "Quaternion":
        other = _coerce(other)
        return Quaternion(self.x0 + other.x0, self.x1 + other.x1,
                          self.x2 + other.x2, self.x3 + other.x3)

    __radd__ = __add__

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        other = _coerce(other)
        return Quaternion(self.x0 - other.x0, self.x1 - other.x1,
                          self.x2 - other.x2, self.x3 - other.x3)

    def __rsub__(self, other) -> "Quaternion":
        return _coerce(other) - self

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.x0, -self.x1, -self.x2, -self.x3)

    def __mul__(self, other) -> "Quaternion":
        """Hamilton product (non-commutative)."""
        q = _coerce(other)
        return Quaternion.from_array(qmul(self.as_array(), q.as_array()))

    def __rmul__(self, other) -> "Quaternion":
        return _coerce(other) * self

    def isclose(self, other: "Quaternion", atol: float = 1e-12) -> bool:
        return bool(np.allclose(self.as_array(), _coerce(other).as_array(),
                                rtol=0.0, atol=atol))


def _coerce(value) -> Quaternion:
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return Quaternion(float(value))
    if isinstance(value, complex):
        return Quaternion(value.real, value.imag)
    raise TypeError(f"cannot interpret {type(value).__name__} as a quaternion")


ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True)
class UnitQuaternion:
    """Angles (theta, phi, xi) of the unit quaternion cos(theta) e^{i phi} + sin(theta) e^{i xi} j."""

    theta: float
    phi: float
    xi: float

    def realize(self) -> Quaternion:
        c, s = math.cos(self.theta), math.sin(self.theta)
        return Quaternion(c * math.cos(self.phi), c * math.sin(self.phi),
                          s * math.cos(self.xi), s * math.sin(self.xi))

    def __add__(self, other: "UnitQuaternion") -> "UnitQuaternion":
        """Componentwise angle addition (NOT a group operation; see re_product tests)."""
        return UnitQuaternion(self.theta + other.theta,
                              self.phi + other.phi,
                              self.xi + other.xi)


def re_product_identity(u: UnitQuaternion, v: UnitQuaternion) -> float:
    """Closed form of Re[realize(u) * conj(realize(v))].

    Equals cos(t)cos(t')cos(phi-phi') + sin(t)sin(t')cos(xi-xi'); this is the
    identity the 2*pi*delta orthogonality of the unitary-quaternion bases
    rests on.  Note the conjugation on the second factor: the plain product
    does not satisfy the formula.
    """
    return (math.cos(u.theta) * math.cos(v.theta) * math.cos(u.phi - v.phi)
            + math.sin(u.theta) * math.sin(v.theta) * math.cos(u.xi - v.xi))


# ---------------------------------------------------------------------------
# Vectorized helpers on (..., 4) component arrays
# ---------------------------------------------------------------------------

def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of component arrays, broadcasting over leading axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a0, a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    b0, b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    ], axis=-1)


def qconj(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    out = a.copy()
    out[..., 1:] *= -1.0
    return out


def to_complex_pair(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symplectic split of a component array: (z0, z1) with q = z0 + z1 j."""
    a = np.asarray(a, dtype=float)
    return a[..., 0] + 1j * a[..., 1], a[..., 2] + 1j * a[..., 3]


def from_complex_pair(z0: np.ndarray, z1: np.ndarray) -> np.ndarray:
    z0 = np.asarray(z0, dtype=complex)
    z1 = np.asarray(z1, dtype=complex)
    z0, z1 = np.broadcast_arrays(z0, z1)
    return np.stack([z0.real, z0.imag, z1.real, z1.imag], axis=-1)


def left_mult_matrix(q: Quaternion) -> np.ndarray:
    """4x4 real matrix L with L @ p_components = components of q*p."""
    a, b, c, d = q.x0, q.x1, q.x2, q.x3
    return np.array([[a, -b, -c, -d],
                     [b, a, -d, c],
                     [c, d, a, -b],
                     [d, -c, b, a]], dtype=float)


def right_mult_matrix(q: Quaternion) -> np.ndarray:
    """4x4 real matrix R with R @ p_components = components of p*q."""
    a, b, c, d = q.x0, q.x1, q.x2, q.x3
    return np.array([[a, -b, -c, -d],
                     [b, a, d, -c],
                     [c, -d, a, b],
                     [d, c, -b, a]], dtype=float)

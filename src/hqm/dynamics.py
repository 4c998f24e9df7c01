"""Time evolution of the quaternionic Schrodinger equation on periodic grids.

The equation reads hbar * dPsi/dt * i = H Psi with the imaginary unit on the
RIGHT of the time derivative (i Psi != Psi i), so the explicit form is
dPsi/dt = -(1/hbar) (H Psi) i.  H is built from left multiplications and real
derivatives, so it commutes with right multiplication by every constant
quaternion.  Writing Psi = w0 + j w1 with complex w0 = x0 + i x1 and
w1 = x2 - i x3 (the symplectic form) makes right multiplication by i plain
multiplication by i, and the equation becomes the ordinary complex
Schrodinger equation i hbar dw/dt = H_c w for the pair w = (w0, w1), with H_c
the pair-form Hamiltonian of the operators module (per-node 2x2 blocks and a
Fourier-multiplier derivative).  Classic fourth-order Runge-Kutta on that
complex pair is the workhorse.  Split-step methods apply to the same form,
but none is implemented here.

Probability bookkeeping follows the continuity equation
d(rho)/dt + dJ/dx = g with rho = Psi conj(Psi),
J = (1/2m)[(Pi Psi) conj(Psi) + Psi conj(Pi Psi)] and
g = (1/hbar)[Psi i conj(Psi) conj(U) - U Psi i conj(Psi)];
all three are real, and g vanishes identically for real potentials.  The
fields are evaluated on blocks of stored states at a time.

The time-ordered (Dyson) propagator is the iterated series with one right
factor (-i) per level, applied to states on the same pair without forming
its matrix.  Collapsing those factors onto the initial state is only
legitimate when the state commutes with i, so the resulting operator
reproduces the true evolution for complex initial data and deviates for
genuinely quaternionic initial data; the deviation is a feature under test,
not a bug.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, InstabilityError
from .hilbert import _FLOAT, Grid, QFunction, norm
from .operators import (
    QOperator,
    HamiltonianSpec,
    hamiltonian,
    momentum_pi,
    _DERIVATIVES,
    _RightLinearOperator,
    _from_pair,
    _pair_hamiltonian,
    _to_pair,
)
from .quaternion import (
    I,
    Quaternion,
    UnitQuaternion,
    qconj,
    qmul,
    right_mult_matrix,
)

__all__ = [
    "StabilityWarning",
    "EvolutionProblem",
    "Trajectory",
    "ContinuityReport",
    "EvolveResult",
    "ProbabilityFields",
    "step",
    "evolve",
    "probability_fields",
    "superop",
    "dyson_propagator",
    "short_time_propagator",
    "compose_unitaries",
    "angle_addition_deviation",
]

class StabilityWarning(UserWarning):
    """Time step exceeds the explicit-integrator stability estimate."""


def _max_stable_dt(spec: HamiltonianSpec, dt: float | None = None) -> float:
    """Explicit stability estimate 2m/(hbar k_max^2); warns if a given dt reaches it."""
    k_max = max(spec.grid.n_points // 2, 1)
    limit = 2.0 * spec.mass / (spec.hbar * k_max**2)
    if dt is not None and spec.hbar * dt * k_max**2 / (2.0 * spec.mass) >= 1.0:
        warnings.warn(
            f"dt={dt:.3e} is above the stability estimate {limit:.3e} for this grid",
            StabilityWarning,
            stacklevel=3,
        )
    return limit


def _rhs(spec: HamiltonianSpec, deriv: str):
    """F(w) = -(i/hbar) H_c w, the right-hand side of i hbar dw/dt = H_c w on complex pairs."""
    return _pair_hamiltonian(spec, deriv, scale=-1j / spec.hbar)


def _rk4_step(f, values: np.ndarray, dt: float) -> np.ndarray:
    k1 = f(values)
    k2 = f(values + 0.5 * dt * k1)
    k3 = f(values + 0.5 * dt * k2)
    k4 = f(values + dt * k3)
    return values + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step(spec: HamiltonianSpec, psi: QFunction, dt: float, *, deriv: str = "spectral") -> QFunction:
    """One fourth-order explicit step of the quaternionic Schrodinger equation."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if psi.grid != spec.grid:
        raise GridMismatchError("state and Hamiltonian live on different grids")
    _max_stable_dt(spec, dt)
    w = _rk4_step(_rhs(spec, deriv), _to_pair(psi.values), dt)
    if not np.all(np.isfinite(w)):
        raise InstabilityError("non-finite values after one step", 0.5 * _max_stable_dt(spec))
    return QFunction(spec.grid, _from_pair(w))


# ---------------------------------------------------------------------------
# Full evolution with continuity-equation bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EvolutionProblem:
    """Hamiltonian, initial state, and an exactly-resolved uniform time grid."""

    spec: HamiltonianSpec
    psi0: QFunction
    t0: float
    t1: float
    dt: float
    require_normalized: bool = True
    deriv: str = "spectral"

    def __post_init__(self):
        if self.psi0.grid != self.spec.grid:
            raise ValueError("initial state and Hamiltonian live on different grids")
        if self.dt <= 0 or self.t1 <= self.t0:
            raise ValueError("need dt > 0 and t1 > t0")
        if self.dt > (self.t1 - self.t0) * (1.0 + 1e-12):
            raise ValueError("dt exceeds the integration interval")
        ratio = (self.t1 - self.t0) / self.dt
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ValueError(f"(t1 - t0)/dt = {ratio!r} is not an integer step count")
        if self.deriv not in _DERIVATIVES:
            raise ValueError(f"unknown derivative scheme {self.deriv!r}")
        if self.require_normalized and abs(norm(self.psi0) - 1.0) > 1e-8:
            raise ValueError(
                f"initial state norm {norm(self.psi0):.6f} != 1 "
                f"(pass require_normalized=False to allow)"
            )

    @property
    def n_steps(self) -> int:
        return int(round((self.t1 - self.t0) / self.dt))


@dataclass(frozen=True, eq=False)
class Trajectory:
    grid: Grid
    times: np.ndarray
    values: np.ndarray  # shape (n_times, n_points, 4)

    def state(self, idx: int) -> QFunction:
        return QFunction(self.grid, self.values[idx])

    @property
    def final(self) -> QFunction:
        return self.state(len(self.times) - 1)


@dataclass(frozen=True, eq=False)
class ContinuityReport:
    """Sampled density, current, source, and the discrete continuity residual.

    residual[t - 1] = |d(rho)/dt + dJ/dx - g| at interior times (centered time
    differences, spectral space derivative).  max_imaginary records the largest
    non-real quaternion component seen in rho, J, or g before extraction.
    """

    times: np.ndarray
    rho: np.ndarray           # (n_times, n_points)
    current: np.ndarray       # (n_times, n_points)
    source: np.ndarray        # (n_times, n_points)
    residual: np.ndarray      # (n_times - 2, n_points)
    total_norm: np.ndarray    # integral of rho per time
    total_source: np.ndarray  # integral of g per time
    max_imaginary: float

    def max_residual(self) -> float:
        return float(np.max(np.abs(self.residual))) if self.residual.size else 0.0

    def norm_drift(self) -> float:
        return float(np.max(np.abs(self.total_norm - self.total_norm[0])))


@dataclass(frozen=True, eq=False)
class EvolveResult:
    trajectory: Trajectory
    report: ContinuityReport


def _continuity_fields(spec: HamiltonianSpec, values: np.ndarray, deriv: str,
                       pi_op: QOperator | None = None):
    """Quaternion-valued rho, J, g (before realness extraction).

    values is one state sample (n, 4) or a block of samples (B, n, 4).
    """
    if pi_op is None:
        pi_op = momentum_pi(spec, deriv)
    conj_v = qconj(values)
    rho_q = qmul(values, conj_v)
    pi_v = pi_op.apply_values(values)
    j_q = (qmul(pi_v, conj_v) + qmul(values, qconj(pi_v))) / (2.0 * spec.mass)
    potential = spec.potential_values()
    a = qmul(qmul(values, I.as_array()), conj_v)
    g_q = (qmul(a, qconj(potential)) - qmul(potential, a)) / spec.hbar
    return rho_q, j_q, g_q


@dataclass(frozen=True, eq=False)
class ProbabilityFields:
    """Density, current, and source of one state, with the realness diagnostic.

    rho, current, and source are the real parts; max_imaginary is the largest
    absolute non-real quaternion component any of them carried (structurally a
    rounding residual: all three fields are real by construction).
    """

    rho: np.ndarray
    current: np.ndarray
    source: np.ndarray
    max_imaginary: float


def probability_fields(spec: HamiltonianSpec, psi: QFunction,
                       deriv: str = "spectral") -> ProbabilityFields:
    """Evaluate rho = Psi conj(Psi), the current J, and the source g for one state."""
    rho_q, j_q, g_q = _continuity_fields(spec, psi.values, deriv)
    max_imag = max(float(np.max(np.abs(arr[:, 1:]))) for arr in (rho_q, j_q, g_q))
    return ProbabilityFields(rho_q[:, 0].copy(), j_q[:, 0].copy(), g_q[:, 0].copy(), max_imag)


# State samples per block of the continuity pass.
_BLOCK = 64


def evolve(problem: EvolutionProblem) -> EvolveResult:
    """Integrate the problem and verify the continuity equation along the way."""
    spec = problem.spec
    grid = spec.grid
    _max_stable_dt(spec, problem.dt)
    f = _rhs(spec, problem.deriv)
    n_steps = problem.n_steps
    times = problem.t0 + problem.dt * np.arange(n_steps + 1)

    states = np.empty((n_steps + 1, grid.n_points, 4))
    states[0] = problem.psi0.values
    limit = 1e12 * max(np.sum(states[0] ** 2), 1e-300)
    w = _to_pair(states[0])
    for s in range(n_steps):
        w = _rk4_step(f, w, problem.dt)
        if not np.all(np.isfinite(w)) or np.vdot(w, w).real > limit:
            raise InstabilityError(
                f"integration diverged at step {s + 1}", 0.5 * _max_stable_dt(spec)
            )
        _from_pair(w, out=states[s + 1])

    n_times = n_steps + 1
    rho = np.empty((n_times, grid.n_points))
    current = np.empty_like(rho)
    source = np.empty_like(rho)
    # residual[t - 1] = |(rho[t+1] - rho[t-1]) / 2dt + dJ/dx[t] - g[t]|, 1 <= t <= n_times - 2
    residual = np.empty((n_times - 2, grid.n_points))
    max_imag = 0.0
    diff = _DERIVATIVES[problem.deriv]
    pi_op = momentum_pi(spec, problem.deriv)
    for start in range(0, n_times, _BLOCK):
        stop = min(start + _BLOCK, n_times)
        rho_q, j_q, g_q = _continuity_fields(spec, states[start:stop], problem.deriv, pi_op)
        for arr in (rho_q, j_q, g_q):
            max_imag = max(max_imag, float(np.max(np.abs(arr[..., 1:]))))
        rho[start:stop] = rho_q[..., 0]
        current[start:stop] = j_q[..., 0]
        source[start:stop] = g_q[..., 0]
        # interior times whose neighbours are now known: start - 1 (or 1) up to stop - 2
        lo, hi = max(start, 2) - 1, stop - 1
        if lo < hi:
            out = residual[lo - 1:hi - 1]
            np.subtract(rho[lo + 1:hi + 1], rho[lo - 1:hi - 1], out=out)
            out /= 2.0 * problem.dt
            out += diff(current[lo:hi, :, None], grid)[..., 0]
            out -= source[lo:hi]
            np.abs(out, out=out)

    report = ContinuityReport(
        times=times,
        rho=rho,
        current=current,
        source=source,
        residual=residual,
        total_norm=grid.h * rho.sum(axis=1),
        total_source=grid.h * source.sum(axis=1),
        max_imaginary=max_imag,
    )
    return EvolveResult(Trajectory(grid, times, states), report)


# ---------------------------------------------------------------------------
# Super-operators and propagators
# ---------------------------------------------------------------------------

def superop(a, b: Quaternion, grid: Grid | None = None) -> QOperator:
    """The map (a|b): Psi -> a Psi b.

    The left factor may be a QOperator (a Psi meaning operator application),
    a QFunction, a Quaternion, or a real scalar; the right factor is a
    constant quaternion.  Real-linear in Psi in every case.
    """
    if isinstance(a, (int, float)):
        a = Quaternion(float(a))
    if isinstance(a, (QFunction, Quaternion)):
        a = QOperator.left_multiplication(a, grid)
    if not isinstance(a, QOperator):
        raise TypeError(f"unsupported left factor {type(a).__name__}")
    b_arr = b.as_array()
    return QOperator(a.grid, lambda v: qmul(a.apply_values(v), b_arr), "superop")


def dyson_propagator(
    spec: HamiltonianSpec,
    t0: float,
    t1: float,
    n_terms: int,
    n_quad: int,
    *,
    deriv: str = "spectral",
) -> QOperator:
    """Truncated time-ordered series 1 + sum of nested integrals of (H/hbar | -i).

    Nested simplex integrals are evaluated by iterated trapezoidal quadrature
    with n_quad nodes per level.  Each level contributes one right factor -i;
    the operator carries them as a single left factor (-i)^n per term, the
    only form in which a propagator independent of the state exists.
    Consequently it converges to the true evolution on complex initial data
    and intentionally deviates on quaternionic initial data.

    H does not depend on time, so level n of the quadrature tower at node j
    is w_n[j] (H/hbar)^n, where w_n is the same trapezoid recurrence run on
    scalar weights, and the propagator is
    u(Psi) = Psi + sum_n w_n[-1] (H/hbar)^n ((-i)^n Psi).  It is an action, not
    a matrix: on the symplectic pair w of Psi, with H_c scaled by 1/hbar and
    P = diag(-i, i) the pair form of left multiplication by -i, Horner's rule
    gives u = w + H_c (w_1 P w + H_c (w_2 P^2 w + ...)), n_terms applications
    of H_c per state.  Left multiplication by a constant commutes with right
    multiplication, so the operator is right-linear and its matrix, when
    asked for, comes from the n real-unit impulses.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    if n_quad < 3:
        raise ValueError("n_quad must be >= 3")
    h_c = _pair_hamiltonian(spec, deriv, scale=1.0 / spec.hbar)
    dt = (t1 - t0) / (n_quad - 1)
    weights = np.ones(n_quad)
    coeffs = []  # w_n[-1] P^n as a (2, 1) column over the pair axis
    for level in range(1, n_terms + 1):
        weights = np.concatenate(([0.0], np.cumsum((0.5 * dt) * (weights[:-1] + weights[1:]))))
        coeffs.append(weights[-1] * np.array([[(-1j) ** level], [1j ** level]]))

    def action(values: np.ndarray) -> np.ndarray:
        w = _to_pair(values)
        acc = coeffs[-1] * w
        for c in reversed(coeffs[:-1]):
            acc = c * w + h_c(acc)
        return _from_pair(w + h_c(acc))

    return _RightLinearOperator(spec.grid, action, "dyson")


def short_time_propagator(
    spec: HamiltonianSpec,
    t0: float,
    t1: float,
    n_steps: int,
    *,
    deriv: str = "spectral",
) -> QOperator:
    """Product of n_steps short-time factors, each the RK4 map of the flow.

    This is the operator form of the explicit integrator: the shared RK4 step
    run on the identity matrix under the linear flow x -> M x, which gives the
    fourth-order Taylor polynomial of exp(dt M), valid on all states.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    grid = spec.grid
    dt = (t1 - t0) / n_steps
    h = hamiltonian(spec, deriv).matrix
    dim = h.shape[0]
    # matrix of -(1/hbar)(H Psi) i: right-multiply each row's components by i
    m = (-1.0 / spec.hbar) * (right_mult_matrix(I) @ h.reshape(-1, 4, dim)).reshape(dim, dim)
    factor = _rk4_step(lambda x: m @ x, np.eye(dim), dt)
    return QOperator.from_matrix(grid, np.linalg.matrix_power(factor, n_steps), "short-time")


# ---------------------------------------------------------------------------
# Unitary quaternion composition
# ---------------------------------------------------------------------------

def compose_unitaries(u: UnitQuaternion, v: UnitQuaternion) -> Quaternion:
    """Product of the realized unit quaternions (order matters)."""
    return u.realize() * v.realize()


def angle_addition_deviation(u: UnitQuaternion, v: UnitQuaternion) -> float:
    """||realize(u) realize(v) - realize(u + v)|| with componentwise angle addition.

    Zero on the complex abelian subgroup (theta = 0), strictly positive in
    general: unitary quaternions do not compose by adding angles.
    """
    return (compose_unitaries(u, v) - (u + v).realize()).norm()


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _row_template(k: int) -> str:
    """One CSV line of k floats at 17 significant digits, csv-module line ending."""
    return ",".join([_FLOAT] * k) + "\r\n"


def write_trajectory_csv(traj: Trajectory, path, *, stride: int = 1) -> None:
    """Wide CSV: t then x0,x1,x2,x3 per node; '#' header documents the layout."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    n = traj.grid.n_points
    rows = list(range(0, len(traj.times), stride))
    if rows[-1] != len(traj.times) - 1:
        rows.append(len(traj.times) - 1)
    line = _row_template(1 + 4 * n)
    with open(path, "w", newline="") as fh:
        fh.write("# quaternionic trajectory: t, then node{K}_x{C} for node K, component C\n")
        fh.write(f"# n_points = {n}, h = {_FLOAT % traj.grid.h}, stride = {stride}\n")
        fh.write(",".join(["t"] + [f"node{kk}_x{c}" for kk in range(n) for c in range(4)]) + "\r\n")
        for idx in rows:
            fh.write(line % (traj.times[idx], *traj.values[idx].ravel().tolist()))


def write_continuity_csv(report: ContinuityReport, path) -> None:
    """Per-time summary: max residual, total norm, its centered rate, total source."""
    n_times = len(report.times)
    dnorm = np.gradient(report.total_norm, report.times) if n_times > 1 else np.zeros(1)
    max_res = np.abs(report.residual).max(axis=1)
    line = _row_template(5)
    with open(path, "w", newline="") as fh:
        fh.write("# continuity summary: max_residual is max_x |d(rho)/dt + dJ/dx - g| "
                 "(defined at interior times)\n")
        fh.write("t,max_residual,total_norm,dnorm_dt,int_g\r\n")
        for t in range(n_times):
            res = max_res[t - 1] if 1 <= t <= n_times - 2 else 0.0
            fh.write(line % (report.times[t], res, report.total_norm[t], dnorm[t],
                             report.total_source[t]))

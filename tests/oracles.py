"""Independent reference computations the tests check the library against.

Everything here is deliberately written from scratch (plain loops, explicit
DFT matrices, scipy.expm) so that it shares no code path with the package:
an oracle that calls the implementation under test would prove nothing.
"""

import numpy as np
import scipy.linalg


# ---------------------------------------------------------------------------
# Scalar quaternion arithmetic, longhand
# ---------------------------------------------------------------------------

def naive_qmul(a, b):
    """Hamilton product of two length-4 sequences, term by term."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def naive_inner(f_values, g_values, h):
    """Quadrature of Re[f conj(g)] by an explicit python loop."""
    total = 0.0
    for fv, gv in zip(f_values, g_values):
        conj_g = (gv[0], -gv[1], -gv[2], -gv[3])
        total += naive_qmul(fv, conj_g)[0]
    return h * total


# ---------------------------------------------------------------------------
# Multi-index basis elements straight from the defining formulas
# ---------------------------------------------------------------------------

def three_index_element(x, l, m, n):
    """cos(lx) e^{imx} + sin(lx) e^{inx} j as an (n_points, 4) array."""
    z0 = np.cos(l * x) * np.exp(1j * m * x)
    z1 = np.sin(l * x) * np.exp(1j * n * x)
    return np.stack([z0.real, z0.imag, z1.real, z1.imag], axis=-1)


def family_element(kind, x, index, phi0=0.0, xi0=0.0, theta0=0.0):
    """One element of the named Fourier family at one index, as an (n_points, 4)
    array, straight from the family's defining formula."""
    if kind == "ThreeIndex":
        return three_index_element(x, *index)
    if kind == "PhaseForm":
        z0 = np.cos(index * x) * np.exp(1j * np.asarray(phi0))
        z1 = np.sin(index * x) * np.exp(1j * np.asarray(xi0))
    elif kind == "ExpForm":
        z0 = np.cos(theta0) * np.exp(1j * index * x)
        z1 = np.sin(theta0) * np.exp(-1j * index * x)
    else:
        m, n = index
        z0 = np.cos(theta0) * np.exp(1j * m * x)
        z1 = np.sin(theta0) * np.exp(1j * n * x)
    return np.stack([z0.real, z0.imag, z1.real, z1.imag], axis=-1)


def brute_force_gram(x, h, elements):
    """Gram matrix by nested loops over element pairs and grid nodes."""
    size = len(elements)
    out = np.zeros((size, size))
    for a in range(size):
        for b in range(size):
            out[a, b] = naive_inner(elements[a], elements[b], h)
    return out


# ---------------------------------------------------------------------------
# Complex quantum mechanics references (independent discretization)
# ---------------------------------------------------------------------------

def dft_second_derivative(n):
    """Spectral d^2/dx^2 on n periodic nodes via an explicit DFT matrix."""
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    F = np.exp(-2j * np.pi * j * k / n) / np.sqrt(n)
    freqs = np.where(np.arange(n) <= n // 2, np.arange(n), np.arange(n) - n)
    if n % 2 == 0:
        freqs = freqs.astype(float)
    d2 = F.conj().T @ np.diag(-(freqs.astype(float) ** 2)) @ F
    return d2


def complex_hamiltonian(n, v_samples, hbar=1.0, mass=1.0):
    """H = -(hbar^2/2m) d^2/dx^2 + diag(V) as a dense complex matrix."""
    return (-hbar**2 / (2.0 * mass)) * dft_second_derivative(n) + np.diag(v_samples)


def expm_propagate(psi0, v_samples, t, hbar=1.0, mass=1.0):
    """Exact complex-QM propagation psi(t) = exp(-i H t / hbar) psi0."""
    h = complex_hamiltonian(len(psi0), v_samples, hbar, mass)
    return scipy.linalg.expm(-1j * h * t / hbar) @ psi0


def split_step_propagate(psi0, v_samples, t1, dt, hbar=1.0, mass=1.0):
    """Strang-split FFT integrator for i hbar dpsi/dt = H psi (works for complex V)."""
    n = len(psi0)
    k = np.fft.fftfreq(n, d=1.0 / n)
    kinetic_phase = np.exp(-1j * hbar * k**2 * dt / (2.0 * mass))
    half_v = np.exp(-1j * np.asarray(v_samples) * dt / (2.0 * hbar))
    psi = np.asarray(psi0, dtype=complex).copy()
    steps = int(round(t1 / dt))
    for _ in range(steps):
        psi *= half_v
        psi = np.fft.ifft(kinetic_phase * np.fft.fft(psi))
        psi *= half_v
    return psi


def complex_expectation(psi, op_matrix, h):
    """Re <psi| O |psi> with the standard complex inner product and weight h."""
    return float(np.real(h * np.vdot(psi, op_matrix @ psi)))


# ---------------------------------------------------------------------------
# Dense operator forms: impulse-by-impulse realizations, explicit towers
# ---------------------------------------------------------------------------

_UNITS = np.eye(4)  # 1, i, j, k as component rows


def impulse_matrix(action, n_points):
    """(4n)x(4n) real matrix of a real-linear action, one unit impulse per column."""
    dim = 4 * n_points
    out = np.zeros((dim, dim))
    for col in range(dim):
        impulse = np.zeros(dim)
        impulse[col] = 1.0
        out[:, col] = np.asarray(action(impulse.reshape(n_points, 4))).ravel()
    return out


def n_impulse_matrix(action, n_points):
    """Realization assuming T(e_k u) = T(e_k) u: n real-unit impulses, longhand products."""
    out = np.zeros((4 * n_points, 4 * n_points))
    for k in range(n_points):
        impulse = np.zeros((n_points, 4))
        impulse[k, 0] = 1.0
        image = np.asarray(action(impulse))
        for c, unit in enumerate(_UNITS):
            column = np.array([naive_qmul(row, unit) for row in image])
            out[:, 4 * k + c] = column.ravel()
    return out


def right_times_i(values):
    """Every row of an (n, 4) component array multiplied by i from the right."""
    return np.array([naive_qmul(row, _UNITS[1]) for row in values])


def first_derivative_matrix(n, deriv):
    """d/dx on n periodic nodes as a dense real matrix.

    spectral: an explicit DFT matrix times ik, with the Nyquist mode zeroed on
    even n; central: the periodic centered difference (psi[r+1] - psi[r-1]) / 2h.
    """
    if deriv == "spectral":
        j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        F = np.exp(-2j * np.pi * j * k / n) / np.sqrt(n)
        freqs = np.where(np.arange(n) <= n // 2, np.arange(n), np.arange(n) - n).astype(float)
        if n % 2 == 0:
            freqs[n // 2] = 0.0
        return (F.conj().T @ np.diag(1j * freqs) @ F).real
    h = 2.0 * np.pi / n
    out = np.zeros((n, n))
    for r in range(n):
        out[r, (r + 1) % n] += 1.0 / (2.0 * h)
        out[r, (r - 1) % n] -= 1.0 / (2.0 * h)
    return out


def _left_times(factors, values):
    """Row r of an (n, 4) component array multiplied from the left by factors[r]."""
    return np.array([naive_qmul(q, row) for q, row in zip(factors, values)])


def _real_layout_covariant_derivative(alpha, beta, deriv):
    """(d/dx - A) with A = alpha i + beta j, on (n, 4) arrays, node by node."""
    d = first_derivative_matrix(len(alpha), deriv)
    gauge = [(0.0, a, b.real, b.imag) for a, b in zip(alpha, beta)]
    return lambda values: d @ values - _left_times(gauge, values)


def real_layout_hamiltonian(alpha, beta, v, w, mass, hbar, deriv):
    """Action of H = -(hbar^2/2m)(d/dx - A)^2 + U, U = V + W j, on (n, 4) arrays."""
    d_a = _real_layout_covariant_derivative(alpha, beta, deriv)
    potential = [(p.real, p.imag, q.real, q.imag) for p, q in zip(v, w)]
    coef = -hbar**2 / (2.0 * mass)

    def action(values):
        values = np.asarray(values, dtype=float)
        return coef * d_a(d_a(values)) + _left_times(potential, values)

    return action


def real_layout_momentum(alpha, beta, hbar, deriv):
    """Action of Pi = -hbar ((d/dx - A) Psi) i on (n, 4) arrays, right-i row by row."""
    d_a = _real_layout_covariant_derivative(alpha, beta, deriv)
    return lambda values: -hbar * right_times_i(d_a(np.asarray(values, dtype=float)))


def real_layout_rk4(h_action, hbar, values, dt, n_steps):
    """Classic RK4 on dPsi/dt = -(1/hbar)(H Psi) i in the stacked (n, 4) real layout.

    Right multiplication by i goes through the longhand Hamilton product row
    by row; returns the n_steps + 1 states.
    """
    def f(v):
        return (-1.0 / hbar) * right_times_i(h_action(v))

    states = [np.asarray(values, dtype=float)]
    for _ in range(n_steps):
        v = states[-1]
        k1 = f(v)
        k2 = f(v + 0.5 * dt * k1)
        k3 = f(v + 0.5 * dt * k2)
        k4 = f(v + dt * k3)
        states.append(v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return np.array(states)


def trapezoid_dyson_tower(h_matrix, hbar, t0, t1, n_terms, n_quad):
    """Dyson series from the explicit (n_quad, 4n, 4n) trapezoid tower of each level.

    Level n at node j is the trapezoid integral of (H/hbar) level_{n-1} up to
    node j; its last node enters the sum times kron(1_n, L((-i)^n)).
    """
    dim = h_matrix.shape[0]
    h_scaled = h_matrix / hbar
    dt = (t1 - t0) / (n_quad - 1)
    total = np.eye(dim)
    level = np.broadcast_to(np.eye(dim), (n_quad, dim, dim)).copy()
    phase = _UNITS[0]
    for _ in range(n_terms):
        integrand = np.einsum("ab,jbc->jac", h_scaled, level)
        nxt = np.zeros_like(level)
        for j in range(1, n_quad):
            nxt[j] = nxt[j - 1] + 0.5 * dt * (integrand[j - 1] + integrand[j])
        phase = np.array(naive_qmul(phase, -_UNITS[1]))
        left = np.array([naive_qmul(phase, unit) for unit in _UNITS]).T
        total = total + nxt[-1] @ np.kron(np.eye(dim // 4), left)
        level = nxt
    return total


def taylor_product(rhs_matrix, dt, order, n_steps):
    """n_steps-th power of the order-p Taylor polynomial of exp(dt * rhs_matrix)."""
    dim = rhs_matrix.shape[0]
    factor = np.eye(dim)
    term = np.eye(dim)
    for p in range(1, order + 1):
        term = term @ (dt * rhs_matrix) / p
        factor = factor + term
    return np.linalg.matrix_power(factor, n_steps)


# ---------------------------------------------------------------------------
# Spectral bookkeeping, one column or one eigenspace at a time
# ---------------------------------------------------------------------------

def loop_fix_signs(vectors):
    """Flip each column whose first entry above 1e-10 of its largest magnitude is negative."""
    out = vectors.copy()
    for col in range(out.shape[1]):
        v = out[:, col]
        cutoff = 1e-10 * np.max(np.abs(v))
        idx = np.argmax(np.abs(v) > cutoff)
        if v[idx] < 0:
            out[:, col] = -v
    return out


def projection_sum(eigenvalues, factors):
    """sum_k lambda_k Q_k Q_k^T accumulated eigenspace by eigenspace."""
    dim = factors[0].shape[0]
    out = np.zeros((dim, dim))
    for lam, q in zip(eigenvalues, factors):
        out += lam * (q @ q.T)
    return out


def cluster_projectors(action, n_points, tol=1e-8):
    """Eigenvalues and orthogonal projectors of a self-adjoint real-linear action.

    The action is realized from all 4n unit impulses and diagonalized by one
    real numpy eigh; adjacent eigenvalues closer than tol * max(1, |a|, |b|)
    form one cluster, whose mean and projector V V^T are returned.
    """
    m = impulse_matrix(action, n_points)
    vals, vecs = np.linalg.eigh(0.5 * (m + m.T))
    groups = [[0]]
    for i in range(1, len(vals)):
        a, b = vals[i - 1], vals[i]
        if abs(b - a) < tol * max(1.0, abs(a), abs(b)):
            groups[-1].append(i)
        else:
            groups.append([i])
    return (np.array([np.mean(vals[g]) for g in groups]),
            [vecs[:, g] @ vecs[:, g].T for g in groups])

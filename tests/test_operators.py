import numpy as np
import pytest

from hqm import (
    Grid,
    GridMismatchError,
    HamiltonianSpec,
    NormalPair,
    QFunction,
    QOperator,
    adjoint,
    expectation,
    hamiltonian,
    inner,
    momentum_pi,
    normal_conditions,
)
from hqm.operators import central_derivative, spectral_derivative
from hqm.quaternion import I, Quaternion, qconj, qmul

from conftest import plane_wave, random_complex_qfunction, random_qfunction, normalized
from oracles import (
    complex_expectation,
    complex_hamiltonian,
    impulse_matrix,
    n_impulse_matrix,
    real_layout_hamiltonian,
    real_layout_momentum,
)


class TestApply:
    def test_identity(self, rng, grid32):
        f = random_qfunction(rng, grid32)
        assert np.array_equal(QOperator.identity(grid32)(f).values, f.values)

    def test_right_mult_i_squares_to_minus_one(self, rng, grid32):
        f = random_qfunction(rng, grid32)
        op = QOperator.right_multiplication(I, grid32)
        twice = op(op(f))
        assert np.max(np.abs(twice.values + f.values)) < 1e-14

    def test_position_on_unit_function(self, grid32):
        op = QOperator.position(grid32)
        got = op(QFunction.constant(grid32, 1.0))
        assert np.allclose(got.values[:, 0], grid32.nodes)
        assert np.allclose(got.values[:, 1:], 0.0)

    def test_grid_mismatch(self, grid32):
        with pytest.raises(GridMismatchError):
            QOperator.identity(grid32)(QFunction.constant(Grid(16), 1.0))

    def test_real_linearity(self, rng, grid32):
        spec = HamiltonianSpec(grid=grid32, V=np.cos(grid32.nodes), W=0.2 + 0.1j)
        op = hamiltonian(spec)
        f, g = random_qfunction(rng, grid32), random_qfunction(rng, grid32)
        a, b = -1.3, 0.7
        lhs = op(a * f + b * g).values
        rhs = a * op(f).values + b * op(g).values
        assert np.max(np.abs(lhs - rhs)) < 1e-11


class TestMatrixRealization:
    def test_matrix_reproduces_action(self, rng, grid32):
        spec = HamiltonianSpec(grid=grid32, alpha=0.3, beta=0.1 + 0.2j, V=1.0 + 0.5j, W=0.3j)
        op = hamiltonian(spec)
        m = op.matrix
        for _ in range(5):
            f = random_qfunction(rng, grid32)
            direct = op(f).values.ravel()
            via_matrix = m @ f.values.ravel()
            assert np.max(np.abs(direct - via_matrix)) < 1e-12 * max(1.0, np.max(np.abs(direct)))

    def test_composition_matches_matrix_product(self, grid32):
        a = QOperator.right_multiplication(I, grid32)
        b = QOperator.position(grid32)
        assert np.allclose((a @ b).matrix, a.matrix @ b.matrix, atol=1e-12)

    def test_concurrent_materialization_is_consistent(self, grid32):
        import threading
        spec = HamiltonianSpec(grid=grid32, V=np.cos(grid32.nodes))
        op = hamiltonian(spec)
        seen = []

        def grab():
            seen.append(op.matrix)

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(m is seen[0] for m in seen)  # single cached realization


class TestRightLinearRealization:
    """hamiltonian() realizes its matrix from n impulses; the generic path uses 4n."""

    @staticmethod
    def full_spec(n):
        grid = Grid(n)
        x = grid.nodes
        return HamiltonianSpec(grid=grid, mass=0.8, hbar=1.3, alpha=0.3 * np.sin(x),
                               beta=0.2 - 0.1j * np.cos(x), V=np.cos(x) + 0.4j * np.sin(x),
                               W=0.3 * np.sin(2 * x) - 0.2j)

    @pytest.mark.parametrize("n", [7, 8, 33])
    @pytest.mark.parametrize("deriv", ["spectral", "central"])
    def test_hamiltonian_matches_generic_realization(self, n, deriv):
        h = hamiltonian(self.full_spec(n), deriv)
        generic = QOperator(h.grid, h.apply_values).matrix
        assert np.max(np.abs(h.matrix - generic)) <= 1e-13 * np.max(np.abs(generic))

    def test_hamiltonian_commutes_with_right_units(self, rng):
        h = hamiltonian(self.full_spec(8))
        f = random_qfunction(rng, h.grid)
        for unit in (Quaternion(0, 1), Quaternion(0, 0, 1), Quaternion(0, 0, 0, 1)):
            right = QOperator.right_multiplication(unit, h.grid)
            gap = h(right(f)).values - right(h(f)).values
            assert np.max(np.abs(gap)) < 1e-12 * np.max(np.abs(h(f).values))

    def test_non_right_linear_operators_keep_impulse_realization(self):
        spec = self.full_spec(7)
        for op in (QOperator.right_multiplication(I, spec.grid), momentum_pi(spec)):
            ref = impulse_matrix(op.apply_values, 7)
            assert np.max(np.abs(op.matrix - ref)) <= 1e-14 * np.max(np.abs(ref))
            # the n-impulse shortcut would be wrong for them
            assert np.max(np.abs(n_impulse_matrix(op.apply_values, 7) - ref)) > 0.1


class TestRealLayoutOracle:
    """H and Pi against a from-scratch real-layout build: DFT or difference matrix,
    longhand Hamilton products per node, quaternionic gauge and potential."""

    @pytest.mark.parametrize("n", [16, 17])
    @pytest.mark.parametrize("deriv", ["spectral", "central"])
    def test_hamiltonian_and_momentum_match_oracle(self, n, deriv):
        grid = Grid(n)
        x = grid.nodes
        mass, hbar = 0.8, 1.3
        alpha = 0.3 * np.sin(x) + 0.1
        beta = 0.2 * np.cos(x) - 0.15j * np.sin(2 * x) + 0.05j
        v = np.cos(x) + 0.4j * np.sin(x)
        w = 0.3 * np.sin(2 * x) - 0.2j * np.cos(x)
        spec = HamiltonianSpec(grid=grid, mass=mass, hbar=hbar, alpha=alpha, beta=beta, V=v, W=w)
        h_ref = impulse_matrix(real_layout_hamiltonian(alpha, beta, v, w, mass, hbar, deriv), n)
        h_op = hamiltonian(spec, deriv)
        # the n-impulse matrix never feeds w1 != 0; the 4n-impulse one of the action does
        for h_got in (h_op.matrix, impulse_matrix(h_op.apply_values, n)):
            assert np.max(np.abs(h_got - h_ref)) <= 1e-12 * np.max(np.abs(h_ref))
        pi_ref = impulse_matrix(real_layout_momentum(alpha, beta, hbar, deriv), n)
        pi_got = momentum_pi(spec, deriv).matrix
        assert np.max(np.abs(pi_got - pi_ref)) <= 1e-12 * np.max(np.abs(pi_ref))


class TestAdjoint:
    def test_identity_self_adjoint(self, grid32):
        op = QOperator.identity(grid32)
        assert np.max(np.abs(adjoint(op).matrix - np.eye(4 * 32))) < 1e-14

    def test_involution(self, rng, grid32):
        spec = HamiltonianSpec(grid=grid32, V=0.3 + 1.1j, W=0.2)
        op = hamiltonian(spec)
        assert np.max(np.abs(adjoint(adjoint(op)).matrix - op.matrix)) < 1e-12

    def test_defining_identity(self, rng, grid32):
        spec = HamiltonianSpec(grid=grid32, V=0.3 + 1.1j, W=0.2 - 0.4j, beta=0.1j)
        op = hamiltonian(spec)
        op_adj = adjoint(op)
        for _ in range(5):
            f = random_qfunction(rng, grid32)
            g = random_qfunction(rng, grid32)
            assert inner(op(f), g) == pytest.approx(inner(f, op_adj(g)), rel=1e-10, abs=1e-10)

    def test_left_multiplication_by_i(self, grid32):
        # adjoint of left multiplication by i is left multiplication by -i
        op = QOperator.left_multiplication(Quaternion(0, 1), grid32)
        expected = QOperator.left_multiplication(Quaternion(0, -1), grid32)
        assert np.max(np.abs(adjoint(op).matrix - expected.matrix)) < 1e-12

    def test_reverses_composition(self, grid32):
        a = QOperator.left_multiplication(
            QFunction.from_components(grid32, x0=np.cos(grid32.nodes), x2=0.5))
        b = QOperator.right_multiplication(Quaternion(0.2, 0.4, -0.1, 0.9), grid32)
        lhs = adjoint(a @ b).matrix
        rhs = (adjoint(b) @ adjoint(a)).matrix
        assert np.max(np.abs(lhs - rhs)) < 1e-11


class TestExpectation:
    def test_identity_on_normalized_state(self, rng, grid32):
        psi = normalized(random_qfunction(rng, grid32))
        assert expectation(QOperator.identity(grid32), psi) == pytest.approx(1.0, abs=1e-12)

    def test_zero_state_rejected(self, grid32):
        with pytest.raises(ValueError):
            expectation(QOperator.identity(grid32), QFunction.zero(grid32))

    def test_reduces_to_complex_qm(self, rng, grid32):
        # hermitian operator + complex state: the value must agree with an
        # independently discretized complex-QM computation
        v = 0.5 * np.cos(grid32.nodes) + 0.2
        spec = HamiltonianSpec(grid=grid32, V=v)
        psi = random_complex_qfunction(rng, grid32, normalized=True)
        ours = expectation(hamiltonian(spec), psi)
        oracle = complex_expectation(psi.z0, complex_hamiltonian(32, v), grid32.h)
        assert ours == pytest.approx(oracle, rel=1e-10, abs=1e-10)

    def test_right_mult_i_on_one_plus_j(self, grid32):
        # hand evaluation: ((1+j)i) conj(1+j) = -2k, so the real part vanishes
        psi = normalized(QFunction.constant(grid32, Quaternion(1, 0, 1, 0)))
        value = expectation(QOperator.right_multiplication(I, grid32), psi)
        assert value == pytest.approx(0.0, abs=1e-13)

    def test_integrand_terms_are_conjugate(self, rng, grid32):
        # (O psi) conj(psi) and psi conj(O psi) are pointwise conjugates, which
        # is why the symmetrized integrand (and the value) is real
        m = rng.normal(size=(128, 128))
        op = QOperator.from_matrix(grid32, m)
        psi = random_qfunction(rng, grid32)
        o_psi = op(psi).values
        term1 = qmul(o_psi, qconj(psi.values))
        term2 = qmul(psi.values, qconj(o_psi))
        assert np.max(np.abs(term1 - qconj(term2))) < 1e-13 * max(1.0, np.max(np.abs(term1)))

    def test_always_real_for_random_operators(self, rng, grid32):
        for _ in range(5):
            op = QOperator.from_matrix(grid32, rng.normal(size=(128, 128)))
            psi = random_qfunction(rng, grid32)
            value = expectation(op, psi, normalize=True)
            assert isinstance(value, float)


class TestMomentum:
    def test_plane_wave_eigenfunction(self, grid64):
        spec = HamiltonianSpec(grid=grid64, hbar=1.5)
        pi_op = momentum_pi(spec)
        for k in (1, 3, -2):
            psi = plane_wave(grid64, k)
            got = pi_op(psi).values
            assert np.max(np.abs(got - 1.5 * k * psi.values)) < 1e-10

    def test_constant_state(self, grid32):
        spec = HamiltonianSpec(grid=grid32)
        got = momentum_pi(spec)(QFunction.constant(grid32, Quaternion(1, 2, 3, 4)))
        assert np.max(np.abs(got.values)) < 1e-12

    def test_constant_gauge_shifts_momentum(self, grid64):
        # (d/dx - alpha i) e^{ikx} = i(k - alpha) e^{ikx}, so Pi -> hbar(k - alpha)
        spec = HamiltonianSpec(grid=grid64, alpha=0.7)
        psi = plane_wave(grid64, 2)
        got = momentum_pi(spec)(psi).values
        assert np.max(np.abs(got - (2 - 0.7) * psi.values)) < 1e-10

    def test_self_adjoint_without_gauge(self, rng, grid32):
        spec = HamiltonianSpec(grid=grid32)
        pi_op = momentum_pi(spec)
        for _ in range(5):
            f = random_qfunction(rng, grid32)
            g = random_qfunction(rng, grid32)
            assert inner(pi_op(f), g) == pytest.approx(inner(f, pi_op(g)), abs=1e-9)


class TestHamiltonian:
    def test_free_plane_wave(self, grid64):
        spec = HamiltonianSpec(grid=grid64, mass=0.8, hbar=1.3)
        h_op = hamiltonian(spec)
        for k in (1, 2, -3):
            psi = plane_wave(grid64, k)
            expected = (1.3**2 * k**2 / (2 * 0.8)) * psi.values
            assert np.max(np.abs(h_op(psi).values - expected)) < 1e-9

    def test_constant_potential_on_constant_state(self, grid32):
        spec = HamiltonianSpec(grid=grid32, V=2.5)
        psi = QFunction.constant(grid32, Quaternion(1, 0, 1, 0))
        got = hamiltonian(spec)(psi)
        assert np.max(np.abs(got.values - 2.5 * psi.values)) < 1e-12

    def test_quaternionic_potential_breaks_self_adjointness(self, rng, grid32):
        spec = HamiltonianSpec(grid=grid32, W=0.4 + 0.1j)
        h_op = hamiltonian(spec)
        assert h_op.asymmetry() > 1e-6
        found = 0.0
        for _ in range(5):
            f = random_qfunction(rng, grid32)
            g = random_qfunction(rng, grid32)
            found = max(found, abs(inner(h_op(f), g) - inner(f, h_op(g))))
        assert found > 1e-6

    def test_real_potential_is_self_adjoint(self, grid32):
        spec = HamiltonianSpec(grid=grid32, alpha=np.sin(grid32.nodes),
                               V=np.cos(grid32.nodes))
        assert hamiltonian(spec).asymmetry() < 1e-12

    def test_complex_sector_closure(self, rng, grid32):
        # beta = 0, W = 0: complex states stay complex (exactly, in floating point)
        spec = HamiltonianSpec(grid=grid32, alpha=0.2, V=0.3 + 0.7j)
        psi = random_complex_qfunction(rng, grid32)
        got = hamiltonian(spec)(psi)
        assert np.max(np.abs(got.values[:, 2:])) == 0.0

    def test_central_difference_flag(self, grid64):
        spec = HamiltonianSpec(grid=grid64)
        psi = plane_wave(grid64, 1)
        spectral = hamiltonian(spec, deriv="spectral")(psi).values
        central = hamiltonian(spec, deriv="central")(psi).values
        # central differences are consistent but only second-order accurate
        assert np.max(np.abs(central - spectral)) < 5e-3
        assert np.max(np.abs(central - spectral)) > 1e-5


class TestDerivatives:
    def test_spectral_exact_on_band_limited(self, grid32):
        x = grid32.nodes
        values = np.stack([np.cos(3 * x), np.sin(2 * x), x * 0 + 1.0, np.cos(x)], axis=-1)
        expected = np.stack([-3 * np.sin(3 * x), 2 * np.cos(2 * x), x * 0, -np.sin(x)], axis=-1)
        assert np.max(np.abs(spectral_derivative(values, grid32) - expected)) < 1e-12

    def test_central_second_order(self):
        errs = []
        for n in (32, 64):
            g = Grid(n)
            values = np.sin(g.nodes)[:, None] * np.ones((1, 4))
            got = central_derivative(values, g)
            errs.append(np.max(np.abs(got[:, 0] - np.cos(g.nodes))))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


class TestHamiltonianSpec:
    def test_validation(self, grid32):
        with pytest.raises(ValueError):
            HamiltonianSpec(grid=grid32, mass=0.0)
        with pytest.raises(ValueError):
            HamiltonianSpec(grid=grid32, hbar=-1.0)

    @pytest.mark.parametrize("field", ["mass", "hbar"])
    def test_nan_mass_or_hbar_rejected(self, grid32, field):
        with pytest.raises(ValueError, match="positive"):
            HamiltonianSpec(grid=grid32, **{field: float("nan")})

    @pytest.mark.parametrize("field, bad", [("alpha", np.inf), ("beta", complex(0, np.nan)),
                                            ("V", np.inf), ("W", complex(np.nan, 0))])
    def test_non_finite_samples_rejected(self, grid32, field, bad):
        samples = np.zeros(32, dtype=complex if field != "alpha" else float)
        samples[5] = bad
        with pytest.raises(ValueError, match=f"^{field} has non-finite samples$"):
            HamiltonianSpec(grid=grid32, **{field: samples})

    def test_gauge_is_pure_imaginary(self, grid32):
        spec = HamiltonianSpec(grid=grid32, alpha=np.sin(grid32.nodes), beta=0.3 + 0.4j)
        gauge = spec.gauge_values()
        assert np.all(gauge[:, 0] == 0.0)
        assert np.allclose(gauge[:, 1], np.sin(grid32.nodes))
        assert np.allclose(gauge[:, 2], 0.3)
        assert np.allclose(gauge[:, 3], 0.4)

    def test_real_potential_flag(self, grid32):
        assert HamiltonianSpec(grid=grid32, V=1.0).is_real_potential
        assert not HamiltonianSpec(grid=grid32, V=1j).is_real_potential
        assert not HamiltonianSpec(grid=grid32, W=0.1).is_real_potential


class TestNormalConditions:
    def test_complex_limit(self, rng):
        # N1 = 0 with a normal (non-hermitian) N0: everything commutes
        d = 6
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        n0 = q @ np.diag(rng.normal(size=d) + 1j * rng.normal(size=d)) @ q.conj().T
        report = normal_conditions(NormalPair(n0, np.zeros((d, d))))
        assert report.full_commutator < 1e-12
        assert report.block_normal < 1e-12
        assert report.block_coupling < 1e-12
        assert report.equivalence_consistent

    def test_constructed_instances_satisfy_both(self, rng):
        d = 5
        # scalar real N0 with a complex symmetric N1
        sym = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        n1 = 0.5 * (sym + sym.T)
        report = normal_conditions(NormalPair(1.7 * np.eye(d), n1))
        assert report.blocks_hold and report.full_holds
        # diagonal real N0 with a commuting diagonal complex N1
        n0 = np.diag(rng.normal(size=d))
        n1 = np.diag(rng.normal(size=d) + 1j * rng.normal(size=d))
        report = normal_conditions(NormalPair(n0, n1))
        assert report.blocks_hold and report.full_holds
        assert report.equivalence_consistent

    def test_random_non_normal_witness(self, rng):
        d = 6
        n0 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        report = normal_conditions(NormalPair(n0, np.zeros((d, d))))
        assert report.block_normal > 1e-4
        assert report.full_commutator > 1e-4
        assert report.equivalence_consistent  # both sides fail together here

    def test_equivalence_counterexample_is_flagged(self, rng):
        # N0 = 0 with a real non-symmetric N1: the block conditions hold
        # trivially, yet the true-adjoint commutator does not vanish, because
        # the blockwise adjoint rule conflates conjugation with the adjoint.
        d = 4
        n1 = rng.normal(size=(d, d))
        assert np.linalg.norm(n1 @ n1.T - n1.T @ n1) > 1e-3  # generic draw
        report = normal_conditions(NormalPair(np.zeros((d, d)), n1))
        assert report.blocks_hold
        assert not report.full_holds
        assert not report.equivalence_consistent

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            NormalPair(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            NormalPair(np.zeros((2, 2)), np.zeros((3, 3)))

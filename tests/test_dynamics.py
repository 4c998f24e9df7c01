import math

import numpy as np
import pytest

from hqm import (
    EvolutionProblem,
    Grid,
    HamiltonianSpec,
    InstabilityError,
    QFunction,
    Quaternion,
    StabilityWarning,
    UnitQuaternion,
    angle_addition_deviation,
    compose_unitaries,
    dyson_propagator,
    evolve,
    hamiltonian,
    inner,
    norm,
    probability_fields,
    short_time_propagator,
    step,
    superop,
)
from hqm.dynamics import _BLOCK, write_continuity_csv, write_trajectory_csv
from hqm.operators import central_derivative, spectral_derivative
from hqm.quaternion import I, qmul

from conftest import normalized, plane_wave, random_qfunction
from oracles import (
    expm_propagate,
    impulse_matrix,
    naive_qmul,
    real_layout_rk4,
    right_times_i,
    split_step_propagate,
    taylor_product,
    trapezoid_dyson_tower,
)


def packet(grid, sharp=2.0, carrier=2):
    x = grid.nodes
    z0 = np.exp(-sharp * np.cos(x - math.pi) ** 2) * np.exp(1j * carrier * x)
    return normalized(QFunction.from_complex(grid, z0=z0))


class TestStep:
    def test_constant_hamiltonian_phase_rotates_from_the_right(self):
        # H psi = E psi (constant real potential, constant state): the closed
        # form is psi(t) = psi0 * e^{-iEt/hbar}, the phase multiplying on the
        # RIGHT; this also holds for initial states with j and k components.
        grid = Grid(16)
        energy = 0.7
        spec = HamiltonianSpec(grid=grid, V=energy)
        psi0 = normalized(QFunction.constant(grid, Quaternion(1.0, 0.2, 0.5, -0.1)))
        t = 0.5
        out = evolve(EvolutionProblem(spec, psi0, 0.0, t, 0.005))
        phase = np.array([math.cos(energy * t), -math.sin(energy * t), 0.0, 0.0])
        expected = qmul(psi0.values, phase)
        assert np.max(np.abs(out.trajectory.final.values - expected)) < 1e-12

    def test_free_plane_wave_dispersion(self):
        grid = Grid(16)
        spec = HamiltonianSpec(grid=grid)
        k = 2
        omega = k * k / 2.0
        psi0 = normalized(plane_wave(grid, k))
        t = 1.0
        out = evolve(EvolutionProblem(spec, psi0, 0.0, t, 0.002))
        expected = QFunction.from_complex(
            grid, z0=psi0.z0 * np.exp(-1j * omega * t))
        assert norm(out.trajectory.final - expected) < 1e-10

    def test_fourth_order_convergence(self):
        grid = Grid(8)
        spec = HamiltonianSpec(grid=grid)
        k = 2
        psi0 = normalized(plane_wave(grid, k))
        exact = QFunction.from_complex(grid, z0=psi0.z0 * np.exp(-1j * (k * k / 2.0)))

        def global_error(dt):
            out = evolve(EvolutionProblem(spec, psi0, 0.0, 1.0, dt))
            return norm(out.trajectory.final - exact)

        ratio = global_error(0.05) / global_error(0.025)
        assert 13.0 < ratio < 19.0  # 2^4 = 16

    def test_single_step_api(self):
        grid = Grid(16)
        spec = HamiltonianSpec(grid=grid, V=1.0)
        psi0 = normalized(QFunction.constant(grid, 1.0))
        one = step(spec, psi0, 0.01)
        via_evolve = evolve(EvolutionProblem(spec, psi0, 0.0, 0.01, 0.01))
        assert np.max(np.abs(one.values - via_evolve.trajectory.final.values)) < 1e-15

    def test_cfl_warning(self):
        grid = Grid(32)
        spec = HamiltonianSpec(grid=grid)
        psi0 = normalized(QFunction.constant(grid, 1.0))
        with pytest.warns(StabilityWarning):
            step(spec, psi0, 0.1)

    def test_instability_raises_with_suggestion(self):
        grid = Grid(32)
        spec = HamiltonianSpec(grid=grid)
        psi0 = packet(grid)
        with pytest.warns(StabilityWarning):
            with pytest.raises(InstabilityError) as exc:
                evolve(EvolutionProblem(spec, psi0, 0.0, 10.0, 0.1))
        assert 0.0 < exc.value.suggested_dt < 0.01


class TestSymplecticStepping:
    """Stepping in the symplectic complex form against RK4 in the real layout."""

    @staticmethod
    def case(n):
        grid = Grid(n)
        x = grid.nodes
        spec = HamiltonianSpec(grid=grid, mass=1.3, hbar=0.7, alpha=0.3 * np.sin(x),
                               beta=0.2 * np.cos(x) + 0.1j,
                               V=0.4 * np.cos(x) + 0.2j * np.sin(2 * x),
                               W=0.3 - 0.2j * np.cos(x))
        psi0 = normalized(QFunction.from_components(
            grid, x0=np.exp(-np.cos(x - math.pi) ** 2), x1=0.3 * np.sin(x),
            x2=0.5 * np.cos(2 * x), x3=0.2 + 0.1 * np.sin(3 * x)))
        return spec, psi0

    @pytest.mark.parametrize("deriv", ["spectral", "central"])
    @pytest.mark.parametrize("n", [16, 17])
    def test_step_and_evolve_match_real_layout(self, n, deriv):
        spec, psi0 = self.case(n)
        dt = 2e-3
        ref = real_layout_rk4(hamiltonian(spec, deriv).apply_values, spec.hbar,
                              psi0.values, dt, 50)
        assert np.max(np.abs(ref[-1] - ref[0])) > 0.01  # the state really moves
        got = step(spec, psi0, dt, deriv=deriv).values
        assert np.max(np.abs(got - ref[1])) <= 1e-12 * np.max(np.abs(ref[1]))
        traj = evolve(EvolutionProblem(spec, psi0, 0.0, 50 * dt, dt, deriv=deriv)).trajectory
        assert np.max(np.abs(traj.values - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestEvolutionProblem:
    def test_step_count_must_be_integer(self, grid32):
        spec = HamiltonianSpec(grid=grid32)
        psi0 = normalized(QFunction.constant(grid32, 1.0))
        with pytest.raises(ValueError, match="integer"):
            EvolutionProblem(spec, psi0, 0.0, 1.0, 0.3)

    def test_dt_cannot_exceed_interval(self, grid32):
        spec = HamiltonianSpec(grid=grid32)
        psi0 = normalized(QFunction.constant(grid32, 1.0))
        with pytest.raises(ValueError):
            EvolutionProblem(spec, psi0, 0.0, 0.1, 0.2)

    def test_normalization_contract(self, grid32):
        spec = HamiltonianSpec(grid=grid32)
        psi0 = QFunction.constant(grid32, 2.0)
        with pytest.raises(ValueError, match="norm"):
            EvolutionProblem(spec, psi0, 0.0, 1.0, 0.001)
        EvolutionProblem(spec, psi0, 0.0, 1.0, 0.001, require_normalized=False)


class TestContinuity:
    def test_real_potential_conserves_norm(self):
        # real U with a full quaternionic gauge potential: the source vanishes
        # identically and the total norm survives 1000 steps
        grid = Grid(32)
        x = grid.nodes
        spec = HamiltonianSpec(grid=grid, alpha=0.3 * np.sin(x), beta=0.1 + 0.05j,
                               V=np.cos(x))
        out = evolve(EvolutionProblem(spec, packet(grid), 0.0, 0.2, 0.0002))
        assert out.report.norm_drift() < 1e-8
        assert np.max(np.abs(out.report.total_source)) == 0.0

    def test_random_real_potentials_conserve_norm(self, rng):
        grid = Grid(16)
        x = grid.nodes
        for _ in range(3):
            spec = HamiltonianSpec(
                grid=grid,
                alpha=rng.normal() * np.sin(x) + rng.normal() * np.cos(x),
                beta=rng.normal() + 1j * rng.normal(),
                V=rng.normal() * np.cos(x) + rng.normal(),
            )
            psi0 = random_qfunction(rng, grid, k_max=2, normalized=True)
            out = evolve(EvolutionProblem(spec, psi0, 0.0, 0.1, 5e-4))
            assert out.report.norm_drift() < 1e-8
            assert np.max(np.abs(out.report.total_source)) == 0.0

    def test_quaternionic_potential_sources_probability(self):
        # W != 0: norm is not conserved and d/dt of the total norm tracks the
        # integrated source to second order in dt
        grid = Grid(32)
        x = grid.nodes
        spec = HamiltonianSpec(grid=grid, V=0.2, W=0.4 + 0.3j)
        psi0 = normalized(QFunction.from_components(
            grid, x0=1 + 0.3 * np.cos(x), x1=0.2 * np.sin(x), x2=0.5,
            x3=0.1 * np.cos(2 * x)))
        dt = 0.0002
        out = evolve(EvolutionProblem(spec, psi0, 0.0, 0.1, dt))
        report = out.report
        assert report.norm_drift() > 1e-4
        dnorm = (report.total_norm[2:] - report.total_norm[:-2]) / (2 * dt)
        rel = np.max(np.abs(dnorm - report.total_source[1:-1]))
        rel /= np.max(np.abs(report.total_source))
        assert rel < 1e-6

    def test_residual_second_order_in_dt(self):
        grid = Grid(64)
        spec = HamiltonianSpec(grid=grid)
        psi0 = packet(grid)

        def max_residual(dt):
            out = evolve(EvolutionProblem(spec, psi0, 0.0, 0.05, dt))
            return out.report.max_residual()

        order = math.log2(max_residual(5e-4) / max_residual(2.5e-4))
        assert abs(order - 2.0) < 0.3

    def test_fields_are_real_and_rho_nonnegative(self, rng):
        grid = Grid(32)
        x = grid.nodes
        for _ in range(5):
            spec = HamiltonianSpec(grid=grid, alpha=rng.normal() * np.sin(x),
                                   beta=rng.normal() + 1j * rng.normal(),
                                   V=rng.normal() + 1j * rng.normal(),
                                   W=rng.normal() + 1j * rng.normal())
            psi = random_qfunction(rng, grid, normalized=True)
            fields = probability_fields(spec, psi)
            assert fields.max_imaginary < 1e-12
            assert np.all(fields.rho >= -1e-15)

    def test_complex_sector_reduction(self):
        # beta = 0, W = 0, complex initial state: the j,k components stay at
        # exactly zero and the trajectory matches an independently discretized
        # complex-QM propagator
        grid = Grid(32)
        x = grid.nodes
        v = 0.5 * np.cos(x) + 0.1j * np.sin(x)
        spec = HamiltonianSpec(grid=grid, V=v)
        psi0 = packet(grid, sharp=1.0)
        out = evolve(EvolutionProblem(spec, psi0, 0.0, 0.5, 5e-4))
        assert np.max(np.abs(out.trajectory.values[:, :, 2:])) == 0.0
        final = out.trajectory.final
        exact = expm_propagate(psi0.z0, v, 0.5)
        assert norm(QFunction.from_complex(grid, z0=final.z0 - exact)) < 1e-7
        strang = split_step_propagate(psi0.z0, v, 0.5, dt=1e-4)
        assert norm(QFunction.from_complex(grid, z0=final.z0 - strang)) < 1e-7


class TestBlockedContinuity:
    """The blocked continuity pass against a per-sample loop over the public fields."""

    @pytest.mark.parametrize("deriv", ["spectral", "central"])
    @pytest.mark.parametrize("n_times", [2, 3, _BLOCK + 1, 2 * _BLOCK + 5])
    def test_bit_identical_to_per_sample_loop(self, n_times, deriv):
        grid = Grid(12)
        x = grid.nodes
        spec = HamiltonianSpec(grid=grid, alpha=0.3 * np.sin(x), beta=0.1 + 0.05j,
                               V=np.cos(x) + 0.1j, W=0.2 - 0.1j * np.sin(x))
        psi0 = normalized(QFunction.from_components(
            grid, x0=1 + 0.3 * np.cos(x), x1=0.2 * np.sin(x), x2=0.5, x3=0.1 * np.cos(2 * x)))
        dt = 1e-3
        out = evolve(EvolutionProblem(spec, psi0, 0.0, (n_times - 1) * dt, dt, deriv=deriv))
        report = out.report
        assert len(report.times) == n_times

        diff = {"spectral": spectral_derivative, "central": central_derivative}[deriv]
        fields = [probability_fields(spec, out.trajectory.state(t), deriv) for t in range(n_times)]
        rho = np.array([fl.rho for fl in fields])
        current = np.array([fl.current for fl in fields])
        source = np.array([fl.source for fl in fields])
        residual = np.array([
            np.abs((rho[t + 1] - rho[t - 1]) / (2.0 * dt)
                   + diff(current[t][:, None], grid)[:, 0] - source[t])
            for t in range(1, n_times - 1)
        ]).reshape(n_times - 2, grid.n_points)
        assert np.array_equal(report.rho, rho)
        assert np.array_equal(report.current, current)
        assert np.array_equal(report.source, source)
        assert np.array_equal(report.residual, residual)
        assert report.max_imaginary == max(fl.max_imaginary for fl in fields)


class TestSuperop:
    def test_identity_pair(self, rng, grid32):
        op = superop(Quaternion(1.0), Quaternion(1.0), grid=grid32)
        f = random_qfunction(rng, grid32)
        assert np.array_equal(op(f).values, f.values)

    def test_hamiltonian_pair_is_the_schrodinger_right_side(self, rng, grid32):
        spec = HamiltonianSpec(grid=grid32, V=0.3 + 0.2j, W=0.1)
        h_op = hamiltonian(spec)
        k_op = superop((1.0 / spec.hbar) * h_op, Quaternion(0, -1))
        for f in (plane_wave(grid32, 1), random_qfunction(rng, grid32)):
            expected = -(1.0 / spec.hbar) * h_op(f).right_mul(I).values
            assert np.max(np.abs(k_op(f).values - expected)) < 1e-13

    def test_composition_ordering(self, rng, grid32):
        # (a|b)(c|d) psi = a c psi d b
        qs = [Quaternion(*rng.normal(size=4)) for _ in range(4)]
        a, b, c, d = qs
        op = superop(a, b, grid=grid32) @ superop(c, d, grid=grid32)
        psi = random_qfunction(rng, grid32)
        expected = psi.left_mul(c).left_mul(a).right_mul(d).right_mul(b)
        assert np.max(np.abs(op(psi).values - expected.values)) < 1e-12
        # longhand check on one node for good measure
        node = 3
        manual = naive_qmul(naive_qmul(a.as_array(), naive_qmul(c.as_array(), psi.values[node])),
                            naive_qmul(d.as_array(), b.as_array()))
        assert np.allclose(op(psi).values[node], manual, atol=1e-12)


class TestDysonPropagator:
    def test_vanishing_hamiltonian_gives_identity(self):
        grid = Grid(8)
        spec = HamiltonianSpec(grid=grid, mass=1e30)  # kinetic term ~ 1e-30
        u = dyson_propagator(spec, 0.0, 0.5, n_terms=3, n_quad=9)
        assert np.max(np.abs(u.matrix - np.eye(32))) < 1e-12

    def test_converges_on_complex_data(self):
        grid = Grid(8)
        x = grid.nodes
        spec = HamiltonianSpec(grid=grid, V=0.4 * np.cos(x) + 0.25j * np.sin(x))
        h_norm = np.linalg.norm(hamiltonian(spec).matrix, 2)
        t1 = 0.3 / h_norm
        psi = normalized(QFunction.from_complex(
            grid, z0=np.exp(1j * x) + 0.3 * np.exp(-1j * x) + 0.2))
        ref = evolve(EvolutionProblem(spec, psi, 0.0, t1, t1 / 400)).trajectory.final
        errs = [norm(dyson_propagator(spec, 0.0, t1, n, 129)(psi) - ref)
                for n in range(1, 6)]
        for bigger, smaller in zip(errs, errs[1:]):
            assert bigger / smaller >= 2.0

    def test_fails_on_quaternionic_data(self):
        # the propagator collapses the per-level right factors (-i)^n onto the
        # state, legitimate only when the state commutes with i; a j-bearing
        # initial state exposes the failure while complex data still converges
        grid = Grid(8)
        x = grid.nodes
        spec = HamiltonianSpec(grid=grid, V=0.3 + 0.2j)
        psi_q = normalized(QFunction.from_components(
            grid, x0=np.cos(x), x2=np.sin(x), x3=0.3))
        ref_q = evolve(EvolutionProblem(spec, psi_q, 0.0, 0.1, 1e-3)).trajectory.final
        u = dyson_propagator(spec, 0.0, 0.1, n_terms=10, n_quad=65)
        assert norm(u(psi_q) - ref_q) > 1e-3

        psi_c = normalized(plane_wave(grid, 1))
        ref_c = evolve(EvolutionProblem(spec, psi_c, 0.0, 0.1, 1e-3)).trajectory.final
        assert norm(u(psi_c) - ref_c) < 1e-6

    def test_parameter_validation(self, grid32):
        spec = HamiltonianSpec(grid=grid32)
        with pytest.raises(ValueError):
            dyson_propagator(spec, 0.0, 1.0, n_terms=0, n_quad=9)
        with pytest.raises(ValueError):
            dyson_propagator(spec, 0.0, 1.0, n_terms=2, n_quad=2)


class TestDenseReferenceForms:
    """The structured propagators against the explicit dense forms they replace."""

    @staticmethod
    def spec():
        grid = Grid(8)
        x = grid.nodes
        return HamiltonianSpec(grid=grid, mass=1.3, hbar=0.7, alpha=0.2 * np.cos(x),
                               V=0.4 * np.cos(x) + 0.1j, W=0.3 - 0.2j * np.sin(x))

    @pytest.mark.parametrize("n_quad", [9, 17])
    def test_dyson_matches_trapezoid_tower(self, n_quad):
        spec = self.spec()
        h = impulse_matrix(hamiltonian(spec).apply_values, 8)
        ref = trapezoid_dyson_tower(h, spec.hbar, 0.0, 0.05, 4, n_quad)
        got = dyson_propagator(spec, 0.0, 0.05, n_terms=4, n_quad=n_quad).matrix
        assert np.linalg.norm(ref - np.eye(32)) > 0.1  # every term matters
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("deriv", ["spectral", "central"])
    def test_short_time_matches_impulse_taylor_product(self, deriv):
        spec = self.spec()
        h_op = hamiltonian(spec, deriv)
        rhs = impulse_matrix(lambda v: (-1.0 / spec.hbar) * right_times_i(h_op.apply_values(v)), 8)
        ref = taylor_product(rhs, 0.1 / 16, 4, 16)
        got = short_time_propagator(spec, 0.0, 0.1, n_steps=16, deriv=deriv).matrix
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


class TestShortTimePropagator:
    def test_matches_integrator_on_all_sectors(self):
        grid = Grid(8)
        x = grid.nodes
        spec = HamiltonianSpec(grid=grid, V=0.3 + 0.2j, W=0.1 - 0.2j)
        u = short_time_propagator(spec, 0.0, 0.1, n_steps=100)
        for psi in (normalized(plane_wave(grid, 1)),
                    normalized(QFunction.from_components(grid, x0=np.cos(x), x2=np.sin(x)))):
            ref = evolve(EvolutionProblem(spec, psi, 0.0, 0.1, 1e-3)).trajectory.final
            assert norm(u(psi) - ref) < 1e-10

    def test_unitary_axioms_for_real_potential(self, rng):
        grid = Grid(16)
        spec = HamiltonianSpec(grid=grid, alpha=0.2, V=np.cos(grid.nodes))
        u = short_time_propagator(spec, 0.0, 0.1, n_steps=50)
        for _ in range(5):
            f = random_qfunction(rng, grid)
            g = random_qfunction(rng, grid)
            assert inner(u(f), u(g)) == pytest.approx(inner(f, g), abs=1e-8)
            assert norm(u(f)) == pytest.approx(norm(f), abs=1e-8)

    def test_infinitesimal_generator(self, rng):
        # (U(dt) psi - psi)/dt -> -(1/hbar)(H psi) i at first order in dt
        grid = Grid(16)
        spec = HamiltonianSpec(grid=grid, V=0.5 + 0.1j)
        h_op = hamiltonian(spec)
        psi = random_qfunction(rng, grid, normalized=True)
        rhs = -(1.0 / spec.hbar) * h_op(psi).right_mul(I)

        def deviation(dt):
            u = short_time_propagator(spec, 0.0, dt, n_steps=1)
            return norm((1.0 / dt) * (u(psi) - psi) - rhs)

        d1, d2 = deviation(1e-3), deviation(5e-4)
        assert d1 / d2 == pytest.approx(2.0, rel=0.15)


class TestComposeUnitaries:
    def test_complex_subgroup_is_abelian(self):
        u = UnitQuaternion(0.0, 0.4, 1.0)
        v = UnitQuaternion(0.0, 1.1, -2.0)
        assert angle_addition_deviation(u, v) < 1e-12

    def test_identity_angles_are_neutral(self, rng):
        e = UnitQuaternion(0.0, 0.0, 0.0)
        for _ in range(5):
            v = UnitQuaternion(*rng.uniform(-math.pi, math.pi, 3))
            assert angle_addition_deviation(e, v) < 1e-15

    def test_curated_pair(self):
        u = UnitQuaternion(math.pi / 4, 0.0, 0.0)
        v = UnitQuaternion(math.pi / 4, math.pi / 2, 0.0)
        prod = compose_unitaries(u, v)
        assert prod.isclose(Quaternion(-0.5, 0.5, 0.5, -0.5), atol=1e-14)
        assert angle_addition_deviation(u, v) > 0.1
        assert (compose_unitaries(u, v) - compose_unitaries(v, u)).norm() > 0.1


class TestCsvOutputs:
    def test_trajectory_csv(self, tmp_path):
        grid = Grid(8)
        spec = HamiltonianSpec(grid=grid, V=1.0)
        psi0 = normalized(QFunction.constant(grid, 1.0))
        out = evolve(EvolutionProblem(spec, psi0, 0.0, 0.1, 0.01))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(out.trajectory, path, stride=4)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        header = lines[2].split(",")
        assert header[0] == "t" and len(header) == 1 + 4 * 8
        last = lines[-1].split(",")
        assert float(last[0]) == pytest.approx(0.1)  # stride still emits the end

    def test_continuity_csv(self, tmp_path):
        grid = Grid(8)
        spec = HamiltonianSpec(grid=grid, W=0.3)
        psi0 = normalized(QFunction.constant(grid, Quaternion(1, 0, 0.5, 0)))
        out = evolve(EvolutionProblem(spec, psi0, 0.0, 0.1, 0.01))
        path = tmp_path / "cont.csv"
        write_continuity_csv(out.report, path)
        lines = path.read_text().splitlines()
        assert lines[1] == "t,max_residual,total_norm,dnorm_dt,int_g"
        row = lines[3].split(",")
        assert len(row) == 5
        float_row = [float(v) for v in row]
        assert float_row[2] > 0.0

import numpy as np
import pytest

from hqm import (
    Grid,
    HamiltonianSpec,
    NotSelfAdjointError,
    QFunction,
    QOperator,
    decompose,
    expectation,
    hamiltonian,
    inner,
    norm,
    project,
    write_spectrum_csv,
)

from hqm.spectral import _fix_signs

from conftest import random_qfunction, normalized
from oracles import loop_fix_signs, projection_sum


def random_self_adjoint(rng, grid, scale=1.0):
    dim = 4 * grid.n_points
    m = rng.normal(size=(dim, dim)) * scale
    return QOperator.from_matrix(grid, 0.5 * (m + m.T))


class TestDecompose:
    def test_identity(self):
        grid = Grid(8)
        res = decompose(QOperator.identity(grid))
        assert res.n_spaces == 1
        assert res.eigenvalues[0] == pytest.approx(1.0, abs=1e-14)
        assert res.multiplicities[0] == 32

    def test_multiplication_operator_spectrum(self):
        # multiplying by a real sampled function is diagonal per node, and the
        # four quaternion components make each sampled value 4-fold degenerate
        grid = Grid(8)
        v = 1.0 + 0.25 * np.arange(8)
        op = QOperator.left_multiplication(QFunction.from_components(grid, x0=v))
        res = decompose(op)
        assert res.n_spaces == 8
        assert np.allclose(res.eigenvalues, np.sort(v), atol=1e-12)
        assert np.all(res.multiplicities == 4)

    def test_free_hamiltonian_spectrum(self):
        # odd grid avoids the Nyquist mode: eigenvalues hbar^2 k^2 / 2m with
        # multiplicity 8 for k >= 1 ({e^{ikx}, e^{-ikx}} x {1,i,j,k}) and the
        # 4-fold constant block at zero
        grid = Grid(17)
        spec = HamiltonianSpec(grid=grid)
        res = decompose(hamiltonian(spec))
        ks = np.arange(0, 9)
        assert np.allclose(res.eigenvalues, ks**2 / 2.0, atol=1e-9)
        assert res.multiplicities[0] == 4
        assert np.all(res.multiplicities[1:] == 8)

    def test_rejects_non_self_adjoint(self, grid32):
        spec = HamiltonianSpec(grid=grid32, W=0.5)
        with pytest.raises(NotSelfAdjointError) as exc:
            decompose(hamiltonian(spec))
        assert exc.value.asymmetry > 1e-6

    def test_eigenvalues_are_real_floats(self, rng):
        res = decompose(random_self_adjoint(rng, Grid(6)))
        assert res.eigenvalues.dtype == np.float64


class TestResolutionInvariants:
    @pytest.fixture
    def resolution(self, rng):
        grid = Grid(8)
        op = random_self_adjoint(rng, grid)
        return grid, op, decompose(op)

    def test_projections_idempotent_and_orthogonal(self, resolution):
        grid, _, res = resolution
        mats = [res.projection(k).matrix for k in range(res.n_spaces)]
        for a, pa in enumerate(mats):
            for b, pb in enumerate(mats):
                target = pa if a == b else np.zeros_like(pa)
                assert np.max(np.abs(pa @ pb - target)) < 1e-10

    def test_resolution_of_identity(self, resolution):
        grid, _, res = resolution
        total = sum(res.projection(k).matrix for k in range(res.n_spaces))
        assert np.max(np.abs(total - np.eye(4 * grid.n_points))) < 1e-10

    def test_reconstruction(self, resolution):
        _, op, res = resolution
        m = op.matrix
        err = np.linalg.norm(m - res.reconstruction_matrix()) / np.linalg.norm(m)
        assert err < 1e-9

    def test_reconstruction_matches_per_eigenspace_sum(self):
        res = decompose(hamiltonian(HamiltonianSpec(grid=Grid(17), V=0.5)))
        assert np.all(res.multiplicities[1:] == 8)  # degenerate spaces take the stacked path
        ref = projection_sum(res.eigenvalues, res.factors)
        assert np.max(np.abs(res.reconstruction_matrix() - ref)) < 1e-13 * np.max(np.abs(ref))

    def test_expectation_matches_weighted_projections(self, rng, resolution):
        grid, op, res = resolution
        psi = normalized(random_qfunction(rng, grid, k_max=3))
        direct = expectation(op, psi)
        via_spectrum = sum(
            lam * inner(project(res, k, psi), psi)
            for k, lam in enumerate(res.eigenvalues)
        )
        assert direct == pytest.approx(via_spectrum, rel=1e-9, abs=1e-9)


class TestProject:
    def test_eigenfunction_is_fixed(self):
        grid = Grid(16)
        spec = HamiltonianSpec(grid=grid)
        res = decompose(hamiltonian(spec))
        psi = QFunction.from_components(grid, x0=np.cos(grid.nodes))
        k = int(np.argmin(np.abs(res.eigenvalues - 0.5)))
        got = project(res, k, psi)
        assert np.max(np.abs(got.values - psi.values)) < 1e-10

    def test_orthogonal_component_vanishes(self):
        grid = Grid(16)
        res = decompose(hamiltonian(HamiltonianSpec(grid=grid)))
        psi = QFunction.from_components(grid, x0=np.cos(grid.nodes))
        k_other = int(np.argmin(np.abs(res.eigenvalues - 2.0)))
        assert norm(project(res, k_other, psi)) < 1e-10

    def test_components_reassemble(self, rng):
        grid = Grid(8)
        res = decompose(random_self_adjoint(rng, grid))
        f = random_qfunction(rng, grid)
        total = QFunction.zero(grid)
        for k in range(res.n_spaces):
            total = total + project(res, k, f)
        assert np.max(np.abs(total.values - f.values)) < 1e-10

    def test_distinct_eigenspaces_orthogonal(self, rng):
        grid = Grid(8)
        res = decompose(random_self_adjoint(rng, grid))
        f = random_qfunction(rng, grid)
        g = random_qfunction(rng, grid)
        for k in range(min(res.n_spaces, 4)):
            for l in range(min(res.n_spaces, 4)):
                if k != l:
                    assert abs(inner(project(res, k, f), project(res, l, g))) < 1e-9

    def test_bad_index(self, rng):
        grid = Grid(8)
        res = decompose(QOperator.identity(grid))
        with pytest.raises(IndexError):
            project(res, 5, QFunction.constant(grid, 1.0))


class TestDeterminism:
    def test_sign_convention_makes_factors_reproducible(self, rng):
        grid = Grid(8)
        op = random_self_adjoint(rng, grid)
        res1 = decompose(op)
        res2 = decompose(QOperator.from_matrix(grid, op.matrix.copy()))
        for q1, q2 in zip(res1.factors, res2.factors):
            assert np.array_equal(q1, q2)


    def test_sign_fix_matches_column_loop(self, rng):
        vectors = np.linalg.qr(rng.normal(size=(12, 12)))[0]
        vectors[:3, 4], vectors[3, 4] = 1e-13, -0.5  # negligible leading entries are skipped
        vectors[:, 7] = 0.0     # an all-zero column stays as it is
        assert np.array_equal(_fix_signs(vectors), loop_fix_signs(vectors))


def test_spectrum_csv(tmp_path):
    grid = Grid(8)
    res = decompose(QOperator.identity(grid))
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(res, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "eigenvalue,multiplicity"
    value, mult = lines[1].split(",")
    assert float(value) == pytest.approx(1.0)
    assert mult == "32"

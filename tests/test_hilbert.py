import math

import numpy as np
import pytest

from hqm import (
    BasisFamily,
    BasisValidationError,
    FamilyKind,
    Grid,
    GridMismatchError,
    QFunction,
    RankDeficiencyError,
    combine,
    completeness_residual,
    expand_in_basis,
    gram_matrix,
    gram_schmidt,
    inner,
    norm,
    read_qfunction_csv,
    reference_full_basis,
    write_qfunction_csv,
)
from hqm.quaternion import I, J

from conftest import TWO_PI, random_qfunction
from oracles import naive_inner


class TestGrid:
    def test_minimum_size(self):
        with pytest.raises(ValueError):
            Grid(3)

    def test_nodes_cover_interval(self):
        g = Grid(8)
        assert g.nodes[0] == 0.0
        assert np.all(np.diff(g.nodes) > 0)
        assert g.nodes[-1] < TWO_PI
        assert g.h == pytest.approx(TWO_PI / 8)


class TestInnerProduct:
    def test_constant_one(self, grid32):
        one = QFunction.constant(grid32, 1.0)
        assert inner(one, one) == pytest.approx(TWO_PI, rel=1e-14)

    def test_symmetry(self, rng, grid32):
        for _ in range(5):
            f = random_qfunction(rng, grid32)
            g = random_qfunction(rng, grid32)
            assert inner(f, g) == inner(g, f)

    def test_matches_longhand_quadrature(self, rng, grid32):
        f = random_qfunction(rng, grid32)
        g = random_qfunction(rng, grid32)
        assert inner(f, g) == pytest.approx(
            naive_inner(f.values, g.values, grid32.h), rel=1e-13, abs=1e-13)

    def test_grid_mismatch(self, grid32):
        with pytest.raises(GridMismatchError):
            inner(QFunction.constant(grid32, 1.0), QFunction.constant(Grid(16), 1.0))

    def test_orthogonal_basis_elements(self, grid64):
        fam = BasisFamily(FamilyKind.PHASE_FORM, grid64, N=8)
        assert abs(inner(fam.element(1), fam.element(2))) < 1e-12

    def test_positive_definite(self, rng, grid32):
        for _ in range(10):
            f = random_qfunction(rng, grid32)
            assert inner(f, f) > 0.0

    def test_bilinearity(self, rng, grid32):
        f, g, h = (random_qfunction(rng, grid32) for _ in range(3))
        a, b = 1.7, -0.3
        lhs = inner(a * f + b * g, h)
        assert lhs == pytest.approx(a * inner(f, h) + b * inner(g, h), abs=1e-12)


class TestNorm:
    def test_constant(self, grid32):
        assert norm(QFunction.constant(grid32, 1.0)) == pytest.approx(math.sqrt(TWO_PI))

    def test_zero(self, grid32):
        assert norm(QFunction.zero(grid32)) == 0.0

    def test_scaling(self, rng, grid32):
        f = random_qfunction(rng, grid32)
        for alpha in (-2.5, 0.0, 0.3):
            assert norm(alpha * f) == pytest.approx(abs(alpha) * norm(f), abs=1e-12)

    def test_schwarz(self, rng, grid32):
        for _ in range(20):
            f = random_qfunction(rng, grid32)
            g = random_qfunction(rng, grid32)
            assert abs(inner(f, g)) <= norm(f) * norm(g) + 1e-12

    def test_parallelogram(self, rng, grid32):
        for _ in range(10):
            f = random_qfunction(rng, grid32)
            g = random_qfunction(rng, grid32)
            lhs = norm(f + g) ** 2 + norm(f - g) ** 2
            rhs = 2 * norm(f) ** 2 + 2 * norm(g) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_joint_continuity(self, rng, grid32):
        f, g, r, s = (random_qfunction(rng, grid32) for _ in range(4))
        # remove the quadratic cross term so the deviation is pure first order
        s = s - (inner(r, s) / inner(r, r)) * r
        base = inner(f, g)
        devs = [abs(inner(f + (1 / n) * r, g + (1 / n) * s) - base)
                for n in (1, 2, 4, 8, 16, 32, 64)]
        assert all(b < a for a, b in zip(devs, devs[1:]))
        # bounded by C/n with a fixed constant
        c = 2 * devs[0]
        assert all(d <= c / n for d, n in zip(devs, (1, 2, 4, 8, 16, 32, 64)))


class TestGramSchmidt:
    def test_orthonormal_input_unchanged(self, grid32):
        basis = reference_full_basis(grid32, 1)
        out = gram_schmidt(basis)
        for before, after in zip(basis, out):
            assert np.max(np.abs(before.values - after.values)) < 1e-12

    def test_hand_worked_pair(self, grid64):
        # {1, 1 + L_1} -> {1/sqrt(2pi), L_1/sqrt(2pi)}: the constant part of the
        # second vector projects away exactly, leaving L_1 normalized by its
        # norm sqrt(2pi).
        lam1 = BasisFamily(FamilyKind.PHASE_FORM, grid64, N=2).element(1)
        one = QFunction.constant(grid64, 1.0)
        out = gram_schmidt([one, one + lam1])
        scale = 1.0 / math.sqrt(TWO_PI)
        assert np.max(np.abs(out[0].values - scale * one.values)) < 1e-12
        assert np.max(np.abs(out[1].values - scale * lam1.values)) < 1e-12

    def test_random_set_gives_identity_gram(self, rng, grid32):
        fs = [random_qfunction(rng, grid32) for _ in range(5)]
        out = gram_schmidt(fs)
        assert np.max(np.abs(gram_matrix(out) - np.eye(5))) < 1e-10

    def test_dependent_input_names_offender(self, rng, grid32):
        f0 = random_qfunction(rng, grid32)
        f1 = random_qfunction(rng, grid32)
        with pytest.raises(RankDeficiencyError) as exc:
            gram_schmidt([f0, f1, 2.0 * f0 - f1])
        assert exc.value.index == 2

    def test_span_preserved(self, rng, grid32):
        fs = [random_qfunction(rng, grid32) for _ in range(3)]
        out = gram_schmidt(fs)
        # each input is reproduced by its expansion in the orthonormal output
        for f in fs:
            coeffs = expand_in_basis(f, out)
            assert norm(f - combine(out, coeffs)) < 1e-10


class TestExpandInBasis:
    def test_picks_out_single_element(self, grid32):
        basis = reference_full_basis(grid32, 1)
        coeffs = expand_in_basis(basis[3], basis)
        expected = np.zeros(len(basis))
        expected[3] = 1.0
        assert np.max(np.abs(coeffs - expected)) < 1e-12

    def test_orthogonal_complement_gives_zero(self, grid32):
        # cos(x) is orthogonal to the constant block {1,i,j,k}/sqrt(2pi);
        # residual equals ||cos x|| = sqrt(pi)
        basis = reference_full_basis(grid32, 0)
        f = QFunction.from_components(grid32, x0=np.cos(grid32.nodes))
        coeffs = expand_in_basis(f, basis)
        assert np.max(np.abs(coeffs)) < 1e-13
        residual = norm(f - combine(basis, coeffs))
        assert residual == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_planted_coefficients(self, grid32):
        basis = reference_full_basis(grid32, 1)
        f = 2.0 * basis[1] - 3.0 * basis[4]
        coeffs = expand_in_basis(f, basis)
        expected = np.zeros(len(basis))
        expected[1], expected[4] = 2.0, -3.0
        assert np.max(np.abs(coeffs - expected)) < 1e-10

    def test_parseval_inequality(self, rng, grid32):
        basis = reference_full_basis(grid32, 2)
        f = random_qfunction(rng, grid32, k_max=4)  # partly outside the span
        coeffs = expand_in_basis(f, basis)
        assert np.sum(coeffs**2) <= norm(f) ** 2 + 1e-12

    def test_rejects_non_orthonormal(self, grid32):
        skewed = [QFunction.constant(grid32, 1.0), QFunction.constant(grid32, 2.0)]
        with pytest.raises(BasisValidationError):
            expand_in_basis(QFunction.constant(grid32, 1.0), skewed)
        # but passes with the check disabled
        expand_in_basis(QFunction.constant(grid32, 1.0), skewed, check_orthonormal=False)


class TestBasisStack:
    def test_products_match_per_element_loops(self, rng, grid32):
        basis = [random_qfunction(rng, grid32) for _ in range(5)]
        f = random_qfunction(rng, grid32)
        expected = np.array([naive_inner(f.values, b.values, grid32.h) for b in basis])
        coeffs = expand_in_basis(f, basis, check_orthonormal=False)
        assert np.max(np.abs(coeffs - expected)) < 1e-13 * np.max(np.abs(expected))
        gram = np.array([[naive_inner(a.values, b.values, grid32.h) for b in basis]
                         for a in basis])
        assert np.max(np.abs(gram_matrix(basis) - gram)) < 1e-13 * np.max(np.abs(gram))
        weights = rng.normal(size=len(basis))
        acc = np.zeros((grid32.n_points, 4))
        for c, b in zip(weights, basis):
            acc = acc + c * b.values
        assert np.max(np.abs(combine(basis, weights).values - acc)) < 1e-13 * np.max(np.abs(acc))

    def test_grids_are_checked(self, grid32):
        one, other = QFunction.constant(grid32, 1.0), QFunction.constant(Grid(16), 1.0)
        for call in (lambda: gram_matrix([one, other]),
                     lambda: expand_in_basis(other, [one], check_orthonormal=False),
                     lambda: combine([one, other], [1.0, 1.0]),
                     lambda: completeness_residual(other, [one])):
            with pytest.raises(GridMismatchError):
                call()


class TestPointwiseOps:
    def test_left_and_right_multiplication_differ(self, grid32):
        f = QFunction.constant(grid32, J)
        left = f.left_mul(I)   # i * j = k
        right = f.right_mul(I)  # j * i = -k
        assert np.allclose(left.values[:, 3], 1.0)
        assert np.allclose(right.values[:, 3], -1.0)

    def test_conj_matches_componentwise(self, rng, grid32):
        f = random_qfunction(rng, grid32)
        assert np.allclose(f.conj().values[:, 1:], -f.values[:, 1:])

    def test_immutability(self, grid32):
        f = QFunction.constant(grid32, 1.0)
        with pytest.raises(ValueError):
            f.values[0, 0] = 2.0


class TestCsv:
    def test_roundtrip(self, rng, grid32, tmp_path):
        f = random_qfunction(rng, grid32)
        path = tmp_path / "state.csv"
        write_qfunction_csv(f, path)
        g = read_qfunction_csv(path)
        assert g.grid == grid32
        assert np.array_equal(g.values, f.values)

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d,e\n0,1,2,3,4\n")
        with pytest.raises(ValueError, match="header"):
            read_qfunction_csv(path)

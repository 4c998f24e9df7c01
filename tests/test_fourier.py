import math

import numpy as np
import pytest

from hqm import (
    BasisFamily,
    ConditioningError,
    FamilyKind,
    Grid,
    QFourierExpansion,
    QFunction,
    analyze,
    completeness_residual,
    gram,
    inner,
    norm,
    read_expansion_csv,
    reference_full_basis,
    synthesize,
    write_expansion_csv,
)

from conftest import TWO_PI, random_qfunction
from oracles import brute_force_gram, family_element, three_index_element


def phase_family(grid, N=4, phi0=0.0, xi0=0.0, **kw):
    return BasisFamily(FamilyKind.PHASE_FORM, grid, N=N, phi0=phi0, xi0=xi0, **kw)


class TestBasisElements:
    def test_phase_form_n0_is_constant_phase(self, grid32):
        lam = phase_family(grid32, phi0=0.8).element(0)
        assert np.allclose(lam.values[:, 0], math.cos(0.8))
        assert np.allclose(lam.values[:, 1], math.sin(0.8))
        assert np.allclose(lam.values[:, 2:], 0.0)

    def test_exp_form_theta0_zero_is_complex_exponential(self, grid32):
        fam = BasisFamily(FamilyKind.EXP_FORM, grid32, N=4, theta0=0.0)
        lam = fam.element(3)
        assert np.allclose(lam.z0, np.exp(3j * grid32.nodes))
        assert np.allclose(lam.z1, 0.0)

    def test_phase_form_n1_zero_phases(self, grid32):
        lam = phase_family(grid32).element(1)
        x = grid32.nodes
        assert np.allclose(lam.values[:, 0], np.cos(x))
        assert np.allclose(lam.values[:, 2], np.sin(x))
        assert np.allclose(lam.values[:, [1, 3]], 0.0)

    def test_elements_have_unit_pointwise_norm(self, grid32):
        for fam in (phase_family(grid32, phi0=0.4, xi0=2.0),
                    BasisFamily(FamilyKind.EXP_FORM, grid32, N=4, theta0=0.9),
                    BasisFamily(FamilyKind.TWO_INDEX, grid32, N=3, theta0=0.7)):
            for idx in fam.index_set()[:5]:
                lam = fam.element(idx)
                assert np.allclose(np.sum(lam.values**2, axis=1), 1.0, atol=1e-14)

    def test_out_of_range_index(self, grid32):
        with pytest.raises(IndexError):
            phase_family(grid32, N=2).element(3)

    def test_truncation_bound_enforced(self):
        with pytest.raises(ValueError, match="anti-aliasing"):
            phase_family(Grid(16), N=4)

    def test_three_index_needs_l_and_cap(self, grid32):
        with pytest.raises(ValueError):
            BasisFamily(FamilyKind.THREE_INDEX, grid32, N=2)
        with pytest.raises(ValueError):
            BasisFamily(FamilyKind.THREE_INDEX, grid32, N=2, L=3)

    def test_explicit_indices_validated(self, grid32):
        with pytest.raises(IndexError):
            phase_family(grid32, N=2, indices=(0, 5))
        with pytest.raises(ValueError, match="duplicates"):
            phase_family(grid32, N=2, indices=(0, 0))
        with pytest.raises(ValueError, match="empty"):
            phase_family(grid32, N=2, indices=())

    @pytest.mark.parametrize("name", ["phi0", "xi0", "theta0"])
    def test_non_finite_parameters_rejected(self, grid32, name):
        samples = np.zeros(32)
        samples[7] = np.nan
        for bad in (np.inf, samples):
            with pytest.raises(ValueError, match=f"^{name} has non-finite samples$"):
                BasisFamily(FamilyKind.EXP_FORM, grid32, N=2, **{name: bad})


    def test_parameters_do_not_alias_the_callers_array(self, grid32):
        phi0 = np.linspace(0.0, 1.0, 32)
        fam = phase_family(grid32, N=2, phi0=phi0)
        before = fam.sample_all()
        phi0[3] = np.nan
        assert np.array_equal(fam.sample_all(), before)
        with pytest.raises(ValueError):
            fam.phi0[3] = 0.0


class TestSampler:
    @pytest.mark.parametrize("n", [17, 32])
    @pytest.mark.parametrize("sampled", [False, True], ids=["constant", "sampled"])
    @pytest.mark.parametrize("kind", list(FamilyKind), ids=lambda k: k.value)
    def test_matches_per_index_formula(self, rng, kind, sampled, n):
        grid = Grid(n)
        params = {name: rng.uniform(-4.0, 4.0, n) if sampled else float(rng.uniform(-4.0, 4.0))
                  for name in ("phi0", "xi0", "theta0")}
        L = 1 if kind is FamilyKind.THREE_INDEX else None
        full = BasisFamily(kind, grid, N=3, L=L, **params).index_set()
        for subset in (None, tuple(full[::3]), (full[-1],)):
            fam = BasisFamily(kind, grid, N=3, L=L, indices=subset, **params)
            expected = np.stack([family_element(kind.value, grid.nodes, i, **params)
                                 for i in fam.index_set()])
            assert np.array_equal(fam.sample_all(), expected)
            for i, values in zip(fam.index_set(), expected):
                assert np.array_equal(fam.element(i).values, values)


class TestGram:
    def test_phase_form_orthogonality(self, grid64):
        fam = phase_family(grid64, N=8, phi0=0.3, xi0=1.9)
        assert np.max(np.abs(gram(fam) - TWO_PI * np.eye(fam.size))) < 1e-10

    def test_exp_form_orthogonality(self, grid64):
        fam = BasisFamily(FamilyKind.EXP_FORM, grid64, N=8, theta0=1.1)
        assert np.max(np.abs(gram(fam) - TWO_PI * np.eye(fam.size))) < 1e-10

    def test_orthogonality_with_function_parameters(self, rng, grid64):
        # the parameters cancel pointwise inside <L_n, L_n'>, so promoting the
        # constants to arbitrary sampled functions must not break orthogonality
        x = grid64.nodes
        def band(k_max=3):
            out = np.full(grid64.n_points, rng.normal())
            for k in range(1, k_max + 1):
                out += rng.normal() * np.cos(k * x) + rng.normal() * np.sin(k * x)
            return out
        for _ in range(5):
            fam = phase_family(grid64, N=6, phi0=band(), xi0=band())
            assert np.max(np.abs(gram(fam) - TWO_PI * np.eye(fam.size))) < 1e-9
            fam = BasisFamily(FamilyKind.EXP_FORM, grid64, N=6, theta0=band())
            assert np.max(np.abs(gram(fam) - TWO_PI * np.eye(fam.size))) < 1e-9

    def test_two_index_formula(self, grid64):
        theta0 = math.pi / 4
        fam = BasisFamily(FamilyKind.TWO_INDEX, grid64, N=2, theta0=theta0)
        got = gram(fam)
        idx = fam.index_set()
        c2, s2 = math.cos(theta0) ** 2, math.sin(theta0) ** 2
        expected = np.array([[TWO_PI * (c2 * (m == m2) + s2 * (n == n2))
                              for (m2, n2) in idx] for (m, n) in idx])
        assert np.max(np.abs(got - expected)) < 1e-10
        # theta0 = pi/4 collapses to pi * (delta_mm' + delta_nn')
        assert got[0, 1] == pytest.approx(math.pi, rel=1e-12)

    def test_three_index_vs_brute_force(self, grid32):
        fam = BasisFamily(FamilyKind.THREE_INDEX, grid32, N=1, L=1)
        elements = [three_index_element(grid32.nodes, *idx) for idx in fam.index_set()]
        oracle = brute_force_gram(grid32.nodes, grid32.h, elements)
        assert np.max(np.abs(gram(fam) - oracle)) < 1e-10

    def test_negative_indexes_are_independent(self, grid64):
        # L_n and L_{-n} span a nonsingular 2x2 block: neither can be dropped
        fam = phase_family(grid64, N=3, indices=(3, -3))
        block = gram(fam)
        assert np.min(np.linalg.svd(block, compute_uv=False)) > 1.0


class TestAnalyzeSynthesize:
    def test_planted_phase_form(self, grid64):
        fam = phase_family(grid64, N=8, phi0=0.2, xi0=0.9)
        order = fam.index_set()
        coeffs = np.zeros(fam.size)
        coeffs[order.index(2)] = 3.0
        coeffs[order.index(5)] = -1.0
        f = synthesize(QFourierExpansion(fam, coeffs))
        got = analyze(f, fam).coefficients
        assert np.max(np.abs(got - coeffs)) < 1e-10

    def test_zero_function(self, grid64):
        fam = phase_family(grid64, N=4)
        got = analyze(QFunction.zero(grid64), fam).coefficients
        assert np.max(np.abs(got)) == 0.0

    def test_single_coefficient_synthesis(self, grid32):
        fam = phase_family(grid32, N=4)
        coeffs = np.zeros(fam.size)
        coeffs[fam.index_set().index(3)] = 1.0
        f = synthesize(QFourierExpansion(fam, coeffs))
        assert np.max(np.abs(f.values - fam.element(3).values)) < 1e-14

    def test_zero_coefficients_synthesize_to_zero(self, grid32):
        fam = phase_family(grid32, N=2)
        f = synthesize(QFourierExpansion(fam, np.zeros(fam.size)))
        assert np.max(np.abs(f.values)) == 0.0

    def test_two_index_planted_on_independent_support(self, rng, grid64):
        # a single-row rectangle {(1, n)} is linearly independent even though
        # the full product grid is exactly rank-deficient
        indices = tuple((1, n) for n in (-2, -1, 0, 1))
        fam = BasisFamily(FamilyKind.TWO_INDEX, grid64, N=2, theta0=0.6, indices=indices)
        coeffs = rng.uniform(-2, 2, size=fam.size)
        f = synthesize(QFourierExpansion(fam, coeffs))
        got = analyze(f, fam).coefficients
        assert np.max(np.abs(got - coeffs)) < 1e-8

    def test_full_two_index_rectangle_is_rank_deficient(self, grid64):
        fam = BasisFamily(FamilyKind.TWO_INDEX, grid64, N=1, theta0=0.6)
        f = QFunction.constant(grid64, 1.0)
        with pytest.raises(ConditioningError) as exc:
            analyze(f, fam)
        assert exc.value.condition > 1e12

    def test_three_index_degenerate_elements_detected(self, grid64):
        # l = 0 kills the j block, so (0, m, n) collides for every n
        fam = BasisFamily(FamilyKind.THREE_INDEX, grid64, N=1, L=1)
        with pytest.raises(ConditioningError):
            analyze(QFunction.constant(grid64, 1.0), fam)

    def test_coefficient_roundtrip_orthogonal_family(self, rng, grid64):
        fam = BasisFamily(FamilyKind.EXP_FORM, grid64, N=6, theta0=0.8)
        coeffs = rng.normal(size=fam.size)
        got = analyze(synthesize(QFourierExpansion(fam, coeffs)), fam).coefficients
        assert np.max(np.abs(got - coeffs)) < 1e-10

    def test_function_roundtrip_on_span(self, rng, grid64):
        fam = phase_family(grid64, N=6, phi0=1.0, xi0=0.1)
        f = synthesize(QFourierExpansion(fam, rng.normal(size=fam.size)))
        recon = synthesize(analyze(f, fam))
        assert norm(f - recon) < 1e-9 * max(1.0, norm(f))

    def test_sqrt2pi_scaling_flag(self, grid64):
        fam = phase_family(grid64, N=4)
        f = fam.element(2)
        exact = analyze(f, fam).coefficients
        legacy = analyze(f, fam, scaling="sqrt2pi").coefficients
        # for an orthogonal family the historical convention is off by the
        # constant factor sqrt(2 pi): <f, L_n>/sqrt(2pi) vs <f, L_n>/(2pi)
        assert np.max(np.abs(legacy - math.sqrt(TWO_PI) * exact)) < 1e-12

    def test_parseval_on_orthogonal_family(self, rng, grid64):
        fam = phase_family(grid64, N=5, phi0=0.7, xi0=1.2)
        f = synthesize(QFourierExpansion(fam, rng.normal(size=fam.size)))
        a = analyze(f, fam).coefficients
        assert TWO_PI * np.sum(a**2) == pytest.approx(norm(f) ** 2, rel=1e-8)
        # out-of-span content only loses energy (Bessel inequality)
        g = f + QFunction.from_components(grid64, x1=np.cos(grid64.nodes))
        b = analyze(g, fam).coefficients
        assert TWO_PI * np.sum(b**2) <= norm(g) ** 2 + 1e-8


class TestCompleteness:
    def test_element_is_in_span(self, grid64):
        fam = phase_family(grid64, N=4)
        assert completeness_residual(fam.element(1), fam) < 1e-10

    def test_left_i_cosine_escapes_single_index_span(self, grid64):
        # f = i cos(x): every <f, L_n> vanishes for phi0 = xi0 = 0, so the
        # projection is zero and the residual is exactly 1
        fam = phase_family(grid64, N=8)
        f = QFunction.from_components(grid64, x1=np.cos(grid64.nodes))
        coeffs = analyze(f, fam).coefficients
        assert np.max(np.abs(coeffs)) < 1e-13
        res = completeness_residual(f, fam)
        assert res > 0.5
        assert res == pytest.approx(1.0, abs=1e-12)

    def test_reference_basis_is_complete_for_band_limited(self, rng, grid64):
        basis = reference_full_basis(grid64, 5)
        f = random_qfunction(rng, grid64, k_max=5)
        assert completeness_residual(f, basis) < 1e-9
        # and it absorbs the single-index escape fixture too
        f2 = QFunction.from_components(grid64, x1=np.cos(grid64.nodes))
        assert completeness_residual(f2, basis) < 1e-12

    def test_zero_function_rejected(self, grid64):
        fam = phase_family(grid64, N=2)
        with pytest.raises(ValueError, match="zero"):
            completeness_residual(QFunction.zero(grid64), fam)


class TestReferenceFullBasis:
    def test_n0_is_unit_block(self, grid32):
        basis = reference_full_basis(grid32, 0)
        assert len(basis) == 4
        scale = 1.0 / math.sqrt(TWO_PI)
        for unit, f in enumerate(basis):
            expected = np.zeros((grid32.n_points, 4))
            expected[:, unit] = scale
            assert np.max(np.abs(f.values - expected)) < 1e-15

    def test_count_and_orthonormality(self, grid64):
        for N in (0, 1, 3):
            basis = reference_full_basis(grid64, N)
            assert len(basis) == 4 * (2 * N + 1)
            G = np.array([[inner(a, b) for b in basis] for a in basis])
            assert np.max(np.abs(G - np.eye(len(basis)))) < 1e-12


class TestSerialization:
    def test_roundtrip_constant_parameters(self, rng, grid32, tmp_path):
        fam = BasisFamily(FamilyKind.TWO_INDEX, grid32, N=2, theta0=0.3,
                          indices=((0, 0), (1, -1), (2, 2)))
        e = QFourierExpansion(fam, rng.normal(size=fam.size))
        path = tmp_path / "expansion.csv"
        write_expansion_csv(e, path)
        back = read_expansion_csv(path)
        assert back.family.kind == fam.kind
        assert back.family.grid == fam.grid
        assert back.family.N == fam.N
        assert back.family.theta0 == fam.theta0
        assert back.family.index_set() == fam.index_set()
        assert np.array_equal(back.coefficients, e.coefficients)

    def test_sampled_parameters_do_not_roundtrip(self, grid32, tmp_path):
        fam = phase_family(grid32, N=2, phi0=np.sin(grid32.nodes))
        e = QFourierExpansion(fam, np.zeros(fam.size))
        path = tmp_path / "expansion.csv"
        write_expansion_csv(e, path)
        with pytest.raises(ValueError, match="sampled-function"):
            read_expansion_csv(path)

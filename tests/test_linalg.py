import numpy as np
import pytest

from covpovm import linalg
from covpovm.errors import DomainError, ShapeError

from support import haar_unitary

I2 = np.eye(2, dtype=complex)
S1 = np.array([[0, 1], [1, 0]], dtype=complex)
S2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
S3 = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (z + z.conj().T) / 2


class TestHsInner:
    def test_identity_with_itself(self):
        assert linalg.hs_inner(I2, I2) == pytest.approx(2)

    def test_pauli_orthogonality(self):
        assert linalg.hs_inner(S1, S2) == pytest.approx(0)

    def test_sigma3_norm_squared(self):
        # tr(s3^dag s3) = tr(diag(1, 1)) = 2, computed directly
        assert linalg.hs_inner(S3, S3) == pytest.approx(2)

    def test_conjugate_linear_in_first_argument(self):
        rng = np.random.default_rng(3)
        a = random_hermitian(3, rng) + 1j * random_hermitian(3, rng)
        b = random_hermitian(3, rng)
        lhs = linalg.hs_inner(2j * a, b)
        assert lhs == pytest.approx(-2j * linalg.hs_inner(a, b))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            linalg.hs_inner(I2, np.eye(3))

    def test_equals_squared_frobenius_norm(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = rng.integers(2, 7)
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            val = linalg.hs_inner(a, a)
            assert val.imag == pytest.approx(0, abs=1e-12)
            assert val.real >= 0
            assert val.real == pytest.approx(np.linalg.norm(a) ** 2)


class TestHermitianEig:
    def test_spectrum_of_t_operator(self):
        vals, _ = linalg.hermitian_eig(np.diag([2.0, -1.0, -1.0]))
        assert vals == pytest.approx([2, -1, -1])

    def test_identity(self):
        vals, _ = linalg.hermitian_eig(np.eye(3))
        assert vals == pytest.approx([1, 1, 1])

    def test_sigma1(self):
        # characteristic polynomial x^2 - 1 = 0 solved by hand
        vals, vecs = linalg.hermitian_eig(S1)
        assert vals == pytest.approx([1, -1])
        assert np.allclose(vecs.conj().T @ vecs, np.eye(2))

    def test_reconstruction_up_to_d12(self):
        rng = np.random.default_rng(7)
        for d in range(2, 13):
            a = random_hermitian(d, rng)
            vals, vecs = linalg.hermitian_eig(a)
            recon = vecs @ np.diag(vals) @ vecs.conj().T
            assert np.linalg.norm(recon - a) <= 1e-10 * np.linalg.norm(a)
            assert list(vals) == sorted(vals, reverse=True)

    def test_non_hermitian_rejected(self):
        with pytest.raises(DomainError):
            linalg.hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


class TestNumericalRank:
    def test_full_rank_diagonal(self):
        assert linalg.numerical_rank(np.diag([2.0, -1.0, -1.0])) == 3

    def test_zero_matrix(self):
        assert linalg.numerical_rank(np.zeros((3, 3))) == 0

    def test_difference_of_independent_projectors(self):
        # |psi><psi| - |phi><phi| has two nonzero eigenvalues for independent
        # unit vectors: its square has trace 2 - 2|<psi|phi>|^2 > 0 and the
        # operator is traceless, so exactly two eigenvalues survive.
        rng = np.random.default_rng(5)
        for _ in range(10):
            psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            psi /= np.linalg.norm(psi)
            phi /= np.linalg.norm(phi)
            d = np.outer(psi, psi.conj()) - np.outer(phi, phi.conj())
            assert linalg.numerical_rank(d) == 2

    def test_unitary_invariance(self):
        rng = np.random.default_rng(13)
        for d in range(2, 7):
            a = rng.standard_normal((d, d)) @ np.diag([1.0] * (d // 2) + [0.0] * (d - d // 2))
            r = linalg.numerical_rank(a)
            u, v = haar_unitary(d, rng), haar_unitary(d, rng)
            assert linalg.numerical_rank(u @ a @ v) == r


class TestSpanOrthonormalize:
    def test_scalar_multiples_collapse(self):
        s = linalg.span_orthonormalize([I2, 2 * I2])
        assert s.dim == 1

    def test_pauli_basis_spans_everything(self):
        s = linalg.span_orthonormalize([I2, S1, S2, S3])
        assert s.dim == 4

    def test_output_is_orthonormal_and_spans(self):
        rng = np.random.default_rng(17)
        mats = [random_hermitian(3, rng) for _ in range(5)]
        mats.append(mats[0] + mats[1])  # dependent direction
        s = linalg.span_orthonormalize(mats)
        assert s.dim == 5
        for m in mats:
            assert linalg.hs_norm(m - s.project(m)) < 1e-9 * linalg.hs_norm(m)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            linalg.span_orthonormalize([I2, np.eye(3)])

    def test_invalid_families_rejected(self):
        with pytest.raises(DomainError, match="empty"):
            linalg.span_orthonormalize([])
        with pytest.raises(ShapeError):
            linalg.span_orthonormalize([np.ones((2, 3))])
        with pytest.raises(ShapeError):
            linalg.span_orthonormalize([np.ones(4)])
        with pytest.raises(DomainError, match="non-finite"):
            linalg.span_orthonormalize([I2, np.diag([1.0, np.nan])])

    def test_list_and_stack_give_identical_bases(self):
        rng = np.random.default_rng(47)
        for d, m in ((2, 3), (3, 9), (3, 12)):
            mats = [random_hermitian(d, rng) for _ in range(m)]
            listed = linalg.span_orthonormalize(mats)
            stacked = linalg.span_orthonormalize(np.array(mats))
            assert np.array_equal(listed.basis, stacked.basis)
            assert np.array_equal(listed._frame, stacked._frame)

    def test_non_hermitian_family_or_basis_rejected(self):
        e01 = np.zeros((2, 2), dtype=complex)
        e01[0, 1] = 1.0
        with pytest.raises(DomainError, match="Hermitian"):
            linalg.span_orthonormalize([e01])
        with pytest.raises(DomainError, match="Hermitian"):
            linalg.OperatorSubspace(2, [e01])


class TestOneRankRule:
    """span_orthonormalize and numerical_rank of the stacked operators agree."""

    @staticmethod
    def stacked_rank(mats):
        return linalg.numerical_rank(np.reshape(mats, (len(mats), -1)))

    def near_dependent_family(self, eps, rng):
        # 8 generic Hermitian 3x3 operators and a ninth at distance eps from
        # their span, along a unit direction orthogonal to it
        mats = [random_hermitian(3, rng) for _ in range(8)]
        off = linalg.orthogonal_complement(linalg.span_orthonormalize(mats)).basis[0]
        mix = sum(c * m for c, m in zip(rng.standard_normal(8), mats))
        return mats + [mix + eps * off]

    def test_operator_within_1e5_of_the_span_counts(self):
        mats = self.near_dependent_family(1e-5, np.random.default_rng(31))
        assert self.stacked_rank(mats) == 9
        assert linalg.span_orthonormalize(mats).dim == 9

    def test_agreement_across_the_tolerance(self):
        rng = np.random.default_rng(37)
        for eps in (1e-3, 1e-5, 1e-7, 1e-9, 1e-11, 1e-13):
            mats = self.near_dependent_family(eps, rng)
            assert linalg.span_orthonormalize(mats).dim == self.stacked_rank(mats)
            # the span cuts the singular values of the real coordinates, and they are
            # those of the stacked complex matrices that numerical_rank cuts
            real = np.linalg.svd(linalg._coordinates(np.array(mats), "family"), compute_uv=False)
            stacked = np.linalg.svd(np.reshape(mats, (len(mats), -1)), compute_uv=False)
            assert np.abs(real - stacked).max() <= 1e-12 * stacked[0]

    def test_random_low_rank_families(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            r = int(rng.integers(1, d * d + 1))
            gens = [random_hermitian(d, rng) * 10.0 ** rng.uniform(-3, 3) for _ in range(r)]
            n = int(rng.integers(r, d * d + 3))
            coef = rng.standard_normal((n, r))
            mats = list(np.einsum("nr,rij->nij", coef, np.array(gens)))
            assert linalg.span_orthonormalize(mats).dim == self.stacked_rank(mats) == r


class TestOperatorSubspaceArray:
    def test_basis_is_one_array_of_matrices(self):
        s = linalg.span_orthonormalize([I2, S1, S3])
        assert isinstance(s.basis, np.ndarray)
        assert s.basis.shape == (3, 2, 2)
        assert all(b.shape == (2, 2) for b in s.basis)

    def test_empty_subspace(self):
        s = linalg.OperatorSubspace(3)
        assert s.dim == 0
        assert np.array_equal(s.project(np.eye(3)), np.zeros((3, 3)))

    def test_matches_the_hs_inner_loop(self):
        rng = np.random.default_rng(43)
        for d in (2, 3, 5):
            mats = [random_hermitian(d, rng) for _ in range(d + 1)]
            s = linalg.span_orthonormalize(mats)
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            coef = np.array([linalg.hs_inner(b, m) for b in s.basis])
            proj = sum(c * b for c, b in zip(coef, s.basis))
            assert np.abs(s.coefficients(m) - coef).max() < 1e-12 * np.linalg.norm(m)
            assert np.abs(s.project(m) - proj).max() < 1e-12 * np.linalg.norm(m)

    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(DomainError):
            linalg.OperatorSubspace(2, [I2, S1])

    def test_wrong_shapes_rejected(self):
        with pytest.raises(ShapeError):
            linalg.OperatorSubspace(2, np.eye(3)[None] / np.sqrt(3))
        s = linalg.span_orthonormalize([I2])
        with pytest.raises(ShapeError):
            s.project(np.eye(3))


class TestHermitianPsdCheck:
    def test_defects_of_a_projector(self):
        defect, low = linalg.psd_defects(np.diag([1.0, 0.0]))
        assert defect == 0.0 and low == pytest.approx(0.0)

    def test_a_stack_gives_each_matrix_its_own_defects(self):
        rng = np.random.default_rng(4)
        stack = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
        defects, lows = linalg.psd_defects(stack)
        assert defects.shape == lows.shape == (5,)
        for a, defect, low in zip(stack, defects, lows):
            assert (defect, low) == linalg.psd_defects(a)

    def test_tolerances_are_absolute(self):
        # a large PSD matrix with a 1e-8 antihermitian part is rejected, as a
        # small one is: the hermiticity bound does not scale with the norm
        big = 1e6 * np.eye(2, dtype=complex)
        big[0, 1] = 1e-8j
        with pytest.raises(DomainError, match="Hermitian"):
            linalg.require_psd(big, "seed")
        with pytest.raises(DomainError, match="positive semidefinite"):
            linalg.require_psd(np.diag([1.0, -1e-8]), "state")
        linalg.require_psd(np.diag([1.0, -1e-10]), "state")


class TestOrthogonalComplement:
    def test_full_space_has_trivial_complement(self):
        s = linalg.span_orthonormalize([I2, S1, S2, S3])
        assert linalg.orthogonal_complement(s).dim == 0

    def test_complement_of_identity_is_traceless(self):
        s = linalg.span_orthonormalize([I2])
        comp = linalg.orthogonal_complement(s)
        assert comp.dim == 3
        for b in comp.basis:
            assert abs(np.trace(b)) < 1e-9

    def test_dimensions_add_up(self):
        rng = np.random.default_rng(19)
        for d in (2, 3, 4):
            mats = [random_hermitian(d, rng) for _ in range(d)]
            s = linalg.span_orthonormalize(mats)
            comp = linalg.orthogonal_complement(s)
            assert s.dim + comp.dim == d * d

    def test_bases_are_hermitian_orthonormal_and_complementary(self):
        rng = np.random.default_rng(31)
        for d, k in ((3, 2), (4, 5)):
            span = linalg.span_orthonormalize([random_hermitian(d, rng) for _ in range(k)])
            comp = linalg.orthogonal_complement(span)
            assert (span.dim, comp.dim) == (k, d * d - k)
            for s in (span, comp):
                assert np.array_equal(s.basis, s.basis.conj().transpose(0, 2, 1))
                flat = s.basis.reshape(s.dim, -1)
                assert np.abs(flat.conj() @ flat.T - np.eye(s.dim)).max() < 1e-12
            for b in comp.basis:
                assert linalg.hs_norm(span.project(b)) < 1e-12

    @staticmethod
    def projector(s):
        # the orthogonal projector onto the complex span of s's basis, as a d^2 x d^2 matrix
        flat = s.basis.reshape(s.dim, s.dim_h ** 2)
        return flat.T @ flat.conj()

    @pytest.mark.parametrize("d, m, r", [
        (3, 4, 4), (4, 10, 6), (3, 9, 9), (3, 9, 5), (3, 12, 9), (3, 12, 7),
    ], ids=["m<d2", "m<d2-deficient", "m=d2", "m=d2-deficient", "m>d2", "m>d2-deficient"])
    def test_complement_matches_an_independent_projector(self, d, m, r):
        # m operators of rank r as a family; the reference projector comes from numpy's
        # complex SVD of the stacked family, not from the span's frame
        rng = np.random.default_rng(53 + m + r)
        gens = np.array([random_hermitian(d, rng) for _ in range(r)])
        mats = np.einsum("mr,rij->mij", rng.standard_normal((m, r)), gens)
        _, sv, vh = np.linalg.svd(mats.reshape(m, -1))
        rank = int(np.sum(sv > 1e-9 * sv[0]))
        span_ref = vh[:rank].T @ vh[:rank].conj()
        span = linalg.span_orthonormalize(mats)
        comp = linalg.orthogonal_complement(span)
        assert (span.dim, comp.dim) == (rank, d * d - rank) == (r, d * d - r)
        assert np.abs(self.projector(span) - span_ref).max() < 1e-12
        assert np.abs(self.projector(comp) - (np.eye(d * d) - span_ref)).max() < 1e-12

    def test_complement_twice_is_the_span(self):
        rng = np.random.default_rng(59)
        for d, k in ((2, 1), (3, 5), (4, 16)):
            span = linalg.span_orthonormalize([random_hermitian(d, rng) for _ in range(k)])
            again = linalg.orthogonal_complement(linalg.orthogonal_complement(span))
            assert again.dim == span.dim
            assert np.abs(self.projector(again) - self.projector(span)).max(initial=0.0) < 1e-12

    def test_complement_of_a_built_subspace(self):
        s = linalg.OperatorSubspace(2, [I2 / np.sqrt(2), S1 / np.sqrt(2)])
        comp = linalg.orthogonal_complement(s)
        ref = linalg.OperatorSubspace(2, [S2 / np.sqrt(2), S3 / np.sqrt(2)])
        assert comp.dim == 2
        assert np.abs(self.projector(comp) - self.projector(ref)).max() < 1e-12
        again = linalg.orthogonal_complement(comp)
        assert np.abs(self.projector(again) - self.projector(s)).max() < 1e-12
        empty = linalg.orthogonal_complement(linalg.OperatorSubspace(3))
        assert empty.dim == 9
        assert np.abs(self.projector(empty) - np.eye(9)).max() < 1e-12

    def test_project_then_complement_vanishes(self):
        rng = np.random.default_rng(23)
        mats = [random_hermitian(3, rng) for _ in range(4)]
        s = linalg.span_orthonormalize(mats)
        comp = linalg.orthogonal_complement(s)
        for _ in range(10):
            m = random_hermitian(3, rng)
            assert linalg.hs_norm(comp.project(s.project(m))) < 1e-9


class TestSigma3:
    def test_matches_third_singular_value(self):
        rng = np.random.default_rng(37)
        basis = np.array([random_hermitian(4, rng) for _ in range(3)])
        x = rng.standard_normal((50, 3))
        h = np.einsum("nk,kij->nij", x, basis)
        expected = np.linalg.svd(h, compute_uv=False)[:, 2]
        assert np.allclose(linalg.sigma3(basis, x), expected, rtol=0, atol=1e-12)

    def test_vanishes_on_rank_two(self):
        planted = np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex)
        assert linalg.sigma3(planted[None], np.ones((1, 1)))[0] == 0.0

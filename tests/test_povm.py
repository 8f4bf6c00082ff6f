import numpy as np
import pytest

from covpovm import constructions as cx
from covpovm import group as grp
from covpovm import linalg
from covpovm import povm as pv
from covpovm import rep as rp
from covpovm.errors import DomainError, NotAnObservableError

from support import (
    codim2_povm,
    f20_rank1_povm,
    haar_unitary,
    make_wh_rep,
    pic3_seed,
    planted_complement_povm,
    planted_witness_povm,
    povm_with_span,
    random_traceless,
    selfadjoint_basis,
)


def single_identity_povm(d):
    return pv.Povm(d, [("all", np.eye(d, dtype=complex))])


def full_coset_space(group):
    return grp.coset_space(group, grp.subgroup_generated(group, []))


@pytest.fixture(scope="module")
def quat3_observable(quat3_rep):
    seed = pic3_seed((1 / 32, 1 / 32, 1 / 32), np.array([1 / 32, 0], dtype=complex))
    cosets = full_coset_space(quat3_rep.group)
    return pv.build_covariant(quat3_rep, cosets, seed)


@pytest.fixture(scope="module")
def wh3_observable(wh_rep_d3):
    rng = np.random.default_rng(7)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v /= np.linalg.norm(v)
    seed = np.outer(v, v.conj()) / 3
    cosets = full_coset_space(wh_rep_d3.group)
    return pv.build_covariant(wh_rep_d3, cosets, seed)


def diagonal_z8_rep():
    g = grp.cyclic_group(8)
    mats = [
        np.diag([
            np.exp(2j * np.pi * k / 8),
            np.exp(2j * np.pi * 3 * k / 8),
            np.exp(2j * np.pi * 5 * k / 8),
        ])
        for k in range(8)
    ]
    return rp.rep_from_matrices(g, mats)


class TestValidate:
    def test_single_identity_passes(self):
        report = pv.validate(single_identity_povm(3))
        assert report.passed
        assert report.normalization_defect < 1e-12

    def test_quat3_observable_passes_tightly(self, quat3_observable):
        report = pv.validate(quat3_observable)
        assert report.passed
        assert report.hermiticity_defect < 1e-10
        assert report.min_eigenvalue > -1e-10
        assert report.normalization_defect < 1e-10
        # the batched pass reproduces the per-outcome defects exactly
        defects = [linalg.psd_defects(op) for op in quat3_observable.ops]
        assert report.hermiticity_defect == max(herm for herm, _ in defects)
        assert report.min_eigenvalue == min(low for _, low in defects)

    def test_rescaled_operators_fail_normalization(self, quat3_observable):
        scaled = pv.Povm(
            3, [(l, 1.01 * op) for l, op in quat3_observable.outcomes]
        )
        report = pv.validate(scaled)
        assert not report.passed
        # deficit is 0.01 * identity, Frobenius norm 0.01 * sqrt(3)
        assert report.normalization_defect == pytest.approx(0.01 * np.sqrt(3), rel=1e-6)


    def test_constructor_names_the_first_bad_outcome(self):
        with pytest.raises(DomainError, match="outcome 'b' has shape \\(3, 3\\)"):
            pv.Povm(2, [("a", np.eye(2)), ("b", np.eye(3)), ("c", np.ones(4))])
        with pytest.raises(DomainError, match="outcome 'a' has shape \\(3, 3\\)"):
            pv.Povm(2, [("a", np.eye(3)), ("b", np.eye(3))])
        with pytest.raises(DomainError, match="outcome 'b' has non-finite"):
            pv.Povm(2, [("a", np.eye(2)), ("b", np.diag([1, np.inf])), ("c", np.diag([np.nan, 1]))])
        empty = pv.Povm(2, [])
        assert empty.ops.shape == (0, 2, 2) and empty.ops.dtype == complex


class TestSpanAndIc:
    def test_single_identity_span(self):
        assert pv.operator_span(single_identity_povm(2)).dim == 1

    def test_quat3_span_is_eight(self, quat3_observable):
        assert pv.operator_span(quat3_observable).dim == 8

    def test_wh3_with_generic_seed_is_ic(self, wh3_observable):
        assert pv.operator_span(wh3_observable).dim == 9
        assert pv.is_ic(wh3_observable)

    def test_quat3_is_not_ic(self, quat3_observable):
        assert not pv.is_ic(quat3_observable)

    def test_identity_not_ic_beyond_d1(self):
        assert not pv.is_ic(single_identity_povm(2))

    def test_complement_of_valid_povm_is_traceless(self, quat3_observable, wh3_observable):
        for povm in (quat3_observable, single_identity_povm(3)):
            comp = linalg.orthogonal_complement(pv.operator_span(povm))
            for b in comp.basis:
                assert abs(np.trace(b)) < 1e-9


class TestBornProbabilities:
    def test_single_outcome(self):
        p = pv.born_probabilities(single_identity_povm(2), np.eye(2) / 2)
        assert p == pytest.approx([1.0])

    def test_quat3_on_first_basis_state(self, quat3_observable):
        rho = np.zeros((3, 3), dtype=complex)
        rho[0, 0] = 1.0
        p = pv.born_probabilities(quat3_observable, rho)
        # the distinguished axis is fixed by every U(g), so the distribution
        # is flat at the seed's corner entry 1/8
        assert p == pytest.approx(np.full(8, 1 / 8))

    def test_random_states_sum_to_one(self, quat3_observable, wh3_observable):
        rng = np.random.default_rng(31)
        for povm in (quat3_observable, wh3_observable):
            for _ in range(1000):
                z = rng.standard_normal((povm.dim, povm.dim)) + 1j * rng.standard_normal(
                    (povm.dim, povm.dim)
                )
                rho = z @ z.conj().T
                rho /= np.trace(rho).real
                p = pv.born_probabilities(povm, rho)
                assert abs(p.sum() - 1) < 1e-9
                assert p.min() >= -1e-9

    def test_invalid_state_rejected(self, quat3_observable):
        with pytest.raises(DomainError):
            pv.born_probabilities(quat3_observable, np.eye(3))  # trace 3


class TestBuildCovariant:
    def test_irreducible_rescaling_rule(self, wh_rep_d2):
        # any PSD seed normalized by c = #G tr(seed) / d gives an observable
        rng = np.random.default_rng(5)
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        seed = z @ z.conj().T
        c = 4 * np.trace(seed).real / 2
        cosets = full_coset_space(wh_rep_d2.group)
        povm = pv.build_covariant(wh_rep_d2, cosets, seed / c)
        assert pv.validate(povm).passed

    def test_quat3_seed_gives_eight_outcomes(self, quat3_observable):
        assert len(quat3_observable) == 8
        assert quat3_observable.labels == ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def test_uniform_seed_gives_one_dimensional_span(self, quat3_rep):
        cosets = full_coset_space(quat3_rep.group)
        povm = pv.build_covariant(quat3_rep, cosets, np.eye(3) / 8)
        assert pv.operator_span(povm).dim == 1

    def test_normalization_failure_carries_deficit(self):
        rep = diagonal_z8_rep()
        cosets = full_coset_space(rep.group)
        seed = np.diag([1 / 8, 1 / 8, 1 / 4]).astype(complex)
        with pytest.raises(NotAnObservableError) as err:
            pv.build_covariant(rep, cosets, seed)
        assert err.value.deficit is not None
        assert np.abs(err.value.deficit - np.diag([0, 0, 1.0])).max() < 1e-12

    def test_noncommuting_seed_rejected(self, quat3_rep):
        g = quat3_rep.group
        h = grp.subgroup_generated(g, [g.index_of("-1")])
        cosets = grp.coset_space(g, h)
        seed = pic3_seed((1 / 32, 0.01, 0.01), np.array([1 / 32, 0], dtype=complex))
        with pytest.raises(DomainError):
            pv.build_covariant(quat3_rep, cosets, seed)

    def test_span_is_invariant_under_conjugation(self, quat3_rep, quat3_observable):
        span = pv.operator_span(quat3_observable)
        tilde = rp.conjugation_rep(quat3_rep)
        for m in tilde.matrices:
            for b in span.basis:
                moved = (m @ b.reshape(-1)).reshape(3, 3)
                assert linalg.hs_norm(moved - span.project(moved)) < 1e-9


class TestCheckCovariance:
    def test_constructed_observables_are_covariant(self, quat3_rep, quat3_observable):
        cosets = full_coset_space(quat3_rep.group)
        assert pv.check_covariance(quat3_observable, quat3_rep, cosets)
        assert pv.covariance_defect(quat3_observable, quat3_rep, cosets) < 1e-10

    def test_wh_covariance(self, wh_rep_d3, wh3_observable):
        cosets = full_coset_space(wh_rep_d3.group)
        assert pv.check_covariance(wh3_observable, wh_rep_d3, cosets)

    def test_swapped_outcomes_break_covariance(self, quat3_rep, quat3_observable):
        outcomes = list(quat3_observable.outcomes)
        outcomes[2], outcomes[5] = outcomes[5], outcomes[2]
        broken = pv.Povm(3, outcomes)
        cosets = full_coset_space(quat3_rep.group)
        assert not pv.check_covariance(broken, quat3_rep, cosets)

    def test_outcome_count_mismatch_rejected(self, quat3_rep, quat3_observable):
        g = quat3_rep.group
        h = grp.subgroup_generated(g, [g.index_of("-1")])
        cosets = grp.coset_space(g, h)
        with pytest.raises(DomainError):
            pv.check_covariance(quat3_observable, quat3_rep, cosets)


class TestAbelianCertificate:
    def test_diagonal_rep_yields_certificate(self):
        rep = diagonal_z8_rep()
        cert = pv.abelian_obstruction_certificate(rep)
        assert cert is not None
        v1, v2 = cert.vectors
        assert abs(v1.conj() @ v2) < 1e-9

    def test_quat3_has_no_certificate(self, quat3_rep):
        assert pv.abelian_obstruction_certificate(quat3_rep) is None

    def test_wh_irreducible_has_no_certificate(self, wh_rep_d2):
        assert pv.abelian_obstruction_certificate(wh_rep_d2) is None

    def test_certificate_states_see_uniform_probabilities(self):
        rep = diagonal_z8_rep()
        cert = pv.abelian_obstruction_certificate(rep)
        cosets = full_coset_space(rep.group)
        rng = np.random.default_rng(23)
        off = rng.standard_normal((3, 3)) * 0.01
        seed = np.eye(3, dtype=complex) / 8
        # off-diagonal dressing averages out because the three characters of
        # the representation are pairwise distinct
        seed += off + off.T - np.diag(np.diag(off + off.T))
        vals = np.linalg.eigvalsh(seed)
        assert vals[0] > 0
        povm = pv.build_covariant(rep, cosets, seed)
        assert cert.probability_deviation(povm) < 1e-9


class TestFalsifier:
    def test_recovers_planted_witness(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            povm, psi, phi = planted_witness_povm(3, rng)
            span = pv.operator_span(povm)
            assert span.dim == 8
            result = pv.falsify(span, pv.FalsifierSettings(rng_seed=3))
            assert result.residual < 1e-10
            found = np.outer(result.psi, result.psi.conj()) - np.outer(
                result.phi, result.phi.conj()
            )
            planted = np.outer(psi, psi.conj()) - np.outer(phi, phi.conj())
            overlap = abs(linalg.hs_inner(found, planted)) / (
                linalg.hs_norm(found) * linalg.hs_norm(planted)
            )
            assert overlap > 1 - 1e-8

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(13)
        povm, _, _ = planted_witness_povm(3, rng)
        span = pv.operator_span(povm)
        a = pv.falsify(span, pv.FalsifierSettings(rng_seed=5))
        b = pv.falsify(span, pv.FalsifierSettings(rng_seed=5))
        assert a.residual == b.residual
        assert np.array_equal(a.psi, b.psi)
        assert a.restart == b.restart

    @pytest.mark.parametrize("field", ["max_iterations", "floor", "witness_threshold"])
    def test_only_restarts_and_seed_are_settable(self, field):
        with pytest.raises(TypeError, match=field):
            pv.FalsifierSettings(**{field: 1})
        assert pv.FalsifierSettings().witness_threshold == 1e-12

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_no_restarts_rejected(self, restarts):
        span = pv.operator_span(single_identity_povm(3))
        with pytest.raises(DomainError, match="restart"):
            pv.falsify(span, pv.FalsifierSettings(restarts=restarts))

    @pytest.mark.parametrize("seed", [-1, -7])
    def test_negative_seed_rejected(self, seed):
        span = pv.operator_span(single_identity_povm(3))
        with pytest.raises(DomainError, match="non-negative"):
            pv.falsify(span, pv.FalsifierSettings(rng_seed=seed))

    @pytest.mark.parametrize("field, value", [
        ("restarts", 2.5), ("restarts", True), ("rng_seed", 0.5), ("rng_seed", "1"),
    ])
    def test_non_integer_setting_rejected(self, field, value):
        with pytest.raises(DomainError, match=f"falsifier's {field} must be an integer, got {value!r}"):
            pv.FalsifierSettings(**{field: value})

    def test_numpy_integer_settings_accepted(self):
        settings = pv.FalsifierSettings(restarts=np.int64(2), rng_seed=np.int64(3))
        assert pv.falsify(pv.operator_span(single_identity_povm(3)), settings).restart < 2

    def test_codim2_has_no_witness(self):
        # every unit element of the complement has eigenvalues +-1/2 twice, so g
        # is constant on the sphere and each restart ends at its first step
        span = pv.operator_span(codim2_povm())
        result = pv.falsify(span, pv.FalsifierSettings(restarts=16))
        assert result.residual > 1e-3

    @pytest.mark.parametrize("d, c", [(4, 6), (8, 6), (15, 4), (15, 6)])
    def test_planted_difference_among_random_directions(self, d, c):
        povm, _, _ = planted_complement_povm(d, c, np.random.default_rng([d, c]))
        verdict = pv.check_pic(povm)
        assert (verdict.status, verdict.complement_dim) == (pv.NOT_PIC, c)
        assert verdict.residual < 1e-12
        assert pv.falsify(pv.operator_span(povm)).restart == 0
        psi, phi = verdict.witness
        assert abs(psi.conj() @ phi) < 1e-12
        p1 = pv.born_probabilities(povm, np.outer(psi, psi.conj()))
        p2 = pv.born_probabilities(povm, np.outer(phi, phi.conj()))
        assert np.abs(p1 - p2).max() < 1e-12

    @pytest.mark.parametrize("seed", [0, 1])
    def test_f20_rank1_witness_family(self, seed):
        # the witnesses of these complements form families, not isolated points
        povm = f20_rank1_povm(seed)
        assert pv.validate(povm).passed
        verdict = pv.check_pic(povm)
        assert (verdict.status, verdict.complement_dim) == (pv.NOT_PIC, 6)
        psi, phi = verdict.witness
        p1 = pv.born_probabilities(povm, np.outer(psi, psi.conj()))
        p2 = pv.born_probabilities(povm, np.outer(phi, phi.conj()))
        assert np.abs(p1 - p2).max() < 1e-12

    @pytest.mark.parametrize("c", [3, 4, 5, 6])
    def test_generic_complement_has_no_witness(self, monkeypatch, c):
        povm = random_complement_povm(5, c, 7 + c)
        result = pv.falsify(pv.operator_span(povm), pv.FalsifierSettings(restarts=16))
        assert result.residual > 1e-3
        assert pv.check_pic(povm).status != pv.NOT_PIC
        # ground truth: a larger cover certifies each of them (c = 6 takes about 1.1e5 centres)
        monkeypatch.setattr(pv, "COVER_BUDGET", 200_000)
        assert pv.check_pic(povm).status == pv.PIC_CERTIFIED

    @pytest.mark.parametrize("extra", [0, 1])
    def test_span_without_identity_searches_its_traceless_complement(self, extra):
        # the complement is spanned by psi psi* + phi phi* (with extra, and chi chi*); its
        # traceless part, {0} (with extra, the line through the rank-3 psi psi* + phi phi*
        # - 2 chi chi*), holds no pure-state difference
        q = haar_unitary(3, np.random.default_rng(19))
        directions = [np.outer(q[:, 0], q[:, 0].conj()) + np.outer(q[:, 1], q[:, 1].conj())]
        directions += [np.outer(q[:, 2], q[:, 2].conj())] * extra
        span = linalg.orthogonal_complement(linalg.span_orthonormalize(directions))
        result = pv.falsify(span)
        assert result.residual > 1e-3
        verdict = pv.check_pic(pv.Povm(3, enumerate(span.basis)))
        assert (verdict.status, verdict.complement_dim) == (pv.PIC_CERTIFIED, 1 + extra)


class TestCheckPic:
    def test_ic_observable_is_certified_with_empty_complement(self, wh3_observable):
        verdict = pv.check_pic(wh3_observable)
        assert verdict.status == pv.PIC_CERTIFIED
        assert verdict.complement_dim == 0

    def test_quat3_certified_through_rank_test(self, quat3_observable):
        verdict = pv.check_pic(quat3_observable)
        assert verdict.status == pv.PIC_CERTIFIED
        assert verdict.complement_dim == 1

    def test_single_identity_is_not_pic(self):
        for d in (2, 3):
            verdict = pv.check_pic(single_identity_povm(d))
            assert verdict.status == pv.NOT_PIC
            assert verdict.witness is not None
            psi, phi = verdict.witness
            p1 = pv.born_probabilities(
                single_identity_povm(d), np.outer(psi, psi.conj())
            )
            p2 = pv.born_probabilities(
                single_identity_povm(d), np.outer(phi, phi.conj())
            )
            assert np.abs(p1 - p2).max() < 1e-6

    def test_codim1_rank2_generator_agrees_with_falsifier(self):
        rng = np.random.default_rng(29)
        povm, _, _ = planted_witness_povm(3, rng)
        verdict = pv.check_pic(povm)
        assert verdict.status == pv.NOT_PIC
        assert verdict.complement_dim == 1
        assert verdict.residual < 1e-10
        result = pv.falsify(pv.operator_span(povm))
        assert result.residual < 1e-10

    @pytest.mark.parametrize("build", [
        lambda: cx.build_quat3_pic()[0], lambda: cx.build_dihedral3_pic()[0],
        lambda: cx.build_rank1_pic3(0.7, (1 / 24, 1 / 12, 1 / 12)),
    ], ids=["quat3", "dihedral3", "rank1"])
    def test_codim1_certificate_is_one_point(self, build):
        # the complement is the line through diag(2, -1, -1) / sqrt(6)
        verdict = pv.check_pic(build())
        assert (verdict.status, verdict.complement_dim) == (pv.PIC_CERTIFIED, 1)
        assert verdict.certificate["points"] == 1
        assert verdict.certificate["min_sigma3"] == pytest.approx(1 / np.sqrt(6), abs=1e-12)

    @pytest.mark.parametrize("eps, status", [(1e-11, pv.PIC_CERTIFIED), (1e-14, pv.NOT_PIC)])
    def test_codim1_rank_cut_is_zero_atol(self, eps, status):
        # generator diag(1, -1 - eps, eps) / sqrt(2) has rank 3 and sigma_3 = eps / sqrt(2):
        # it certifies above ZERO_ATOL and is a witness below it
        gen = np.diag([1.0, -1.0 - eps, eps]).astype(complex)
        span = linalg.orthogonal_complement(linalg.span_orthonormalize([gen]))
        verdict = pv.check_pic(povm_with_span(3, selfadjoint_basis(span)))
        assert (verdict.status, verdict.complement_dim) == (status, 1)
        if status == pv.PIC_CERTIFIED:
            assert verdict.certificate["min_sigma3"] == pytest.approx(eps / np.sqrt(2), rel=1e-3)
        else:
            assert verdict.certificate is None and verdict.residual < 1e-13

    def test_codim2_without_low_rank_is_certified(self):
        # complement spanned by diag(1,1,-1,-1)/2 and the anti-identity: every
        # real combination has eigenvalues +-sqrt(x^2+y^2) twice, rank 4
        t1 = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex) / 2
        t2 = np.zeros((4, 4), dtype=complex)
        t2[0, 3] = t2[3, 0] = t2[1, 2] = t2[2, 1] = 0.5
        line = linalg.span_orthonormalize([t1, t2])
        span = linalg.orthogonal_complement(line)
        povm = povm_with_span(4, selfadjoint_basis(span))
        assert pv.validate(povm).passed
        verdict = pv.check_pic(povm, pv.FalsifierSettings(restarts=16))
        assert verdict.status == pv.PIC_CERTIFIED
        assert verdict.complement_dim == 2
        assert verdict.certificate == {
            "method": "lipschitz-cover", "points": 6,
            "min_sigma3": pytest.approx(0.5, abs=1e-12), "eig_error_bound": linalg.ZERO_ATOL,
        }

    def test_one_svd_and_no_per_effect_coercion(self, monkeypatch):
        # span and complement come from one real SVD of the effects' coordinates
        povm, calls = codim2_povm(), {"svd": 0, "as_matrix": 0}
        svd, as_matrix = np.linalg.svd, linalg.as_matrix

        def counted_svd(*args, **kwargs):
            calls["svd"] += 1
            return svd(*args, **kwargs)

        def counted_as_matrix(a):
            calls["as_matrix"] += 1
            return as_matrix(a)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(linalg, "as_matrix", counted_as_matrix)
        monkeypatch.setattr(pv, "as_matrix", counted_as_matrix)
        assert pv.check_pic(povm).status == pv.PIC_CERTIFIED
        assert calls == {"svd": 1, "as_matrix": 0}

    def test_witness_states_are_ray_distinct(self):
        verdict = pv.check_pic(single_identity_povm(3))
        psi, phi = verdict.witness
        assert abs(abs(psi.conj() @ phi) - 1) > 0.5


def planted_plus_direction_povm(d, rng):
    """Observable whose complement holds a planted rank-2 difference and one random direction."""
    z = rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
    q, _ = np.linalg.qr(z)
    planted = np.outer(q[:, 0], q[:, 0].conj()) - np.outer(q[:, 1], q[:, 1].conj())
    h = haar_unitary(d, rng)
    extra = h @ np.diag(np.linspace(-1.0, 1.0, d)) @ h.conj().T
    span = linalg.orthogonal_complement(linalg.span_orthonormalize([planted, extra]))
    return povm_with_span(d, selfadjoint_basis(span))


def random_complement_povm(d, c, seed):
    """Observable whose complement is spanned by c random traceless Hermitian operators."""
    rng = np.random.default_rng(seed)
    directions = [random_traceless(d, rng) for _ in range(c)]
    span = linalg.orthogonal_complement(linalg.span_orthonormalize(directions))
    return povm_with_span(d, selfadjoint_basis(span))


NOT_CERTIFIED = {
    "cond1": lambda: cx.build_pic3(cx.Pic3Params(alpha=(1 / 32, 0.0, 1 / 32)),
                                   enforce_conditions=False)[0],
    "cond2": lambda: cx.build_pic3(cx.Pic3Params(v=(0j, 0j)), enforce_conditions=False)[0],
    "planted-extra-d3": lambda: planted_plus_direction_povm(3, np.random.default_rng(41)),
    "planted-extra-d4": lambda: planted_plus_direction_povm(4, np.random.default_rng(43)),
    "identity-d3": lambda: single_identity_povm(3),
}


class TestCover:
    """The Lipschitz cover of the complement's unit sphere, and what it leaves to the falsifier.

    ``check_pic`` hands the complement basis it covered to the falsifier's
    search, ``_search``; ``falsify`` recomputes that basis from the span.
    """

    @pytest.mark.parametrize("name, comp_dim", [
        ("cond1", 2), ("cond2", 5), pytest.param("identity-d3", 8, id="identity-d3"),
    ])
    def test_rank_two_basis_element_is_a_witness_at_the_first_level(self, monkeypatch, name,
                                                                    comp_dim):
        # the complement's basis holds an element of rank 2 (cond1's second, cond2's fourth,
        # identity-d3's third), a centre of the cover's first level, so sigma_3 vanishes there
        povm = NOT_CERTIFIED[name]()

        def no_search(*args):
            raise AssertionError("the falsifier ran")

        monkeypatch.setattr(pv, "_search", no_search)
        verdict = pv.check_pic(povm)
        assert (verdict.status, verdict.complement_dim) == (pv.NOT_PIC, comp_dim)
        assert verdict.residual < 1e-12 and verdict.certificate is None
        p1, p2 = (pv.born_probabilities(povm, np.outer(v, v.conj())) for v in verdict.witness)
        assert np.abs(p1 - p2).max() < 1e-12

    @pytest.mark.parametrize("name, comp_dim", [
        ("planted-extra-d3", 2), ("planted-extra-d4", 2),
    ])
    def test_low_rank_complements_go_to_the_untouched_falsifier(self, monkeypatch, name, comp_dim):
        povm = NOT_CERTIFIED[name]()
        span = pv.operator_span(povm)
        settings = pv.FalsifierSettings(restarts=8, rng_seed=3)
        search, seen = pv._search, []
        with monkeypatch.context() as m:
            m.setattr(pv, "_search", lambda *args: seen.append(search(*args)) or seen[-1])
            verdict = pv.check_pic(povm, settings)
        direct = pv.falsify(span, settings)
        assert verdict.complement_dim == comp_dim
        assert verdict.status != pv.PIC_CERTIFIED and verdict.certificate is None
        assert len(seen) == 1
        found = seen[0]
        assert (found.restart, found.residual) == (direct.restart, direct.residual)
        assert np.array_equal(found.psi, direct.psi) and np.array_equal(found.phi, direct.phi)
        assert verdict.residual == direct.residual
        if verdict.status == pv.NOT_PIC:
            assert np.array_equal(verdict.witness[0], direct.psi)
            assert np.array_equal(verdict.witness[1], direct.phi)

    @pytest.mark.parametrize("budget", [0, 5])
    def test_codim2_beyond_the_budget_is_unfalsified(self, monkeypatch, budget):
        # 0 skips the cover (no cover of the circle fits); 5 starts it and
        # runs out, the certificate needing 6 points
        monkeypatch.setattr(pv, "COVER_BUDGET", budget)
        verdict = pv.check_pic(codim2_povm(), pv.FalsifierSettings(restarts=16))
        assert verdict.status == pv.PIC_UNFALSIFIED
        assert verdict.complement_dim == 2
        assert verdict.residual > 1e-3
        assert verdict.certificate is None

    @pytest.mark.parametrize("povm", [
        pytest.param(codim2_povm(), id="codim2-d4"),
        pytest.param(random_complement_povm(5, 3, 0), id="random-c3-d5"),
    ])
    def test_certified_complement_has_no_low_rank_sample(self, povm):
        span = pv.operator_span(povm)
        verdict = pv.check_pic(povm)
        assert verdict.status == pv.PIC_CERTIFIED
        basis = pv._complement_basis(span)
        x = np.random.default_rng(17).standard_normal((10 ** 4, len(basis)))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        h = np.einsum("nk,kij->nij", x, basis)
        third = np.linalg.svd(h, compute_uv=False)[:, 2]
        assert third.min() > linalg.ZERO_ATOL

    def test_the_budget_is_the_only_limit_of_the_cover(self, monkeypatch):
        sigma3, rows = pv.sigma3, []
        monkeypatch.setattr(pv, "sigma3", lambda basis, x: rows.append(len(x)) or sigma3(basis, x))
        for d, comp_dim in [(3, 8), (5, 24)]:
            rows.clear()
            verdict = pv._pic_verdict(pv.operator_span(single_identity_povm(d)), None)
            assert verdict.complement_dim == comp_dim
            assert 0 < sum(rows) <= pv.COVER_BUDGET
        # c = 300: the first level alone exceeds the budget, so nothing is evaluated

        def no_gram(*args):
            raise AssertionError("a Gram matrix was built")

        monkeypatch.setattr(pv, "hs_norm", no_gram)
        rows.clear()
        basis = linalg.orthogonal_complement(linalg.span_orthonormalize([np.eye(18)])).basis
        assert pv._cover(basis[:300]) is None
        assert rows == []

    @pytest.mark.parametrize("effects, comp_dim", [
        (lambda p: [np.eye(2)], 3),
        (lambda p: [p, np.eye(2) - p], 2),
        (lambda p: [p / 2, p / 2, np.eye(2) - p], 2),
    ], ids=["1-outcome", "2-outcomes", "3-outcomes"])
    def test_qubit_complement_has_a_witness_at_the_first_centre(self, monkeypatch, effects,
                                                               comp_dim):
        # every traceless 2x2 operator has rank <= 2, so sigma_3 is 0 everywhere
        v = haar_unitary(2, np.random.default_rng(2))[:, 0]
        povm = pv.Povm(2, enumerate(effects(np.outer(v, v.conj()))))

        def no_search(*args):
            raise AssertionError("the falsifier ran")

        monkeypatch.setattr(pv, "_search", no_search)
        verdict = pv.check_pic(povm)
        assert (verdict.status, verdict.complement_dim) == (pv.NOT_PIC, comp_dim)
        assert verdict.residual < 1e-12
        psi, phi = verdict.witness
        assert abs(psi.conj() @ phi) < 1e-12


class TestJson:
    def test_round_trip(self, quat3_observable):
        doc = pv.povm_to_json(quat3_observable)
        back = pv.povm_from_json(doc)
        assert back.dim == 3
        assert back.labels == quat3_observable.labels
        for (_, a), (_, b) in zip(back.outcomes, quat3_observable.outcomes):
            assert np.array_equal(a, b)

    def test_round_trip_is_bit_exact(self, quat3_observable, wh3_observable):
        # the JSON floats are the effects' own doubles, signed zeros included
        a = np.array([[1, -0.0], [-0.0, -0.0]], dtype=complex)
        a.imag = -0.0
        signed = pv.Povm(2, [("a", a), ("b", np.eye(2) - a)])
        assert np.signbit(signed.ops.view(float)).any()
        for povm in (quat3_observable, wh3_observable, signed):
            back = pv.povm_from_json(pv.povm_to_json(povm))
            assert np.array_equal(back.ops, povm.ops)
            assert np.array_equal(back.ops.view(np.int64), povm.ops.view(np.int64))

    def test_parsed_povm_keeps_the_report_it_passed(self, wh3_observable):
        assert wh3_observable.validation is None
        back = pv.povm_from_json(pv.povm_to_json(wh3_observable))
        assert back.validation.passed
        assert back.validation == pv.validate(back)

    def test_non_psd_outcome_named(self):
        bad = {
            "dim": 2,
            "outcomes": [
                {"label": "good", "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
                {"label": "bad", "matrix": [[[0, 0], [0, 0]], [[0, 0], [-1e-3, 0]]]},
            ],
        }
        # adjust so the family sums to identity but one operator dips negative
        bad["outcomes"][1]["matrix"] = [[[0, 0], [0, 0]], [[0, 0], [1.001, 0]]]
        bad["outcomes"].append(
            {"label": "rest", "matrix": [[[0, 0], [0, 0]], [[0, 0], [-0.001, 0]]]}
        )
        with pytest.raises(DomainError) as err:
            pv.povm_from_json(bad)
        assert "rest" in str(err.value)

    def test_failing_outcome_named_over_a_later_passing_one(self):
        # 'ok' has the larger hermiticity defect, within ATOL; 'bad' dips negative
        ok = np.diag([0.5, 1.0]).astype(complex)
        ok[0, 1] = 1e-12
        doc = pv.povm_to_json(pv.Povm(2, [("bad", np.diag([0.501, -0.001])), ("ok", ok)]))
        with pytest.raises(DomainError, match="outcome 'bad' fails validation"):
            pv.povm_from_json(doc)

    def test_normalization_failure_names_no_outcome(self, quat3_observable):
        scaled = pv.Povm(3, [(l, 1.01 * op) for l, op in quat3_observable.outcomes])
        assert pv.validate(scaled).worst_label is None
        with pytest.raises(DomainError, match="^the effects do not sum to the identity"):
            pv.povm_from_json(pv.povm_to_json(scaled))

    def test_missing_fields_rejected(self):
        with pytest.raises(DomainError):
            pv.povm_from_json({"outcomes": []})


def identity_doc(**changes):
    identity = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    doc = {"dim": 2, "outcomes": [{"label": "all", "matrix": identity}]}
    doc.update(changes)
    return doc


def identity_doc_with_entry(entry):
    doc = identity_doc()
    doc["outcomes"][0]["matrix"][0][1] = entry
    return doc


class TestJsonBoundary:
    def test_well_formed_document_passes(self):
        assert len(pv.povm_from_json(identity_doc())) == 1

    @pytest.mark.parametrize("dim", [2.7, 2.0, True, 0, -1, "2", None])
    def test_dim_must_be_a_positive_integer(self, dim):
        with pytest.raises(DomainError, match="dim"):
            pv.povm_from_json(identity_doc(dim=dim))

    def test_dim_zero_without_outcomes_rejected(self):
        with pytest.raises(DomainError):
            pv.povm_from_json({"dim": 0, "outcomes": []})

    @pytest.mark.parametrize("outcomes", [[], None, {}, "x"])
    def test_outcomes_must_be_a_non_empty_list(self, outcomes):
        with pytest.raises(DomainError, match="outcomes"):
            pv.povm_from_json(identity_doc(outcomes=outcomes))

    @pytest.mark.parametrize("entry", [
        [10 ** 400, 0],          # beyond the double range
        [float("inf"), 0],
        ["0", 0],                # a string
        [None, 0],               # null
        [0],                     # not a pair
        [0, 0, 0],
        "00",
    ])
    def test_entries_must_be_finite_number_pairs(self, entry):
        with pytest.raises(DomainError, match="outcome #0"):
            pv.povm_from_json(identity_doc_with_entry(entry))

    @pytest.mark.parametrize("matrix", [[[[True, 0]]], [[[1, False]]], [[[1.0, False]]]])
    def test_boolean_entries_rejected(self, matrix):
        doc = {"dim": 1, "outcomes": [{"label": "all", "matrix": matrix}]}
        with pytest.raises(DomainError, match="outcome #0"):
            pv.povm_from_json(doc)

    def test_ragged_rows_rejected(self):
        doc = identity_doc()
        doc["outcomes"][0]["matrix"][1].append([0, 0])
        with pytest.raises(DomainError, match="outcome #0"):
            pv.povm_from_json(doc)

    def test_wrong_matrix_shape_names_label(self):
        doc = identity_doc()
        doc["outcomes"][0]["matrix"] = [[[1, 0]]]
        with pytest.raises(DomainError, match="'all'"):
            pv.povm_from_json(doc)

    def test_outcome_without_matrix_rejected(self):
        with pytest.raises(DomainError, match="outcome #0"):
            pv.povm_from_json(identity_doc(outcomes=[{"label": "all"}]))

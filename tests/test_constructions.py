import numpy as np
import pytest

from covpovm import constructions as cx
from covpovm import group as grp
from covpovm import linalg
from covpovm import povm as pv
from covpovm.errors import (
    DomainError,
    PreconditionError,
    UnknownDimensionError,
)

from support import T_OPERATOR, pic3_seed, wh_matrices


def full_cosets(g):
    return grp.coset_space(g, grp.subgroup_generated(g, []))


class TestTables:
    def test_dimension_3_minimum_is_8(self):
        rec = cx.minimal_pic_outcomes(3)
        assert rec.min_outcomes == 8
        assert not rec.is_prime

    def test_dimension_7_is_prime(self):
        rec = cx.minimal_pic_outcomes(7)
        assert rec.min_outcomes == 23
        assert rec.is_prime

    def test_unresolved_pairs(self):
        assert cx.minimal_pic_outcomes(8).min_outcomes == (24, 25)
        assert cx.minimal_pic_outcomes(12).min_outcomes == (40, 41)
        assert cx.minimal_pic_outcomes(14).min_outcomes == (48, 49)

    def test_prime_table_reachable_beyond_15(self):
        rec = cx.minimal_pic_outcomes(49)
        assert rec.min_outcomes == 191
        assert rec.is_prime

    def test_unknown_dimension_reports_bound(self):
        with pytest.raises(UnknownDimensionError) as err:
            cx.minimal_pic_outcomes(16)
        low, high = err.value.bound
        assert (low, high) == (4 * 16 - 4 - 8, 4 * 16 - 4)

    @pytest.mark.parametrize("d", [1, 0, -3])
    def test_dimension_below_two_rejected(self, d):
        for lookup in (cx.general_bound, cx.minimal_pic_outcomes):
            with pytest.raises(DomainError, match="at least 2"):
                lookup(d)

    def test_every_tabulated_value_in_general_bound(self):
        for d, val in cx.MIN_OUTCOMES_BY_DIM.items():
            low, high = cx.general_bound(d)
            vals = val if isinstance(val, tuple) else (val,)
            assert all(low <= v <= high for v in vals)

    def test_prime_table_is_prime(self):
        for val in cx.PRIME_MIN_OUTCOMES_BY_DIM.values():
            assert cx.is_prime(val)


class TestWeylHeisenberg:
    def test_displacements_match_power_loop_bit_for_bit(self):
        for d in (2, 3, 5, 8, 15):
            assert np.array_equal(cx.wh_displacements(d), np.array(wh_matrices(d)))

    def test_d2_handpicked_seed_is_ic(self):
        phi = np.array([1.0, 2.0 * np.exp(1j * np.pi / 4)])
        phi /= np.linalg.norm(phi)
        seed = np.outer(phi, phi.conj()) / 2
        for w in wh_matrices(2):
            assert abs(np.trace(seed @ w)) > 1e-3
        povm, rep = cx.build_weyl_heisenberg(cx.WhParams(2, seed, require_ic=True))
        assert len(povm) == 4
        assert pv.is_ic(povm)

    def test_d3_maximally_mixed_seed_is_covariant_but_not_ic(self):
        povm, rep = cx.build_weyl_heisenberg(cx.WhParams(3, np.eye(3) / 9))
        cosets = full_cosets(rep.group)
        assert pv.check_covariance(povm, rep, cosets)
        assert pv.operator_span(povm).dim == 1
        with pytest.raises(DomainError):
            cx.build_weyl_heisenberg(cx.WhParams(3, np.eye(3) / 9, require_ic=True))

    def test_output_validates_and_is_covariant(self):
        for d in (2, 3, 4):
            seed = cx.default_wh_seed(d, rng_seed=7)
            povm, rep = cx.build_weyl_heisenberg(cx.WhParams(d, seed))
            assert len(povm) == d * d
            assert pv.validate(povm).passed
            assert pv.check_covariance(povm, rep, full_cosets(rep.group))

    def test_wrong_trace_rejected(self):
        with pytest.raises(DomainError):
            cx.build_weyl_heisenberg(cx.WhParams(3, np.eye(3) / 3))

    def test_outcome_labels_are_pairs(self):
        seed = cx.default_wh_seed(2, rng_seed=1)
        povm, _ = cx.build_weyl_heisenberg(cx.WhParams(2, seed))
        assert povm.labels == ["(0,0)", "(0,1)", "(1,0)", "(1,1)"]


class TestDefaultWhSeed:
    def test_trace_by_construction(self):
        seed = cx.default_wh_seed(2, 7)
        assert abs(np.trace(seed) - 0.5) < 1e-12

    def test_nonvanishing_overlaps(self):
        seed = cx.default_wh_seed(3, 7)
        for w in wh_matrices(3):
            assert abs(np.trace(seed @ w)) > 1e-9

    def test_downstream_ic_at_d5(self):
        seed = cx.default_wh_seed(5, 7)
        povm, _ = cx.build_weyl_heisenberg(cx.WhParams(5, seed))
        assert pv.operator_span(povm).dim == 25

    def test_deterministic(self):
        assert np.array_equal(cx.default_wh_seed(3, 11), cx.default_wh_seed(3, 11))

    @pytest.mark.parametrize("rng_seed", [-1, -12])
    def test_negative_rng_seed_rejected(self, rng_seed):
        with pytest.raises(DomainError, match="non-negative"):
            cx.default_wh_seed(3, rng_seed)


class TestPic3:
    def test_quaternion_default_is_certified_minimal(self):
        povm, rep, t = cx.build_quat3_pic()
        assert np.array_equal(t, np.diag([2, -1, -1]))
        assert len(povm) == 8
        assert pv.validate(povm).passed
        span = pv.operator_span(povm)
        assert span.dim == 8
        comp = linalg.orthogonal_complement(span)
        overlap = abs(linalg.hs_inner(comp.basis[0], t)) / linalg.hs_norm(t)
        assert overlap > 1 - 1e-12
        assert pv.check_pic(povm).status == pv.PIC_CERTIFIED

    def test_seed_matches_reference_construction(self):
        params = cx.Pic3Params(alpha=(0.01, -0.02, 0.03), v=(0.01 + 0.005j, -0.02j))
        assert np.allclose(
            cx.pic3_seed_matrix(params),
            pic3_seed((0.01, -0.02, 0.03), np.array([0.01 + 0.005j, -0.02j])),
        )

    def test_dihedral_default_is_certified_minimal(self):
        povm, rep, t = cx.build_dihedral3_pic()
        assert np.array_equal(t, np.diag([2, -1, -1]))
        assert len(povm) == 8
        assert pv.operator_span(povm).dim == 8
        assert pv.check_pic(povm).status == pv.PIC_CERTIFIED

    def test_alpha_zero_names_cond1(self):
        params = cx.Pic3Params(alpha=(0.0, 0.1, 0.1))
        with pytest.raises(PreconditionError) as err:
            cx.build_pic3(params)
        assert err.value.condition == "cond:1"

    def test_v_zero_names_cond2(self):
        params = cx.Pic3Params(v=(0j, 0j))
        with pytest.raises(PreconditionError) as err:
            cx.build_pic3(params)
        assert err.value.condition == "cond:2"

    def test_non_psd_seed_names_cond3(self):
        params = cx.Pic3Params(alpha=(0.2, 0.2, 0.2), v=(0.2 + 0j, 0j))
        with pytest.raises(PreconditionError) as err:
            cx.build_pic3(params)
        assert err.value.condition == "cond:3"

    @pytest.mark.parametrize("choice", ["quaternion", "dihedral"])
    def test_params_without_v_take_the_group_default(self, choice):
        params = cx.Pic3Params(group_choice=choice)
        assert params.v == cx.default_pic3_params(choice).v
        povm, _, _ = cx.build_pic3(params)
        assert pv.check_pic(povm).status == pv.PIC_CERTIFIED

    def test_dihedral_equal_moduli_rejected(self):
        params = cx.Pic3Params(v=(1 / 32 + 0j, 1 / 32 + 0j), group_choice="dihedral")
        with pytest.raises(PreconditionError) as err:
            cx.build_pic3(params)
        assert err.value.condition == "dihedral-moduli"

    def test_dihedral_zero_overlap_rejected(self):
        # |v1| != |v2| alone is not enough: with Re(v1 conj(v2)) = 0 the
        # orbit of the off-diagonal block only fills half its space
        params = cx.Pic3Params(v=(1 / 32 + 0j, 1j / 64), group_choice="dihedral")
        with pytest.raises(PreconditionError) as err:
            cx.build_pic3(params)
        assert err.value.condition == "dihedral-overlap"
        povm, _, _ = cx.build_pic3(params, enforce_conditions=False)
        assert pv.operator_span(povm).dim == 6

    @pytest.mark.parametrize("choice", ["dihedral8", ["quaternion"]])
    def test_unknown_group_choice_rejected(self, choice):
        for call in (lambda: cx.default_pic3_params(choice), lambda: cx.pic3_rep(choice),
                     lambda: cx.check_pic3_conditions(cx.Pic3Params(group_choice=choice))):
            with pytest.raises(DomainError, match="unknown group choice"):
                call()
        # the alpha condition is checked before the group choice
        with pytest.raises(PreconditionError, match="cond:1"):
            cx.check_pic3_conditions(cx.Pic3Params(alpha=(0.0, 0.1, 0.1), group_choice=choice))

    def test_bypassed_alpha_zero_drops_span(self):
        params = cx.Pic3Params(alpha=(1 / 32, 0.0, 1 / 32))
        povm, _, _ = cx.build_pic3(params, enforce_conditions=False)
        assert pv.validate(povm).passed
        assert pv.operator_span(povm).dim == 7
        verdict = pv.check_pic(povm)
        assert verdict.status == pv.NOT_PIC

    def test_bypassed_v_zero_drops_span(self):
        params = cx.Pic3Params(v=(0j, 0j))
        povm, _, _ = cx.build_pic3(params, enforce_conditions=False)
        assert pv.operator_span(povm).dim == 4
        assert pv.check_pic(povm).status == pv.NOT_PIC

    def test_random_draws_inside_sufficient_bound(self):
        # sqrt(sum alpha^2) + |v| <= 1/8 guarantees positivity; 25 draws per
        # group must certify with the complement pinned to the T line
        rng = np.random.default_rng(2)
        for choice in ("quaternion", "dihedral"):
            for _ in range(25):
                alpha = rng.uniform(-1, 1, 3)
                alpha /= np.linalg.norm(alpha)
                v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                v /= np.linalg.norm(v)
                alpha *= 0.05
                v *= 0.05
                params = cx.Pic3Params(
                    alpha=tuple(alpha), v=tuple(v), group_choice=choice
                )
                povm, rep, t = cx.build_pic3(params)
                span = pv.operator_span(povm)
                assert span.dim == 8
                comp = linalg.orthogonal_complement(span)
                angle = np.arccos(min(1.0, abs(
                    linalg.hs_inner(comp.basis[0], t)
                ) / linalg.hs_norm(t)))
                assert angle < 1e-6
                assert pv.check_pic(povm).status == pv.PIC_CERTIFIED

    def test_complement_generator_commutes_and_is_degenerate(self):
        # the complement generator of any certified minimal dimension-3
        # observable commutes with the whole representation and carries a
        # degenerate eigenvalue pair opposite in sign to the simple one
        for build in (cx.build_quat3_pic, cx.build_dihedral3_pic):
            povm, rep, _ = build()
            comp = linalg.orthogonal_complement(pv.operator_span(povm))
            gen = comp.basis[0]
            gen = (gen + gen.conj().T) / 2
            for u in rep.matrices:
                assert linalg.hs_norm(gen @ u - u @ gen) < 1e-9
            vals = np.sort(np.linalg.eigvalsh(gen))
            if abs(vals[0]) > abs(vals[-1]):
                vals = -vals[::-1]
            assert vals[-1] > 0
            assert abs(vals[0] - vals[1]) < 1e-9
            assert vals[1] < 0


class TestRank1:
    def test_seed_identity_and_spectrum(self):
        a = 1 / np.sqrt(192)
        m = cx.rank1_seed(0.0, (a, a, a))
        assert linalg.hs_norm(m @ m - (3 / 8) * m) < 1e-10
        vals = np.linalg.eigvalsh(m)
        assert vals == pytest.approx([0, 0, 3 / 8], abs=1e-12)
        assert linalg.numerical_rank(m) == 1

    def test_gamma_changes_operators_not_spectrum(self):
        a = 1 / np.sqrt(192)
        m0 = cx.rank1_seed(0.0, (a, a, a))
        m1 = cx.rank1_seed(np.pi / 2, (a, a, a))
        assert not np.allclose(m0, m1)
        assert np.linalg.eigvalsh(m0) == pytest.approx(np.linalg.eigvalsh(m1))

    def test_observable_is_pic(self):
        a = 1 / np.sqrt(192)
        povm = cx.build_rank1_pic3(0.3, (a, a, a))
        assert len(povm) == 8
        assert pv.check_pic(povm).status == pv.PIC_CERTIFIED

    def test_constraint_violation_rejected(self):
        with pytest.raises(DomainError):
            cx.rank1_seed(0.0, (0.1, 0.1, 0.1))
        a = 1 / np.sqrt(128)
        with pytest.raises(DomainError):
            cx.rank1_seed(0.0, (a, a, 0.0))


class TestPrimeIndexObstruction:
    def test_dihedral_index2(self):
        g = grp.dihedral8_group()
        h = grp.subgroup_generated(g, [g.index_of("is1")])
        assert h.order == 4
        report = cx.prime_index_obstruction(g, h)
        assert report.index == 2
        assert report.generator_name in g.names
        assert "pure" in report.conclusion

    def test_quaternion_center_rejected_as_nonprime(self):
        g = grp.quaternion_group()
        h = grp.subgroup_generated(g, [g.index_of("-1")])
        with pytest.raises(PreconditionError) as err:
            cx.prime_index_obstruction(g, h)
        assert err.value.condition == "prime-index"
        assert grp.find_cyclic_transitive_subgroup(g, h) is None

    def test_cyclic9_index3(self):
        g = grp.cyclic_group(9)
        h = grp.subgroup_generated(g, [3])
        report = cx.prime_index_obstruction(g, h)
        assert report.index == 3
        assert report.generator_name == "1"


class TestMinimalityReport:
    def test_quat3_is_minimal(self):
        povm, _, _ = cx.build_quat3_pic()
        report = cx.minimality_witness_dim3(povm)
        assert report.minimal
        assert report.span_dim == 8
        assert report.table_minimum == 8

    def test_dihedral3_is_minimal(self):
        povm, _, _ = cx.build_dihedral3_pic()
        assert cx.minimality_witness_dim3(povm).minimal

    def test_uniform_seed_is_not_minimal(self):
        rep = cx.pic3_rep("quaternion")
        cosets = full_cosets(rep.group)
        povm = pv.build_covariant(rep, cosets, np.eye(3) / 8)
        report = cx.minimality_witness_dim3(povm)
        assert not report.minimal
        assert report.span_dim == 1

    def test_wrong_shape_rejected(self):
        with pytest.raises(DomainError):
            cx.minimality_witness_dim3(pv.Povm(2, [("all", np.eye(2))]))

    def test_one_span_per_report(self, monkeypatch):
        # the verdict is decided on the span the report measures, not a second one
        rep = cx.pic3_rep("quaternion")
        povms = [cx.build_quat3_pic()[0], cx.build_dihedral3_pic()[0],
                 pv.build_covariant(rep, full_cosets(rep.group), np.eye(3) / 8)]
        calls = []

        def counted(mats):
            calls.append(len(mats))
            return linalg.span_orthonormalize(mats)

        monkeypatch.setattr(pv, "span_orthonormalize", counted)
        for povm in povms:
            calls.clear()
            report = cx.minimality_witness_dim3(povm)
            assert calls == [8]
            verdict = pv._pic_verdict(linalg.span_orthonormalize(povm.ops), None)
            assert (report.verdict.status, report.verdict.complement_dim) == \
                (verdict.status, verdict.complement_dim)

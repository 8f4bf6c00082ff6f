"""Acceptance criteria, one test per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass line per
criterion; any assertion failure marks the corresponding criterion red.
"""

import contextlib
import io
import itertools

import numpy as np
import pytest

from covpovm import cli
from covpovm import constructions as cx
from covpovm import group as grp
from covpovm import linalg
from covpovm import povm as pv
from covpovm import rep as rp
from covpovm.errors import PreconditionError

from support import (
    T_OPERATOR,
    embed_block,
    order8_groups,
    planted_witness_povm,
    wh_matrices,
)


def _report(num, text):
    print(f"[criterion {num:02d}] PASS - {text}")


def full_cosets(g):
    return grp.coset_space(g, grp.subgroup_generated(g, []))


def hs_angle(a, b):
    cos = abs(linalg.hs_inner(a, b)) / (linalg.hs_norm(a) * linalg.hs_norm(b))
    return float(np.arccos(min(1.0, cos)))


def test_criterion_01_dim3_reproduction():
    for build, tag in (
        (cx.build_quat3_pic, "quaternion"),
        (cx.build_dihedral3_pic, "dihedral"),
    ):
        povm, rep, t = build()
        assert len(povm) == 8
        report = pv.validate(povm)
        assert report.hermiticity_defect < 1e-10
        assert report.min_eigenvalue > -1e-10
        assert report.normalization_defect < 1e-10
        cosets = full_cosets(rep.group)
        assert rep.group.order * cosets.size == 64
        assert pv.covariance_defect(povm, rep, cosets) < 1e-10
        span = pv.operator_span(povm)
        assert span.dim == 8
        comp = linalg.orthogonal_complement(span)
        assert comp.dim == 1
        assert hs_angle(comp.basis[0], T_OPERATOR) < 1e-6
        verdict = pv.check_pic(povm)
        assert verdict.status == pv.PIC_CERTIFIED
        assert verdict.complement_dim == 1
    _report(1, "quat3 and dihedral3 observables reproduce the minimal construction")


def test_criterion_02_rank1_example():
    rng = np.random.default_rng(20)
    draws = 0
    while draws < 20:
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        if np.abs(direction).min() < 0.05:
            continue
        alpha = tuple(direction / 8)
        gamma = rng.uniform(0, 2 * np.pi)
        seed = cx.rank1_seed(gamma, alpha)
        assert linalg.hs_norm(seed @ seed - (3 / 8) * seed) < 1e-10
        assert linalg.numerical_rank(seed) == 1
        povm = cx.build_rank1_pic3(gamma, alpha)
        assert pv.check_pic(povm).status == pv.PIC_CERTIFIED
        draws += 1
    _report(2, "20 rank-1 seeds satisfy M^2 = (3/8)M and certify")


def test_criterion_03_condition_necessity():
    # cond:1 violated
    bad_alpha = cx.Pic3Params(alpha=(1 / 32, 0.0, 1 / 32))
    with pytest.raises(PreconditionError) as err:
        cx.build_pic3(bad_alpha)
    assert err.value.condition == "cond:1"
    povm, _, _ = cx.build_pic3(bad_alpha, enforce_conditions=False)
    assert pv.operator_span(povm).dim < 8
    verdict = pv.check_pic(povm)
    assert verdict.status == pv.NOT_PIC
    psi, phi = verdict.witness
    p1 = pv.born_probabilities(povm, np.outer(psi, psi.conj()))
    p2 = pv.born_probabilities(povm, np.outer(phi, phi.conj()))
    assert p1.shape == (8,)
    assert np.abs(p1 - p2).max() < 1e-6

    # cond:2 violated
    bad_v = cx.Pic3Params(v=(0j, 0j))
    with pytest.raises(PreconditionError) as err:
        cx.build_pic3(bad_v)
    assert err.value.condition == "cond:2"
    povm, _, _ = cx.build_pic3(bad_v, enforce_conditions=False)
    assert pv.operator_span(povm).dim < 8
    verdict = pv.check_pic(povm)
    assert verdict.status == pv.NOT_PIC
    psi, phi = verdict.witness
    p1 = pv.born_probabilities(povm, np.outer(psi, psi.conj()))
    p2 = pv.born_probabilities(povm, np.outer(phi, phi.conj()))
    assert np.abs(p1 - p2).max() < 1e-6

    # dihedral condition violated: the construction refuses outright
    equal_moduli = cx.Pic3Params(v=(1 / 32 + 0j, 1 / 32 + 0j), group_choice="dihedral")
    with pytest.raises(PreconditionError) as err:
        cx.build_pic3(equal_moduli)
    assert err.value.condition == "dihedral-moduli"
    _report(3, "violating any construction condition fails or breaks the span")


def test_criterion_04_weyl_heisenberg_family():
    for d in (2, 3, 4, 5, 6):
        seed = cx.default_wh_seed(d, rng_seed=7)
        povm, rep = cx.build_weyl_heisenberg(cx.WhParams(d, seed, require_ic=True))
        assert len(povm) == d * d
        cosets = full_cosets(rep.group)
        assert pv.covariance_defect(povm, rep, cosets) < 1e-9
        assert pv.is_ic(povm)
        # the action table is modular addition of (j, k) labels
        for g, x in itertools.product(range(d * d), repeat=2):
            j1, k1 = divmod(g, d)
            j2, k2 = divmod(x, d)
            expected = ((j1 + j2) % d) * d + (k1 + k2) % d
            assert cosets.action[g, x] == expected
        mixed, rep2 = cx.build_weyl_heisenberg(
            cx.WhParams(d, np.eye(d, dtype=complex) / d ** 2)
        )
        assert pv.covariance_defect(mixed, rep2, full_cosets(rep2.group)) < 1e-9
        assert pv.operator_span(mixed).dim == 1
    _report(4, "shift/clock observables are covariant and IC for d = 2..6")


def test_criterion_05_table_reproduction():
    expected = {
        2: 4, 3: 8, 4: 10, 5: 16, 6: 18, 7: 23, 8: (24, 25), 9: 32, 10: 34,
        11: 39, 12: (40, 41), 13: 47, 14: (48, 49), 15: 54,
    }
    for d, value in expected.items():
        assert cx.minimal_pic_outcomes(d).min_outcomes == value
    prime_expected = {
        7: 23, 13: 47, 19: 71, 21: 79, 49: 191, 67: 263, 69: 271, 97: 383,
        259: 1031, 261: 1039, 273: 1087, 289: 1151, 321: 1279, 517: 2063,
        529: 2111,
    }
    assert cx.PRIME_MIN_OUTCOMES_BY_DIM == prime_expected
    assert len(prime_expected) == 15
    for d, value in prime_expected.items():
        rec = cx.minimal_pic_outcomes(d)
        assert rec.min_outcomes == value
        assert rec.is_prime
        assert cx.is_prime(value)
    _report(5, "both minimal-outcome tables reproduce exactly, primality rechecked")


def _tperp_columns():
    span_t = linalg.span_orthonormalize([T_OPERATOR])
    comp = linalg.orthogonal_complement(span_t)
    return np.stack([b.reshape(-1) for b in comp.basis], axis=1)


def test_criterion_06_representation_suite():
    for kind, blocks in (
        ("quaternion", grp.QUATERNION_MATRICES),
        ("dihedral8", grp.DIHEDRAL8_MATRICES),
    ):
        group = grp.build_group(kind)
        dual = rp.irreps_of(group)
        assert sum(irr.dim ** 2 for irr in dual) == 8
        for a in dual:
            for b in dual:
                ip = np.sum(np.conj(a.character) * b.character) / group.order
                assert abs(ip - (1.0 if a is b else 0.0)) < 1e-9
        pi = rp.rep_from_matrices(group, list(blocks))
        tilde_pi = rp.conjugation_rep(pi)
        mults = {
            c.irrep.name: c.multiplicity
            for c in rp.isotypic_decompose(tilde_pi).components
        }
        assert mults == {"chi0": 1, "chi1": 1, "chi2": 1, "chi3": 1, "pi": 0}

    quat = grp.quaternion_group()
    u3 = rp.rep_from_matrices(quat, [embed_block(m) for m in grp.QUATERNION_MATRICES])
    tilde = rp.conjugation_rep(u3)
    restricted = rp.restrict(tilde, _tperp_columns())
    mults = {
        c.irrep.name: c.multiplicity
        for c in rp.isotypic_decompose(restricted).components
    }
    assert mults == {"chi0": 1, "chi1": 1, "chi2": 1, "chi3": 1, "pi": 2}
    full = rp.isotypic_decompose(tilde)
    assert full.multiplicity_of("chi0") == 2
    assert not rp.is_cyclic_rep(full)
    _report(6, "duals, conjugation decompositions, and multiplicities match")


def test_criterion_07_cyclicity_agreement():
    quat = grp.quaternion_group()
    dihe = grp.dihedral8_group()
    u3 = rp.rep_from_matrices(quat, [embed_block(m) for m in grp.QUATERNION_MATRICES])
    tilde = rp.conjugation_rep(u3)
    reps = [
        rp.conjugation_rep(rp.rep_from_matrices(quat, list(grp.QUATERNION_MATRICES))),
        rp.conjugation_rep(rp.rep_from_matrices(dihe, list(grp.DIHEDRAL8_MATRICES))),
        rp.restrict(tilde, _tperp_columns()),
        tilde,
        rp.regular_rep(quat),
    ]
    rng = np.random.default_rng(77)
    for rep in reps:
        decomp = rp.isotypic_decompose(rep)
        for _ in range(100):
            v = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
            direct = rp.cyclic_by_span(rep, v)
            schmidt = rp.cyclic_by_schmidt(decomp, v)
            assert direct == schmidt
    _report(7, "span-rank and Schmidt-rank cyclicity agree on 100 vectors x 5 reps")


def _random_character_rep(group, dual, rng):
    picks = rng.integers(0, len(dual), size=3)
    mats = [
        np.diag([dual[p].matrices[g][0, 0] for p in picks])
        for g in range(group.order)
    ]
    return rp.rep_from_matrices(group, mats), picks


def test_criterion_08_abelian_obstruction():
    rng = np.random.default_rng(8)
    abelians = {
        k: v for k, v in order8_groups().items()
        if k in ("cyclic:8", "z2xz4", "z2xz2xz2")
    }
    for name, group in abelians.items():
        dual = rp.irreps_of(group)
        for _ in range(4):
            rep, picks = _random_character_rep(group, dual, rng)
            cert = pv.abelian_obstruction_certificate(rep)
            assert cert is not None, name
            v1, v2 = cert.vectors
            assert abs(abs(v1.conj() @ v2)) < 1e-9  # independent lines
            # covariant observable: uniform diagonal plus coupling between
            # slots carrying distinct characters
            seed = np.eye(3, dtype=complex) / 8
            for i in range(3):
                for j in range(i + 1, 3):
                    if picks[i] != picks[j]:
                        seed[i, j] += 0.01 + 0.005j
                        seed[j, i] += 0.01 - 0.005j
            assert np.linalg.eigvalsh(seed)[0] > 0
            povm = pv.build_covariant(rep, full_cosets(group), seed)
            for rho in cert.states:
                p = pv.born_probabilities(povm, rho)
                assert np.abs(p - 1 / 8).max() < 1e-9
            verdict = pv.check_pic(povm)
            assert verdict.status == pv.NOT_PIC
    _report(8, "abelian reps always certify obstruction; falsifier confirms not PIC")


def test_criterion_09_prime_index_obstruction():
    for name, group in order8_groups().items():
        for sub in grp.all_subgroups(group):
            if sub.order == group.order:
                continue
            index = group.order // sub.order
            if cx.is_prime(index):
                found = grp.find_cyclic_transitive_subgroup(group, sub)
                assert found is not None, (name, sub.members)
    quat = grp.quaternion_group()
    center = grp.subgroup_generated(quat, [quat.index_of("-1")])
    assert grp.find_cyclic_transitive_subgroup(quat, center) is None
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["group", "quaternion", "--cosets", "1,-1", "--obstruction"])
    assert code == 2
    assert "index 4 not prime" in err.getvalue()
    assert "no cyclic transitive subgroup" in err.getvalue()
    _report(9, "prime-index scan succeeds everywhere; center of Q rejected at CLI")


def test_criterion_10_falsifier_soundness():
    rng = np.random.default_rng(10)
    for case in range(50):
        povm, psi, phi = planted_witness_povm(3, rng)
        span = pv.operator_span(povm)
        result = pv.falsify(span, pv.FalsifierSettings(rng_seed=case))
        assert result.residual < 1e-10, f"case {case}: residual {result.residual}"
        diff = np.outer(result.psi, result.psi.conj()) - np.outer(
            result.phi, result.phi.conj()
        )
        assert linalg.hs_norm(span.project(diff)) < 1e-10
    _report(10, "falsifier recovered all 50 planted witnesses below 1e-10")


def test_criterion_11_multiplier_suite():
    for d in (2, 3, 5):
        group = grp.build_group(f"product(cyclic:{d},cyclic:{d})")
        rep = rp.rep_from_matrices(group, wh_matrices(d))
        n = group.order
        for g in range(n):
            for h in range(n):
                j1, k1 = divmod(g, d)
                j2, _k2 = divmod(h, d)
                expected = np.exp(-2j * np.pi * k1 * j2 / d)
                # independent oracle: entrywise scalar ratio of the products
                prod = rep.matrices[g] @ rep.matrices[h]
                target = rep.matrices[group.op(g, h)]
                idx = np.unravel_index(np.argmax(np.abs(prod)), prod.shape)
                oracle = target[idx] / prod[idx]
                assert abs(oracle - expected) < 1e-9
                assert abs(rep.multiplier[g, h] - expected) < 1e-9
        mul = group.mul
        om = rep.multiplier
        for g in range(n):
            for h in range(n):
                for k in range(n):
                    lhs = om[g, mul[h, k]] * om[h, k]
                    rhs = om[g, h] * om[mul[g, h], k]
                    assert abs(lhs - rhs) < 1e-9
        ok, f = rp.is_exact_multiplier(rep)
        assert not ok and f is None

    rng = np.random.default_rng(11)
    for n in (3, 4, 5, 8):
        group = grp.cyclic_group(n)
        shift = np.roll(np.eye(n, dtype=complex), 1, axis=0)
        phases = np.exp(2j * np.pi * rng.random(n))
        phases[0] = 1.0
        rep = rp.rep_from_matrices(
            group, [phases[k] * np.linalg.matrix_power(shift, k) for k in range(n)]
        )
        ok, f = rp.is_exact_multiplier(rep)
        assert ok
        assert np.abs(rp._coboundary(group, f) - rep.multiplier).max() < 1e-8
    ok, _ = rp.is_exact_multiplier(rp.rep_from_matrices(
        grp.build_group("product(cyclic:4,cyclic:4)"), wh_matrices(4)
    ))
    assert not ok
    _report(11, "multiplier table, cocycle identity, and exactness verdicts all match")

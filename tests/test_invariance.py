"""Span dimension and PIC verdict do not depend on how an observable is presented.

Conjugating every effect by one unitary maps the span onto a unitarily
equivalent subspace, and permuting the outcomes leaves the span itself alone;
neither may move the span dimension, the PIC verdict or a certificate's
min sigma_3, and a not_PIC verdict's witness must stay a witness.  The exact
panel has complements of dimension 0 or 1, decided without a falsifier search
(at c = 1 by the cover's one point), plus the d = 4 codim-2 observable,
certified by the cover of its complement's sphere.  The searched panel (the
bypassed dimension-3 constructions cond1 and cond2, and a planted difference
among random directions at c = 4) is not_PIC by the falsifier's search: the
moved observable's own witness, and the original witness moved by the unitary,
must both give equal outcome distributions on the moved observable.

Covariance itself is checked here over every group element, independently of
``build_covariant``, on observables whose coset space has a nontrivial subgroup.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covpovm import constructions as cx
from covpovm import group as grp
from covpovm import povm as pv
from covpovm.linalg import ATOL

from support import codim2_povm, haar_unitary, planted_complement_povm, planted_witness_povm

EXACT = ["wh2", "wh3", "wh4", "wh5", "quat3", "dihedral3", "planted3", "planted4"]
SEARCHED = ["cond1", "cond2", "planted5-c4"]
NAMES = EXACT + SEARCHED
SETTINGS = settings(max_examples=40, deadline=None, database=None, derandomize=True)


@functools.cache
def observable(name):
    if name.startswith("wh"):
        d = int(name[2:])
        params = cx.WhParams(d, cx.default_wh_seed(d, 7), require_ic=True)
        povm, _ = cx.build_weyl_heisenberg(params)
    elif name == "quat3":
        povm, _, _ = cx.build_quat3_pic()
    elif name == "dihedral3":
        povm, _, _ = cx.build_dihedral3_pic()
    elif name == "cond1":
        povm, _, _ = cx.build_pic3(cx.Pic3Params(alpha=(1 / 32, 0.0, 1 / 32)),
                                   enforce_conditions=False)
    elif name == "cond2":
        povm, _, _ = cx.build_pic3(cx.Pic3Params(v=(0j, 0j)), enforce_conditions=False)
    elif name == "planted5-c4":
        povm, _, _ = planted_complement_povm(5, 4, np.random.default_rng(5))
    else:
        povm, _, _ = planted_witness_povm(int(name[-1]), np.random.default_rng(5))
    return povm, pv.operator_span(povm).dim, pv.check_pic(povm)


@functools.cache
def codim2():
    return codim2_povm()


def assert_witness(povm, psi, phi):
    """psi and phi are orthonormal and give the same outcome distribution."""
    assert abs(psi.conj() @ phi) < 1e-9
    p1 = pv.born_probabilities(povm, np.outer(psi, psi.conj()))
    p2 = pv.born_probabilities(povm, np.outer(phi, phi.conj()))
    assert np.abs(p1 - p2).max() < 1e-9


def assert_same_analysis(name, moved):
    _, span_dim, verdict = observable(name)
    assert pv.operator_span(moved).dim == span_dim
    again = pv.check_pic(moved)
    assert (again.status, again.complement_dim) == (verdict.status, verdict.complement_dim)
    if verdict.certificate is not None:
        assert again.certificate["min_sigma3"] == pytest.approx(
            verdict.certificate["min_sigma3"], abs=1e-9)
    if verdict.status == pv.NOT_PIC:
        assert_witness(moved, *again.witness)


def test_panel_is_decided_on_the_exact_paths():
    for name in EXACT:
        _, _, verdict = observable(name)
        assert verdict.complement_dim <= 1
        assert verdict.status != pv.PIC_UNFALSIFIED


def test_searched_panel_is_not_pic():
    for name in SEARCHED:
        povm, _, verdict = observable(name)
        assert verdict.complement_dim >= 2
        assert verdict.status == pv.NOT_PIC
        assert_witness(povm, *verdict.witness)


@SETTINGS
@given(name=st.sampled_from(NAMES), seed=st.integers(0, 2**32 - 1))
def test_unitary_conjugation_keeps_span_and_verdict(name, seed):
    povm, _, _ = observable(name)
    u = haar_unitary(povm.dim, np.random.default_rng(seed))
    moved = pv.Povm(povm.dim, [(x, u @ op @ u.conj().T) for x, op in povm.outcomes])
    assert_same_analysis(name, moved)


@SETTINGS
@given(name=st.sampled_from(NAMES), data=st.data())
def test_outcome_permutation_keeps_span_and_verdict(name, data):
    povm, _, _ = observable(name)
    order = data.draw(st.permutations(range(len(povm))))
    moved = pv.Povm(povm.dim, [povm.outcomes[i] for i in order])
    assert_same_analysis(name, moved)


@SETTINGS
@given(name=st.sampled_from(SEARCHED), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_witness_survives_conjugation_and_permutation(name, seed, data):
    povm, _, verdict = observable(name)
    u = haar_unitary(povm.dim, np.random.default_rng(seed))
    order = data.draw(st.permutations(range(len(povm))))
    moved = pv.Povm(povm.dim, [(povm.labels[i], u @ povm.ops[i] @ u.conj().T) for i in order])
    assert_same_analysis(name, moved)
    assert_witness(moved, *(u @ w for w in verdict.witness))


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_codim2_certificate_survives_conjugation_and_permutation(seed, data):
    povm = codim2()
    u = haar_unitary(4, np.random.default_rng(seed))
    order = data.draw(st.permutations(range(len(povm))))
    moved = pv.Povm(4, [(povm.labels[i], u @ povm.ops[i] @ u.conj().T) for i in order])
    verdict = pv.check_pic(moved)
    assert (verdict.status, verdict.complement_dim) == (pv.PIC_CERTIFIED, 2)
    # every unit element of the complement has sigma_3 = 1/2
    assert verdict.certificate["min_sigma3"] == pytest.approx(0.5, abs=1e-9)


@SETTINGS
@given(d=st.sampled_from([3, 4]), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_covariance_over_a_nontrivial_subgroup(d, data, seed):
    rep = cx.wh_rep(d)
    gen = data.draw(st.integers(1, d * d - 1))
    sub = grp.subgroup_generated(rep.group, [gen])
    assert 1 < sub.order < d * d
    cosets = grp.coset_space(rep.group, sub)
    # twirling a positive operator over U(H) puts it in the commutant; over
    # all of G it would average to tr(a)/d id, which fixes tr(a) = |H|/d
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a = z @ z.conj().T
    a *= sub.order / d / np.trace(a).real
    m = sum(rep.matrices[h] @ a @ rep.matrices[h].conj().T for h in sub.members) / sub.order
    povm = pv.build_covariant(rep, cosets, m)
    assert len(povm) == d * d // sub.order
    assert pv.covariance_defect(povm, rep, cosets) <= ATOL

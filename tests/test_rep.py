import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covpovm import constructions as cx
from covpovm import group as grp
from covpovm import linalg
from covpovm import rep as rp
from covpovm.errors import (
    DomainError, InconsistencyError, NotAProjectiveRepError, ShapeError,
)

from support import (
    T_OPERATOR, haar_unitary, make_wh_rep, order8_groups, pic3_seed, reference_eigenspaces,
    reference_generating_set, reference_isotypic_decompose, reference_joint_eigenspaces,
    reference_rep_from_matrices, reference_schmidt_ranks, relabelled_cyclic6, schmidt_deficient,
    wh_matrices,
)

SETTINGS = settings(max_examples=40, deadline=None, database=None, derandomize=True)


def entrywise_multiplier(u_g, u_h, u_gh):
    """Oracle: scalar ratio read off at the largest-magnitude entry."""
    prod = u_g @ u_h
    idx = np.unravel_index(np.argmax(np.abs(prod)), prod.shape)
    return u_gh[idx] / prod[idx]


def first_failing_pair(group, mats):
    """Oracle: the first (g, h) in row-major order whose product rule fails.

    Both tests that use it break the rule far from the tolerances, so the
    scalar overlap decides the same pair as the batched one.
    """
    d = mats.shape[1]
    for g, h in itertools.product(range(group.order), repeat=2):
        prod, target = mats[g] @ mats[h], mats[group.op(g, h)]
        om = np.vdot(prod, target) / d
        if abs(abs(om) - 1) > linalg.PHASE_ATOL:
            return g, h
        if np.abs(target - om / abs(om) * prod).max() > linalg.ATOL * d:
            return g, h
    return None


def scan_bounds(group, mats):
    """(e, delta, f) over every pair, from the product blocks of the full scan."""
    f = np.abs(mats.conj().transpose(0, 2, 1) @ mats - np.eye(mats.shape[1])).max()
    e = delta = 0.0
    for _, _, defect, residual in rp._product_blocks(group, mats):
        e, delta = max(e, residual.max()), max(delta, defect.max())
    return e, delta, f


def spied(name, record):
    """Patch ``rep.<name>`` with a wrapper that appends each result to ``record``."""
    original = getattr(rp, name)

    def wrapper(*args):
        record.append(original(*args))
        return record[-1]

    return mock.patch.object(rp, name, wrapper)


class TestRepFromMatrices:
    def test_regular_rep_is_ordinary(self, quaternion):
        reg = rp.regular_rep(quaternion)
        assert reg.is_unitary_rep()
        assert reg.dim == 8

    def test_quat3_rep_is_ordinary(self, quat3_rep):
        assert quat3_rep.is_unitary_rep()

    def test_wh_multiplier_matches_entrywise_oracle(self, wh_rep_d3):
        rep = wh_rep_d3
        d = 3
        for g in range(9):
            for h in range(9):
                gh = rep.group.op(g, h)
                oracle = entrywise_multiplier(
                    rep.matrices[g], rep.matrices[h], rep.matrices[gh]
                )
                assert abs(rep.multiplier[g, h] - oracle) < 1e-10
        # closed form exp(-2 pi i k j' / d) with element (j, k) at index j*d + k
        for g in range(9):
            for h in range(9):
                j, k = divmod(g, d)
                jp, kp = divmod(h, d)
                expected = np.exp(-2j * np.pi * k * jp / d)
                assert abs(rep.multiplier[g, h] - expected) < 1e-10

    def test_non_unitary_rejected(self, quaternion):
        mats = [np.eye(2, dtype=complex)] * 8
        mats[3] = np.array([[1, 1], [0, 1]], dtype=complex)
        with pytest.raises(DomainError):
            rp.rep_from_matrices(quaternion, mats)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrices_rejected(self, bad):
        with pytest.raises(DomainError, match="non-finite"):
            rp.rep_from_matrices(grp.cyclic_group(2), [np.eye(1), [[bad]]])

    def test_scrambled_assignment_rejected(self, quat3_rep):
        mats = list(quat3_rep.matrices)
        mats[2], mats[4] = mats[4], mats[2]
        with pytest.raises(NotAProjectiveRepError):
            rp.rep_from_matrices(quat3_rep.group, mats)

    def test_cocycle_identity_over_all_triples(self, wh_rep_d2, wh_rep_d3):
        for rep in (wh_rep_d2, wh_rep_d3):
            om, mul = rep.multiplier, rep.group.mul
            n = rep.group.order
            for g in range(n):
                for h in range(n):
                    for k in range(n):
                        lhs = om[g, mul[h, k]] * om[h, k]
                        rhs = om[g, h] * om[mul[g, h], k]
                        assert abs(lhs - rhs) < 1e-9

    def test_validating_wh15_stays_small(self):
        # 225 elements: the cocycle identity over all 225^3 triples at once
        # would hold several 180 MB arrays
        g = grp.build_group("product(cyclic:15,cyclic:15)")
        mats = wh_matrices(15)
        tracemalloc.start()
        try:
            rp.rep_from_matrices(g, mats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6

    def test_multiplier_is_the_row_expression_bit_for_bit(self):
        # phase-twisted, rotated shift/clock matrices c(g) V W(g) V*, c(e) = 1
        rng = np.random.default_rng(11)
        g = grp.build_group("product(cyclic:4,cyclic:4)")
        v = haar_unitary(4, rng)
        phases = np.exp(2j * np.pi * rng.random(16))
        phases[g.identity] = 1.0
        mats = [c * v @ w @ v.conj().T for c, w in zip(phases, wh_matrices(4))]
        rep = rp.rep_from_matrices(g, mats)
        stack, d = rep.matrices, rep.dim
        for a in range(g.order):
            om = np.sum(np.conj(stack[a] @ stack) * stack[g.mul[a]], axis=(1, 2)) / d
            om /= np.abs(om)
            assert np.array_equal(rep.multiplier[a], om)

    @pytest.mark.parametrize("break_kind, message", [
        ("other", "multiplier at {} is not unimodular"),
        ("phase", "residual at {} exceeds tolerance"),
    ])
    def test_late_break_names_first_failing_pair(self, break_kind, message):
        g = grp.build_group("product(cyclic:4,cyclic:4)")
        mats = np.array(wh_matrices(4))
        last = g.order - 1
        if break_kind == "other":
            mats[last] = mats[1]  # orthogonal to the true product: overlap 0
        else:
            mats[last] = mats[last] @ np.diag([np.exp(1e-4j), 1, 1, 1])
        pair = first_failing_pair(g, mats)
        assert last in (pair[0], pair[1], g.op(*pair))
        names = f"({g.names[pair[0]]}, {g.names[pair[1]]})"
        with pytest.raises(NotAProjectiveRepError) as err:
            rp.rep_from_matrices(g, mats)
        assert str(err.value) == message.format(names)

    def test_cocycle_defect_is_the_largest_triple_defect(self):
        # a unimodular table that is no cocycle, against the loop over triples
        g = grp.build_group("product(cyclic:3,cyclic:3)")
        omega = np.exp(2j * np.pi * np.random.default_rng(5).random((9, 9)))
        mul = g.mul
        defect = max(
            abs(omega[a, mul[b, c]] * omega[b, c] - omega[a, b] * omega[mul[a, b], c])
            for a, b, c in itertools.product(range(9), repeat=3)
        )
        with pytest.raises(NotAProjectiveRepError) as err:
            rp._check_cocycle(g, omega)
        assert str(err.value) == f"cocycle identity fails (defect {defect:.3e})"

    @staticmethod
    def moduli_broken(group, mats, a, c, delta):
        """U(a), U(c) scaled by 1 + delta and U(ac) by 1 - delta.

        Each stays unitary within ATOL d, and so does every pair that meets
        one or two scaled matrices; the pairs meeting all three, (a, c) first,
        miss the product rule by 3 delta.
        """
        mats = np.array(mats, dtype=complex)
        mats[[a, c]] *= 1 + delta
        mats[group.op(a, c)] *= 1 - delta
        return mats

    @pytest.mark.parametrize("case", ["d1-modulus", "d2-modulus", "d2-other"])
    def test_break_inside_a_block_names_first_failing_pair(self, case):
        if case == "d1-modulus":
            # 100 one-dimensional rows, 40 to a block
            g = grp.cyclic_group(100)
            chars = np.exp(2j * np.pi * np.arange(100) / 100).reshape(-1, 1, 1)
            mats = self.moduli_broken(g, chars, 47, 50, 4.9e-10)
        else:
            # pi(q) chi(b) on quaternion x Z8: 64 rows of 2x2 matrices, 16 to a block
            g = grp.build_group("product(quaternion,cyclic:8)")
            chi = np.exp(2j * np.pi * np.arange(8) / 8)
            mats = np.array([q * c for q in grp.QUATERNION_MATRICES for c in chi])
            if case == "d2-modulus":
                mats = self.moduli_broken(g, mats, 21, 26, 0.95e-9)
            else:
                mats[37] = mats[37] @ np.array([[0, 1], [-1, 0]])
        n, d = g.order, mats.shape[1]
        rows = rp._block_rows(n, n * d * d)
        pair = first_failing_pair(g, mats)
        assert 1 < rows < n and pair[0] % rows != 0
        names = f"({g.names[pair[0]]}, {g.names[pair[1]]})"
        if case == "d2-other":
            message = f"multiplier at {names} is not unimodular"
        else:
            message = f"residual at {names} exceeds tolerance"
        with pytest.raises(NotAProjectiveRepError) as err:
            rp.rep_from_matrices(g, mats)
        assert str(err.value) == message

    @staticmethod
    def rotated_wh5(rng, noise=0.0):
        """Phase-twisted, rotated d = 5 shift/clock: 25 rows of 625 entries, 6 to a block."""
        g = grp.build_group("product(cyclic:5,cyclic:5)")
        assert rp._block_rows(25, 25 * 25) == 6
        v = haar_unitary(5, rng)
        phases = np.exp(2j * np.pi * rng.random(25))
        phases[g.identity] = 1.0
        mats = np.array([c * v @ w @ v.conj().T for c, w in zip(phases, wh_matrices(5))])
        if noise:
            mats += noise * (rng.standard_normal(mats.shape) + 1j * rng.standard_normal(mats.shape))
            mats[g.identity] = np.eye(5)
        return g, mats

    def test_multiplier_across_blocks_is_the_row_expression(self):
        # the generator rows are computed and the rest derived along the word
        # tree: every row meets the row expression within the certified bound
        g, mats = self.rotated_wh5(np.random.default_rng(12))
        rep = rp.rep_from_matrices(g, mats)
        stack, d = rep.matrices, rep.dim
        f = np.abs(stack.conj().transpose(0, 2, 1) @ stack - np.eye(d)).max()
        omega, bound, _ = rp._generator_route(g, stack, f)
        assert np.array_equal(rep.multiplier, omega)
        assert bound < 1e-10
        for a in range(g.order):
            om = np.sum(np.conj(stack[a] @ stack) * stack[g.mul[a]], axis=(1, 2)) / d
            om /= np.abs(om)
            assert np.abs(rep.multiplier[a] - om).max() <= bound

    def test_derived_bound_grows_with_the_tree_depth(self):
        # exact unitaries and a unimodular table: the recurrence
        # eps(g) <= eps(g') + 2 d e per layer from d e on the generator rows
        d, e = 4, 1e-13
        for depth in (0, 1, 5, 20):
            residual, defect = rp._derived_bounds(d, e, 0.0, 0.0, depth)
            assert residual >= (2 * depth + 1) * d * e
            assert defect >= (2 * depth + 1) * d * e / np.sqrt(d)
        assert rp._derived_bounds(d, 1e-10, 0.0, 0.0, 20) is None

    def test_fallback_multiplier_is_the_row_expression_bit_for_bit(self):
        # entrywise noise of 1e-10: every generator row passes the product rule,
        # but the derived bound misses ATOL d, so the full scan runs
        g, mats = self.rotated_wh5(np.random.default_rng(12), noise=1e-10)
        d = mats.shape[1]
        rows = np.append(g.identity, rp._word_tree(g)[0])
        assert max(r.max() for *_, r in rp._product_blocks(g, mats, rows)) <= linalg.ATOL * d
        routes, scans = [], []
        with spied("_generator_route", routes), spied("_scan", scans):
            rep = rp.rep_from_matrices(g, mats)
        assert routes == [None] and len(scans) == 1
        stack = rep.matrices
        for a in range(g.order):
            om = np.sum(np.conj(stack[a] @ stack) * stack[g.mul[a]], axis=(1, 2)) / d
            om /= np.abs(om)
            assert np.array_equal(rep.multiplier[a], om)

    @SETTINGS
    @given(family=st.sampled_from(["wh2", "wh3", "wh4", "wh5", "wh6", "wh7",
                                   "q8c3", "q8c5", "q8c7"]),
           exponent=st.floats(-13.0, -8.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_generator_route_agrees_with_the_full_scan(self, family, exponent, seed):
        # Haar-framed, phase-twisted reps with entrywise noise around ATOL d:
        # the same verdict and message, and the same multiplier, bit for bit
        # where the full scan ran and within the certified bound (or 1e-12)
        # where the rows were derived
        rng = np.random.default_rng(seed)
        if family.startswith("wh"):
            d = int(family[2:])
            g = grp.build_group(f"product(cyclic:{d},cyclic:{d})")
            base = np.array(wh_matrices(d))
        else:
            k = int(family[3:])
            g = grp.build_group(f"product(quaternion,cyclic:{k})")
            chi = np.exp(2j * np.pi * np.arange(k) / k)
            base = np.array([q * c for q in grp.QUATERNION_MATRICES for c in chi])
        d = base.shape[1]
        v = haar_unitary(d, rng)
        phases = np.exp(2j * np.pi * rng.random(g.order))
        mats = phases[:, None, None] * (v @ base @ v.conj().T)
        mats += 10 ** exponent * (rng.standard_normal(mats.shape)
                                  + 1j * rng.standard_normal(mats.shape))
        mats[g.identity] = np.eye(d)
        outcomes = []
        for validate in (rp.rep_from_matrices, reference_rep_from_matrices):
            try:
                outcomes.append(validate(g, mats))
            except Exception as err:   # compared by type and message below
                outcomes.append(err)
        rep, ref = outcomes
        if isinstance(ref, Exception):
            assert type(rep) is type(ref) and str(rep) == str(ref)
            return
        f = np.abs(ref.matrices.conj().transpose(0, 2, 1) @ ref.matrices - np.eye(d)).max()
        derived = rp._generator_route(g, ref.matrices, f)
        if derived is None:
            assert np.array_equal(rep.multiplier, ref.multiplier)
        else:
            assert np.abs(rep.multiplier - ref.multiplier).max() <= max(1e-12, derived[1])

    @pytest.mark.parametrize("d", range(2, 17))
    def test_wh_multiplier_is_the_closed_form(self, d):
        # element (j, k) at index j d + k: omega = exp(-2 pi i k j' / d), on
        # the full scan for d <= 4 and on the derived rows above
        rep = cx.wh_rep(d)
        j, k = np.divmod(np.arange(d * d), d)
        expected = np.exp(-2j * np.pi * np.outer(k, j) / d)
        assert (rp._block_rows(d * d, d ** 4) == d * d) == (d <= 4)
        assert np.abs(rep.multiplier - expected).max() <= 1e-12

    def test_wh15_forms_only_the_generator_rows(self):
        products = []
        blocks = rp._product_blocks

        def counted(*args):
            for block in blocks(*args):
                products.append(block[1].size)
                yield block

        g = grp.build_group("product(cyclic:15,cyclic:15)")
        with mock.patch.object(rp, "_product_blocks", counted):
            rp.rep_from_matrices(g, cx.wh_displacements(15))
        assert sum(products) <= (len(rp._word_tree(g)[0]) + 1) * g.order

    def test_second_rep_reuses_the_word_tree(self, monkeypatch):
        g = grp.build_group("product(cyclic:5,cyclic:5)")
        rp.rep_from_matrices(g, wh_matrices(5))
        words = g._words
        assert words is not None
        mats = self.rotated_wh5(np.random.default_rng(3))[1]
        monkeypatch.setattr(grp, "_closure", lambda group, members: pytest.fail("S rebuilt"))
        rep = rp.rep_from_matrices(g, mats)
        assert g._words is words
        assert not rep.is_unitary_rep()

    @pytest.mark.parametrize("kind", [
        "cyclic:1", "cyclic:12", "product(cyclic:5,cyclic:5)", "product(quaternion,cyclic:3)",
        "product(quaternion,dihedral8)", "product(cyclic:2,cyclic:4,cyclic:6)",
    ])
    def test_word_tree_reaches_every_element_once(self, kind):
        g = grp.build_group(kind)
        gens, layers = rp._word_tree(g)
        assert tuple(gens.tolist()) == g.generators
        seen = [g.identity, *gens.tolist()]
        previous = set(gens.tolist())
        for elements, s, parents in layers:
            assert np.array_equal(g.mul[s, parents], elements)
            assert set(s.tolist()) <= set(gens.tolist()) and set(parents.tolist()) <= previous
            seen += elements.tolist()
            previous = set(elements.tolist())
        assert sorted(seen) == list(range(g.order))

    def test_cocycle_defect_across_blocks(self):
        # 35 elements: 1225 entries a row, 3 rows to a block, the last block of 2;
        # a table near 1 whose largest triple defect sits in that last block
        g = grp.build_group("product(cyclic:5,cyclic:7)")
        n, mul = g.order, g.mul
        rows = rp._block_rows(n, n * n)
        assert rows == 3
        omega = np.exp(1e-3j * np.random.default_rng(33).random((n, n)))
        defects = {
            (a, b, c): abs(omega[a, mul[b, c]] * omega[b, c] - omega[a, b] * omega[mul[a, b], c])
            for a, b, c in itertools.product(range(n), repeat=3)
        }
        worst = max(defects, key=defects.get)
        assert worst[0] >= n - n % rows
        with pytest.raises(NotAProjectiveRepError) as err:
            rp._check_cocycle(g, omega)
        assert str(err.value) == f"cocycle identity fails (defect {defects[worst]:.3e})"

    def test_wh15_skips_the_cocycle_check(self, monkeypatch):
        # the product residuals bound every triple's defect: 225^3 triples unvisited
        monkeypatch.setattr(rp, "_check_cocycle", lambda *args: pytest.fail("cocycle checked"))
        g = grp.build_group("product(cyclic:15,cyclic:15)")
        rep = rp.rep_from_matrices(g, cx.wh_displacements(15))
        assert not rep.is_unitary_rep()

    def test_residuals_near_tolerance_reach_the_cocycle_check(self):
        # I, Z, X, XZ on C^2 (x) C^8, each non-identity matrix turned by
        # exp(i eps H) for a random Hermitian H: exactly unitary, with product
        # residuals at 0.8 ATOL d, where the bound exceeds PHASE_ATOL
        g = grp.build_group("product(cyclic:2,cyclic:2)")
        x, z = np.array([[0, 1], [1, 0]]), np.diag([1.0, -1.0])
        base = np.array([np.kron(m, np.eye(8)) for m in (np.eye(2), z, x, x @ z)], dtype=complex)
        rng = np.random.default_rng(3)
        herms = []
        for _ in range(3):
            a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
            herms.append(np.linalg.eigh(a + a.conj().T))

        def turned(eps):
            mats = base.copy()
            for i, (vals, vecs) in enumerate(herms, start=1):
                mats[i] = base[i] @ (vecs * np.exp(1j * eps * vals)) @ vecs.conj().T
            return mats

        def residual(mats):
            return max(r.max() for *_, r in rp._product_blocks(g, mats))

        eps = 1e-12 * 0.8 * linalg.ATOL * 16 / residual(turned(1e-12))
        mats = turned(eps)
        f = np.abs(mats.conj().transpose(0, 2, 1) @ mats - np.eye(16)).max()
        assert not rp._cocycle_certified(16, residual(mats), f)
        calls = []
        with spied("_check_cocycle", calls):
            rep = rp.rep_from_matrices(g, mats)
        assert len(calls) == 1
        assert not rep.is_unitary_rep()

    @SETTINGS
    @given(d=st.integers(2, 4), exponent=st.floats(-12.0, -8.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_skipped_cocycle_check_would_pass(self, d, exponent, seed):
        # twisted shift/clock with entrywise noise: whenever the bound skips
        # the check, the check itself passes on the returned multiplier
        rng = np.random.default_rng(seed)
        g = grp.build_group(f"product(cyclic:{d},cyclic:{d})")
        phases = np.exp(2j * np.pi * rng.random(d * d))
        phases[g.identity] = 1.0
        mats = phases[:, None, None] * np.array(wh_matrices(d))
        noise = rng.standard_normal(mats.shape) + 1j * rng.standard_normal(mats.shape)
        mats += 10 ** exponent * noise
        mats[g.identity] = np.eye(d)
        calls = []
        try:
            with spied("_check_cocycle", calls):
                rep = rp.rep_from_matrices(g, mats)
        except (DomainError, NotAProjectiveRepError):
            return
        if not calls:
            rp._check_cocycle(g, rep.multiplier)

    def test_matrices_are_one_array(self, quat3_rep, wh_rep_d3):
        for rep in (quat3_rep, wh_rep_d3, rp.regular_rep(quat3_rep.group)):
            n = rep.group.order
            assert isinstance(rep.matrices, np.ndarray)
            assert rep.matrices.shape == (n, rep.dim, rep.dim)
            assert rep.matrices.dtype == complex


class TestConjugationRep:
    def test_matches_kron_loop_bit_for_bit(self, quat3_rep, wh_rep_d3):
        for rep in (quat3_rep, wh_rep_d3):
            reference = np.array([np.kron(u, u.conj()) for u in rep.matrices])
            assert np.array_equal(rp.conjugation_rep(rep).matrices, reference)

    def test_trivial_rep_stays_trivial(self):
        g = grp.cyclic_group(3)
        rep = rp.rep_from_matrices(g, [np.eye(1, dtype=complex)] * 3)
        tilde = rp.conjugation_rep(rep)
        assert tilde.dim == 1
        assert all(np.allclose(m, 1) for m in tilde.matrices)

    def test_quat3_fixes_identity_and_t(self, quat3_rep):
        tilde = rp.conjugation_rep(quat3_rep)
        for m in tilde.matrices:
            assert np.allclose(m @ np.eye(3).reshape(-1), np.eye(3).reshape(-1))
            assert np.allclose(m @ T_OPERATOR.reshape(-1), T_OPERATOR.reshape(-1))

    def test_character_is_squared_modulus(self, wh_rep_d2):
        tilde = rp.conjugation_rep(wh_rep_d2)
        chi_u = wh_rep_d2.character()
        chi_tilde = tilde.character()
        assert np.allclose(chi_tilde, np.abs(chi_u) ** 2)

    def test_projective_input_gives_ordinary_output(self):
        for d in (2, 3, 4, 5):
            rep = make_wh_rep(d)
            assert not rep.is_unitary_rep()
            assert rp.conjugation_rep(rep).is_unitary_rep()

    @pytest.mark.parametrize("name", [
        "wh1", "wh2", "wh3", "wh4", "wh5", "wh6", "wh7", "quat3", "dihedral3", "q8c3", "q8c5",
    ])
    def test_certified_output_is_the_validated_kron_stack(self, name, quat3_rep, dihedral3_rep):
        rep = conjugation_case(name, quat3_rep, dihedral3_rep)
        stack = np.array([np.kron(u, u.conj()) for u in rep.matrices])
        out = rp.conjugation_rep(rep)
        assert np.array_equal(out.matrices, stack)
        n = rep.group.order
        assert out.dim == stack.shape[1]
        assert np.array_equal(out.multiplier, np.ones((n, n)))
        direct = rp.rep_from_matrices(rep.group, stack)
        assert np.array_equal(out.character(), direct.character())
        assert out.is_unitary_rep() and direct.is_unitary_rep()

    @pytest.mark.parametrize("fault", [
        "non-unitary", "phase-broken", "non-unimodular", "non-finite", "missing",
    ])
    def test_uncertified_input_gets_the_direct_error(self, fault):
        # ProjectiveRep validates nothing, so a broken U reaches conjugation_rep
        rep = make_wh_rep(4)
        mats = rep.matrices.copy()
        last = rep.group.order - 1
        if fault == "non-unitary":
            # similar to the rep, so only the unitarity bound fails
            s = np.diag([1 + 1e-6, 1, 1, 1])
            mats = s @ mats @ np.linalg.inv(s)
        elif fault == "phase-broken":
            mats[last] = mats[last] @ np.diag([np.exp(1e-4j), 1, 1, 1])
        elif fault == "non-unimodular":
            mats[last] = mats[1]   # orthogonal to the true product: overlap 0
        elif fault == "non-finite":
            mats[5, 0, 0] = np.nan
        else:
            mats = mats[:-1]
        broken = rp.ProjectiveRep(rep.group, rep.dim, mats, rep.multiplier)
        stack = np.array([np.kron(u, u.conj()) for u in mats])
        with pytest.raises(Exception) as direct:
            rp.rep_from_matrices(rep.group, stack)
        with pytest.raises(Exception) as err:
            rp.conjugation_rep(broken)
        assert type(err.value) is type(direct.value)
        assert str(err.value) == str(direct.value)

    def test_unimodularity_bound_is_not_implied(self):
        # Z2 by I and (1 + 4e-8) diag(+-1) at d = 16: U's products pass and K is
        # unitary within ATOL d^2, but |omega_K(e, a)| = (1 + 4e-8)^4
        g = grp.cyclic_group(2)
        signs = np.where(np.arange(16) % 2, -1.0, 1.0)
        mats = np.array([np.eye(16), np.diag((1 + 4e-8) * signs)], dtype=complex)
        rep = rp.ProjectiveRep(g, 16, mats, np.ones((2, 2), dtype=complex))
        assert not rp._conjugation_certified(16, *scan_bounds(g, mats))
        stack = np.array([np.kron(u, u.conj()) for u in mats])
        with pytest.raises(NotAProjectiveRepError) as direct:
            rp.rep_from_matrices(g, stack)
        with pytest.raises(NotAProjectiveRepError) as err:
            rp.conjugation_rep(rep)
        assert str(err.value) == str(direct.value) == "multiplier at (0, 1) is not unimodular"

    def test_small_defects_are_certified_not_revalidated(self, monkeypatch):
        # U off by ATOL / 4 in its product rule and unitarity: rep_from_matrices
        # accepts it (e about 5e-10), and the kept bounds certify K
        ref = make_wh_rep(3)
        mats = ref.matrices * (1 + linalg.ATOL / 4)
        mats[ref.group.identity] = np.eye(3)
        rep = rp.rep_from_matrices(ref.group, mats)
        assert 0 < rep._bounds[0] <= linalg.ATOL
        monkeypatch.setattr(rp, "rep_from_matrices", lambda *args: pytest.fail("revalidated"))
        out = rp.conjugation_rep(rep)
        assert np.array_equal(out.multiplier, np.ones((9, 9)))

    @SETTINGS
    @given(d=st.integers(2, 4), exponent=st.floats(-11.0, -8.0),
           seed=st.integers(0, 2 ** 32 - 1), identity=st.booleans())
    def test_certificate_implies_the_direct_check(self, d, exponent, seed, identity):
        # noise around the tolerances: whatever is certified passes rep_from_matrices
        ref = make_wh_rep(d)
        rng = np.random.default_rng(seed)
        shape = ref.matrices.shape
        mats = ref.matrices + 10 ** exponent * (rng.standard_normal(shape)
                                                + 1j * rng.standard_normal(shape))
        if not identity:
            mats[ref.group.identity] = np.eye(d)
        try:
            rep = rp.rep_from_matrices(ref.group, mats)
        except (DomainError, NotAProjectiveRepError):
            return
        calls = []
        try:
            with spied("rep_from_matrices", calls):
                rp.conjugation_rep(rep)
        except (DomainError, NotAProjectiveRepError):
            return   # not certified, and K refused as rep_from_matrices refuses it
        if not calls:
            stack = np.array([np.kron(u, u.conj()) for u in mats])
            assert rp.rep_from_matrices(rep.group, stack).is_unitary_rep()

    def test_validated_rep_runs_no_full_scan(self):
        # shift/clock at d = 7 spans 49 blocks of one row: its conjugation is
        # certified from the bounds rep_from_matrices kept, with no product pass
        rep = make_wh_rep(7)
        blocks, routes = [], []
        with spied("_product_blocks", blocks), spied("_generator_route", routes):
            out = rp.conjugation_rep(rep)
        assert out.is_unitary_rep()
        assert blocks == [] and routes == []

    def test_kept_bounds_are_the_scan_maxima_on_one_block(self, quat3_rep):
        assert quat3_rep._bounds == scan_bounds(quat3_rep.group, quat3_rep.matrices)

    def test_kept_bounds_are_the_generator_route_bounds(self):
        rep = make_wh_rep(7)
        f = rep._bounds[2]
        assert f == scan_bounds(rep.group, rep.matrices)[2]
        _, e, delta = rp._generator_route(rep.group, rep.matrices, f)
        assert rep._bounds == (e, delta, f)

    def test_validated_matrices_are_read_only(self):
        g = grp.build_group("product(cyclic:3,cyclic:3)")
        mats = np.array(wh_matrices(3))
        rep = rp.rep_from_matrices(g, mats)
        assert not rep.matrices.flags.writeable
        with pytest.raises(ValueError):
            rep.matrices[0, 0, 0] = 2.0
        assert mats.flags.writeable
        mats[0, 0, 0] = 2.0   # the caller's array is not the validated copy
        assert rep.matrices[0, 0, 0] == 1.0

    def test_rep_without_bounds_is_validated_directly(self):
        ref = make_wh_rep(4)
        rep = rp.ProjectiveRep(ref.group, 4, np.array(wh_matrices(4)), ref.multiplier)
        assert rep._bounds is None
        calls = []
        with spied("rep_from_matrices", calls):
            out = rp.conjugation_rep(rep)
        assert [c.dim for c in calls] == [16]
        assert out.matrices.tobytes() == rp.conjugation_rep(ref).matrices.tobytes()

    def test_wh7_makes_no_49_dimensional_validation(self, monkeypatch):
        rep = make_wh_rep(7)
        dims = []
        validate = rp.rep_from_matrices

        def counted(group, matrices):
            dims.append(np.shape(matrices)[-1])
            return validate(group, matrices)

        monkeypatch.setattr(rp, "rep_from_matrices", counted)
        assert rp.conjugation_rep(rep).dim == 49
        assert 49 not in dims


class TestIrreps:
    def test_quaternion_dual(self, quaternion):
        dual = rp.irreps_of(quaternion)
        assert sorted(irr.dim for irr in dual) == [1, 1, 1, 1, 2]
        assert sum(irr.dim ** 2 for irr in dual) == 8

    def test_cyclic_dual_is_fourier(self):
        g = grp.cyclic_group(5)
        dual = rp.irreps_of(g)
        assert len(dual) == 5
        for j, irr in enumerate(dual):
            for k in range(5):
                assert irr.character[k] == pytest.approx(np.exp(2j * np.pi * j * k / 5))

    def test_table_chi2_distinguishes_q_from_d(self, quaternion, dihedral):
        chi2_q = next(i for i in rp.irreps_of(quaternion) if i.name == "chi2")
        chi2_d = next(i for i in rp.irreps_of(dihedral) if i.name == "chi2")
        # Q: value 1 exactly on {+-1, +-i sigma2}, the elements named +-j
        assert chi2_q.character[quaternion.index_of("j")] == pytest.approx(1)
        assert chi2_q.character[quaternion.index_of("-j")] == pytest.approx(1)
        assert chi2_q.character[quaternion.index_of("i")] == pytest.approx(-1)
        # D: value 1 exactly on {+-1, +-sigma2}
        assert chi2_d.character[dihedral.index_of("s2")] == pytest.approx(1)
        assert chi2_d.character[dihedral.index_of("is1")] == pytest.approx(-1)

    def test_product_dual(self):
        g = grp.build_group("product(cyclic:2,cyclic:4)")
        dual = rp.irreps_of(g)
        assert len(dual) == 8
        assert all(irr.dim == 1 for irr in dual)

    @pytest.mark.parametrize("kind", [
        "product(cyclic:3,cyclic:4,cyclic:5)", "product(quaternion,dihedral8)",
    ])
    def test_product_dual_matches_kron_loop_bit_for_bit(self, kind):
        group = grp.build_group(kind)
        # the kind tag nests: product(product(cyclic:3,cyclic:4),cyclic:5)
        factors = [grp.build_group(p)
                   for p in grp._split_product_args(group.kind[len("product("):-1])]
        duals = [rp.irreps_of(f) for f in factors]
        dual = rp.irreps_of(group)
        assert len(dual) == int(np.prod([len(d) for d in duals]))
        for irr, chosen in zip(dual, itertools.product(*duals)):
            assert irr.name == "x".join(c.name for c in chosen)
            reference = []
            for idx in range(group.order):
                subs = []
                for f in reversed(factors):
                    idx, sub = divmod(idx, f.order)
                    subs.append(sub)
                m = None
                for c, sub in zip(reversed(chosen), subs):
                    m = c.matrices[sub] if m is None else np.kron(c.matrices[sub], m)
                reference.append(m)
            assert np.array_equal(irr.matrices, np.array(reference))
            assert np.array_equal(irr.character, np.array([np.trace(m) for m in reference]))

    def test_product_irreps_are_not_validated_again(self):
        # Z7 x Z7: the 14 factor irreps validate, their 49 products do not
        validated = []
        g = grp.build_group("product(cyclic:7,cyclic:7)")
        with spied("rep_from_matrices", validated):
            dual = rp.irreps_of(g)
        assert len(dual) == 49 and len(validated) == 14
        assert all(len(r.group.names) == 7 for r in validated)

    def test_schur_orthogonality(self, quaternion, dihedral):
        for g in (quaternion, dihedral):
            dual = rp.irreps_of(g)
            for a in dual:
                for b in dual:
                    ip = np.sum(np.conj(a.character) * b.character) / g.order
                    expected = 1.0 if a is b else 0.0
                    assert abs(ip - expected) < 1e-9

    def test_dual_is_built_once_and_returned_as_a_fresh_list(self, monkeypatch):
        g = grp.build_group("product(cyclic:3,quaternion)")
        first = rp.irreps_of(g)
        monkeypatch.setattr(rp, "_build_dual", lambda group: pytest.fail("dual rebuilt"))
        second = rp.irreps_of(g)
        assert first is not second
        assert [i.name for i in second] == [i.name for i in first]
        for a, b in zip(first, second):
            assert np.array_equal(a.matrices, b.matrices)
            assert np.array_equal(a.character, b.character)
        second.pop()
        assert len(rp.irreps_of(g)) == len(first)

    def test_groups_of_one_kind_keep_their_own_duals(self):
        groups = [grp.build_group("product(cyclic:2,cyclic:3)") for _ in range(2)]
        for g in groups:
            assert all(irr.group is g for irr in rp.irreps_of(g))

    def test_untagged_group_unsupported(self, quaternion):
        bare = grp.FiniteGroup(quaternion.names, quaternion.mul)
        with pytest.raises(NotImplementedError):
            rp.irreps_of(bare)


class TestIrrepRejection:
    def test_non_unitary_matrix(self):
        g = grp.cyclic_group(2)
        with pytest.raises(DomainError):
            rp.Irrep(g, "bad", 1, [np.eye(1), 2 * np.eye(1)])

    def test_broken_product_rule(self):
        # diag(1, i) squares to diag(1, -1), which is no multiple of U(0) = id
        g = grp.cyclic_group(2)
        with pytest.raises(DomainError):
            rp.Irrep(g, "bad", 2, [np.eye(2), np.diag([1, 1j])])

    def test_nontrivial_multiplier(self, wh_rep_d2):
        # the Pauli family is irreducible with character norm 1, but only
        # projectively: U(g)U(h) = omega(g, h) U(gh) with omega != 1
        with pytest.raises(DomainError):
            rp.Irrep(wh_rep_d2.group, "pauli", 2, wh_rep_d2.matrices)

    def test_reducible_character(self):
        g = grp.cyclic_group(2)
        with pytest.raises(DomainError, match="not irreducible"):
            rp.Irrep(g, "sum", 2, [np.eye(2), np.diag([1.0, -1.0])])

    def test_wrong_shape(self):
        g = grp.cyclic_group(2)
        with pytest.raises(ShapeError):
            rp.Irrep(g, "bad", 2, [np.eye(1), -np.eye(1)])


def conjugation_case(name, quat3_rep, dihedral3_rep):
    """Shift/clock at d, quat3, dihedral3, or pi(q) chi(b) on quaternion x Z_k, phase-twisted."""
    if name.startswith("wh"):
        return make_wh_rep(int(name[2:]))
    if name == "quat3":
        return quat3_rep
    if name == "dihedral3":
        return dihedral3_rep
    k = int(name[3:])
    rng = np.random.default_rng(k)
    g = grp.build_group(f"product(quaternion,cyclic:{k})")
    chi = np.exp(2j * np.pi * np.arange(k) / k)
    phases = np.exp(2j * np.pi * rng.random(8 * k))
    phases[g.identity] = 1.0
    mats = np.array([q * c for q in grp.QUATERNION_MATRICES for c in chi])
    return rp.rep_from_matrices(g, phases[:, None, None] * mats)


def tperp_columns():
    span_t = linalg.span_orthonormalize([T_OPERATOR])
    comp = linalg.orthogonal_complement(span_t)
    return np.stack([b.reshape(-1) for b in comp.basis], axis=1)


def broken_projection_rep(fault):
    """A rep on a cyclic group whose projections fail one check.

    V(g) = sum_j chi_j(g) P_j has exactly the projections P_j, which need
    not be those of a unitary rep.
    """
    if fault == "idempotent":
        # trace 1 each, but P_0^2 != P_0
        projs = [np.diag([0.5, 0.5]), np.diag([0.5, 0.5])]
    elif fault == "rank":
        # P_0 is an exact idempotent of trace 2 whose 2^31 entry puts
        # its second singular value below the rank cut
        c = 2.0 ** 31
        p0 = np.array([[1, c, 0], [0, 0, 0], [0, 0, 1]])
        projs = [p0, np.eye(3) - p0]
    else:
        # exact idempotents of rank 1 resolving the identity to 1e-10,
        # the oblique P_0 amplifying that defect to 1e-8 in P_0 P_2
        c = 100.0
        p0 = np.array([[1, c, 0], [0, 0, 0], [0, 0, 0]])
        p1 = np.array([[0, -c, 0], [0, 1, 0], [0, 0, 0]])
        p2 = np.array([[0, 0, 0], [0, 0, 1e-10], [0, 0, 1]])
        projs = [p0, p1, p2]
    n = len(projs)
    g = grp.cyclic_group(n)
    # [g, j] -> chi_j(g), exactly +-1 on Z2 so that 2^31 entries stay exact
    chars = np.real_if_close(np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n))
    mats = np.einsum("gj,jab->gab", chars, np.array(projs, dtype=complex))
    return rp.ProjectiveRep(g, mats.shape[1], mats, np.ones((n, n), dtype=complex))


def assert_matches_the_character_formula(rep):
    """Multiplicities equal, projections within ATOL, and orthonormal to 1e-12."""
    decomp, ref = rp.isotypic_decompose(rep), reference_isotypic_decompose(rep)
    assert [c.multiplicity for c in decomp.components] == [c.multiplicity for c in ref.components]
    projs = np.array([c.projection for c in decomp.components])
    assert np.abs(projs - [c.projection for c in ref.components]).max() <= linalg.ATOL
    assert np.abs(projs - projs.conj().transpose(0, 2, 1)).max() <= 1e-12
    assert np.abs(projs @ projs - projs).max() <= 1e-12
    assert np.abs(projs.sum(axis=0) - np.eye(rep.dim)).max() <= 1e-12
    for a in range(len(projs) - 1):
        assert np.abs(projs[a] @ projs[a + 1:]).max() <= 1e-12


class TestIsotypicDecomposition:
    def test_pauli_conjugation_of_pi(self, quaternion):
        pi = rp.rep_from_matrices(quaternion, list(grp.QUATERNION_MATRICES))
        tilde = rp.conjugation_rep(pi)
        decomp = rp.isotypic_decompose(tilde)
        mults = {c.irrep.name: c.multiplicity for c in decomp.components}
        assert mults == {"chi0": 1, "chi1": 1, "chi2": 1, "chi3": 1, "pi": 0}
        assert rp.is_cyclic_rep(decomp)

    def test_quat3_on_t_perp(self, quat3_rep):
        tilde = rp.conjugation_rep(quat3_rep)
        restricted = rp.restrict(tilde, tperp_columns())
        decomp = rp.isotypic_decompose(restricted)
        mults = {c.irrep.name: c.multiplicity for c in decomp.components}
        assert mults == {"chi0": 1, "chi1": 1, "chi2": 1, "chi3": 1, "pi": 2}
        assert rp.is_cyclic_rep(decomp)

    def test_quat3_on_full_operator_space(self, quat3_rep):
        tilde = rp.conjugation_rep(quat3_rep)
        decomp = rp.isotypic_decompose(tilde)
        assert decomp.multiplicity_of("chi0") == 2
        assert decomp.multiplicity_of("pi") == 2
        assert not rp.is_cyclic_rep(decomp)

    def test_regular_rep_multiplicity_equals_dimension(self, quaternion):
        decomp = rp.isotypic_decompose(rp.regular_rep(quaternion))
        for c in decomp.components:
            assert c.multiplicity == c.irrep.dim
        assert rp.is_cyclic_rep(decomp)

    def test_projections_resolve_identity(self, quat3_rep):
        tilde = rp.conjugation_rep(quat3_rep)
        decomp = rp.isotypic_decompose(tilde)
        total = sum(c.projection for c in decomp.components)
        assert np.abs(total - np.eye(9)).max() < 1e-9
        for c in decomp.components:
            assert np.abs(c.projection @ c.projection - c.projection).max() < 1e-9

    def test_doubled_character_is_not_cyclic(self):
        g = grp.cyclic_group(2)
        mats = [np.eye(2, dtype=complex), -np.eye(2, dtype=complex)]
        rep = rp.rep_from_matrices(g, mats)
        decomp = rp.isotypic_decompose(rep)
        assert not rp.is_cyclic_rep(decomp)

    def test_projective_input_rejected(self, wh_rep_d2):
        with pytest.raises(DomainError):
            rp.isotypic_decompose(wh_rep_d2)

    def test_projections_match_the_character_formula_per_irrep(self, quat3_rep, wh_rep_d3):
        # the twirl's Q_a Q_a* against the character formula, one irrep at a time
        for rep in (rp.conjugation_rep(quat3_rep), rp.conjugation_rep(wh_rep_d3)):
            ref = reference_isotypic_decompose(rep)
            for c, r in zip(rp.isotypic_decompose(rep).components, ref.components):
                assert np.abs(c.projection - r.projection).max() <= linalg.ATOL
                assert c.projection.shape == (rep.dim, rep.dim)

    @pytest.mark.parametrize("fault, broken", [
        ("idempotent", "projection for chi0 is not idempotent"),
        ("rank", "projection rank mismatch for chi0"),
        ("orthogonal", "projections are not mutually orthogonal"),
    ])
    def test_broken_projections_named(self, fault, broken):
        # ``broken`` names the fault of the fixture's character projections; V(1) = 0
        # leaves every eigenspace invariant, and the oblique projections leave none
        message = {"idempotent": "eigenspace of dimension 1 matches no irrep",
                   "rank": "twirled eigenspaces are not invariant",
                   "orthogonal": "twirled eigenspaces are not invariant"}[fault]
        with pytest.raises(InconsistencyError) as err:
            rp.isotypic_decompose(broken_projection_rep(fault))
        assert str(err.value).startswith(message)

    def test_oblique_projections_reach_the_pairwise_check(self):
        with pytest.raises(InconsistencyError) as err:
            rp.isotypic_decompose(broken_projection_rep("orthogonal"))
        assert str(err.value).startswith("twirled eigenspaces are not invariant")

    def test_noisy_projections_are_resolved_by_the_staircase_twirl(self):
        # orthogonal rank-1 projections under Hermitian noise of 2e-10: the
        # first twirl's frame misses invariance by up to 4e-8 on these draws,
        # the staircase's by about 6e-10
        rng = np.random.default_rng(4)
        projs = []
        for j in range(3):
            h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            projs.append(np.diag(np.eye(3)[j]) + 2e-10 * (h + h.conj().T) / 2)
        g = grp.cyclic_group(3)
        chars = np.exp(2j * np.pi * np.outer(np.arange(3), np.arange(3)) / 3)
        mats = np.einsum("gj,jab->gab", chars, np.array(projs))
        rep = rp.ProjectiveRep(g, 3, mats, np.ones((3, 3), dtype=complex))
        decomp = rp.isotypic_decompose(rep)
        assert [c.multiplicity for c in decomp.components] == [1, 1, 1]

    def test_wh7_projections_are_pairwise_orthogonal(self):
        projs = [c.projection for c in
                 rp.isotypic_decompose(rp.conjugation_rep(make_wh_rep(7))).components]
        assert max(np.abs(projs[a] @ projs[b]).max()
                   for a, b in itertools.permutations(range(len(projs)), 2)) <= 1e-12

    @SETTINGS
    @given(name=st.sampled_from(["wh2", "wh3", "wh4", "wh5", "quat3", "dihedral3"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_haar_frame_projections_are_pairwise_orthogonal(
            self, quat3_rep, dihedral3_rep, name, seed):
        rep = conjugation_case(name, quat3_rep, dihedral3_rep)
        v = haar_unitary(rep.dim, np.random.default_rng(seed))
        moved = rp.rep_from_matrices(rep.group, v @ rep.matrices @ v.conj().T)
        projs = [c.projection for c in rp.isotypic_decompose(rp.conjugation_rep(moved)).components]
        worst = max(np.abs(projs[a] @ projs[b]).max()
                    for a, b in itertools.permutations(range(len(projs)), 2))
        assert worst <= linalg.ATOL

    @SETTINGS
    @given(name=st.sampled_from(["wh2", "wh3", "wh4", "wh5", "quat3", "dihedral3", "q8c3"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_twirl_matches_the_character_formula(self, quat3_rep, dihedral3_rep, name, seed):
        rep = conjugation_case(name, quat3_rep, dihedral3_rep)
        v = haar_unitary(rep.dim, np.random.default_rng(seed))
        assert_matches_the_character_formula(rp.conjugation_rep(
            rp.rep_from_matrices(rep.group, v @ rep.matrices @ v.conj().T)))

    @pytest.mark.parametrize("kind", ["quaternion", "product(cyclic:7,cyclic:7)"])
    def test_regular_rep_matches_the_character_formula(self, kind):
        assert_matches_the_character_formula(rp.regular_rep(grp.build_group(kind)))

    def test_wh7_needs_no_svd(self, monkeypatch):
        conj = rp.conjugation_rep(make_wh_rep(7))

        def refuse(*args, **kwargs):
            raise AssertionError("the twirl needs no rank SVD")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        assert [c.multiplicity for c in rp.isotypic_decompose(conj).components] == [1] * 49

    def test_wh7_peak_stays_below_the_character_route(self):
        # the character formula with its idempotence, rank SVD and orthogonality
        # certificate peaked at 4.75 MB here
        conj = rp.conjugation_rep(make_wh_rep(7))
        rp.irreps_of(conj.group)
        tracemalloc.start()
        try:
            rp.isotypic_decompose(conj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.75e6

    def test_degenerate_draw_is_replaced(self, quat3_rep, monkeypatch):
        # X = I twirls to I: one cluster of dimension 9, which no irrep fits
        conj = rp.conjugation_rep(quat3_rep)
        expected = [c.multiplicity for c in rp.isotypic_decompose(conj).components]
        draw, drawn = rp._draw, []

        def identity_first(t, d):
            drawn.append(t)
            return np.eye(d, dtype=complex) if t == 0 else draw(t, d)

        monkeypatch.setattr(rp, "_draw", identity_first)
        assert [c.multiplicity for c in rp.isotypic_decompose(conj).components] == expected
        assert drawn == [0, 1]

    def test_every_draw_degenerate_raises(self, quat3_rep, monkeypatch):
        drawn = []

        def identity(t, d):
            drawn.append(t)
            return np.eye(d, dtype=complex)

        monkeypatch.setattr(rp, "_draw", identity)
        with pytest.raises(InconsistencyError, match="eigenspace of dimension 9 matches no irrep"):
            rp.isotypic_decompose(rp.conjugation_rep(quat3_rep))
        assert drawn == [0, 1, 2]

    def test_untagged_group_draws_nothing(self, quaternion, monkeypatch):
        def refuse(*args):
            raise AssertionError("a group with no dual needs no draw")

        monkeypatch.setattr(rp, "_draw", refuse)
        bare = grp.FiniteGroup(quaternion.names, quaternion.mul)
        with pytest.raises(NotImplementedError):
            rp.isotypic_decompose(rp.regular_rep(bare))

    def test_unknown_irrep_has_no_multiplicity(self, quaternion):
        decomp = rp.isotypic_decompose(rp.regular_rep(quaternion))
        with pytest.raises(KeyError):
            decomp.multiplicity_of("chi9")

    @SETTINGS
    @given(name=st.sampled_from(["wh2", "wh3", "quat3", "dihedral3", "q8c3"]),
           seed=st.integers(0, 2 ** 32 - 1), diagonal=st.booleans())
    def test_unitary_frame_change_keeps_multiplicities_and_cyclicity(
            self, quat3_rep, dihedral3_rep, name, seed, diagonal):
        # U -> V U V* moves the conjugation representation by kron(V, conj V)
        rep = conjugation_case(name, quat3_rep, dihedral3_rep)
        rng = np.random.default_rng(seed)
        d = rep.dim
        v = haar_unitary(d, rng)
        moved = rp.rep_from_matrices(rep.group, v @ rep.matrices @ v.conj().T)
        conj, moved_conj = rp.conjugation_rep(rep), rp.conjugation_rep(moved)
        mults = {c.irrep.name: c.multiplicity for c in rp.isotypic_decompose(conj).components}
        moved_mults = {c.irrep.name: c.multiplicity
                       for c in rp.isotypic_decompose(moved_conj).components}
        assert moved_mults == mults
        # a diagonal operator misses the shift's components, so both answers occur
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        op = np.diag(x) if diagonal else x[:, None] * x.conj() + haar_unitary(d, rng)
        vec = op.reshape(-1)
        assert (rp.is_cyclic_vector(moved_conj, np.kron(v, v.conj()) @ vec)
                == rp.is_cyclic_vector(conj, vec))


class TestCyclicVectors:
    def test_trivial_rep_nonzero_vector(self):
        g = grp.cyclic_group(1)
        rep = rp.rep_from_matrices(g, [np.eye(1, dtype=complex)])
        assert rp.is_cyclic_vector(rep, np.array([1.0 + 0j]))

    def test_quat3_seed_is_cyclic_in_t_perp(self, quat3_rep):
        tilde = rp.conjugation_rep(quat3_rep)
        cols = tperp_columns()
        restricted = rp.restrict(tilde, cols)
        seed = pic3_seed((1 / 32, 1 / 32, 1 / 32), np.array([1 / 32, 0], dtype=complex))
        v = cols.conj().T @ seed.reshape(-1)
        assert rp.is_cyclic_vector(restricted, v)

    def test_quat3_seed_with_alpha1_zero_is_not_cyclic(self, quat3_rep):
        tilde = rp.conjugation_rep(quat3_rep)
        cols = tperp_columns()
        restricted = rp.restrict(tilde, cols)
        seed = pic3_seed((0.0, 1 / 32, 1 / 32), np.array([1 / 32, 0], dtype=complex))
        v = cols.conj().T @ seed.reshape(-1)
        assert not rp.is_cyclic_vector(restricted, v)

    def test_span_and_schmidt_agree_on_random_vectors(self, quaternion, quat3_rep):
        reps = [
            rp.regular_rep(quaternion),
            rp.conjugation_rep(quat3_rep),
        ]
        rng = np.random.default_rng(42)
        for rep in reps:
            decomp = rp.isotypic_decompose(rep)
            for _ in range(30):
                v = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
                a = rp.cyclic_by_span(rep, v)
                b = rp.cyclic_by_schmidt(decomp, v)
                assert a == b

    def test_dimension_mismatch_rejected(self, quat3_rep):
        with pytest.raises(ShapeError):
            rp.is_cyclic_vector(quat3_rep, np.ones(5))

    @pytest.mark.parametrize("vector", [[np.nan, 1], [np.inf, 1], [1e308, 1e308]],
                             ids=["nan", "inf", "overflowing-orbit"])
    def test_non_finite_vector_or_orbit_rejected(self, quaternion, vector):
        rep = rp.rep_from_matrices(quaternion, grp.QUATERNION_MATRICES)
        with pytest.raises(DomainError):
            rp.is_cyclic_vector(rep, np.array(vector, dtype=complex))

    def test_projective_rep_decided_by_the_orbit_span(self):
        rep = cx.wh_rep(3)
        assert not rep.is_unitary_rep()
        assert rp.is_cyclic_vector(rep, np.eye(3)[0])
        assert not rp.is_cyclic_vector(rep, np.zeros(3))

    def test_cyclicity_needs_no_decomposition(self, quat3_rep, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the span test needs no Schmidt route")

        monkeypatch.setattr(rp, "isotypic_decompose", refuse)
        monkeypatch.setattr(rp, "schmidt_ranks", refuse)
        conj = rp.conjugation_rep(quat3_rep)
        assert not rp.is_cyclic_vector(conj, np.eye(3).reshape(-1))
        assert rp.is_cyclic_vector(rp.restrict(conj, tperp_columns()), np.arange(1.0, 9.0))

    def test_schmidt_ranks_match_the_basis_route(self, quaternion, dihedral, quat3_rep):
        tilde = rp.conjugation_rep(quat3_rep)
        reps = [
            rp.conjugation_rep(rp.rep_from_matrices(quaternion, grp.QUATERNION_MATRICES)),
            rp.conjugation_rep(rp.rep_from_matrices(dihedral, grp.DIHEDRAL8_MATRICES)),
            rp.restrict(tilde, tperp_columns()),
            tilde,
            rp.regular_rep(quaternion),
            rp.conjugation_rep(make_wh_rep(5)),
        ]
        rng = np.random.default_rng(26)
        verdicts, deficient = set(), 0
        for rep in reps:
            decomp = rp.isotypic_decompose(rep)
            projs = [c.projection for c in decomp.components if c.multiplicity]
            for trial in range(24):
                v = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
                if trial % 3 == 1:   # restricted to a few components
                    keep = rng.choice(len(projs), size=rng.integers(1, len(projs) + 1),
                                      replace=False)
                    v = sum(projs[k] for k in keep) @ v
                elif trial % 3 == 2:
                    v = schmidt_deficient(decomp, v)
                ranks = rp.schmidt_ranks(decomp, v)
                assert ranks == reference_schmidt_ranks(decomp, v)
                deficient += any(0 < r < min(c.irrep.dim, c.multiplicity)
                                 for r, c in zip(ranks, decomp.components))
                verdicts.add(rp.cyclic_by_schmidt(decomp, v))
        assert verdicts == {True, False}
        assert deficient


class TestJointEigenspaces:
    def test_diagonal_family_splits_completely(self):
        mats = [np.diag([1, 1j, -1]).astype(complex), np.diag([1j, 1, -1]).astype(complex)]
        spaces = rp.joint_eigenspaces(mats)
        assert len(spaces) == 3
        assert all(s.shape[1] == 1 for s in spaces)

    def test_irreducible_family_has_none(self, wh_rep_d2):
        assert rp.joint_eigenspaces(wh_rep_d2.matrices) == []

    def test_quat3_has_single_line(self, quat3_rep):
        spaces = rp.joint_eigenspaces(quat3_rep.matrices)
        assert len(spaces) == 1
        line = spaces[0]
        assert line.shape[1] == 1
        assert abs(abs(line[0, 0]) - 1) < 1e-9

    @pytest.mark.parametrize("family", [
        "diagonal", "wh2", "quat3", "cyclic6-twisted", "z2xz2-twisted", "wh3-twisted",
        "wh4-twisted", "q8c3-twisted",
    ])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_the_pairwise_loop(self, family, seed, quat3_rep, wh_rep_d2):
        # in order and in projectors; a "-twisted" family is tried both on the
        # phase-twisted rep and on the twisted regular generators built from it
        families = {
            "diagonal": [np.diag([1, 1j, -1]).astype(complex), np.diag([1j, 1, -1]).astype(complex)],
            "wh2": wh_rep_d2.matrices,
            "quat3": quat3_rep.matrices,
        }
        if family in families:
            tried = [families[family]]
        else:
            rep = twisted_case(family.rsplit("-", 1)[0], seed)
            tried = [rep.matrices, twisted_regular_generators(rep)]
        for mats in tried:
            spaces = rp.joint_eigenspaces(mats)
            reference = reference_joint_eigenspaces(mats)
            assert [s.shape for s in spaces] == [s.shape for s in reference]
            for s, r in zip(spaces, reference):
                assert np.abs(s @ s.conj().T - r @ r.conj().T).max() < 1e-12


def twisted_case(name, seed):
    """A phase-twisted rep: shift on Z6, diag(+-1) on Z2 x Z2, shift/clock or pi(q) chi(b)."""
    if name == "cyclic6":
        g = grp.cyclic_group(6)
        base = np.array([np.roll(np.eye(6), k, axis=0) for k in range(6)])
    elif name == "z2xz2":
        g = grp.build_group("product(cyclic:2,cyclic:2)")
        base = np.array([np.diag([1.0, (-1) ** a, (-1) ** b, (-1) ** (a + b)])
                         for a in range(2) for b in range(2)])
    elif name.startswith("wh"):
        d = int(name[2:])
        g = grp.build_group(f"product(cyclic:{d},cyclic:{d})")
        base = np.array(wh_matrices(d))
    else:
        g = grp.build_group("product(quaternion,cyclic:3)")
        chi = np.exp(2j * np.pi * np.arange(3) / 3)
        base = np.array([q * c for q in grp.QUATERNION_MATRICES for c in chi])
    phases = np.exp(2j * np.pi * np.random.default_rng(seed).random(g.order))
    phases[g.identity] = 1.0
    return rp.rep_from_matrices(g, phases[:, None, None] * base)


def twisted_regular_generators(rep):
    """L(a) e_h = conj(omega(a, h)) e_{ah} on the greedy generators, as the exactness test builds them."""
    group, n = rep.group, rep.group.order
    gens = list(group.generators)
    out = np.zeros((len(gens), n, n), dtype=complex)
    out[np.arange(len(gens))[:, None], group.mul[gens], np.arange(n)] = np.conj(rep.multiplier[gens])
    return out


@pytest.mark.parametrize("family", ["cyclic6", "z2xz2", "wh3", "wh4", "q8c3"])
@pytest.mark.parametrize("seed", [0, 1])
def test_cycle_eigenspaces_match_the_eig_route(family, seed):
    # the closed form on each generator's cycles against eig and QR on the
    # dense twisted regular generator: in phase order and in projectors
    rep = twisted_case(family, seed)
    for a, mat in zip(rep.group.generators, twisted_regular_generators(rep)):
        spaces = rp._cycle_eigenspaces(rep.group, rep.multiplier, a)
        reference = reference_eigenspaces(mat)
        assert [s.shape for s in spaces] == [r.shape for r in reference]
        for s, r in zip(spaces, reference):
            assert np.abs(s.conj().T @ s - np.eye(s.shape[1])).max() < 1e-12
            assert np.abs(s @ s.conj().T - r @ r.conj().T).max() < 1e-12


class TestExactMultiplier:
    def test_generating_set_matches_the_subgroup_closure(self):
        # the same generators in the same order as closing each prefix through
        # the reference search, also on a relabelled table whose identity is not 0
        kinds = ("cyclic:1", "cyclic:12", "product(cyclic:3,cyclic:3)",
                 "product(cyclic:2,cyclic:4,cyclic:6)", "product(quaternion,cyclic:3)",
                 "product(quaternion,dihedral8)", "product(cyclic:15,cyclic:15)")
        catalog = list(order8_groups().values()) + [grp.build_group(k) for k in kinds]
        catalog.append(relabelled_cyclic6())
        for g in catalog:
            assert g.generators == tuple(reference_generating_set(g))

    def test_one_block_table_builds_no_word_tree(self):
        # a one-block table is validated by the full scan, and the exactness
        # test reads the group's generators, so neither builds the word tree
        rep = twisted_case("q8c3", 0)
        assert rp._block_rows(24, 24 * 4) == 24
        rp.is_exact_multiplier(rep)
        assert rep.group._words is None

    def test_ordinary_rep_trivially_exact(self, quat3_rep):
        ok, f = rp.is_exact_multiplier(quat3_rep)
        assert ok
        assert np.allclose(f, 1)

    def test_twisted_cyclic_rep_is_exact(self):
        rng = np.random.default_rng(9)
        d = 5
        g = grp.cyclic_group(d)
        shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
        phases = np.exp(2j * np.pi * rng.random(d))
        phases[0] = 1.0
        mats = [phases[k] * np.linalg.matrix_power(shift, k) for k in range(d)]
        rep = rp.rep_from_matrices(g, mats)
        assert not rep.is_unitary_rep()
        ok, f = rp.is_exact_multiplier(rep)
        assert ok
        expected = rp._coboundary(g, f)
        assert np.abs(expected - rep.multiplier).max() < 1e-8

    def test_wh_reps_are_not_exact(self):
        for d in (2, 3, 4, 5):
            ok, f = rp.is_exact_multiplier(make_wh_rep(d))
            assert not ok
            assert f is None

    def test_twisted_irreducible_rep_detected_by_congruence_path(self, quaternion):
        # no invariant line of U, multiplier exact by construction; the
        # twisted regular representation still has a common eigenline
        rng = np.random.default_rng(17)
        phases = np.exp(2j * np.pi * rng.random(8))
        phases[quaternion.identity] = 1.0
        mats = [p * m for p, m in zip(phases, grp.QUATERNION_MATRICES)]
        rep = rp.rep_from_matrices(quaternion, mats)
        assert rp.joint_eigenspaces(rep.matrices) == []
        ok, f = rp.is_exact_multiplier(rep)
        assert ok
        assert np.abs(rp._coboundary(quaternion, f) - rep.multiplier).max() < 1e-8

    def test_returned_phase_untwists_the_rep(self):
        d = 6
        g = grp.cyclic_group(d)
        shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
        mats = [
            np.exp(2j * np.pi * k * k / (d * d)) * np.linalg.matrix_power(shift, k)
            for k in range(d)
        ]
        rep = rp.rep_from_matrices(g, mats)
        assert not rep.is_unitary_rep()
        ok, f = rp.is_exact_multiplier(rep)
        assert ok
        fixed = [f[k] * rep.matrices[k] for k in range(d)]
        assert rp.rep_from_matrices(g, fixed).is_unitary_rep()

    def test_invariant_line_path_returns_verified_phase(self):
        # non-cyclic abelian group, twisted diagonal rep: every basis line
        # is invariant, and the returned phase must satisfy the coboundary
        # equation on the whole multiplier table
        g = grp.build_group("product(cyclic:2,cyclic:2)")
        rng = np.random.default_rng(21)
        phases = np.exp(2j * np.pi * rng.random(4))
        phases[0] = 1.0
        base = [
            np.diag([1.0, 1.0]).astype(complex),
            np.diag([1.0, -1.0]).astype(complex),
            np.diag([-1.0, 1.0]).astype(complex),
            np.diag([-1.0, -1.0]).astype(complex),
        ]
        rep = rp.rep_from_matrices(g, [p * m for p, m in zip(phases, base)])
        assert len(rp.joint_eigenspaces(rep.matrices)) > 0
        ok, f = rp.is_exact_multiplier(rep)
        assert ok
        assert np.abs(rp._coboundary(g, f) - rep.multiplier).max() < 1e-8

    def test_wh15_is_not_exact(self):
        ok, f = rp.is_exact_multiplier(make_wh_rep(15))
        assert not ok
        assert f is None

    def test_exactness_needs_no_eig(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the cycle eigenspaces need no eig")

        rep = cx.wh_rep(15)
        monkeypatch.setattr(np.linalg, "eig", refuse)
        assert rp.is_exact_multiplier(rep) == (False, None)
        ok, f = rp.is_exact_multiplier(twisted_case("q8c3", 0))
        assert ok and f.shape == (24,)

    def test_non_abelian_pauli_twist_is_not_exact(self):
        # quaternion x Z2 x Z2 acting by q (x) X^a Z^b: the Z2 x Z2 factor
        # carries the non-exact Pauli multiplier
        g = grp.build_group("product(quaternion,cyclic:2,cyclic:2)")
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        mats = [
            np.kron(q, np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b))
            for q in grp.QUATERNION_MATRICES for a in range(2) for b in range(2)
        ]
        rep = rp.rep_from_matrices(g, mats)
        assert not rep.is_unitary_rep()
        ok, f = rp.is_exact_multiplier(rep)
        assert not ok
        assert f is None

    def test_twisted_order64_irrep_is_exact(self):
        g = grp.build_group("product(quaternion,dihedral8)")
        irr = next(i for i in rp.irreps_of(g) if i.dim == 4)
        rng = np.random.default_rng(64)
        phases = np.exp(2j * np.pi * rng.random(g.order))
        phases[g.identity] = 1.0
        rep = rp.rep_from_matrices(g, phases[:, None, None] * irr.matrices)
        assert not rep.is_unitary_rep()
        ok, f = rp.is_exact_multiplier(rep)
        assert ok
        assert np.abs(rp._coboundary(g, f) - rep.multiplier).max() < 1e-8

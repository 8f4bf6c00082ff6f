import numpy as np
import pytest

from covpovm import group as grp
from covpovm.errors import DomainError

from support import (
    order8_groups, reference_is_associative, reference_subgroup, relabelled_cyclic6,
    relabelled_table,
)

# a Latin square with two-sided identity that fails associativity
L5 = np.array([
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
])


def loop_times_cyclic(k):
    """L5 x Z_k, with (a, b) at index a * k + b as in ``product_group``."""
    a, b = np.arange(5 * k) // k, np.arange(5 * k) % k
    return L5[np.ix_(a, a)] * k + grp.cyclic_group(k).mul[np.ix_(b, b)]


def light_tables():
    """[name] -> (table, associative): the order-8 groups, relabelled groups and L5 x Z_k."""
    tables = {name: (g.mul, True) for name, g in order8_groups().items()}
    for kind in ("cyclic:6", "product(cyclic:5,cyclic:5)", "product(quaternion,cyclic:3)"):
        for seed in (1, 2):
            tables[f"{kind}-relabelled{seed}"] = (relabelled_table(grp.build_group(kind).mul, seed), True)
    for k in (1, 2, 13):
        tables[f"l5xz{k}"] = (loop_times_cyclic(k), False)
    return tables


LIGHT_TABLES = light_tables()


@pytest.fixture(scope="module")
def quaternion():
    return grp.quaternion_group()


@pytest.fixture(scope="module")
def dihedral():
    return grp.dihedral8_group()


class TestBuilders:
    def test_cyclic_is_abelian_with_dividing_orders(self):
        g = grp.cyclic_group(8)
        assert g.is_abelian()
        for a in range(8):
            assert 8 % g.element_order(a) == 0

    def test_cyclic_zero_rejected(self):
        with pytest.raises(DomainError):
            grp.cyclic_group(0)

    def test_quaternion_structure(self, quaternion):
        assert quaternion.order == 8
        assert not quaternion.is_abelian()
        # exactly one element of order 2, namely -1: (-1)^2 = 1
        assert quaternion.order_census() == {1: 1, 2: 1, 4: 6}
        m1 = quaternion.index_of("-1")
        assert quaternion.op(m1, m1) == quaternion.identity

    def test_quaternion_relations(self, quaternion):
        i = quaternion.index_of("i")
        j = quaternion.index_of("j")
        k = quaternion.index_of("k")
        m1 = quaternion.index_of("-1")
        assert quaternion.op(i, i) == m1
        assert quaternion.op(j, j) == m1
        assert quaternion.op(k, k) == m1
        assert quaternion.op(i, j) == k
        assert quaternion.op(j, i) == quaternion.index_of("-k")

    def test_dihedral_census_differs_from_quaternion(self, dihedral):
        assert dihedral.order == 8
        assert not dihedral.is_abelian()
        assert dihedral.order_census() == {1: 1, 2: 5, 4: 2}

    def test_product_group_abelian_order8(self):
        g = grp.product_group(grp.cyclic_group(2), grp.cyclic_group(4))
        assert g.order == 8
        assert g.is_abelian()

    def test_build_group_grammar(self):
        assert grp.build_group("cyclic:5").order == 5
        assert grp.build_group("quaternion").kind == "quaternion"
        g = grp.build_group("product(cyclic:2,product(cyclic:2,cyclic:2))")
        assert g.order == 8 and g.is_abelian()
        with pytest.raises(DomainError):
            grp.build_group("sporadic")

    def test_inverse_is_involution_and_identity_unique(self):
        for name, g in order8_groups().items():
            assert np.all(g.inverse[g.inverse] == np.arange(g.order)), name
            assert g.op(g.identity, 3) == 3


class TestSubgroups:
    def test_generated_by_minus_one(self, quaternion):
        h = grp.subgroup_generated(quaternion, [quaternion.index_of("-1")])
        assert h.names() == ("1", "-1")

    def test_generated_by_nothing_is_trivial(self, quaternion):
        h = grp.subgroup_generated(quaternion, [])
        assert h.members == (quaternion.identity,)

    def test_generated_by_i_is_order_four(self, quaternion):
        h = grp.subgroup_generated(quaternion, [quaternion.index_of("i")])
        assert set(h.names()) == {"1", "-1", "i", "-i"}

    def test_lagrange_over_all_order8_groups(self):
        for name, g in order8_groups().items():
            for h in grp.all_subgroups(g):
                assert g.order % h.order == 0, name

    def test_closure_matches_the_reference_search(self):
        cases = [(g, list(h.members)) for g in order8_groups().values()
                 for h in grp.all_subgroups(g)]
        relabelled = relabelled_cyclic6()
        cases += [(relabelled, [x]) for x in range(6)] + [(relabelled, [])]
        z5z5 = grp.build_group("product(cyclic:5,cyclic:5)")
        pairs = np.random.default_rng(11).integers(25, size=(20, 2))
        cases += [(z5z5, pair.tolist()) for pair in pairs]
        for g, gens in cases:
            assert grp.subgroup_generated(g, gens).members == reference_subgroup(g, gens), gens
        with pytest.raises(DomainError, match="generator index 25 out of range"):
            grp.subgroup_generated(z5z5, [1, 25])

    def test_invalid_subset_rejected(self, quaternion):
        with pytest.raises(DomainError):
            grp.Subgroup(quaternion, (0, quaternion.index_of("i")))

    @pytest.mark.parametrize("members, message", [
        pytest.param((0, 8), "element index 8 out of range",
                     id="members0-element index 8 out of range"),
        pytest.param((2, 3), "missing the identity",              # {i, -i}
                     id="members1-missing the identity"),
        pytest.param((0, 2, 3, 4, 5), "not closed under the product",   # {1, i, -i, j, -j}
                     id="members3-not closed under the product"),
    ])
    def test_each_subgroup_check_names_its_failure(self, quaternion, members, message):
        with pytest.raises(DomainError, match=message):
            grp.Subgroup(quaternion, members)

    def test_non_integer_member_rejected(self):
        with pytest.raises(DomainError, match="member 2.7 is not an element index"):
            grp.Subgroup(grp.cyclic_group(4), (0, 2.7))

    @pytest.mark.parametrize("generator", [1.9, True])
    def test_non_integer_generator_rejected(self, generator):
        with pytest.raises(DomainError, match=f"generator {generator!r} is not an element index"):
            grp.subgroup_generated(grp.cyclic_group(4), [generator])

    def test_numpy_integer_indices_accepted(self):
        g = grp.cyclic_group(4)
        even = np.flatnonzero(np.arange(4) % 2 == 0)
        assert grp.Subgroup(g, tuple(even)).members == (0, 2)
        assert grp.subgroup_generated(g, even[1:]).members == (0, 2)


class TestCosets:
    def test_quaternion_mod_center(self, quaternion):
        h = grp.subgroup_generated(quaternion, [quaternion.index_of("-1")])
        cs = grp.coset_space(quaternion, h)
        assert cs.size == 4
        sizes = {len(c) for c in cs.cosets}
        assert sizes == {2}

    def test_trivial_subgroup_gives_left_translation(self, quaternion):
        h = grp.subgroup_generated(quaternion, [])
        cs = grp.coset_space(quaternion, h)
        assert cs.size == 8
        assert np.all(cs.action == quaternion.mul)

    def test_cyclic8_mod_subgroup(self):
        g = grp.cyclic_group(8)
        h = grp.Subgroup(g, (0, 4))
        cs = grp.coset_space(g, h)
        assert cs.size == 4
        assert sorted(map(tuple, cs.cosets)) == [(0, 4), (1, 5), (2, 6), (3, 7)]

    def test_foreign_subgroup_rejected(self, quaternion, dihedral):
        h = grp.subgroup_generated(dihedral, [1])
        with pytest.raises(DomainError):
            grp.coset_space(quaternion, h)


class TestCyclicTransitiveSearch:
    def test_cyclic_parent_acts_transitively(self):
        g = grp.cyclic_group(8)
        h = grp.Subgroup(g, (0, 4))
        sub = grp.find_cyclic_transitive_subgroup(g, h)
        assert sub is not None
        assert sub.order == 8

    def test_quaternion_center_has_no_cyclic_transitive_subgroup(self, quaternion):
        h = grp.subgroup_generated(quaternion, [quaternion.index_of("-1")])
        assert grp.find_cyclic_transitive_subgroup(quaternion, h) is None

    def test_prime_index_always_found_over_order8_groups(self):
        # index 2 is the only prime index among proper subgroups of order 8
        for name, g in order8_groups().items():
            for h in grp.all_subgroups(g):
                if h.order == g.order:
                    continue
                if (g.order // h.order) in (2,):
                    sub = grp.find_cyclic_transitive_subgroup(g, h)
                    assert sub is not None, (name, h.members)

    def test_whole_group_as_subgroup_rejected(self, quaternion):
        h = grp.Subgroup(quaternion, tuple(range(8)))
        with pytest.raises(DomainError):
            grp.find_cyclic_transitive_subgroup(quaternion, h)


class TestValidationAndJson:
    def test_non_latin_square_rejected(self):
        with pytest.raises(DomainError):
            grp.FiniteGroup(("e", "a"), np.array([[0, 0], [1, 1]]))

    def test_non_associative_table_rejected(self):
        with pytest.raises(DomainError):
            grp.FiniteGroup(tuple("eabcd"), L5)

    @pytest.mark.parametrize("name", sorted(LIGHT_TABLES))
    def test_accepts_exactly_the_associative_tables(self, name):
        # Light's test on the generators against the (n, n, n) reference, at
        # every order: L5 x Z_13 has order 65
        table, associative = LIGHT_TABLES[name]
        assert reference_is_associative(table) == associative
        names = tuple(str(k) for k in range(len(table)))
        if associative:
            assert np.array_equal(grp.FiniteGroup(names, table).mul, table)
        else:
            with pytest.raises(DomainError, match="table is not associative"):
                grp.FiniteGroup(names, table)

    @pytest.mark.parametrize("table, entry", [
        pytest.param([[0, 1], [1, 0.7]], "0.7", id="fraction"),
        pytest.param([[0.0, 1.0], [1.0, 0.0]], "0.0", id="integral-float"),
        pytest.param(np.array([[0, 1], [1, 0]], dtype=float), "0.0", id="float-array"),
        pytest.param([[True, False], [False, True]], "True", id="bool"),
    ])
    def test_non_integer_table_rejected(self, table, entry):
        with pytest.raises(DomainError, match=f"table entry {entry} is not an integer"):
            grp.FiniteGroup(("e", "a"), table)

    def test_duplicate_names_rejected(self):
        with pytest.raises(DomainError, match="are not distinct"):
            grp.FiniteGroup(("e", "e"), [[0, 1], [1, 0]])

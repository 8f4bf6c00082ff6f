"""Finite-group-covariant quantum observables.

Construct covariant POVMs (shift/clock families, the minimal
pure-state-identifying observables in dimension 3) and analyze their
informational completeness with representation-theoretic tools: multiplier
extraction, isotypic decomposition, cyclicity tests, and a numerical
falsifier for pure-state distinguishability.

The public names below load their submodule on first access (PEP 562), so
``import covpovm`` and the command line compile only the modules they use.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "constructions": (
        "MinOutcomeRecord", "Pic3Params", "WhParams", "build_dihedral3_pic",
        "build_pic3", "build_quat3_pic", "build_rank1_pic3",
        "build_weyl_heisenberg", "default_wh_seed", "minimal_pic_outcomes",
        "minimality_witness_dim3", "prime_index_obstruction",
    ),
    "group": (
        "CosetSpace", "FiniteGroup", "Subgroup", "build_group", "coset_space",
        "cyclic_group", "dihedral8_group", "find_cyclic_transitive_subgroup",
        "product_group", "quaternion_group", "subgroup_generated",
    ),
    "linalg": (
        "OperatorSubspace", "hermitian_eig", "hs_inner", "numerical_rank",
        "orthogonal_complement", "span_orthonormalize",
    ),
    "povm": (
        "FalsifierSettings", "PicVerdict", "Povm",
        "abelian_obstruction_certificate", "born_probabilities",
        "build_covariant", "check_covariance", "check_pic", "falsify", "is_ic",
        "operator_span", "povm_from_json", "povm_to_json", "validate",
    ),
    "rep": (
        "Irrep", "IsotypicDecomposition", "ProjectiveRep", "conjugation_rep",
        "irreps_of", "is_cyclic_rep", "is_cyclic_vector", "is_exact_multiplier",
        "isotypic_decompose", "regular_rep", "rep_from_matrices",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "errors"}

__all__ = sorted(_ORIGIN)


def __getattr__(name):
    if name in _ORIGIN:
        return getattr(import_module(f".{_ORIGIN[name]}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_ORIGIN) | _SUBMODULES)

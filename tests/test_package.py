"""The package namespace: public names resolve on first use, submodules load lazily."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import covpovm

SRC = Path(__file__).resolve().parents[1] / "src"

# every name ``covpovm`` has exported, by the submodule that defines it
PUBLIC = {
    "constructions": [
        "MinOutcomeRecord", "Pic3Params", "WhParams", "build_dihedral3_pic", "build_pic3",
        "build_quat3_pic", "build_rank1_pic3", "build_weyl_heisenberg", "default_wh_seed",
        "minimal_pic_outcomes", "minimality_witness_dim3", "prime_index_obstruction",
    ],
    "group": [
        "CosetSpace", "FiniteGroup", "Subgroup", "build_group", "coset_space", "cyclic_group",
        "dihedral8_group", "find_cyclic_transitive_subgroup", "product_group",
        "quaternion_group", "subgroup_generated",
    ],
    "linalg": [
        "OperatorSubspace", "hermitian_eig", "hs_inner", "numerical_rank",
        "orthogonal_complement", "span_orthonormalize",
    ],
    "povm": [
        "FalsifierSettings", "PicVerdict", "Povm", "abelian_obstruction_certificate",
        "born_probabilities", "build_covariant", "check_covariance", "check_pic", "falsify",
        "is_ic", "operator_span", "povm_from_json", "povm_to_json", "validate",
    ],
    "rep": [
        "Irrep", "IsotypicDecomposition", "ProjectiveRep", "conjugation_rep", "irreps_of",
        "is_cyclic_rep", "is_cyclic_vector", "is_exact_multiplier", "isotypic_decompose",
        "regular_rep", "rep_from_matrices",
    ],
}


def loaded_after(statement: str, package: str = "covpovm") -> set:
    """Modules of ``package`` in sys.modules after running the statement in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (f"import sys; {statement}; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    return set(eval(out))


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in PUBLIC.items() for name in names
])
def test_public_name_is_the_submodule_object(module, name):
    assert getattr(covpovm, name) is getattr(importlib.import_module(f"covpovm.{module}"), name)


def test_public_names_are_listed():
    every = {name for names in PUBLIC.values() for name in names}
    assert set(covpovm.__all__) == every
    assert every <= set(dir(covpovm))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        covpovm.no_such_name  # noqa: B018


def test_cli_import_leaves_rep_group_constructions_unloaded():
    loaded = loaded_after("import covpovm.cli")
    assert "covpovm.povm" in loaded
    assert not loaded & {"covpovm.rep", "covpovm.group", "covpovm.constructions"}


def test_submodule_attribute_loads_on_access():
    assert loaded_after("import covpovm") == {"covpovm"}
    assert "covpovm.rep" in loaded_after("import covpovm; covpovm.rep")


def test_check_pic_leaves_scipy_unloaded():
    # cond1 (d = 3, complement 2) runs both the cover and the falsifier's search
    cond1 = ("from covpovm import constructions as cx, povm as pv; "
             "pv.check_pic(cx.build_pic3(cx.Pic3Params(alpha=(1 / 32, 0.0, 1 / 32)), "
             "enforce_conditions=False)[0])")
    assert loaded_after(cond1, "scipy") == set()
    # the probe sees scipy where it is loaded
    assert "scipy" in loaded_after("import scipy", "scipy")

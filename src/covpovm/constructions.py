"""Named observable constructions and the embedded minimal-outcome tables.

Two families are built here: the shift/clock covariant observables with d^2
outcomes on Z_d x Z_d, and the 8-outcome dimension-3 observables covariant
under the quaternion or dihedral group that identify every pure state with
the fewest outcomes possible.  The minimal outcome counts themselves are
embedded data, not re-derived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import group as grp
from . import povm as pv
from . import rep as rp
from .errors import (
    ConstructionError,
    DomainError,
    InconsistencyError,
    PreconditionError,
    UnknownDimensionError,
)
from .linalg import ATOL, ZERO_ATOL, hs_norm, numerical_rank, psd_defects

# Known minimal outcome counts for observables identifying all pure states,
# dimensions 2-15.  Entries with two values are unresolved ranges.
MIN_OUTCOMES_BY_DIM = {
    2: 4, 3: 8, 4: 10, 5: 16, 6: 18, 7: 23, 8: (24, 25), 9: 32, 10: 34,
    11: 39, 12: (40, 41), 13: 47, 14: (48, 49), 15: 54,
}

# Dimensions up to 1000 whose minimal count is known to be prime; covariant
# observables with that many outcomes can never identify all pure states.
PRIME_MIN_OUTCOMES_BY_DIM = {
    7: 23, 13: 47, 19: 71, 21: 79, 49: 191, 67: 263, 69: 271, 97: 383,
    259: 1031, 261: 1039, 273: 1087, 289: 1151, 321: 1279, 517: 2063,
    529: 2111,
}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def general_bound(d: int) -> tuple:
    """Bracket [4d - 4 - floor(2 log2 d), 4d - 4] for the minimal count."""
    if d < 2:
        raise DomainError("dimension must be at least 2")
    high = 4 * d - 4
    return high - math.floor(2 * math.log2(d)), high


def _check_tables():
    for d, val in MIN_OUTCOMES_BY_DIM.items():
        low, high = general_bound(d)
        vals = val if isinstance(val, tuple) else (val,)
        for v in vals:
            if not low <= v <= high:
                raise InconsistencyError(f"table entry {d}: {v} outside [{low}, {high}]")
    for d, val in PRIME_MIN_OUTCOMES_BY_DIM.items():
        if not is_prime(val):
            raise InconsistencyError(f"prime table entry {d}: {val} is not prime")
        low, high = general_bound(d)
        if not low <= val <= high:
            raise InconsistencyError(f"prime table entry {d}: {val} outside [{low}, {high}]")
    for d in set(MIN_OUTCOMES_BY_DIM) & set(PRIME_MIN_OUTCOMES_BY_DIM):
        if MIN_OUTCOMES_BY_DIM[d] != PRIME_MIN_OUTCOMES_BY_DIM[d]:
            raise InconsistencyError(f"tables disagree at dimension {d}")


_check_tables()


@dataclass
class MinOutcomeRecord:
    dim: int
    min_outcomes: object  # int, or (int, int) when unresolved
    is_prime: bool


def minimal_pic_outcomes(d: int) -> MinOutcomeRecord:
    """Tabulated minimal outcome count; unknown dimensions carry the bound.

    Dimensions below 2 are not tabulated and have no bound: DomainError.
    """
    if d in MIN_OUTCOMES_BY_DIM:
        val = MIN_OUTCOMES_BY_DIM[d]
    elif d in PRIME_MIN_OUTCOMES_BY_DIM:
        val = PRIME_MIN_OUTCOMES_BY_DIM[d]
    else:
        raise UnknownDimensionError(d, general_bound(d))
    prime = isinstance(val, int) and is_prime(val)
    return MinOutcomeRecord(d, val, prime)


# --- shift/clock observables ---------------------------------------------------

def wh_displacements(d: int) -> np.ndarray:
    """W(j, k) = U^j V^k with the shift U and clock V, at index j * d + k."""
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))

    def powers(m):
        return np.array([np.linalg.matrix_power(m, k) for k in range(d)])

    return (powers(shift)[:, None] @ powers(clock)[None]).reshape(d * d, d, d)


def wh_rep(d: int) -> rp.ProjectiveRep:
    g = grp.build_group(f"product(cyclic:{d},cyclic:{d})")
    return rp.rep_from_matrices(g, wh_displacements(d))


@dataclass
class WhParams:
    """Dimension and seed for the d^2-outcome shift/clock observable.

    With ``require_ic`` set, the seed must overlap every displacement:
    tr(seed W(j,k)) != 0 is exactly what makes the observable span the full
    operator space.
    """

    dim: int
    seed: np.ndarray
    require_ic: bool = False


def build_weyl_heisenberg(params: WhParams):
    """Covariant observable M(j,k) = W(j,k) seed W(j,k)*; returns (Povm, rep)."""
    d = params.dim
    if d < 2:
        raise DomainError("dimension must be at least 2")
    seed = np.asarray(params.seed, dtype=complex)
    if seed.shape != (d, d):
        raise DomainError(f"seed shape {seed.shape} in dimension {d}")
    if abs(np.trace(seed) - 1.0 / d) > ATOL:
        raise DomainError(f"seed trace must be 1/{d}, got {np.trace(seed):.6g}")
    rep = wh_rep(d)
    if params.require_ic:
        vanishing = np.flatnonzero(_overlaps(seed, rep.matrices) <= ATOL)
        if vanishing.size:
            label = rep.group.names[vanishing[0]]
            raise DomainError(f"seed is orthogonal to displacement {label}")
    cosets = grp.coset_space(rep.group, grp.subgroup_generated(rep.group, []))
    povm = pv.build_covariant(rep, cosets, seed)
    return povm, rep


def _overlaps(seed: np.ndarray, displacements: np.ndarray) -> np.ndarray:
    """[g] -> |tr(seed W(g))|."""
    return np.abs(np.trace(seed @ displacements, axis1=1, axis2=2))


def default_wh_seed(d: int, rng_seed: int) -> np.ndarray:
    """Rank-1 seed of trace 1/d overlapping every displacement.

    Drawn from a seeded generator and redrawn until the non-vanishing
    condition holds, so the result is reproducible for a fixed rng_seed.
    """
    if d < 2:
        raise DomainError("dimension must be at least 2")
    if rng_seed < 0:
        raise DomainError(f"the rng seed must be non-negative, got {rng_seed}")
    displacements = wh_displacements(d)
    rng = np.random.default_rng(rng_seed)
    for _ in range(1000):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        seed = np.outer(v, v.conj()) / d
        if np.all(_overlaps(seed, displacements) > ATOL):
            return seed
    raise ConstructionError("no admissible seed found in 1000 draws")


# --- dimension-3 minimal constructions -------------------------------------------

@dataclass
class Pic3Params:
    """Parameters of the 8-outcome dimension-3 construction.

    The seed is (1/8) id + sum_i alpha_i diag(0, sigma_i) + arrow(v).  The
    effect span is decided by the line of the complement generator
    T = diag(2, -1, -1), so T carries no parameter.
    """

    alpha: tuple = (1 / 32, 1 / 32, 1 / 32)
    v: tuple = None  # None: the group's default v, from _PIC3_GROUPS
    group_choice: str = "quaternion"

    def __post_init__(self):  # in a list, an unhashable choice is just unknown: it raises on use
        if self.v is None and self.group_choice in list(_PIC3_GROUPS):
            self.v = _PIC3_GROUPS[self.group_choice][2]


# group choice -> (group builder, 2x2 blocks pi(g), default v)
_PIC3_GROUPS = {
    "quaternion": (grp.quaternion_group, grp.QUATERNION_MATRICES, (1 / 32 + 0j, 0j)),
    # second component deliberately nonzero: the dihedral intertwiner is
    # sigma_3, and v with Re(v1 conj(v2)) = 0 fails to generate the
    # off-diagonal blocks even when |v1| != |v2|
    "dihedral": (grp.dihedral8_group, grp.DIHEDRAL8_MATRICES, (1 / 32 + 0j, 1 / 64 + 0j)),
}


def _pic3_group(group_choice: str) -> tuple:
    try:
        return _PIC3_GROUPS[group_choice]
    except (KeyError, TypeError):  # TypeError: an unhashable choice
        raise DomainError(f"unknown group choice {group_choice!r}") from None


def default_pic3_params(group_choice: str) -> Pic3Params:
    _pic3_group(group_choice)  # an unknown choice raises here
    return Pic3Params(group_choice=group_choice)


def pic3_seed_matrix(params: Pic3Params) -> np.ndarray:
    a1, a2, a3 = params.alpha
    v1, v2 = complex(params.v[0]), complex(params.v[1])
    m = np.eye(3, dtype=complex) / 8
    m[1:, 1:] += np.array([[a3, a1 - 1j * a2], [a1 + 1j * a2, -a3]])
    m[0, 1] = np.conj(v1)
    m[0, 2] = np.conj(v2)
    m[1, 0] = v1
    m[2, 0] = v2
    return m


def t_operator() -> np.ndarray:
    """The complement generator T = diag(2, -1, -1) of the dimension-3 observables."""
    return np.diag([2.0, -1.0, -1.0]).astype(complex)


def pic3_rep(group_choice: str) -> rp.ProjectiveRep:
    """Block representation g -> diag(1, pi(g)) on C^3."""
    build_group, blocks, _ = _pic3_group(group_choice)
    g = build_group()
    u = np.zeros((len(blocks), 3, 3), dtype=complex)
    u[:, 0, 0] = 1.0
    u[:, 1:, 1:] = blocks
    return rp.rep_from_matrices(g, u)


def check_pic3_conditions(params: Pic3Params):
    """Raise PreconditionError naming the first violated condition."""
    a1, a2, a3 = params.alpha
    if a1 == 0 or a2 == 0 or a3 == 0:
        raise PreconditionError(
            "cond:1", f"every alpha component must be nonzero, got {params.alpha}"
        )
    _pic3_group(params.group_choice)  # an unknown choice raises here
    v1, v2 = complex(params.v[0]), complex(params.v[1])
    if params.group_choice == "quaternion":
        if v1 == 0 and v2 == 0:
            raise PreconditionError("cond:2", "v must be nonzero")
    else:
        if abs(v1) == abs(v2):
            raise PreconditionError(
                "dihedral-moduli", f"|v1| must differ from |v2|, got {params.v}"
            )
        if (v1 * np.conj(v2)).real == 0:
            raise PreconditionError(
                "dihedral-overlap",
                "Re(v1 conj(v2)) must be nonzero for the sigma_3 intertwiner "
                f"to produce an independent partner, got {params.v}",
            )
    seed = pic3_seed_matrix(params)
    _, low = psd_defects(seed)
    if low < -ATOL:
        raise PreconditionError(
            "cond:3", f"seed has negative eigenvalue {low:.3e}"
        )


def build_pic3(params: Pic3Params, enforce_conditions: bool = True):
    """8-outcome covariant observable on the chosen order-8 group.

    Returns (Povm, rep, T) with T = diag(2, -1, -1).  With the conditions
    enforced the effect span is the full orthogonal complement of T, so the
    observable identifies every pure state; ``enforce_conditions=False`` skips
    the parameter checks to let deliberately broken parameters through for
    inspection.
    """
    if enforce_conditions:
        check_pic3_conditions(params)
    rep = pic3_rep(params.group_choice)
    seed = pic3_seed_matrix(params)
    cosets = grp.coset_space(rep.group, grp.subgroup_generated(rep.group, []))
    povm = pv.build_covariant(rep, cosets, seed)
    return povm, rep, t_operator()


def build_quat3_pic():
    return build_pic3(default_pic3_params("quaternion"))


def build_dihedral3_pic():
    return build_pic3(default_pic3_params("dihedral"))


def rank1_seed(gamma: float, alpha) -> np.ndarray:
    """Rank-1 seed with M^2 = (3/8) M on the constraint sphere.

    Requires alpha1^2 + alpha2^2 + alpha3^2 = 1/64 with every component
    nonzero; gamma is a free phase.
    """
    a1, a2, a3 = alpha
    if abs(a1 ** 2 + a2 ** 2 + a3 ** 2 - 1 / 64) > ZERO_ATOL:
        raise DomainError("alpha must satisfy a1^2 + a2^2 + a3^2 = 1/64")
    if a1 == 0 or a2 == 0 or a3 == 0:
        raise DomainError("every alpha component must be nonzero")
    root = np.sqrt(1 + 8 * a3)
    eg = np.exp(1j * gamma)
    m = np.array([
        [1 / 8, np.conj(eg) * root / 8, np.conj(eg) * (a1 - 1j * a2) / root],
        [eg * root / 8, 1 / 8 + a3, a1 - 1j * a2],
        [eg * (a1 + 1j * a2) / root, a1 + 1j * a2, 1 / 8 - a3],
    ])
    defect = hs_norm(m @ m - (3 / 8) * m)
    if defect > ATOL or numerical_rank(m) != 1:
        raise InconsistencyError(f"rank-1 seed failed its identity (defect {defect:.2e})")
    return m


def build_rank1_pic3(gamma: float, alpha) -> pv.Povm:
    """8-outcome observable from a rank-1 seed under the quaternion action."""
    seed = rank1_seed(gamma, alpha)
    rep = pic3_rep("quaternion")
    cosets = grp.coset_space(rep.group, grp.subgroup_generated(rep.group, []))
    return pv.build_covariant(rep, cosets, seed)


# --- obstructions and minimality reports ------------------------------------------

@dataclass
class ObstructionReport:
    group_order: int
    subgroup_names: tuple
    index: int
    generator_name: str
    subgroup_member_names: tuple
    conclusion: str


def prime_index_obstruction(g: grp.FiniteGroup, h: grp.Subgroup) -> ObstructionReport:
    """Cyclic-transitive certificate that rules out pure-state completeness.

    For a prime-size coset space a cyclic subgroup always acts transitively;
    restricting any covariant observable to it lands in the abelian
    obstruction, so no such observable can identify all pure states.
    """
    if h.order >= g.order:
        raise DomainError("subgroup must be proper")
    index = g.order // h.order
    if not is_prime(index):
        raise PreconditionError(
            "prime-index",
            f"coset space has size {index}, not prime; a cyclic subgroup need "
            "not act transitively there (the quaternion group over its "
            "center is the standard counterexample)",
        )
    sub = grp.find_cyclic_transitive_subgroup(g, h)
    if sub is None:
        raise InconsistencyError(
            "no cyclic transitive subgroup despite prime index"
        )
    gen = next(m for m in sub.members if g.element_order(m) == sub.order)
    return ObstructionReport(
        group_order=g.order,
        subgroup_names=h.names(),
        index=index,
        generator_name=g.names[gen],
        subgroup_member_names=sub.names(),
        conclusion=(
            "no covariant observable on this coset space identifies all pure "
            "states, under any projective unitary representation"
        ),
    )


@dataclass
class Dim3MinimalityReport:
    outcome_count: int
    table_minimum: int
    span_dim: int
    effects_independent: bool
    verdict: pv.PicVerdict
    minimal: bool


def minimality_witness_dim3(povm: pv.Povm) -> Dim3MinimalityReport:
    """Check an 8-outcome dimension-3 observable against the table minimum.

    Minimality is relative to the embedded table value, not re-derived: the
    report confirms the outcome count meets it, the effects are linearly
    independent, and the observable in fact identifies all pure states.
    """
    if povm.dim != 3:
        raise DomainError("this check is specific to dimension 3")
    if len(povm) != 8:
        raise DomainError(f"expected 8 outcomes, got {len(povm)}")
    table_min = MIN_OUTCOMES_BY_DIM[3]
    span = pv.operator_span(povm)
    verdict = pv._pic_verdict(span, None)
    independent = span.dim == len(povm)
    minimal = (
        len(povm) == table_min and independent and verdict.status == pv.PIC_CERTIFIED
    )
    return Dim3MinimalityReport(
        outcome_count=len(povm),
        table_minimum=table_min,
        span_dim=span.dim,
        effects_independent=independent,
        verdict=verdict,
        minimal=minimal,
    )

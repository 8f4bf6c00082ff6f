"""POVMs: validation, covariance, and informational-completeness analysis.

An observable is a labelled family of positive operators summing to the
identity.  The operator span S of its effects decides what the observable can
resolve: full span means every state is identified, and pure states are all
identified exactly when the orthogonal complement of S contains no nonzero
selfadjoint operator of rank one or two.  Certification is exact when that
complement has dimension at most one; beyond that a randomized falsifier
searches for a pair of pure states the observable cannot tell apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, InconsistencyError, NotAnObservableError
from .linalg import (
    ATOL, OperatorSubspace, as_matrix, decode_complex, encode_complex, hermitian_eig,
    hs_norm, numerical_rank, orthogonal_complement, psd_defects, require_psd,
    span_orthonormalize,
)

if TYPE_CHECKING:  # annotations only; rep and group load on first use
    from . import group as grp
    from . import rep as rp

PIC_CERTIFIED = "PIC_certified"
PIC_UNFALSIFIED = "PIC_unfalsified"
NOT_PIC = "not_PIC"


class Povm:
    """Outcome-labelled family of operators on a d-dimensional space.

    Built from (label, op) pairs; holds the labels as a list of strings and
    the effects as one ``(m, d, d)`` complex array ``ops``.
    """

    def __init__(self, dim: int, outcomes):
        pairs = list(outcomes)
        self.dim = dim
        self.labels = [str(label) for label, _ in pairs]
        ops = [np.asarray(op, dtype=complex) for _, op in pairs]
        for label, op in zip(self.labels, ops):
            if op.shape != (dim, dim):
                raise DomainError(f"outcome {label!r} has shape {op.shape}")
        self.ops = np.array(ops, dtype=complex).reshape(len(ops), dim, dim)
        finite = np.isfinite(self.ops).all(axis=(1, 2))
        if not finite.all():
            raise DomainError(f"outcome {self.labels[np.argmin(finite)]!r} has non-finite entries")

    @property
    def outcomes(self) -> list:
        """(label, op) pairs, views into ``ops``."""
        return list(zip(self.labels, self.ops))

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class PovmValidation:
    hermiticity_defect: float
    min_eigenvalue: float
    normalization_defect: float
    worst_label: str | None = None

    @property
    def passed(self) -> bool:
        return (
            self.hermiticity_defect <= ATOL
            and self.min_eigenvalue >= -ATOL
            and self.normalization_defect <= ATOL
        )


def validate(povm: Povm) -> PovmValidation:
    """Hermiticity, positivity, and normalization residuals of a POVM."""
    herm = 0.0
    min_eig = np.inf
    worst = None
    for label, op in zip(povm.labels, povm.ops):
        defect, low = psd_defects(op)
        if defect > herm:
            herm, worst = defect, label
        if low < min_eig:
            min_eig = low
            if low < -ATOL:
                worst = label
    norm_defect = hs_norm(povm.ops.sum(axis=0) - np.eye(povm.dim))
    return PovmValidation(herm, min_eig, norm_defect, worst)


def operator_span(povm: Povm) -> OperatorSubspace:
    return span_orthonormalize(povm.ops)


def is_ic(povm: Povm) -> bool:
    """Informationally complete: the effects span the full operator space."""
    return operator_span(povm).dim == povm.dim ** 2


def born_probabilities(povm: Povm, state) -> np.ndarray:
    """Outcome distribution tr(rho M(x)); tiny negative values are clamped."""
    rho = as_matrix(state)
    if rho.shape != (povm.dim, povm.dim):
        raise DomainError("state dimension mismatch")
    require_psd(rho, "state")
    if abs(np.trace(rho) - 1) > ATOL:
        raise DomainError("state does not have unit trace")
    probs = np.trace(rho @ povm.ops, axis1=1, axis2=2).real
    probs[(probs < 0) & (probs > -ATOL)] = 0.0
    return probs


# --- covariant structure ------------------------------------------------------

def build_covariant(rep: rp.ProjectiveRep, cosets: grp.CosetSpace, seed) -> Povm:
    """Observable M(gH) = U(g) M U(g)* from a seed operator M.

    The seed must be positive and commute with U(h) for every h in the
    subgroup, otherwise outcomes would depend on the coset representative.
    Normalization is NOT automatic: when the translates do not sum to the
    identity the deficit is attached to the raised error.

    The two checks imply covariance, so it is not re-checked here: for
    g r = r' h with h in H, U(g)U(r) M U(r)*U(g)* = U(r')U(h) M U(h)*U(r')*
    = M(r'H), the multiplier phases cancelling under conjugation.
    """
    seed = as_matrix(seed)
    d = rep.dim
    if seed.shape != (d, d):
        raise DomainError("seed dimension mismatch")
    require_psd(seed, "seed")
    if cosets.parent is not rep.group:
        raise DomainError("coset space belongs to a different group")
    members = list(cosets.subgroup.members)
    u = rep.matrices[members]
    commutes = np.abs(seed @ u - u @ seed).max(axis=(1, 2)) <= ATOL
    if not commutes.all():
        h = members[np.argmin(commutes)]
        raise DomainError(f"seed does not commute with U({rep.group.names[h]})")
    u = rep.matrices[cosets.representatives]
    ops = u @ seed @ u.conj().transpose(0, 2, 1)
    deficit = ops.sum(axis=0) - np.eye(d)
    if np.abs(deficit).max() > ATOL:
        raise NotAnObservableError(
            f"translates sum to identity + deficit of norm {hs_norm(deficit):.3e}",
            deficit=deficit,
        )
    return Povm(d, zip(cosets.labels(), ops))


def covariance_defect(povm: Povm, rep: rp.ProjectiveRep, cosets: grp.CosetSpace) -> float:
    """Largest norm of U(g) M(x) U(g)* - M(g.x) over all pairs."""
    if len(povm) != cosets.size:
        raise DomainError("outcome count does not match the coset space")
    ops = povm.ops
    # one batched product per group element g: [x] -> U(g) M(x) U(g)* - M(g.x)
    return max(
        float(np.abs(u @ ops @ u.conj().T - ops[cosets.action[g]]).max())
        for g, u in enumerate(rep.matrices)
    )


def check_covariance(povm: Povm, rep: rp.ProjectiveRep, cosets: grp.CosetSpace) -> bool:
    return covariance_defect(povm, rep, cosets) <= ATOL


# --- abelian obstruction ------------------------------------------------------

@dataclass(eq=False)
class AbelianCertificate:
    """Two pure states no covariant observable for this rep can separate.

    Built from two independent common eigenvectors of the representation.
    For any observable covariant under the representation, both states give
    the uniform outcome distribution.
    """

    vectors: tuple
    phases: tuple

    @property
    def states(self) -> tuple:
        return tuple(np.outer(v, v.conj()) for v in self.vectors)

    def probability_deviation(self, povm: Povm) -> float:
        """Largest |tr(M(x) rho_i) - 1/#outcomes| over outcomes and states."""
        worst = 0.0
        for rho in self.states:
            p = born_probabilities(povm, rho)
            worst = max(worst, float(np.abs(p - 1.0 / len(povm)).max()))
        return worst


def abelian_obstruction_certificate(rep: rp.ProjectiveRep):
    """Two independent common eigenvectors of the representation, if any.

    Returns None when no two exist; a single common eigenline (like the
    distinguished axis of the dimension-3 block constructions) is not enough
    to obstruct anything.
    """
    from . import rep as rp

    spaces = rp.joint_eigenspaces(rep.matrices)
    vectors = []
    for s in spaces:
        if s.shape[1] >= 2:
            vectors = [s[:, 0], s[:, 1]]
            break
        vectors.append(s[:, 0])
        if len(vectors) == 2:
            break
    if len(vectors) < 2:
        return None
    phases = tuple((rep.matrices @ v) @ v.conj() for v in vectors)
    return AbelianCertificate(tuple(vectors), phases)


# --- PIC analysis --------------------------------------------------------------

@dataclass
class FalsifierSettings:
    """Budget and determinism knobs for the pure-state pair search."""

    restarts: int = 64
    max_iterations: int = 2000
    rng_seed: int = 0
    # squared projection norm below which a candidate pair counts as a witness
    witness_threshold: float = 1e-12
    # hard floor: stop restarting once a pair this deep is found
    floor: float = 1e-26


@dataclass
class FalsifierResult:
    residual: float  # HS norm of the projection onto the span at the optimum
    psi: np.ndarray
    phi: np.ndarray
    restart: int


@dataclass
class PicVerdict:
    status: str
    complement_dim: int
    witness: tuple | None = None
    residual: float | None = None


def _pair_objective(span: OperatorSubspace, psi: np.ndarray, phi: np.ndarray):
    # the broadcast product np.outer performs, without its call overhead
    d = psi[:, None] * psi.conj() - phi[:, None] * phi.conj()
    g = span.project(d)
    # g is the selfadjoint projection of d, so <g, d> = ||g||^2
    return float((g.conj() * d).sum().real), g


def _orthonormal_pair(rng, dim):
    z = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
    q, _ = np.linalg.qr(z)
    return q[:, 0], q[:, 1]


def _norm(v):
    """np.linalg.norm of a contiguous complex vector, by the formula it evaluates.

    The square root is correctly rounded in math as in numpy, so the value is
    the same double.
    """
    return math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))


def _retract(psi, phi):
    psi = psi / _norm(psi)
    phi = phi - (psi.conj() @ phi) * psi
    n = _norm(phi)
    if n < 1e-12:
        return None
    return psi, phi / n


def _descend(span: OperatorSubspace, psi, phi, settings: FalsifierSettings):
    f, g = _pair_objective(span, psi, phi)
    step = 0.25
    for _ in range(settings.max_iterations):
        if f <= settings.floor:
            break
        g_sym = g + g.conj().T
        grad_psi = g_sym @ psi
        grad_phi = -(g_sym @ phi)
        moved = False
        while step > 1e-18:
            trial = _retract(psi - step * grad_psi, phi - step * grad_phi)
            if trial is not None:
                f2, g2 = _pair_objective(span, *trial)
                if f2 < f:
                    psi, phi = trial
                    f, g = f2, g2
                    step = min(step * 2.0, 1.0)
                    moved = True
                    break
            step *= 0.5
        if not moved:
            break
    return f, psi, phi


def falsify(span: OperatorSubspace, settings: FalsifierSettings | None = None) -> FalsifierResult:
    """Search for a pure-state pair whose difference escapes the span.

    Any nonzero traceless selfadjoint operator of rank at most two is a
    scalar multiple of |psi><psi| - |phi><phi| with psi and phi orthonormal,
    so the search runs over orthonormal pairs; this keeps the degenerate
    psi = phi direction out of the landscape entirely.  Deterministic for a
    fixed seed: restart r draws from rng seeded with (rng_seed, r) and ties
    between equal minima resolve to the earliest restart.  A step evaluates
    exactly the arithmetic of ``np.outer`` and ``np.linalg.norm``, written
    without their call overhead, so witnesses and restart counts are those of
    the plain calls bit for bit.
    """
    settings = settings or FalsifierSettings()
    if settings.restarts < 1:
        raise DomainError(f"the falsifier needs at least one restart, got {settings.restarts}")
    if settings.rng_seed < 0:
        raise DomainError(f"the falsifier's rng seed must be non-negative, got {settings.rng_seed}")
    best = None
    for r in range(settings.restarts):
        rng = np.random.default_rng([settings.rng_seed, r])
        psi0, phi0 = _orthonormal_pair(rng, span.dim_h)
        f, psi, phi = _descend(span, psi0, phi0, settings)
        if best is None or f < best[0]:
            best = (f, psi, phi, r)
        if best[0] <= settings.floor:
            break
    f, psi, phi, r = best
    return FalsifierResult(float(np.sqrt(max(f, 0.0))), psi, phi, r)


def _selfadjoint_generator(comp: OperatorSubspace) -> np.ndarray:
    k = comp.basis[0]
    cand_a = (k + k.conj().T) / 2
    cand_b = (k - k.conj().T) / 2j
    h = cand_a if hs_norm(cand_a) >= hs_norm(cand_b) else cand_b
    n = hs_norm(h)
    if n < ATOL:
        raise InconsistencyError("complement generator has no selfadjoint part")
    return h / n


def check_pic(povm: Povm, settings: FalsifierSettings | None = None) -> PicVerdict:
    """Decide pure-state informational completeness.

    Empty complement certifies immediately.  A one-dimensional complement is
    generated by a single selfadjoint traceless operator; rank three or more
    certifies, rank two yields an explicit witness pair from its spectral
    decomposition.  For larger complements the falsifier searches for a
    witness; failure to find one is reported as unfalsified, not as a proof.
    """
    return _pic_verdict(operator_span(povm), settings)


def _pic_verdict(span: OperatorSubspace, settings: FalsifierSettings | None) -> PicVerdict:
    """The decision of :func:`check_pic`, taken on an already computed span."""
    comp_dim = span.dim_h ** 2 - span.dim
    if comp_dim == 0:
        return PicVerdict(PIC_CERTIFIED, 0)
    if comp_dim == 1:
        comp = orthogonal_complement(span)
        h = _selfadjoint_generator(comp)
        if numerical_rank(h) >= 3:
            return PicVerdict(PIC_CERTIFIED, 1)
        vals, vecs = hermitian_eig(h)
        psi, phi = vecs[:, 0], vecs[:, -1]
        d = np.outer(psi, psi.conj()) - np.outer(phi, phi.conj())
        residual = hs_norm(span.project(d))
        return PicVerdict(NOT_PIC, 1, witness=(psi, phi), residual=residual)
    result = falsify(span, settings)
    if result.residual ** 2 < (settings or FalsifierSettings()).witness_threshold:
        return PicVerdict(
            NOT_PIC, comp_dim, witness=(result.psi, result.phi), residual=result.residual
        )
    return PicVerdict(PIC_UNFALSIFIED, comp_dim, residual=result.residual)


# --- JSON interchange -----------------------------------------------------------

def povm_to_json(povm: Povm) -> dict:
    return {
        "dim": povm.dim,
        "outcomes": [
            {"label": label, "matrix": matrix}
            for label, matrix in zip(povm.labels, encode_complex(povm.ops))
        ],
    }


def povm_from_json(data: dict) -> Povm:
    """Parse and validate the interchange schema; invalid operators are named."""
    return _read_povm(data)[0]


def _read_povm(data: dict) -> tuple[Povm, PovmValidation]:
    """:func:`povm_from_json`, also returning the validation report it passed."""
    if not isinstance(data, dict):
        raise DomainError("malformed POVM document: not a JSON object")
    dim, raw = data.get("dim"), data.get("outcomes")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise DomainError(f"malformed POVM document: 'dim' must be an integer >= 1, got {dim!r}")
    if not isinstance(raw, list) or not raw:
        raise DomainError("malformed POVM document: 'outcomes' must be a non-empty list")
    outcomes = []
    for pos, entry in enumerate(raw):
        if not isinstance(entry, dict) or "label" not in entry or "matrix" not in entry:
            raise DomainError(f"outcome #{pos}: needs a 'label' and a 'matrix'")
        outcomes.append((entry["label"], decode_complex(entry["matrix"], f"outcome #{pos}")))
    povm = Povm(dim, outcomes)
    report = validate(povm)
    if not report.passed:
        raise DomainError(
            f"outcome {report.worst_label!r} fails validation "
            f"(hermiticity {report.hermiticity_defect:.2e}, "
            f"min eigenvalue {report.min_eigenvalue:.2e}, "
            f"normalization {report.normalization_defect:.2e})"
        )
    return povm, report

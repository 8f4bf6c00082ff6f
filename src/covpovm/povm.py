"""POVMs: validation, covariance, and informational-completeness analysis.

An observable is a labelled family of positive operators summing to the
identity.  The operator span S of its effects decides what the observable can
resolve: full span means every state is identified, and pure states are all
identified exactly when the orthogonal complement of S contains no nonzero
selfadjoint operator of rank one or two.  Every nonzero complement is decided
on one path: a Lipschitz cover of its unit sphere certifies it when the
third-largest |eigenvalue| stays above ZERO_ATOL and the cover fits its point
budget (a one-dimensional complement is the cover's single point), and a
centre where that value vanishes yields a witness pair.  Otherwise a BFGS
search on the complement's unit sphere looks for an element of rank at most
two, whose top and bottom eigenvectors are pure states the observable cannot
tell apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from .errors import DomainError, NotAnObservableError
from .linalg import (
    ATOL, ZERO_ATOL, OperatorSubspace, as_matrix, decode_complex, encode_complex, hs_norm,
    orthogonal_complement, psd_defects, require_psd, sigma3, span_orthonormalize,
)

if TYPE_CHECKING:  # annotations only; rep and group load on first use
    from . import group as grp
    from . import rep as rp

PIC_CERTIFIED = "PIC_certified"
PIC_UNFALSIFIED = "PIC_unfalsified"
NOT_PIC = "not_PIC"

# Centres the complement cover may evaluate before the falsifier decides.
COVER_BUDGET = 256

# Falsifier search: start points per complement dimension, shortest step, stall share of g.
START_SAMPLES, SHORTEST_STEP, STALL = 16, 2.0 ** -10, 1e-10


class Povm:
    """Outcome-labelled family of operators on a d-dimensional space.

    Built from (label, op) pairs; holds the labels as a list of strings and
    the effects as one ``(m, d, d)`` complex array ``ops``.  ``validation`` is
    the report :func:`povm_from_json` passed, None for a Povm built directly.
    """

    def __init__(self, dim: int, outcomes):
        pairs = list(outcomes)
        self.dim = dim
        self.validation: PovmValidation | None = None
        self.labels = [str(label) for label, _ in pairs]
        try:
            self.ops = np.array([op for _, op in pairs] or np.zeros((0, dim, dim)), dtype=complex)
        except ValueError:  # outcomes of different shapes, named below
            self.ops = np.zeros(0)
        if self.ops.shape != (len(pairs), dim, dim):
            for label, (_, op) in zip(self.labels, pairs):
                if np.asarray(op, dtype=complex).shape != (dim, dim):
                    raise DomainError(f"outcome {label!r} has shape {np.shape(op)}")
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
    """Hermiticity, positivity, and normalization residuals of a POVM.

    ``worst_label`` is the outcome of lowest eigenvalue if below -ATOL, else of
    largest hermiticity defect if above ATOL, else None (only the sum can fail).
    """
    defects, lows = psd_defects(povm.ops)
    herm, min_eig = float(defects.max(initial=0.0)), float(lows.min(initial=np.inf))
    worst = None
    if min_eig < -ATOL:
        worst = povm.labels[np.argmin(lows)]
    elif herm > ATOL:
        worst = povm.labels[np.argmax(defects)]
    return PovmValidation(herm, min_eig, hs_norm(povm.ops.sum(axis=0) - np.eye(povm.dim)), worst)


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

@dataclass(frozen=True)
class FalsifierSettings:
    """Restarts and seed of the witness search, the two values its callers vary.

    Checked once, at construction: integers, at least one restart and a non-negative seed.
    The BFGS steps per restart and the two thresholds are class constants.
    """

    restarts: int = 64
    rng_seed: int = 0
    max_iterations: ClassVar[int] = 2000
    # squared projection norm below which a candidate pair counts as a witness
    witness_threshold: ClassVar[float] = 1e-12
    # a restart stops once its objective is this small
    floor: ClassVar[float] = 1e-26

    def __post_init__(self):
        for name, value in (("restarts", self.restarts), ("rng_seed", self.rng_seed)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise DomainError(f"the falsifier's {name} must be an integer, got {value!r}")
        if self.restarts < 1:
            raise DomainError(f"the falsifier needs at least one restart, got {self.restarts}")
        if self.rng_seed < 0:
            raise DomainError(f"the falsifier's rng seed must be non-negative, got {self.rng_seed}")


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
    # {method, points, min_sigma3, eig_error_bound} of a certifying cover
    certificate: dict | None = None


def _complement_basis(span: OperatorSubspace) -> np.ndarray:
    """Hermitian basis of the span's traceless complement, orthonormal up to rounding.

    Pure-state differences are traceless.  An observable's span holds I, so its
    complement is; otherwise I's projection is rotated out, keeping the basis orthonormal.
    """
    basis = orthogonal_complement(span).basis
    trace = np.einsum("kii->k", basis).real
    if math.sqrt(trace @ trace) > ATOL:
        basis = np.einsum("jk,kab->jab", np.linalg.svd(trace[None])[2][1:], basis)
    return basis


def _witness(basis: np.ndarray, v: np.ndarray, restart: int = 0) -> FalsifierResult:
    """The last and first columns of v (ascending eigenvectors) as a candidate pair.

    Its residual, |psi><psi| - |phi><phi| less its projection onto the complement
    basis, is its projection onto the span when the span holds I (else an upper bound).
    """
    psi, phi = v[:, -1], v[:, 0]
    diff = (psi[:, None] * psi.conj() - phi[:, None] * phi.conj()).ravel()
    flat = basis.reshape(len(basis), len(diff))
    rest = diff - (flat.conj() @ diff).real @ flat
    residual = math.sqrt(rest.real @ rest.real + rest.imag @ rest.imag)
    return FalsifierResult(residual, psi, phi, restart)


def _search(basis: np.ndarray, settings: FalsifierSettings) -> FalsifierResult:
    """BFGS on the complement's unit sphere for an element of rank at most two.

    g(x) sums lambda_i(H(x))^2 over the eigenvalues of H(x) = sum_k x_k C_k bar the
    extreme two, so it vanishes exactly at rank <= 2; its gradient, Re <C_k, sum_i
    2 lambda_i v_i v_i*>, comes from the same eigh.  Restart r starts at the least-g of
    START_SAMPLES * c points from rng (rng_seed, r), takes Armijo steps in the tangent
    space and normalises; it ends at the floor, after max_iterations steps or at a
    stall.  The search ends at the first restart that lands on a witness.
    """
    c, d, _ = basis.shape
    if not c:  # every traceless operator lies in the span
        return _witness(basis, np.eye(d))
    flat = np.ascontiguousarray(basis).view(float).reshape(c, 2 * d * d)

    def evaluate(x):
        x = x / math.sqrt(x @ x)
        w, v = np.linalg.eigh((x @ flat).view(complex).reshape(d, d))
        inner, vin = w[1:-1], v[:, 1:-1]
        grad = flat @ ((vin * (2 * inner)) @ vin.conj().T).view(float).ravel()
        return x, float(inner @ inner), grad - (x @ grad) * x, v

    best = None
    for r in range(settings.restarts):
        xs = np.random.default_rng([settings.rng_seed, r]).standard_normal((START_SAMPLES * c, c))
        w = np.linalg.eigvalsh((xs @ flat).view(complex).reshape(len(xs), d, d))[:, 1:-1]
        x, f, grad, v = evaluate(xs[np.argmin((w * w).sum(axis=1) / (xs * xs).sum(axis=1))])
        inv = np.eye(c)
        for _ in range(settings.max_iterations):
            if f <= settings.floor:
                break
            step = (x @ inv @ grad) * x - inv @ grad  # -inv grad, along the sphere
            alpha = 1.0
            x2, f2, grad2, v2 = evaluate(x + step)
            while f2 > f + 1e-4 * alpha * (grad @ step) and alpha > SHORTEST_STEP:
                alpha /= 2
                x2, f2, grad2, v2 = evaluate(x + alpha * step)
            if f - f2 <= STALL * f:
                break
            # the secant pair, carried to the tangent space at x2
            s, dg = x2 - x - (x2 @ (x2 - x)) * x2, grad2 - grad + (grad @ x2) * x2
            if s @ dg > 0:
                t = np.eye(c) - np.outer(s, dg) / (s @ dg)
                inv = t @ inv @ t.T + np.outer(s, s) / (s @ dg)
            x, f, grad, v = x2, f2, grad2, v2
        if best is None or f < best[0]:
            best = (f, _witness(basis, v, r))
            if best[1].residual ** 2 < settings.witness_threshold:
                break
    return best[1]


def falsify(span: OperatorSubspace, settings: FalsifierSettings | None = None) -> FalsifierResult:
    """Search the span's traceless complement for an element of rank at most two.

    Such an element is a multiple of |psi><psi| - |phi><phi| with psi, phi
    its top and bottom eigenvectors, so :func:`_search` runs on the unit
    sphere of the complement and reports those eigenvectors at its best
    point, with their residual against the span.  Deterministic for a fixed
    seed; ties go to the earliest restart.
    """
    return _search(_complement_basis(span), settings or FalsifierSettings())


def _cover(basis: np.ndarray) -> dict | FalsifierResult | None:
    """Certify sigma_3(H(x)) > 0 on the unit sphere by branch and bound.

    H(x) = sum_k x_k C_k is sqrt(1 + |G - I|_HS)-Lipschitz in operator norm, G
    the basis's Gram matrix, and by Weyl's inequality so is sigma_3.  H(-x) =
    -H(x), so the cube faces x_k = +1 (k = 1..c), projected onto the sphere,
    are enough.  A cell with centre u and half-widths h is certified when
    sigma_3(u/|u|) - ZERO_ATOL exceeds the Lipschitz constant times its
    chordal radius, bounded by |h| / sqrt(m |u|) with m the smallest norm in
    the cell (from |a/|a| - b/|b||^2 <= |a - b|^2 / (|a| |b|)).  Open cells
    are bisected along their longest side, one batched eigensolve per level.
    For c = 1 the one face is a single point of radius 0.  Returns the
    certificate; else the :func:`_witness` candidate of the first centre of
    least sigma_3 once one has sigma_3 <= ZERO_ATOL; else None when the next
    level would exceed COVER_BUDGET points, the cover's only limit (c > COVER_BUDGET
    returns before the Gram matrix or any solve).
    """
    c = len(basis)
    centre, half = np.eye(c), 1.0 - np.eye(c)
    points, low, lipschitz = 0, math.inf, None
    while True:
        if points + len(centre) > COVER_BUDGET:
            return None
        norm = np.sqrt(np.einsum("ij,ij->i", centre, centre))
        unit = centre / norm[:, None]
        s3 = sigma3(basis, unit)
        points += len(centre)
        low = min(low, float(s3.min()))
        if low <= ZERO_ATOL:
            x = unit[np.argmin(s3)]
            return _witness(basis, np.linalg.eigh(np.einsum("k,kij->ij", x, basis))[1])
        if lipschitz is None:
            gram = np.einsum("iab,jab->ij", basis.conj(), basis).real - np.eye(c)
            lipschitz = math.sqrt(1 + hs_norm(gram))
        nearest = np.maximum(np.abs(centre) - half, 0.0)
        radius = lipschitz * np.sqrt(
            np.einsum("ij,ij->i", half, half)
            / (np.sqrt(np.einsum("ij,ij->i", nearest, nearest)) * norm)
        )
        keep = s3 - ZERO_ATOL <= radius
        if not keep.any():
            return {"method": "lipschitz-cover", "points": points, "min_sigma3": low,
                    "eig_error_bound": ZERO_ATOL}
        centre, half = centre[keep], half[keep]
        rows, side = np.arange(len(half)), np.argmax(half, axis=1)
        half[rows, side] /= 2
        step = np.zeros_like(half)
        step[rows, side] = half[rows, side]
        centre, half = np.concatenate([centre - step, centre + step]), np.concatenate([half, half])


def check_pic(povm: Povm, settings: FalsifierSettings | None = None) -> PicVerdict:
    """Decide pure-state informational completeness.

    Empty complement certifies immediately.  Every nonzero complement of
    dimension c is certified when a Lipschitz cover of its unit sphere within
    COVER_BUDGET points keeps the third-largest |eigenvalue| above ZERO_ATOL;
    the verdict then carries the cover's certificate (one point when c = 1).
    A centre where that value is at most ZERO_ATOL is an operator of rank at
    most two, and its top and bottom eigenvectors are the witness pair once
    their difference passes the falsifier's residual test against the span.
    Otherwise, or when the budget runs out, the falsifier searches the same
    (traceless) basis; failure to find a witness is unfalsified, not a proof.
    """
    return _pic_verdict(operator_span(povm), settings)


def _pic_verdict(span: OperatorSubspace, settings: FalsifierSettings | None) -> PicVerdict:
    """:func:`check_pic` on a computed span: the cover's certificate or witness, else _search."""
    settings = settings or FalsifierSettings()
    comp_dim = span.dim_h ** 2 - span.dim
    if comp_dim == 0:
        return PicVerdict(PIC_CERTIFIED, 0)
    basis = _complement_basis(span)
    if not len(basis):  # the span holds every traceless operator
        return PicVerdict(PIC_CERTIFIED, comp_dim)
    found = _cover(basis)
    if isinstance(found, dict):
        return PicVerdict(PIC_CERTIFIED, comp_dim, certificate=found)
    if found is None or found.residual ** 2 >= settings.witness_threshold:
        found = _search(basis, settings)
    if found.residual ** 2 >= settings.witness_threshold:
        return PicVerdict(PIC_UNFALSIFIED, comp_dim, residual=found.residual)
    return PicVerdict(NOT_PIC, comp_dim, witness=(found.psi, found.phi), residual=found.residual)


# --- JSON interchange -----------------------------------------------------------

def outcome_to_json(label: str, op: np.ndarray) -> dict:
    """One entry of the document's ``outcomes`` list."""
    return {"label": label, "matrix": encode_complex(op)}


def povm_to_json(povm: Povm) -> dict:
    return {
        "dim": povm.dim,
        "outcomes": [outcome_to_json(label, op) for label, op in zip(povm.labels, povm.ops)],
    }


def povm_from_json(data: dict) -> Povm:
    """Parse and validate the interchange schema; invalid operators are named."""
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
        what = "the effects do not sum to the identity" if report.worst_label is None else (
            f"outcome {report.worst_label!r} fails validation")
        raise DomainError(
            f"{what} (hermiticity {report.hermiticity_defect:.2e}, "
            f"min eigenvalue {report.min_eigenvalue:.2e}, "
            f"normalization {report.normalization_defect:.2e})"
        )
    povm.validation = report
    return povm

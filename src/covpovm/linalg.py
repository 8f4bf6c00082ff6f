"""Dense complex matrix kernel.

Matrices are plain ``numpy.ndarray`` with complex entries.  Operators on a
d-dimensional Hilbert space live in the d*d matrix space equipped with the
Hilbert-Schmidt inner product ``<A, B> = tr(A^dag B)``, conjugate-linear in
the first argument.  Subspaces of that operator space are carried around as
HS-orthonormal bases (:class:`OperatorSubspace`) stored as one ``(k, d, d)``
array, so coordinates and projections are single matrix products.  Every rank
decision, spans included, counts singular values with one rule (:func:`_rank`);
spans come from the SVD of the stacked operators, not from their Gram matrix.
Complex arrays cross JSON as nested ``[re, im]`` pairs through one codec.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InconsistencyError, ShapeError

# The tolerance policy of the package; no other module carries a threshold.
#
# Ranks: singular values count when above RANK_RTOL times the largest one, and
# a matrix whose largest singular value is at most ZERO_ATOL has rank 0.
# Entries of the operators handled here are of order 1/d, so 1e-9 cleanly
# separates genuine rank gaps from roundoff up to d ~ 16.
RANK_RTOL = 1e-9
ZERO_ATOL = 1e-12

# Identities that hold exactly in exact arithmetic: hermiticity, positivity,
# normalization, unitarity, product-rule residuals, commutation, idempotence.
ATOL = 1e-9

# Values recovered by a division or a decomposition: unimodularity, the cocycle
# identity, derived orthonormal bases, subspace intersections, multiplicities,
# eigenvalue clustering.
PHASE_ATOL = 1e-7


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ShapeError(f"expected a matrix, got array of ndim {m.ndim}")
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix has non-finite entries")
    return m


def encode_complex(a) -> list:
    """Nested lists of [re, im] pairs, the package's JSON form of complex arrays."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def decode_complex(data, what: str) -> np.ndarray:
    """Inverse of :func:`encode_complex`, accepting finite numeric pairs only.

    Every element must be an integer or a float; booleans, which numpy would
    read as 1 and 0, are refused like strings and nulls.
    """
    try:
        raw = np.array(data, dtype=object)
    except ValueError:  # ragged nesting
        raw = None
    if (raw is None or raw.ndim == 0 or raw.shape[-1] != 2
            or not set(map(type, raw.flat)) <= {int, float}):
        raise DomainError(f"{what} is not an array of [re, im] pairs of numbers")
    try:
        pairs = raw.astype(float)
    except OverflowError:  # an integer beyond the double range
        pairs = None
    if pairs is None or not np.all(np.isfinite(pairs)):
        raise DomainError(f"{what} has non-finite or out-of-range entries")
    return pairs.view(complex)[..., 0]


def require_square(a: np.ndarray) -> int:
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    return a.shape[0]


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product tr(a^dag b)."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    require_square(a)
    return complex(np.sum(np.conj(a) * b))


def hs_norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def hermitian_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns eigenvalues in descending order and the matching orthonormal
    eigenvectors as columns.  The input is rejected if its anti-Hermitian
    part exceeds ATOL in HS norm, and symmetrized before the solve once it
    passes.
    """
    a = as_matrix(a)
    require_square(a)
    defect = hs_norm(a - a.conj().T)
    if defect > ATOL:
        raise DomainError(f"matrix is not Hermitian (defect {defect:.3e})")
    sym = (a + a.conj().T) / 2
    vals, vecs = np.linalg.eigh(sym)
    return vals[::-1], vecs[:, ::-1]


def psd_defects(a) -> tuple[float, float]:
    """HS norm of a - a^dag, and the smallest eigenvalue of a's Hermitian part."""
    a = np.asarray(a)
    low = float(np.linalg.eigvalsh((a + a.conj().T) / 2)[0])
    return hs_norm(a - a.conj().T), low


def require_psd(a, what: str) -> None:
    """Reject a unless it is Hermitian and positive semidefinite within tolerance."""
    defect, low = psd_defects(a)
    if defect > ATOL:
        raise DomainError(f"{what} is not Hermitian")
    if low < -ATOL:
        raise DomainError(f"{what} is not positive semidefinite")


def _rank(s: np.ndarray) -> int:
    """The rank rule, applied to singular values sorted in descending order."""
    if s.size == 0 or s[0] <= ZERO_ATOL:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))


def numerical_rank(a) -> int:
    """Count of singular values above RANK_RTOL * (largest singular value).

    Rank 0 exactly when the matrix vanishes within the absolute floor.
    """
    return _rank(np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False))


@dataclass(frozen=True)
class OperatorSubspace:
    """Subspace of the d*d operator space, held as a (k, d, d) HS-orthonormal basis.

    ``_flat`` is the same basis as a (k, d*d) view, kept from construction on.
    """

    dim_h: int
    basis: np.ndarray = field(default_factory=list)

    def __post_init__(self):
        d = self.dim_h
        basis = np.asarray(self.basis, dtype=complex)
        if basis.size == 0:
            basis = basis.reshape(0, d, d)
        if basis.ndim != 3 or basis.shape[1:] != (d, d):
            raise ShapeError(f"basis of shape {basis.shape} in dimension {d}")
        basis = np.ascontiguousarray(basis)
        flat = basis.reshape(len(basis), d * d)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_flat", flat)
        if np.abs(flat.conj() @ flat.T - np.eye(len(flat))).max(initial=0.0) > PHASE_ATOL:
            raise DomainError("basis is not HS-orthonormal")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coefficients(self, m) -> np.ndarray:
        """HS coordinates of m with respect to the basis."""
        m = np.asarray(m)
        if m.shape != (self.dim_h, self.dim_h):
            raise ShapeError(f"expected a {self.dim_h}x{self.dim_h} matrix, got {m.shape}")
        return self._flat.conj() @ m.reshape(-1)

    def project(self, m) -> np.ndarray:
        """Orthogonal projection of m onto the subspace."""
        return (self.coefficients(m) @ self._flat).reshape(self.dim_h, self.dim_h)


def selfadjoint_basis(space: OperatorSubspace) -> tuple[np.ndarray, float]:
    """HS-orthonormal selfadjoint basis of a subspace closed under the adjoint.

    The Hermitian and anti-Hermitian parts of the basis elements span the
    subspace's selfadjoint operators over the reals.  As real vectors (a
    complex array viewed as its float pairs, whose dot product is the real HS
    inner product) their SVD gives the basis, counted by the rank rule; a
    subspace closed under the adjoint has exactly ``space.dim`` of them.
    Returns the ``(k, d, d)`` basis and the HS norm of G - I for its Gram
    matrix G, which bounds the spectral norm, so that
    ||sum_k x_k C_k||_HS <= sqrt(1 + defect) |x|.
    """
    d, k = space.dim_h, space.dim
    b, adj = space.basis, space.basis.conj().transpose(0, 2, 1)
    parts = np.concatenate([b + adj, 1j * (b - adj)])
    _, s, vh = np.linalg.svd(parts.view(float).reshape(2 * k, 2 * d * d), full_matrices=False)
    r = _rank(s)
    if r != k:
        raise InconsistencyError(
            f"{r} selfadjoint directions in a subspace of dimension {k}: "
            "not closed under the adjoint"
        )
    basis = np.ascontiguousarray(vh[:r])
    return basis.view(complex).reshape(r, d, d), hs_norm(basis @ basis.T - np.eye(r))


def sigma3(basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Third-largest |eigenvalue| of H(x) = sum_k x_k C_k for each row of x.

    ``basis`` is a ``(k, d, d)`` stack of Hermitian matrices and ``x`` an
    ``(n, k)`` array of real coordinates; one batched eigensolve.  An operator
    in the span of the basis has rank at most two exactly when this value is
    0, so it is 0 without a solve when d < 3.
    """
    k, d, _ = basis.shape
    if d < 3:
        return np.zeros(len(x))
    h = (x @ basis.reshape(k, d * d)).reshape(len(x), d, d)
    return np.sort(np.abs(np.linalg.eigvalsh(h)), axis=1)[:, -3]


def span_orthonormalize(mats) -> OperatorSubspace:
    """HS-orthonormal basis of the span of the given matrices.

    The right singular vectors of the stacked, flattened matrices that pass
    the rank rule form the basis; the rest are roundoff directions.
    """
    mats = [as_matrix(m) for m in mats]
    if not mats:
        raise DomainError("cannot take the span of an empty family")
    d = require_square(mats[0])
    if any(m.shape != (d, d) for m in mats):
        raise ShapeError("matrices in a span must share one square shape")
    _, s, vh = np.linalg.svd(np.reshape(mats, (len(mats), d * d)), full_matrices=False)
    r = _rank(s)
    return OperatorSubspace(d, vh[:r].reshape(r, d, d))


def orthogonal_complement(s: OperatorSubspace) -> OperatorSubspace:
    """HS-orthogonal complement, so that dim(s) + dim(result) = d^2."""
    d = s.dim_h
    # right singular vectors past the first k are HS-orthogonal to the basis
    _, _, vh = np.linalg.svd(s._flat, full_matrices=True)
    return OperatorSubspace(d, vh[s.dim:].reshape(d * d - s.dim, d, d))

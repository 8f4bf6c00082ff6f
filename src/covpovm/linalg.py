"""Hilbert-Schmidt kernel for Hermitian operators.

Matrices are plain ``numpy.ndarray`` with complex entries, and carry the
Hilbert-Schmidt inner product ``<A, B> = tr(A^dag B)``.  Every operator
subspace the package builds is spanned by Hermitian effects, so
:class:`OperatorSubspace` holds one ``(k, d, d)`` HS-orthonormal basis of
Hermitian matrices and a real orthogonal frame of Herm(d) ~ R^(d*d), whose
coordinates are the diagonal, then sqrt(2) Re and sqrt(2) Im of the upper
triangle: their dot product is the HS inner product.  A span and its complement
are one real SVD of such coordinates, whose square V factor the one rank rule
(:func:`_rank`) cuts.  Complex arrays cross JSON as ``[re, im]`` pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import DomainError, ShapeError

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
    if not np.isfinite(m).all():
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


def psd_defects(a) -> tuple:
    """HS norm of a - a^dag and least eigenvalue of a's Hermitian part, per matrix of a stack."""
    a = np.asarray(a)
    adjoint = a.conj().swapaxes(-1, -2)
    lows = np.linalg.eigvalsh((a + adjoint) / 2)[..., 0]
    if a.ndim == 2:
        return hs_norm(a - adjoint), float(lows)
    # one hs_norm per matrix: a norm over the stack's last two axes rounds differently
    return np.array([hs_norm(gap) for gap in a - adjoint]), lows


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


@cache
def _herm_table(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Float positions of Herm(d)'s coordinates in a flattened d x d matrix, and their scales."""
    i, j = np.triu_indices(d, 1)
    pos = np.concatenate([2 * (d + 1) * np.arange(d), 2 * (i * d + j), 2 * (i * d + j) + 1])
    scale = np.repeat([1.0, np.sqrt(2)], [d, d * d - d])
    pos.setflags(write=False)
    scale.setflags(write=False)
    return pos, scale


def _coordinates(ops: np.ndarray, what: str) -> np.ndarray:
    """Real (n, d*d) coordinates of a contiguous (n, d, d) stack; DomainError unless Hermitian."""
    n, d, _ = ops.shape
    skew = (ops - ops.conj().transpose(0, 2, 1)).view(float).reshape(n, 2 * d * d)
    defect = np.sqrt((skew * skew).sum(axis=1).max(initial=0.0))
    if defect > ATOL:
        raise DomainError(f"{what} is not Hermitian (defect {defect:.3e})")
    pos, scale = _herm_table(d)
    return ops.view(float).reshape(n, 2 * d * d)[:, pos] * scale


def _operators(coords: np.ndarray, d: int) -> np.ndarray:
    """The (n, d, d) matrices with the given coordinates, as U + U^dag: exactly Hermitian."""
    pos, scale = _herm_table(d)
    upper = np.zeros((len(coords), d, d), dtype=complex)
    upper.view(float).reshape(len(coords), 2 * d * d)[:, pos] = coords * (scale / 2)
    return upper + upper.conj().transpose(0, 2, 1)


def _orthonormal(frame: np.ndarray) -> np.ndarray:
    if np.abs(frame @ frame.T - np.eye(len(frame))).max(initial=0.0) > PHASE_ATOL:
        raise DomainError("basis is not HS-orthonormal")
    return frame


@dataclass(frozen=True)
class OperatorSubspace:
    """Span of Hermitian operators: a (k, d, d) HS-orthonormal basis and its real ``_frame``.

    The (d*d, d*d) orthogonal frame's first k rows are the basis' coordinates and the rest
    span the complement.  A given basis is checked and completed by one SVD; a frame is not.
    """

    dim_h: int
    basis: np.ndarray = field(default_factory=list)
    _frame: np.ndarray | None = field(default=None, repr=False, compare=False, kw_only=True)

    def __post_init__(self):
        if self._frame is not None:
            return
        d = self.dim_h
        basis = np.asarray(self.basis, dtype=complex)
        if basis.size == 0:
            basis = basis.reshape(0, d, d)
        if basis.ndim != 3 or basis.shape[1:] != (d, d):
            raise ShapeError(f"basis of shape {basis.shape} in dimension {d}")
        basis = np.ascontiguousarray(basis)
        coords = _coordinates(basis, "basis")
        frame = np.concatenate([coords, np.linalg.svd(coords)[2][len(coords):]])
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_frame", _orthonormal(frame))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coefficients(self, m) -> np.ndarray:
        """HS coordinates of m with respect to the basis."""
        m = np.asarray(m)
        if m.shape != (self.dim_h, self.dim_h):
            raise ShapeError(f"expected a {self.dim_h}x{self.dim_h} matrix, got {m.shape}")
        return np.tensordot(self.basis.conj(), m, 2)

    def project(self, m) -> np.ndarray:
        """Orthogonal projection of m onto the subspace."""
        return np.tensordot(self.coefficients(m), self.basis, 1)


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
    """HS-orthonormal basis of the span of the given Hermitian matrices.

    The right singular vectors of their real coordinates that pass the rank rule form the
    basis, the others its complement's.  The coordinates' Gram matrix is tr(A_i A_j).
    """
    try:
        mats = np.ascontiguousarray(mats, dtype=complex)
    except ValueError as exc:  # ragged nesting
        raise ShapeError("matrices in a span must share one square shape") from exc
    if not len(mats):
        raise DomainError("cannot take the span of an empty family")
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ShapeError(f"matrices in a span must share one square shape, got {mats.shape}")
    if not np.isfinite(mats).all():
        raise DomainError("family has non-finite entries")
    d = mats.shape[1]
    _, s, vh = np.linalg.svd(_coordinates(mats, "family"), full_matrices=len(mats) < d * d)
    return OperatorSubspace(d, _operators(vh[:_rank(s)], d), _frame=_orthonormal(vh))


def orthogonal_complement(s: OperatorSubspace) -> OperatorSubspace:
    """HS-orthogonal complement, so that dim(s) + dim(result) = d^2: s's frame, blocks swapped."""
    frame = np.concatenate([s._frame[s.dim:], s._frame[:s.dim]])
    return OperatorSubspace(s.dim_h, _operators(frame[:len(frame) - s.dim], s.dim_h), _frame=frame)

"""Projective unitary representations of finite groups.

Covers multiplier extraction and exactness decisions, the conjugation
representation on operator space, explicit duals for the supported groups,
isotypic decompositions by twirling a seeded draw into the commutant, and
cyclicity by the orbit span, with the Schmidt rank per isotypic component
read off the same orbit matrix as the reference criterion.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import group as grp
from .errors import DomainError, InconsistencyError, NotAProjectiveRepError, ShapeError
from .linalg import ATOL, PHASE_ATOL, numerical_rank


@dataclass(eq=False)
class ProjectiveRep:
    """Map g -> U(g) with U(gh) = omega(g, h) U(g) U(h).

    ``matrices`` is one ``(n, d, d)`` array indexed by group element and
    ``multiplier`` is the full table omega; an ordinary unitary representation
    has multiplier identically one.  The constructor validates nothing:
    :func:`rep_from_matrices` extracts and validates the multiplier, keeps
    the bounds (e, delta, f) it certified in ``_bounds`` for :func:`conjugation_rep`
    and marks ``matrices`` read-only; a rep built directly keeps no bounds.
    """

    group: grp.FiniteGroup
    dim: int
    matrices: np.ndarray
    multiplier: np.ndarray
    _bounds: tuple | None = field(default=None, init=False, repr=False)

    def is_unitary_rep(self) -> bool:
        return bool(np.abs(self.multiplier - 1).max() <= ATOL)

    def character(self) -> np.ndarray:
        return np.trace(self.matrices, axis1=1, axis2=2)


def _as_stack(matrices) -> np.ndarray:
    """One (n, d, d) complex array from a sequence of square matrices."""
    try:
        stack = np.array(matrices, dtype=complex)
    except ValueError:  # ragged shapes
        stack = None
    if stack is None or stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ShapeError("representation matrices must share one square shape")
    return stack


# Entries per work array of the batched validators and the twirl: at 16 bytes a
# complex entry, 64 KiB, half of glibc's 128 KiB mmap threshold, so the buffers
# come from the heap and a fresh process does not page-fault them in on every call.
_BLOCK_ENTRIES = 4096


def _block_rows(n: int, per_row: int) -> int:
    """Rows per block of an n-row validator table whose row holds ``per_row`` entries."""
    return min(n, max(1, _BLOCK_ENTRIES // per_row))


def _product_blocks(group: grp.FiniteGroup, stack: np.ndarray, rows=None):
    """The product rule U(gh) = omega(g, h) U(g) U(h), one block of table rows at a time.

    ``rows`` holds the table rows g to check, every row in order by default
    (the full scan); :func:`_generator_route` passes the identity and the
    generators, whose residuals bound every derived row.
    Yields ``(g, om, defect, residual)`` per block: g the block's row indices
    and the rest ``(len(g), n)`` arrays over h: the estimate
    om = <U(g)U(h), U(gh)>_HS / d, divided by its modulus where
    defect = ||om| - 1| is within PHASE_ATOL, and the residual
    max |U(gh) - om U(g)U(h)|.  Raises nothing; the callers judge.
    A block holds ``max(1, 4096 // (n d^2))`` rows, so each of its four
    ``(rows, n, d, d)`` work arrays stays at or below 64 KiB: small groups
    take many rows per numpy call, while a row of a large rep (shift and clock
    at d = 15 holds 50,625 entries) is a block of its own.  A larger block
    would cross the mmap threshold and page-fault its buffers on every call in
    a fresh process.  The work arrays are allocated once and filled in place.
    The gathers use ``mode="clip"``, which writes straight into its buffer
    where the default mode would stage a copy; a validated table never clips.
    """
    n, d = len(stack), stack.shape[1]
    rows = np.arange(n) if rows is None else np.asarray(rows)
    per_block = _block_rows(n, n * d * d)
    shape = (min(per_block, len(rows)),) + stack.shape
    prods_buf = np.empty(shape, dtype=complex)       # [g, h] -> U(g) U(h)
    targets_buf = np.empty(shape, dtype=complex)     # [g, h] -> U(gh)
    work_buf = np.empty(shape, dtype=complex)
    moduli_buf = np.empty(shape)
    for i in range(0, len(rows), per_block):
        g = rows[i:i + per_block]
        k = len(g)
        prods, targets = prods_buf[:k], targets_buf[:k]
        work, moduli = work_buf[:k], moduli_buf[:k]
        np.matmul(stack[g, None], stack, out=prods)
        np.take(stack, group.mul[g], axis=0, out=targets, mode="clip")
        np.conjugate(prods, out=work)
        work *= targets
        om = work.sum(axis=(2, 3)) / d
        modulus = np.abs(om)
        defect = np.abs(modulus - 1)
        om /= np.where(defect > PHASE_ATOL, 1.0, modulus)
        prods *= om[:, :, None, None]
        np.subtract(targets, prods, out=work)
        yield g, om, defect, np.abs(work, out=moduli).max(axis=(2, 3))


def rep_from_matrices(group: grp.FiniteGroup, matrices) -> ProjectiveRep:
    """Validate unitaries against the group table and extract the multiplier.

    The scalar omega(g, h) is estimated as <U(g)U(h), U(gh)>_HS / d and the
    residual ||U(gh) - omega U(g)U(h)|| must vanish within ATOL; anything
    larger means the matrices do not projectively represent the group.

    A table that fits one block of :func:`_product_blocks` is checked on
    every pair in one pass (the full scan).  A larger one is checked on the
    identity row and the rows of the group's generators S only, and every
    other row is derived along the word tree of S (:func:`_word_tree`) by
    omega(s g', h) = omega(s, g'h) omega(g', h) / omega(s, g').  With e the
    largest generator-row residual, f = max |U*U - I| and
    nu = sqrt(1 + d f), row g's Frobenius residual obeys
    E(g) <= nu E(g') + d e (1 + nu); the table is accepted only when the
    bounds :func:`_derived_bounds` draws from E imply that the full scan
    would accept every pair.  Otherwise (a failing generator row, a bound
    that misses) the full scan runs, so the verdict and the first failing
    pair in row-major order, the one reported, are the full scan's.

    The cocycle identity follows from the product residuals.  With
    r(g, h) = U(gh) - omega(g, h) U(g)U(h) and M = U(g)U(h)U(k), expanding
    U(ghk) once as U(g . hk) and once as U(gh . k) gives
    Delta M = omega(gh, k) r(g, h) U(k) + r(gh, k) - omega(g, hk) U(g) r(h, k)
    - r(g, hk) for the cocycle defect Delta of the triple.  With
    e = max |r|, f = max |U*U - I|, ||r||_F <= d e, ||U|| <= sqrt(1 + d f)
    and ||M||_F >= (1 - d f)^(3/2) sqrt(d), so
    |Delta| <= 2 sqrt(d) e (1 + sqrt(1 + d f)) / (1 - d f)^(3/2), with e
    raised by d^2 eps (1 + d f) for the rounding of the residuals.  When that
    bound plus the rounding of the check's own products is within PHASE_ATOL
    the identity holds and :func:`_check_cocycle` is skipped; otherwise it
    runs over all triples, with its error.  A multiplier within ATOL of 1
    meets the identity within 4 ATOL and skips it too.  On the derived route
    e is the derived bound, which covers r for the returned table.  The rep
    keeps (e, delta, f), delta the largest ||om| - 1| or its derived bound,
    and a read-only copy of the matrices.
    """
    stack = _as_stack(matrices)
    if not np.all(np.isfinite(stack)):
        raise DomainError("representation matrices have non-finite entries")
    n = group.order
    if len(stack) != n:
        raise DomainError(f"need {n} matrices, got {len(stack)}")
    d = stack.shape[1]
    eye = np.eye(d)
    f = np.abs(stack.conj().transpose(0, 2, 1) @ stack - eye).max()
    if f > ATOL * max(1.0, d):
        raise DomainError("matrix is not unitary")
    if np.abs(stack[group.identity] - eye).max() > ATOL:
        raise DomainError("identity element must map to the identity matrix")
    omega, e, delta = _generator_route(group, stack, f) or _scan(group, stack)
    e0 = group.identity
    if np.abs(omega[e0, :] - 1).max() > PHASE_ATOL or np.abs(omega[:, e0] - 1).max() > PHASE_ATOL:
        raise NotAProjectiveRepError("multiplier is not normalized at the identity")
    rep = ProjectiveRep(group, d, stack, omega)
    if not (rep.is_unitary_rep() or _cocycle_certified(d, e, f)):
        _check_cocycle(group, omega)
    stack.flags.writeable = False   # the bounds hold for these matrices only
    rep._bounds = (e, delta, f)
    return rep


def _scan(group: grp.FiniteGroup, stack: np.ndarray) -> tuple:
    """The product rule on every pair: the multiplier table, the largest residual and defect.

    Raises at the first failing pair in row-major order.
    """
    n, d = stack.shape[:2]
    omega = np.empty((n, n), dtype=complex)
    e = delta = 0.0
    for g, om, defect, residual in _product_blocks(group, stack):
        not_unimodular = defect > PHASE_ATOL
        failed = not_unimodular | (residual > ATOL * max(1.0, d))
        if failed.any():
            r, h = divmod(int(np.argmax(failed)), n)   # row-major: first g, then h
            pair = f"({group.names[g[r]]}, {group.names[h]})"
            if not_unimodular[r, h]:
                raise NotAProjectiveRepError(f"multiplier at {pair} is not unimodular")
            raise NotAProjectiveRepError(f"residual at {pair} exceeds tolerance")
        omega[g] = om
        e, delta = max(e, residual.max()), max(delta, defect.max())
    return omega, e, delta


def _word_tree(group: grp.FiniteGroup) -> tuple:
    """The breadth-first word tree of S = ``group.generators``, built once per group.

    Returns ``(gens, layers)``: S as an index array, layer 1 of the tree,
    and layers 2, 3, ... as ``(elements, generators, parents)`` index arrays
    with element = generator * parent and each parent in the layer before,
    so every element has a word s_1 ... s_k e.  Kept on the group beside its
    dual.
    """
    if group._words is None:
        gens = np.array(group.generators, dtype=int)
        reached = np.zeros(group.order, dtype=bool)
        reached[[group.identity, *gens]] = True
        layers, frontier = [], gens
        while not reached.all():
            prods = group.mul[gens[:, None], frontier]          # [s, p] -> s p
            fresh = ~reached[prods]
            new, first = np.unique(prods[fresh], return_index=True)
            s, p = (idx[first] for idx in np.nonzero(fresh))
            layers.append((new, gens[s], frontier[p]))
            reached[new] = True
            frontier = new
        group._words = (gens, tuple(layers))
    return group._words


def _generator_route(group: grp.FiniteGroup, stack: np.ndarray, f: float):
    """The multiplier table from the generator rows, with bounds over every pair.

    Returns ``(omega, e, delta)``, where e bounds max |U(gh) - om U(g)U(h)|
    for om both the returned omega(g, h) and the full scan's estimate, and
    delta bounds the full scan's ||om| - 1|, over all pairs.  Returns None,
    and the full scan must run, when the table fits one block of
    :func:`_product_blocks`, a generator row fails the product rule, or the
    bounds of :func:`_derived_bounds` miss the scan's tolerances.  ``f`` is
    max |U*U - I|.
    """
    n, d = stack.shape[:2]
    if _block_rows(n, n * d * d) == n:
        return None
    gens, layers = _word_tree(group)
    omega = np.empty((n, n), dtype=complex)
    e = delta = 0.0
    for g, om, defect, residual in _product_blocks(group, stack, np.append(group.identity, gens)):
        block_e, block_delta = residual.max(), defect.max()
        # written so that a NaN fails every comparison
        if not (block_delta <= PHASE_ATOL and block_e <= ATOL * max(1.0, d)):
            return None
        omega[g] = om
        e, delta = max(e, block_e), max(delta, block_delta)
    mul = group.mul
    for g, s, p in layers:
        omega[g] = omega[s[:, None], mul[p]] * omega[p] / omega[s, p][:, None]
    bounds = _derived_bounds(d, e, f, np.abs(np.abs(omega) - 1).max(), len(layers))
    if bounds is None:
        return None
    return omega, bounds[0], max(delta, bounds[1])


def _derived_bounds(d: int, e: float, f: float, drift: float, depth: int):
    """Residual and defect bounds over a derived table, or None when they miss.

    e is the largest generator-row residual, f = max |U*U - I|, drift the
    largest ||omega(g, h)| - 1| of the derived table and depth the number of
    derived layers.  For g = s g' the derivation of :func:`_generator_route`
    gives, with R(g, h) = U(gh) - omega(g, h) U(g)U(h),
    R(g, h) = R(s, g'h) + omega(s, g'h) U(s) R(g', h) - omega(g, h) R(s, g') U(h).
    With ||U|| <= nu = sqrt(1 + d f) and ||R||_F <= d e on a computed row,
    E(g) = max_h ||R(g, h)||_F obeys E(g) <= nu E(g') + d e (1 + nu), so E
    grows by about 2 d e per layer.  Here each omega's modulus (at most
    kappa = (1 + drift)^2 / (1 - drift)) is kept, e is raised by
    d^2 eps (1 + d f) for the rounding of the residuals, and each layer by
    8 eps kappa nu^2 sqrt(d) for the rounding of its three products.

    With E the deepest layer's bound, phi = d f, P = U(g)U(h) and
    Q = U(gh) = omega P + R, the full scan's estimate <P, Q>_HS / d is
    omega ||P||_F^2 / d plus at most r = (1 + phi) E / sqrt(d), and
    ||P||_F^2 / d lies in [(1 - phi)^2, (1 + phi)^2].  So the scan's defect
    is at most (1 + drift)(1 + phi)^2 - 1 + r, its normalized estimate lies
    within 2 r / ((1 - phi)^2 (1 - drift)) + drift of omega, and every entry
    of its residual is at most that distance times sqrt(d) (1 + phi), plus
    E.  Each is raised by 2 d^2 eps (1 + phi)^2 for the rounding of the
    scan's own sums.  When the residual bound is within ATOL max(1, d) and
    the defect bound within PHASE_ATOL, the full scan would have accepted
    every pair, and ``(residual, defect)`` is returned.  The residual bound
    is at least E, so it also bounds every entry of R for the derived table.
    """
    eps = np.finfo(float).eps
    phi = d * f
    # written so that a NaN fails every comparison
    if not (phi < 1 and drift < 1):
        return None
    nu = np.sqrt(1 + phi)
    kappa = (1 + drift) ** 2 / (1 - drift)
    row = d * (e + d * d * eps * (1 + phi))
    bound = row
    for _ in range(depth):
        bound = kappa * nu * (row + bound) + row + 8 * eps * kappa * nu * nu * np.sqrt(d)
    r = (1 + phi) * bound / np.sqrt(d)
    rounding = 2 * d * d * eps * (1 + phi) ** 2
    phase = 2 * r / ((1 - phi) ** 2 * (1 - drift)) + drift
    residual = phase * np.sqrt(d) * (1 + phi) + bound + rounding
    defect = (1 + drift) * (1 + phi) ** 2 - 1 + r + rounding
    if not (residual <= ATOL * max(1.0, d) and defect <= PHASE_ATOL):
        return None
    return residual, defect


def _cocycle_certified(d: int, e: float, f: float) -> bool:
    """The cocycle bound of :func:`rep_from_matrices` from residual e and unitarity defect f."""
    eps = np.finfo(float).eps
    df = d * f
    if not df < 1:
        return False
    e = e + d * d * eps * (1 + df)
    bound = 2 * np.sqrt(d) * e * (1 + np.sqrt(1 + df)) / ((1 - df) * np.sqrt(1 - df))
    # plus the rounding of the check's two products of unimodular numbers
    return bool(bound + 4 * eps <= PHASE_ATOL)


def _check_cocycle(group: grp.FiniteGroup, omega: np.ndarray):
    """Raise unless omega(g, hk) omega(h, k) = omega(g, h) omega(gh, k) for all triples.

    A block of ``max(1, 4096 // n^2)`` values of g at a time, with the same
    64 KiB bound on its ``(rows, n, n)`` work arrays as
    :func:`_product_blocks`: [g, h, k] -> omega(g, hk) omega(h, k) and
    omega(g, h) omega(gh, k).
    """
    n = group.order
    mul = group.mul
    rows = _block_rows(n, n * n)
    left_buf = np.empty((rows, n, n), dtype=complex)
    right_buf = np.empty_like(left_buf)
    moduli_buf = np.empty(left_buf.shape)
    defect = 0.0
    for g0 in range(0, n, rows):
        g1 = min(g0 + rows, n)
        k = g1 - g0
        left, right, moduli = left_buf[:k], right_buf[:k], moduli_buf[:k]
        np.take(omega[g0:g1], mul, axis=1, out=left, mode="clip")
        left *= omega
        np.take(omega, mul[g0:g1], axis=0, out=right, mode="clip")
        right *= omega[g0:g1, :, None]
        left -= right
        defect = max(defect, np.abs(left, out=moduli).max())
    if defect > PHASE_ATOL:
        raise NotAProjectiveRepError(f"cocycle identity fails (defect {defect:.3e})")


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """kron(a[...], b[...]) over broadcast leading axes, entrywise as np.kron."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    k = a.shape[-1] * b.shape[-1]
    return out.reshape(out.shape[:-4] + (k, k))


def conjugation_rep(rep: ProjectiveRep) -> ProjectiveRep:
    """Ordinary unitary representation L -> U(g) L U(g)* on operator space.

    Operators are vectorized row-major, so the representing matrix is
    K(g) = kron(U(g), conj(U(g))); the multiplier phases cancel and the
    identity operator line is always invariant.

    K is certified from U's own d x d products instead of by
    ``rep_from_matrices`` on the (d^2, d^2) stack.  With P = U(g)U(h),
    Q = U(gh) and the bounds (e, delta, f) that ``rep_from_matrices`` kept
    for U (e >= max |Q - om P|, delta >= max ||om| - 1|, f = max |U*U - I|,
    om as in :func:`_product_blocks`), the mixed-product rule gives
    K(g)K(h) = kron(P, conj P), K*K = kron(U*U, conj(U*U)) and a multiplier
    |<P, Q>|^2 / d^2, real and positive.  So every check of
    ``rep_from_matrices`` on K holds when

    - unitarity: 2f + f^2 <= ATOL d^2;
    - product residual: 2e(1 + d f) + e^2 <= ATOL d^2, as
      |P_ij| <= ||U(g)|| ||U(h)|| <= 1 + d f;
    - unimodularity: delta (2 + delta) <= PHASE_ATOL;
    - identity: max |K(e) - I| <= ATOL, computed directly;

    each left side plus d^4 eps (1 + d f)^2 for the rounding of the
    d^4-term sums the direct check would form.  The normalized multiplier of
    K is then 1, so the identity normalization and the cocycle identity hold
    too, and the table is returned as exactly one.  A rep without bounds, or
    not certified, goes to ``rep_from_matrices`` on K, with its errors.
    """
    u = rep.matrices
    k = _kron(u, u.conj())
    n, dk = rep.group.order, k.shape[-1]
    if (rep._bounds is not None and _conjugation_certified(rep.dim, *rep._bounds)
            and np.abs(k[rep.group.identity] - np.eye(dk)).max() <= ATOL):
        return ProjectiveRep(rep.group, dk, k, np.ones((n, n), dtype=complex))
    out = rep_from_matrices(rep.group, k)
    if not out.is_unitary_rep():
        raise InconsistencyError("conjugation representation kept a multiplier")
    return out


def _conjugation_certified(d: int, e: float, delta: float, f: float) -> bool:
    """The bounds of :func:`conjugation_rep` but the identity's, from U's e, delta and f."""
    dk = d * d
    rounding = dk * dk * np.finfo(float).eps * (1 + d * f) ** 2
    # written so that a NaN fails every comparison
    return bool(2 * f + f * f + rounding <= ATOL * dk
                and 2 * e * (1 + d * f) + e * e + rounding <= ATOL * dk
                and delta * (2 + delta) + rounding <= PHASE_ATOL)


def regular_rep(group: grp.FiniteGroup) -> ProjectiveRep:
    """Permutation matrices of left translation on functions over the group."""
    n = group.order
    mats = np.zeros((n, n, n), dtype=complex)
    mats[np.arange(n)[:, None], group.mul, np.arange(n)] = 1.0   # [g, gh, h]
    return rep_from_matrices(group, mats)


def restrict(rep: ProjectiveRep, columns: np.ndarray) -> ProjectiveRep:
    """Compress onto an invariant subspace given by orthonormal columns.

    Non-invariance surfaces as a unitarity failure during revalidation.
    """
    b = np.asarray(columns, dtype=complex)
    return rep_from_matrices(rep.group, b.conj().T @ rep.matrices @ b)


# --- duals -----------------------------------------------------------------

@dataclass(eq=False)
class Irrep:
    """Irreducible unitary representation with its character.

    ``matrices`` becomes the validated ``(n, dim, dim)`` array.
    """

    group: grp.FiniteGroup
    name: str
    dim: int
    matrices: np.ndarray
    character: np.ndarray = field(init=False)

    def __post_init__(self):
        g = self.group
        stack = _as_stack(self.matrices)
        if stack.shape[1] != self.dim:
            raise ShapeError("irrep matrix of wrong shape")
        rep = rep_from_matrices(g, stack)
        if not rep.is_unitary_rep():
            raise DomainError("irrep is not a homomorphism")
        self.matrices = rep.matrices
        self.character = rep.character()
        norm = np.sum(np.abs(self.character) ** 2) / g.order
        if abs(norm - 1) > ATOL:
            raise DomainError(f"character norm {norm} != 1: not irreducible")
        # class constancy: [t, a] -> t a t^-1
        conj = g.mul[g.mul, g.inverse[:, None]]
        if np.abs(self.character[conj] - self.character).max() > ATOL:
            raise DomainError("character is not a class function")


def _product_irrep(group: grp.FiniteGroup, name: str, matrices: np.ndarray) -> Irrep:
    """An irrep of a direct product from the Kronecker product of validated factor irreps.

    Not validated again: the product of unitary representations of the
    factors is one of the product group, its character is the product of
    theirs, so a class function, and its character norm is the product of
    theirs, 1; none of :class:`Irrep`'s checks can fail.  The character is
    read off the diagonal, as a validated irrep's is, so its bits (signed
    zeros included) are the same.  :func:`_build_dual` still checks the
    whole dual's completeness and character Gram.
    """
    irr = object.__new__(Irrep)
    irr.group, irr.name, irr.dim, irr.matrices = group, name, matrices.shape[1], matrices
    irr.character = np.trace(matrices, axis1=1, axis2=2)
    return irr


def _sign_character(group, name, plus_names):
    vals = [1.0 if nm in plus_names else -1.0 for nm in group.names]
    return Irrep(group, name, 1, np.reshape(vals, (-1, 1, 1)))


def irreps_of(group: grp.FiniteGroup) -> list:
    """Complete dual of the supported groups, as a fresh list on each call.

    Supported kinds: cyclic groups, direct products of supported groups, the
    quaternion group, and the order-8 dihedral group.  Anything else raises
    NotImplementedError; extending the dispatch in :func:`_build_dual` is the
    intended hook.  The dual is built and validated once per group object and
    kept on the group; a group whose dual has not been built yet, or whose
    construction raised, builds it again.
    """
    if group._dual is None:
        group._dual = tuple(_build_dual(group))
    return list(group._dual)


def _build_dual(group: grp.FiniteGroup) -> list:
    """Build and validate the dual of :func:`irreps_of`."""
    kind = group.kind
    if kind is None:
        raise NotImplementedError("group carries no construction tag")
    if kind.startswith("cyclic:"):
        n = group.order
        k = np.arange(n)
        # [j, k] -> exp(2 pi i j k / n), the phase rounded as (2 pi j) k / n
        chars = np.exp(1j * (2 * np.pi * k[:, None] * k[None, :] / n))
        out = [Irrep(group, f"chi{j}", 1, chars[j].reshape(n, 1, 1)) for j in range(n)]
    elif kind == "quaternion" or kind == "dihedral8":
        names = group.names
        out = [
            _sign_character(group, "chi0", set(names)),
            _sign_character(group, "chi1", {names[0], names[1], names[2], names[3]}),
            _sign_character(group, "chi2", {names[0], names[1], names[4], names[5]}),
            _sign_character(group, "chi3", {names[0], names[1], names[6], names[7]}),
        ]
        mats = (grp.QUATERNION_MATRICES if kind == "quaternion"
                else grp.DIHEDRAL8_MATRICES)
        out.append(Irrep(group, "pi", 2, mats))
    elif kind.startswith("product(") and kind.endswith(")"):
        duals = [irreps_of(grp.build_group(p))
                 for p in grp._split_product_args(kind[len("product("):-1])]
        out = []
        for chosen in itertools.product(*duals):
            # element (a, b, ...) sits at a * #(rest) + ..., so fold from the
            # right: kron(m1, kron(m2, m3)), as the product group is indexed
            mats = chosen[-1].matrices
            for irr in reversed(chosen[:-1]):
                mats = _kron(irr.matrices[:, None], mats[None])
                mats = mats.reshape(-1, *mats.shape[-2:])
            name = "x".join(irr.name for irr in chosen)
            out.append(_product_irrep(group, name, mats))
    else:
        raise NotImplementedError(f"no dual construction for kind {kind!r}")
    total = sum(irr.dim ** 2 for irr in out)
    if total != group.order:
        raise InconsistencyError("dual is incomplete: sum of squared dims != order")
    chars = np.array([irr.character for irr in out])
    if np.abs(chars.conj() @ chars.T / group.order - np.eye(len(out))).max() > ATOL:
        raise InconsistencyError("characters are not orthogonal")
    return out


# --- isotypic decomposition -------------------------------------------------

@dataclass(eq=False)
class IsotypicComponent:
    irrep: Irrep
    multiplicity: int
    projection: np.ndarray


@dataclass(eq=False)
class IsotypicDecomposition:
    rep: ProjectiveRep
    components: list

    def multiplicity_of(self, name: str) -> int:
        for c in self.components:
            if c.irrep.name == name:
                return c.multiplicity
        raise KeyError(name)


_DRAWS = 3   # seeded draws of the twirl before isotypic_decompose gives up


def _draw(t: int, d: int) -> np.ndarray:
    """Complex Hermitian draw t: a real one gives each complex irrep its conjugate's eigenvalue."""
    z = np.random.default_rng(t).standard_normal((d, d, 2)).view(complex)[..., 0]
    return z + z.conj().T


def isotypic_decompose(rep: ProjectiveRep) -> IsotypicDecomposition:
    """Split an ordinary unitary representation into isotypic blocks by Dixon's twirl.

    A seeded draw X is twirled into the commutant, T = (1/#G) sum_g V(g) X V(g)*; ``eigh(T)``
    is cut where a gap exceeds PHASE_ATOL max |lambda|, and the staircase with eigenvalue c on
    cluster c twirled again, so input defects reach its eigenvectors Q over gaps of 1, not
    ||X|| / gap.  Q* V(g) Q must be block diagonal within ATOL (invariance), and each block's
    trace have inner product within PHASE_ATOL of 1 with an irrep of its size (irreducibility);
    else the next of three seeds is drawn, then the third's error raised.  Component a has its
    matched blocks as multiplicity and Q_a Q_a* as projection, orthonormal by construction.
    """
    if not rep.is_unitary_rep():
        raise DomainError("isotypic decomposition needs a trivial multiplier")
    irreps = irreps_of(rep.group)
    for t in range(_DRAWS - 1):
        with contextlib.suppress(InconsistencyError):
            return _twirl_decompose(rep, irreps, _draw(t, rep.dim))
    return _twirl_decompose(rep, irreps, _draw(_DRAWS - 1, rep.dim))


def _twirl_decompose(rep: ProjectiveRep, irreps: list, x: np.ndarray) -> IsotypicDecomposition:
    """The decomposition of :func:`isotypic_decompose` from the draw x.

    Each pass takes ``_block_rows(n, d^2)`` group elements at a time through two work arrays.
    """
    v, n, d = rep.matrices, rep.group.order, rep.dim
    rows = _block_rows(n, d * d)
    work, out = np.empty((rows, d, d), dtype=complex), np.empty((rows, d, d), dtype=complex)

    def clusters(y):
        twirl = np.zeros((d, d), dtype=complex)
        for g0 in range(0, n, rows):
            vb = v[g0:g0 + rows]
            w = np.conjugate(np.matmul(vb, y, out=work[:len(vb)]), out=work[:len(vb)])
            twirl += np.matmul(vb, w.transpose(0, 2, 1), out=out[:len(vb)]).sum(axis=0)
        vals, q = np.linalg.eigh(twirl / n)                  # V Y V* = V (V Y)*, summed
        return q, np.cumsum(np.append(0, np.diff(vals) > PHASE_ATOL * np.abs(vals).max()))

    q, labels = clusters(x)
    q, labels = clusters((q * labels) @ q.conj().T)
    starts, qh = np.flatnonzero(np.diff(labels, prepend=-1)), q.conj().T
    chars, defect = np.empty((n, len(starts)), dtype=complex), 0.0   # [g, c] -> block c's trace
    for g0 in range(0, n, rows):
        vb = v[g0:g0 + rows]
        o = np.matmul(qh, np.matmul(vb, q, out=work[:len(vb)]), out=out[:len(vb)])
        chars[g0:g0 + len(vb)] = np.add.reduceat(o.diagonal(axis1=1, axis2=2), starts, axis=1)
        o *= labels[:, None] != labels                       # off the cluster blocks
        defect = max(defect, np.abs(o).max())
    if not defect <= ATOL:                                   # NaN fails too
        raise InconsistencyError(f"twirled eigenspaces are not invariant ({defect:.3e})")
    miss = np.abs(np.array([irr.character for irr in irreps]).conj() @ chars / n - 1)
    match, sizes = miss.argmin(axis=0), np.bincount(labels)  # [c] -> nearest irrep, dimension
    bad = (miss.min(axis=0) > PHASE_ATOL) | (np.array([irr.dim for irr in irreps])[match] != sizes)
    if bad.any():
        raise InconsistencyError(f"eigenspace of dimension {sizes[bad][0]} matches no irrep")
    del work, out, o, chars                                  # freed before the projections
    projs, components = np.zeros((len(irreps), d, d), dtype=complex), []
    for a, irr in enumerate(irreps):
        qa = q[:, match[labels] == a]
        np.matmul(qa, qa.conj().T, out=projs[a])
        components.append(IsotypicComponent(irr, qa.shape[1] // irr.dim, projs[a]))
    return IsotypicDecomposition(rep, components)


def is_cyclic_rep(decomp: IsotypicDecomposition) -> bool:
    """Cyclic exactly when no multiplicity exceeds its irrep's dimension."""
    return all(c.multiplicity <= c.irrep.dim for c in decomp.components)


# --- cyclic vectors ----------------------------------------------------------

def _orbit(rep: ProjectiveRep, v) -> np.ndarray:
    """The orbit matrix [g] -> V(g) v, which both cyclicity criteria read.

    ShapeError unless v lies in the representation space; DomainError unless
    v is finite and so is the orbit's squared norm, which bounds every
    singular value the rank rule reads.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (rep.dim,):
        raise ShapeError(f"vector of shape {v.shape} in dimension {rep.dim}")
    if not np.isfinite(v).all():
        raise DomainError("vector has non-finite entries")
    orbit = rep.matrices @ v
    if not np.isfinite(np.vdot(orbit, orbit)):
        raise DomainError("orbit of the vector overflows")
    return orbit


def schmidt_ranks(decomp: IsotypicDecomposition, v) -> list:
    """Schmidt rank of v in each isotypic block, read off the orbit matrix.

    The matrix unit E_0a = (dim/#G) sum_g conj(pi(g)_0a) V(g) maps the block
    into the multiplicity space at irrep coordinate 0, and E_0a v holds row a
    of v's (dim x mult) Schmidt matrix in that space.  So the rows E_0a v, one
    contraction of the orbit per irrep, have the Schmidt matrix's singular
    values, and the rank rule counts them.  A block of multiplicity 0 has
    rank 0.
    """
    orbit = _orbit(decomp.rep, v)
    n = decomp.rep.group.order
    ranks = []
    for comp in decomp.components:
        if comp.multiplicity == 0:
            ranks.append(0)
            continue
        irr = comp.irrep
        rows = irr.dim * irr.matrices[:, 0, :].conj().T @ orbit / n   # [a] -> E_0a v
        ranks.append(numerical_rank(rows))
    return ranks


def cyclic_by_span(rep: ProjectiveRep, v) -> bool:
    return numerical_rank(_orbit(rep, v)) == rep.dim


def cyclic_by_schmidt(decomp: IsotypicDecomposition, v) -> bool:
    ranks = schmidt_ranks(decomp, v)
    return all(r == c.multiplicity for r, c in zip(ranks, decomp.components))


def is_cyclic_vector(rep: ProjectiveRep, v, decomp=None) -> bool:
    """Whether the orbit {V(g) v} spans the representation space.

    The orbit span ignores multiplier phases, so projective representations
    are accepted.  For ordinary ones the Schmidt criterion
    (:func:`cyclic_by_schmidt`) decides the same question and serves as the
    reference route.  ``decomp`` is unused; it is kept for callers that pass it.
    """
    return cyclic_by_span(rep, v)


# --- joint eigenspaces -------------------------------------------------------

def _phase_clusters(vals: np.ndarray) -> list:
    """Index arrays of eigenvalue clusters in phase order.

    Each cluster gathers the unused eigenvalues within PHASE_ATOL of the
    next one in phase order.
    """
    near = np.abs(vals[:, None] - vals[None, :]) < PHASE_ATOL
    used = np.zeros(len(vals), dtype=bool)
    clusters = []
    for idx in np.argsort(np.angle(vals)):
        if not used[idx]:
            cluster = np.flatnonzero(near[idx] & ~used)
            used[cluster] = True
            clusters.append(cluster)
    return clusters


def _eigenspaces(u: np.ndarray) -> list:
    """Orthonormal eigenspaces of u in phase order.

    Clusters follow :func:`_phase_clusters`; clusters of one size are
    orthonormalized by one batched QR.
    """
    vals, vecs = np.linalg.eig(u)
    clusters = _phase_clusters(vals)
    spaces = [None] * len(clusters)
    for w in {c.size for c in clusters}:
        which = [k for k, c in enumerate(clusters) if c.size == w]
        q, _ = np.linalg.qr(vecs[:, np.array([clusters[k] for k in which])].transpose(1, 0, 2))
        for k, qk in zip(which, q):
            spaces[k] = qk
    return spaces


def _refine(spaces: list, eigs: list) -> list:
    """Intersections of every space with every eigenspace, spaces outer and eigenspaces inner.

    One product [s_1 ... s_I]* [e_1 ... e_J] holds every s_i* e_j as a block,
    and the blocks of one shape go through one batched SVD; a singular value
    above 1 - PHASE_ATOL is a shared direction, and s_i times its left
    singular vectors spans the intersection.
    """
    rows = np.array([s.shape[1] for s in spaces])
    cols = np.array([e.shape[1] for e in eigs])
    row0, col0 = np.cumsum(rows) - rows, np.cumsum(cols) - cols
    overlaps = np.concatenate(spaces, axis=1).conj().T @ np.concatenate(eigs, axis=1)
    hits = {}
    for r in set(rows.tolist()):
        si = np.flatnonzero(rows == r)
        for w in set(cols.tolist()):
            ej = np.flatnonzero(cols == w)
            # [i, j, p, q] -> entry (p, q) of s_i* e_j
            block = overlaps[(row0[si, None] + np.arange(r))[:, None, :, None],
                             (col0[ej, None] + np.arange(w))[None, :, None, :]]
            u, sv, _ = np.linalg.svd(block, full_matrices=False)
            keep = sv > 1 - PHASE_ATOL
            for i, j in zip(*np.nonzero(keep.any(axis=2))):
                hits[si[i], ej[j]] = spaces[si[i]] @ u[i, j][:, keep[i, j]]
    return [hits[key] for key in sorted(hits)]


def joint_eigenspaces(matrices) -> list:
    """Maximal simultaneous eigenspaces of a family of unitaries.

    Returns orthonormal column blocks; every common eigenvector lies in
    exactly one of them.  Empty list when the family admits none.  The first
    unitary's eigenspaces are the first refinement; each later unitary splits
    every space through :func:`_refine`, spaces in order and within each the
    unitary's eigenspaces in phase order.
    """
    mats = np.asarray(matrices, dtype=complex)
    if len(mats) == 0:
        return [np.eye(mats.shape[1], dtype=complex)]
    spaces = _eigenspaces(mats[0])
    for u in mats[1:]:
        spaces = _refine(spaces, _eigenspaces(u))
        if not spaces:
            break
    return spaces


# --- exact multipliers -------------------------------------------------------

def _coboundary(group: grp.FiniteGroup, f: np.ndarray) -> np.ndarray:
    return f[:, None] * f[None, :] * np.conj(f[group.mul])


def _cycle_eigenspaces(group: grp.FiniteGroup, omega: np.ndarray, a: int) -> list:
    """Eigenspaces of L(a) e_h = conj(omega(a, h)) e_{ah} in phase order, in closed form.

    L(a) is monomial: it moves e_h along the cycle h, ah, ..., a^(l-1) h of
    the right coset <a>h, l the order of a, with the phase
    c_i = conj(omega(a, a^i h)) on step i.  On a cycle with phase product
    C = c_0 ... c_(l-1) the eigenvalues are the l-th roots lambda of C, with
    eigenvector x_i = c_0 ... c_(i-1) lambda^(-i) / sqrt(l) at a^i h: the
    eigenvectors of one cycle are orthonormal by construction and cycles
    are disjoint, so each cluster of :func:`_phase_clusters` is an
    orthonormal basis of its eigenspace, with no eig and no QR.
    """
    n, mul = group.order, group.mul
    powers = [group.identity]
    while (nxt := mul[a, powers[-1]]) != group.identity:
        powers.append(nxt)
    ell = len(powers)
    orbits = mul[powers]                                       # [i, h] -> a^i h
    cycles = orbits[:, orbits.min(axis=0) == np.arange(n)].T  # [c, i], from each coset's least element
    steps = np.conj(omega[a, cycles])                          # [c, i] -> c_i
    prefix = np.ones_like(steps)                               # [c, i] -> c_0 ... c_(i-1)
    np.cumprod(steps[:, :-1], axis=1, out=prefix[:, 1:])
    theta = (np.angle(prefix[:, -1] * steps[:, -1])[:, None] + 2 * np.pi * np.arange(ell)) / ell
    vecs = np.zeros((n, n), dtype=complex)
    # column c l + k holds the eigenvector of root k on cycle c
    cols = np.arange(n).reshape(len(cycles), ell)
    vecs[cycles[:, None, :], cols[:, :, None]] = (
        prefix[:, None, :] * np.exp(-1j * theta[:, :, None] * np.arange(ell)) / np.sqrt(ell))
    return [vecs[:, c] for c in _phase_clusters(np.exp(1j * theta).ravel())]


def is_exact_multiplier(rep: ProjectiveRep):
    """Decide whether the multiplier is a coboundary; return the phase if so.

    The test runs on the omega-twisted regular representation
    L(a) e_h = conj(omega(a, h)) e_{ah}, which carries the multiplier omega.
    omega is exact exactly when L has a common eigenline, and the test is
    complete for every finite group: if omega = delta f, then L fixes the line
    of sum_h f(h) e_h with eigenvalues conj(f); conversely a common
    eigenvector v with L(g) v = lambda(g) v gives
    omega(a, b) = lambda(ab) / (lambda(a) lambda(b)).  Eigenlines are sought
    on ``group.generators`` only, since L(g) of any product is a scalar
    times a product of generator matrices.  Each generator's eigenspaces are
    read off its cycles in closed form (:func:`_cycle_eigenspaces`), and the
    spaces are intersected generator by generator through :func:`_refine`.
    The returned phase f = conj(lambda) is verified against the multiplier
    before use.
    """
    group = rep.group
    omega = rep.multiplier
    n = group.order
    if rep.is_unitary_rep():
        return True, np.ones(n, dtype=complex)
    spaces = [np.eye(n, dtype=complex)]
    for k, a in enumerate(group.generators):
        eigs = _cycle_eigenspaces(group, omega, a)
        spaces = _refine(spaces, eigs) if k else eigs
        if not spaces:
            return False, None
    v = spaces[0][:, 0]
    lam = np.conj(v[group.mul] * omega) @ v              # [g] -> <v, L(g) v>
    f = np.conj(lam / np.abs(lam))
    if not np.abs(_coboundary(group, f) - omega).max() <= ATOL:   # NaN fails too
        raise InconsistencyError("twisted regular eigenline failed phase verification")
    return True, f

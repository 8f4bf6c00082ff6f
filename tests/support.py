"""Reference constructions used across the test suite.

Everything here is built directly from first principles (shift and clock
matrices, Pauli blocks) so the package's own builders can be checked against
an independent source.
"""

import numpy as np

from covpovm import group as grp
from covpovm import rep as rp

S1 = np.array([[0, 1], [1, 0]], dtype=complex)
S2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
S3 = np.array([[1, 0], [0, -1]], dtype=complex)

T_OPERATOR = np.diag([2.0, -1.0, -1.0]).astype(complex)


def haar_unitary(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def wh_matrices(d):
    """Shift/clock displacement matrices W(j, k) = U^j V^k, (j, k) row-major."""
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    mats = []
    for j in range(d):
        pj = np.linalg.matrix_power(shift, j)
        for k in range(d):
            mats.append(pj @ np.linalg.matrix_power(clock, k))
    return mats


def make_wh_rep(d):
    g = grp.build_group(f"product(cyclic:{d},cyclic:{d})")
    return rp.rep_from_matrices(g, wh_matrices(d))


def embed_block(m2):
    """3x3 block matrix diag(1, m2)."""
    u = np.zeros((3, 3), dtype=complex)
    u[0, 0] = 1.0
    u[1:, 1:] = m2
    return u


def pic3_seed(alpha, v):
    """Seed operator (1/8) id + sum_i alpha_i diag-block sigma_i + arrow(v)."""
    m = np.eye(3, dtype=complex) / 8
    for a, s in zip(alpha, (S1, S2, S3)):
        m[1:, 1:] += a * s
    m[0, 1:] = np.conj(v)
    m[1:, 0] = v
    return m


def order8_groups():
    return {
        "cyclic:8": grp.cyclic_group(8),
        "z2xz4": grp.product_group(grp.cyclic_group(2), grp.cyclic_group(4)),
        "z2xz2xz2": grp.build_group("product(cyclic:2,cyclic:2,cyclic:2)"),
        "quaternion": grp.quaternion_group(),
        "dihedral8": grp.dihedral8_group(),
    }


def selfadjoint_basis(space):
    """Selfadjoint HS-orthonormal basis of a *-closed operator subspace."""
    from covpovm.linalg import hs_inner

    cands = []
    for k in space.basis:
        cands.append((k + k.conj().T) / 2)
        cands.append((k - k.conj().T) / 2j)
    gram = np.array([[hs_inner(a, b).real for b in cands] for a in cands])
    vals, vecs = np.linalg.eigh(gram)
    out = []
    for i, v in enumerate(vals):
        if v > 1e-9 * vals[-1]:
            b = sum(vecs[j, i] * cands[j] for j in range(len(cands)))
            out.append(b / np.sqrt(v))
    return out


def povm_with_span(dim, sa_basis):
    """POVM whose effects span exactly the given operator system.

    The system must contain the identity and be spanned by the given
    selfadjoint basis.  Each effect is a slightly tilted multiple of the
    identity, plus one top-up outcome restoring normalization.
    """
    from covpovm.povm import Povm

    m = len(sa_basis)
    outcomes = []
    total = np.zeros((dim, dim), dtype=complex)
    for i, b in enumerate(sa_basis):
        opnorm = float(np.abs(np.linalg.eigvalsh((b + b.conj().T) / 2)).max())
        e = (np.eye(dim) + b / opnorm) / (2 * (m + 1))
        outcomes.append((f"e{i + 1}", e))
        total += e
    outcomes.insert(0, ("e0", np.eye(dim) - total))
    return Povm(dim, outcomes)


def planted_witness_povm(dim, rng):
    """POVM whose span misses exactly one planted pure-state difference.

    Returns the observable together with the planted orthonormal pair; the
    complement of the span is the line through |psi><psi| - |phi><phi|.
    """
    from covpovm import linalg

    z = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
    q, _ = np.linalg.qr(z)
    psi, phi = q[:, 0], q[:, 1]
    direction = np.outer(psi, psi.conj()) - np.outer(phi, phi.conj())
    line = linalg.span_orthonormalize([direction])
    span = linalg.orthogonal_complement(line)
    povm = povm_with_span(dim, selfadjoint_basis(span))
    return povm, psi, phi


def random_traceless(d, rng):
    """A random traceless Hermitian d x d operator."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = z + z.conj().T
    return h - np.trace(h) / d * np.eye(d)


def planted_complement_povm(dim, comp_dim, rng):
    """POVM whose complement holds a planted pure-state difference among random directions.

    The complement is spanned by |psi><psi| - |phi><phi| for a random
    orthonormal pair and comp_dim - 1 random traceless operators.  Returns the
    observable with the planted pair.
    """
    from covpovm import linalg

    q = haar_unitary(dim, rng)
    psi, phi = q[:, 0], q[:, 1]
    directions = [np.outer(psi, psi.conj()) - np.outer(phi, phi.conj())]
    directions += [random_traceless(dim, rng) for _ in range(comp_dim - 1)]
    span = linalg.orthogonal_complement(linalg.span_orthonormalize(directions))
    return povm_with_span(dim, span.basis), psi, phi


def f20_rank1_povm(seed):
    """d = 4 observable with 10 rank-1 outcomes, covariant under F20 = AGL(1, 5).

    F20 (x -> a x + b on Z_5) acts on the functions on Z_5 that sum to zero.
    The seed is 2/5 |psi><psi| with psi a random vector of the -1 (even seed)
    or +1 (odd seed) eigenspace of U(x -> -x), so its translates over the
    cosets of {x, -x} sum to the identity.  The complement has dimension 6.
    """
    from covpovm.povm import Povm

    rng = np.random.default_rng(seed)
    frame = np.linalg.qr(np.concatenate([np.ones((5, 1)), rng.standard_normal((5, 4))], axis=1))[0]

    def u(a, b):
        perm = np.zeros((5, 5))
        perm[(a * np.arange(5) + b) % 5, np.arange(5)] = 1
        return frame[:, 1:].T @ perm @ frame[:, 1:]

    vals, vecs = np.linalg.eigh(u(4, 0))
    space = vecs[:, np.isclose(vals, 1 if seed % 2 else -1)]
    psi = space @ (rng.standard_normal(space.shape[1]) + 1j * rng.standard_normal(space.shape[1]))
    psi /= np.linalg.norm(psi)
    ops = [u(a, b) @ (0.4 * np.outer(psi, psi.conj())) @ u(a, b).T for a in (1, 2) for b in range(5)]
    return Povm(4, enumerate(ops))


def codim2_povm():
    """d = 4 observable whose two-dimensional complement holds no rank <= 2 element.

    The complement is spanned by diag(1,1,-1,-1)/2 and the anti-identity:
    every real combination has eigenvalues +-sqrt(x^2+y^2) twice, rank 4.
    """
    from covpovm import linalg

    t1 = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex) / 2
    t2 = np.zeros((4, 4), dtype=complex)
    t2[0, 3] = t2[3, 0] = t2[1, 2] = t2[2, 1] = 0.5
    line = linalg.span_orthonormalize([t1, t2])
    span = linalg.orthogonal_complement(line)
    return povm_with_span(4, selfadjoint_basis(span))


def reference_rep_from_matrices(group, matrices):
    """Validation by the full scan: the product rule checked on every pair of the table.

    The route ``rep_from_matrices`` takes for tables that fit one block, and
    its fallback: the same checks and messages, in the same order, with the
    multiplier read off every row.
    """
    from covpovm.errors import DomainError, NotAProjectiveRepError
    from covpovm.linalg import ATOL, PHASE_ATOL

    stack = rp._as_stack(matrices)
    if not np.all(np.isfinite(stack)):
        raise DomainError("representation matrices have non-finite entries")
    n, d = group.order, stack.shape[1]
    if len(stack) != n:
        raise DomainError(f"need {n} matrices, got {len(stack)}")
    f = np.abs(stack.conj().transpose(0, 2, 1) @ stack - np.eye(d)).max()
    if f > ATOL * max(1.0, d):
        raise DomainError("matrix is not unitary")
    if np.abs(stack[group.identity] - np.eye(d)).max() > ATOL:
        raise DomainError("identity element must map to the identity matrix")
    omega = np.empty((n, n), dtype=complex)
    e = 0.0
    for g, om, defect, residual in rp._product_blocks(group, stack):
        not_unimodular = defect > PHASE_ATOL
        failed = not_unimodular | (residual > ATOL * max(1.0, d))
        if failed.any():
            r, h = divmod(int(np.argmax(failed)), n)
            pair = f"({group.names[g[r]]}, {group.names[h]})"
            if not_unimodular[r, h]:
                raise NotAProjectiveRepError(f"multiplier at {pair} is not unimodular")
            raise NotAProjectiveRepError(f"residual at {pair} exceeds tolerance")
        omega[g] = om
        e = max(e, residual.max())
    e0 = group.identity
    if np.abs(omega[e0, :] - 1).max() > PHASE_ATOL or np.abs(omega[:, e0] - 1).max() > PHASE_ATOL:
        raise NotAProjectiveRepError("multiplier is not normalized at the identity")
    rep = rp.ProjectiveRep(group, d, stack, omega)
    if not (rep.is_unitary_rep() or rp._cocycle_certified(d, e, f)):
        rp._check_cocycle(group, omega)
    return rep


def reference_isotypic_decompose(rep):
    """The character-formula route, with no checks.

    Multiplicity <chi_a, chi_V> / #G rounded to an integer, and projection
    P_a = (dim_a / #G) sum_g conj(chi_a(g)) V(g), one irrep at a time.
    """
    n = rep.group.order
    components = []
    for irr in rp.irreps_of(rep.group):
        mult = int(round((np.vdot(irr.character, rep.character()) / n).real))
        proj = irr.dim * np.tensordot(np.conj(irr.character), rep.matrices, axes=1) / n
        components.append(rp.IsotypicComponent(irr, mult, proj))
    return rp.IsotypicDecomposition(rep, components)


def reference_eigenspaces(u):
    """Eigenspaces of u in phase order, each cluster orthonormalized by its own QR."""
    from covpovm.linalg import PHASE_ATOL

    vals, vecs = np.linalg.eig(u)
    n = len(vals)
    used = np.zeros(n, dtype=bool)
    spaces = []
    for idx in np.argsort(np.angle(vals)):
        if used[idx]:
            continue
        cluster = [i for i in range(n) if not used[i] and abs(vals[i] - vals[idx]) < PHASE_ATOL]
        used[cluster] = True
        spaces.append(np.linalg.qr(vecs[:, cluster])[0])
    return spaces


def reference_joint_eigenspaces(matrices):
    """The pairwise refinement loop: every space against every eigenspace, one SVD each.

    Starts from the identity frame and keeps the singular directions above
    1 - PHASE_ATOL, spaces in order and within each the eigenspaces in
    phase order.
    """
    from covpovm.linalg import PHASE_ATOL

    mats = np.asarray(matrices, dtype=complex)
    spaces = [np.eye(mats.shape[1], dtype=complex)]
    for u in mats:
        refined = []
        eigs = reference_eigenspaces(u)
        for s in spaces:
            for e in eigs:
                left, sv, _ = np.linalg.svd(s.conj().T @ e)
                idx = np.nonzero(sv > 1 - PHASE_ATOL)[0]
                if idx.size:
                    refined.append(s @ left[:, idx])
        spaces = refined
        if not spaces:
            break
    return spaces


def relabelled_table(mul, seed):
    """The table ``mul`` with its elements renamed by a seeded permutation."""
    n = len(mul)
    perm = np.random.default_rng(seed).permutation(n)
    table = np.empty((n, n), dtype=int)
    table[perm[:, None], perm[None, :]] = perm[mul]
    return table


def relabelled_cyclic6():
    """Z6 as a table whose identity is not element 0."""
    table = relabelled_table(grp.cyclic_group(6).mul, 6)
    g = grp.FiniteGroup(tuple(str(k) for k in range(6)), table)
    assert g.identity != 0
    return g


def reference_is_associative(mul):
    """(ab)c = a(bc) on every triple, as one (n, n, n) comparison."""
    mul = np.asarray(mul)
    # mul[mul][a, b, c] = (ab)c and mul[:, mul][a, b, c] = a(bc)
    return bool(np.all(mul[mul, :] == mul[:, mul]))


def reference_subgroup(g, gens):
    """Members of the subgroup generated by ``gens``, sorted.

    Grows the set from the identity by left and right products with every
    generator, one element at a time, until no product is new.
    """
    members = {g.identity}
    frontier = [g.identity]
    while frontier:
        a = frontier.pop()
        for x in gens:
            for b in (g.op(a, x), g.op(x, a)):
                if b not in members:
                    members.add(b)
                    frontier.append(b)
    return tuple(sorted(members))


def reference_generating_set(group):
    """Greedy generators, each addition closed through ``reference_subgroup``."""
    gens, members = [], {group.identity}
    for a in range(group.order):
        if a not in members:
            gens.append(a)
            members = set(reference_subgroup(group, gens))
    return gens


def _matrix_unit(rep, irr, a, b):
    """E_ab = (dim/#G) sum_g conj(pi(g)_ab) V(g), one group average over the stack."""
    n, d = rep.group.order, rep.dim
    coeffs = irr.dim * np.conj(irr.matrices[:, a, b])
    return (coeffs @ rep.matrices.reshape(n, d * d)).reshape(d, d) / n


def reference_schmidt_ranks(decomp, v):
    """Schmidt ranks through explicit isotypic bases, one per component.

    An orthonormal basis w of range(E_00), the eigenvectors of E_00 above 1/2,
    spans the multiplicity space at irrep coordinate 0, and E_a0 w fills in
    coordinate a.  Column a * mult + j of the basis sits at irrep coordinate a
    and multiplicity coordinate j, so v's coordinates reshape to its
    (dim x mult) Schmidt matrix.
    """
    from covpovm.linalg import PHASE_ATOL, numerical_rank

    rep = decomp.rep
    ranks = []
    for comp in decomp.components:
        irr, m = comp.irrep, comp.multiplicity
        if m == 0:
            ranks.append(0)
            continue
        e00 = _matrix_unit(rep, irr, 0, 0)
        vals, vecs = np.linalg.eigh((e00 + e00.conj().T) / 2)
        w = vecs[:, vals > 0.5]
        assert w.shape[1] == m, irr.name
        basis = np.concatenate([w] + [_matrix_unit(rep, irr, a, 0) @ w for a in range(1, irr.dim)],
                               axis=1)
        assert np.abs(basis.conj().T @ basis - np.eye(basis.shape[1])).max() <= PHASE_ATOL
        ranks.append(numerical_rank((basis.conj().T @ v).reshape(irr.dim, m)))
    return ranks


def schmidt_deficient(decomp, v):
    """v with its part in each block of irrep dimension and multiplicity >= 2 moved to E_00's range.

    That part's Schmidt matrix keeps only row 0, so its rank drops to 1.
    """
    rep = decomp.rep
    out = np.array(v, dtype=complex)
    for comp in decomp.components:
        if comp.irrep.dim >= 2 and comp.multiplicity >= 2:
            part = comp.projection @ v
            out += _matrix_unit(rep, comp.irrep, 0, 0) @ part - part
    return out

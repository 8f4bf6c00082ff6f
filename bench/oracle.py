"""Independent verdict oracle.

Nothing here calls covpovm: witnesses, multipliers and cyclic vectors are
re-checked with plain numpy from the inputs the benchmark generated, and each
verdict is compared with the fingerprint its case expects by construction.

Under the rule that a verdict may only get stronger, ``PIC_unfalsified`` may
turn into ``PIC_certified``, or into ``not_PIC`` with a witness that passes
the check here.  Any other difference is a failure.
"""

from __future__ import annotations

import numpy as np

PIC_CERTIFIED = "PIC_certified"
PIC_UNFALSIFIED = "PIC_unfalsified"
NOT_PIC = "not_PIC"

# A witness pair (psi, phi) is accepted when the least-squares projection of
# |psi><psi| - |phi><phi| onto the effects' span has norm at most this; the
# library's own acceptance is a squared norm below 1e-12.
WITNESS_TOL = 1e-6
PHASE_TOL = 1e-7


def witness_error(effects: np.ndarray, psi, phi) -> str | None:
    """Reason the pair is not a witness for the stacked effects, or None."""
    psi = np.asarray(psi, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    m, d, _ = effects.shape
    if psi.shape != (d,) or phi.shape != (d,):
        return f"witness vectors of shape {psi.shape}, {phi.shape} in dimension {d}"
    if abs(np.linalg.norm(psi) - 1) > 1e-6 or abs(np.linalg.norm(phi) - 1) > 1e-6:
        return "witness vectors are not unit vectors"
    diff = np.outer(psi, psi.conj()) - np.outer(phi, phi.conj())
    if np.linalg.norm(diff) < 0.5:
        return "witness states are (nearly) the same ray"
    stacked = effects.reshape(m, d * d).T
    coef, *_ = np.linalg.lstsq(stacked, diff.reshape(-1), rcond=None)
    residual = float(np.linalg.norm(stacked @ coef))
    if residual > WITNESS_TOL:
        return f"witness escapes the span only up to {residual:.2e}"
    return None


def povm_error(effects: np.ndarray, span_dim: int) -> str | None:
    """Reason the stack is not an observable with that span dimension, or None."""
    m, d, _ = effects.shape
    adj = effects.conj().transpose(0, 2, 1)
    if np.abs(effects - adj).max() > 1e-9:
        return "an effect is not Hermitian"
    if np.linalg.eigvalsh((effects + adj) / 2).min() < -1e-9:
        return "an effect is not positive"
    if np.abs(effects.sum(axis=0) - np.eye(d)).max() > 1e-9:
        return "effects do not sum to the identity"
    s = np.linalg.svd(effects.reshape(m, d * d), compute_uv=False)
    rank = int(np.sum(s > 1e-9 * s[0]))
    if rank != span_dim:
        return f"effects span dimension {rank}, expected {span_dim}"
    return None


def multiplier(mats: np.ndarray, table: np.ndarray) -> np.ndarray:
    """omega(g, h) with U(gh) = omega(g, h) U(g) U(h), from the matrices."""
    d = mats.shape[1]
    prods = np.einsum("gij,hjk->ghik", mats, mats)
    omega = np.einsum("ghij,ghij->gh", prods.conj(), mats[table]) / d
    return omega / np.abs(omega)


def coboundary_error(mats, table, phase) -> str | None:
    """Reason ``phase`` does not trivialize the multiplier, or None."""
    f = np.asarray(phase, dtype=complex)
    omega = multiplier(mats, table)
    defect = np.abs(f[:, None] * f[None, :] * np.conj(f[table]) - omega).max()
    if defect > PHASE_TOL:
        return f"returned phase misses the multiplier by {defect:.2e}"
    return None


def commutator_error(mats, g: int, h: int) -> str | None:
    """Reason (g, h) does not certify a non-exact multiplier, or None.

    g and h commute in the group, so a coboundary would force
    omega(g, h) = omega(h, g), i.e. U(g) U(h) = U(h) U(g).
    """
    d = mats.shape[1]
    gh = mats[g] @ mats[h]
    hg = mats[h] @ mats[g]
    ratio = np.vdot(hg, gh) / d
    if np.abs(gh - ratio * hg).max() > 1e-8:
        return "U(g) U(h) is not a multiple of U(h) U(g)"
    if abs(ratio - 1) < 0.1:
        return f"commutator phase {ratio:.3f} does not separate omega(g,h) from omega(h,g)"
    return None


def cyclic_by_rank(mats, v) -> bool:
    """Whether the orbit {V(g) v} spans the space, by an SVD of its own."""
    cols = np.einsum("gij,j->ig", mats, np.asarray(v, dtype=complex))
    s = np.linalg.svd(cols, compute_uv=False)
    return bool(s[-1] > 1e-9 * s[0]) if cols.shape[0] <= cols.shape[1] else False


def judge(case, result) -> tuple[bool, bool, str | None]:
    """(passed, strengthened, reason) for one case result."""
    if "error" in result:
        return False, False, result["error"]
    expect = case.expect
    got = result["fingerprint"]
    evidence = result.get("evidence", {})
    strengthened = False
    for key, want in expect.items():
        have = got.get(key)
        if have == want:
            continue
        if key == "status" and want == PIC_UNFALSIFIED and have in (PIC_CERTIFIED, NOT_PIC):
            strengthened = True
            continue
        return False, False, f"{key}: expected {want!r}, got {have!r}"
    if evidence.get("povm"):
        reason = povm_error(case.effects(), expect["span_dim"])
        if reason:
            return False, False, reason
    if got.get("status") == NOT_PIC or got.get("witness"):
        psi, phi = evidence.get("witness", (None, None))
        if psi is None:
            return False, False, "witness missing"
        reason = witness_error(case.effects(), psi, phi)
        if reason:
            return False, False, reason
    if "phase" in evidence:
        reason = coboundary_error(case.inputs["mats"], case.inputs["table"], evidence["phase"])
        if reason:
            return False, False, reason
    if got.get("exact") is False:
        g, h = case.inputs["commuting_pair"]
        reason = commutator_error(case.inputs["mats"], g, h)
        if reason:
            return False, False, reason
    if "cyclic" in got:
        conj = case.inputs["conj_mats"]
        if cyclic_by_rank(conj, case.inputs["vector"]) != got["cyclic"]:
            return False, False, "cyclicity disagrees with the orbit rank"
    return True, strengthened, None

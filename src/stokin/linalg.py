"""Dense small-matrix kernels used by the solvers.

Matrix exponential and linear solves delegate to scipy/LAPACK behind narrow
contracts; the positive-semidefinite square root adds an eigenvalue-clipping
policy for state-dependent diffusion matrices (the SDE solvers factor those
over events instead; the square root is kept as the reference the tests
compare against).  Everything here operates on plain float ndarrays and is
pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    MatrixOverflowError,
    NotPositiveSemidefiniteError,
    ParameterError,
    SingularMatrixError,
)

__all__ = [
    "expm",
    "propagator_with_source",
    "sym_eigendecomposition",
    "SymEigenDecomposition",
    "psd_sqrt",
    "PsdSqrtResult",
    "solve_linear",
]

#: Relative eigenvalue tolerance: eigenvalues in [-CLIP_TOL*|B|_max, 0) are
#: treated as roundoff and clipped to zero; anything lower is a hard error
#: under the "strict" policy.
CLIP_TOL = 1e-8


def _check_square(M, name="matrix"):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ParameterError(f"{name} must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ParameterError(f"{name} contains non-finite entries")
    return M


def expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square real matrix.

    Uses scaling-and-squaring (scipy), which also covers defective inputs.
    Raises MatrixOverflowError when the result overflows float64.
    """
    M = _check_square(M)
    with np.errstate(over="ignore", invalid="ignore"):
        E = scipy.linalg.expm(M)
    if not np.all(np.isfinite(E)):
        raise MatrixOverflowError(
            f"matrix exponential overflowed (1-norm of input: {np.linalg.norm(M, 1):g})"
        )
    return E


def propagator_with_source(A: np.ndarray, forcing: np.ndarray, dt: float):
    """Exact one-step affine propagator for x' = A x + forcing.

    Returns (E, g) with x(t+dt) = E @ x(t) + g.  Computed from the exponential
    of the augmented block matrix [[A, forcing], [0, 0]], which equals
    e^{A dt} and A^{-1}(e^{A dt} - I) forcing when A is invertible and the
    convergent series fallback otherwise (the augmented exponential sums that
    series implicitly).
    """
    A = _check_square(A)
    d = A.shape[0]
    forcing = np.asarray(forcing, dtype=float).ravel()
    if forcing.size != d:
        raise ParameterError("forcing dimension does not match the matrix")
    aug = np.zeros((d + 1, d + 1))
    aug[:d, :d] = A * dt
    aug[:d, d] = forcing * dt
    E_aug = expm(aug)
    return E_aug[:d, :d], E_aug[:d, d]


@dataclass(frozen=True)
class SymEigenDecomposition:
    """Eigenvalues in ascending order with an orthonormal eigenvector matrix."""

    values: np.ndarray
    vectors: np.ndarray


def sym_eigendecomposition(M: np.ndarray, sym_tol: float = 1e-10) -> SymEigenDecomposition:
    """Eigendecomposition of a symmetric matrix (LAPACK ``eigh``)."""
    M = _check_square(M)
    scale = max(1.0, np.abs(M).max())
    if np.abs(M - M.T).max() > sym_tol * scale:
        raise ParameterError("matrix is not symmetric within tolerance")
    w, V = np.linalg.eigh(M)
    return SymEigenDecomposition(values=w, vectors=V)


@dataclass(frozen=True)
class PsdSqrtResult:
    """Symmetric square root plus the count of eigenvalues clipped to zero."""

    matrix: np.ndarray
    clipped: int


def psd_sqrt(B: np.ndarray, policy: str = "strict") -> PsdSqrtResult:
    """Symmetric PSD square root with eigenvalue clipping.

    Eigenvalues in [-CLIP_TOL*|B|_max, 0) are clipped to zero and counted.
    Under ``policy="strict"`` an eigenvalue below that band raises
    NotPositiveSemidefiniteError; under ``policy="clamp"`` it is clipped to
    zero as well (and counted), which keeps the noise factor real-valued for
    states that have undershot zero.
    """
    eig = sym_eigendecomposition(B)
    w, V = eig.values, eig.vectors
    tol = CLIP_TOL * max(np.abs(B).max(), 0.0)
    if policy == "strict" and w[0] < -tol:
        raise NotPositiveSemidefiniteError(
            f"diffusion matrix not PSD: eigenvalue {w[0]:.6g} below -{tol:.6g}",
            worst_eigenvalue=float(w[0]),
        )
    elif policy not in ("strict", "clamp"):
        raise ParameterError(f"unknown psd policy {policy!r}")
    clipped = int(np.count_nonzero(w < 0))
    wc = np.clip(w, 0.0, None)
    S = (V * np.sqrt(wc)) @ V.T
    S = 0.5 * (S + S.T)
    return PsdSqrtResult(matrix=S, clipped=clipped)


def psd_sqrt_batch(B: np.ndarray, policy: str = "strict"):
    """Vectorized PSD square roots for a stack of symmetric matrices.

    Not on the solver path: the SDE solvers draw their noise from the event
    factor of the diffusion matrix (see :mod:`stokin.solvers`), which needs
    no square root.  This is the batched counterpart of :func:`psd_sqrt`.

    Parameters
    ----------
    B : ndarray, shape (N, d, d)
    policy : "strict" marks offending paths instead of raising so the caller
        can discard them; "clamp" clips every negative eigenvalue to zero.

    Returns
    -------
    S : ndarray, shape (N, d, d)
    small_clips : ndarray of int, per-matrix count of in-band clips
    hard : ndarray of bool, True where an eigenvalue fell below the band;
        under "clamp" such eigenvalues are clipped anyway and the flag is
        diagnostic only

    For 2x2 stacks with no negative eigenvalues this takes an analytic route
    (sqrt via trace/determinant); everything else goes through batched eigh.
    """
    if policy not in ("strict", "clamp"):
        raise ParameterError(f"unknown psd policy {policy!r}")
    B = np.asarray(B, dtype=float)
    N, d = B.shape[0], B.shape[-1]
    norm = np.abs(B).reshape(N, -1).max(axis=1)
    tol = CLIP_TOL * norm

    if d == 2:
        tr = B[:, 0, 0] + B[:, 1, 1]
        det = B[:, 0, 0] * B[:, 1, 1] - B[:, 0, 1] * B[:, 1, 0]
        disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
        min_eig = 0.5 * (tr - disc)
        clean = min_eig >= 0.0
        S = np.zeros_like(B)
        if np.any(clean):
            Bc = B[clean]
            detc = np.maximum(det[clean], 0.0)
            s = np.sqrt(detc)
            denom = np.sqrt(np.maximum(tr[clean] + 2.0 * s, 0.0))
            nz = denom > 0
            S_c = np.zeros_like(Bc)
            S_c[nz] = (Bc[nz] + s[nz, None, None] * np.eye(2)) / denom[nz, None, None]
            S[clean] = S_c
        small = np.zeros(N, dtype=np.int64)
        hard = np.zeros(N, dtype=bool)
        dirty = ~clean
        if np.any(dirty):
            Sd, sm, hd = _psd_sqrt_eigh(B[dirty], tol[dirty], policy)
            S[dirty] = Sd
            small[dirty] = sm
            hard[dirty] = hd
        return S, small, hard

    return _psd_sqrt_eigh(B, tol, policy)


def _psd_sqrt_eigh(B, tol, policy):
    w, V = np.linalg.eigh(B)
    hard = w[:, 0] < -tol
    small = np.count_nonzero((w < 0) & (w >= -tol[:, None]), axis=1).astype(np.int64)
    wc = np.clip(w, 0.0, None)
    S = V @ (np.sqrt(wc)[..., None] * np.swapaxes(V, -1, -2))
    S = 0.5 * (S + np.swapaxes(S, -1, -2))
    return S, small, hard


def solve_linear(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve M x = b with partial pivoting; raises on singular systems."""
    M = _check_square(M)
    b = np.asarray(b, dtype=float).ravel()
    if b.size != M.shape[0]:
        raise ParameterError("right-hand side dimension does not match the matrix")
    try:
        x = np.linalg.solve(M, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"linear system singular to working precision: {exc}")
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError(
            f"linear solve produced non-finite entries (condition ~{np.linalg.cond(M):.3g})"
        )
    return x

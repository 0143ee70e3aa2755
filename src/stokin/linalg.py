"""Dense small-matrix kernels used by the solvers.

Matrix exponential, linear solves and symmetric eigendecompositions run on
numpy and its LAPACK behind narrow contracts; stokin needs no scipy.  The
matrix exponential is scaling and squaring with Pade approximants (Higham
2005), built from ``matmul`` and one LAPACK ``solve``.  The
positive-semidefinite square root (LAPACK ``eigh``) adds an
eigenvalue-clipping policy for state-dependent diffusion matrices; the SDE
solvers factor those over events instead, so the square root is kept as the
reference the tests compare against.  Everything here takes and returns plain
float ndarrays (the square root also reports its clip count, in
:class:`PsdSqrtResult`) and is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    MatrixOverflowError,
    NotPositiveSemidefiniteError,
    ParameterError,
    SingularMatrixError,
)

__all__ = [
    "expm",
    "propagator_with_source",
    "psd_sqrt",
    "PsdSqrtResult",
    "solve_linear",
]

#: Relative roundoff band: eigenvalues in [-CLIP_TOL*|B|_max, 0), and the SDE
#: solvers' negative event rates in [-CLIP_TOL*max_k |r_k|, 0), are clipped
#: to zero.  Below the band, psd_sqrt's "strict" policy raises, and the SDE
#: solvers clip the rate too and count its step in clipped_hard.
CLIP_TOL = 1e-8


def _check_square(M, name="matrix"):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ParameterError(f"{name} must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ParameterError(f"{name} contains non-finite entries")
    return M


# Higham (2005), Table 2.3: the largest 1-norm for which the [m/m] Pade
# approximant of e^A meets double-precision unit roundoff, for m = 3..9;
# larger norms take degree 13 and are scaled below _THETA_13 first.
_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
          (7, 9.504178996162932e-1), (9, 2.097847961257068e0))
_THETA_13 = 5.371920351148152

# Pade coefficients b_0..b_m (Higham 2005, eq. 2.11 and the coefficient list
# of Algorithm 2.3)
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0),
}


def expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square real matrix.

    Scaling and squaring with Pade approximants, Higham (2005), SIAM J.
    Matrix Anal. Appl. 26:1179, Algorithm 2.3, on numpy and LAPACK alone: the
    degree m in {3, 5, 7, 9, 13} is the lowest whose theta_m bounds the
    1-norm, and only degree 13 scales by 2^-s.  The approximant
    r_m = (V - U)^{-1} (V + U) is formed as I + 2 (V - U)^{-1} U and then
    squared s times; a zero last row of the input, as in the augmented matrix
    of :func:`propagator_with_source`, gives the exact unit row.  Defective
    inputs need no special case.  Raises ParameterError for a non-square or
    non-finite input and MatrixOverflowError, naming the input's 1-norm,
    when the result overflows float64.
    """
    M = _check_square(M)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(M, 1)
        E = _pade_expm(M, norm) if norm < np.inf else None
    if E is None or not np.all(np.isfinite(E)):
        raise MatrixOverflowError(
            f"matrix exponential overflowed (1-norm of input: {norm:g})"
        )
    return E


def _pade_expm(A, norm):
    """e^A for a finite 1-norm ``norm`` of A: the lowest Pade degree whose
    theta bounds it, else degree 13 on A / 2^s, squared s times."""
    ident = np.eye(A.shape[0])
    for m, theta in _THETA:
        if norm <= theta:
            b = _PADE[m]
            powers = [ident, A @ A]
            while len(powers) <= m // 2:
                powers.append(powers[-1] @ powers[1])
            U = A @ sum(b[2 * j + 1] * P for j, P in enumerate(powers))
            V = sum(b[2 * j] * P for j, P in enumerate(powers))
            return ident + 2.0 * np.linalg.solve(V - U, U)
    s = max(0, int(np.ceil(np.log2(norm / _THETA_13))))
    A = np.ldexp(A, -s)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    b = _PADE[13]
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    E = ident + 2.0 * np.linalg.solve(V - U, U)
    for _ in range(s):
        E = E @ E
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
    states that have undershot zero.  ``B`` must be symmetric to 1e-10
    relative (ParameterError otherwise).
    """
    B = _check_square(B)
    if np.abs(B - B.T).max() > 1e-10 * max(1.0, np.abs(B).max()):
        raise ParameterError("matrix is not symmetric within tolerance")
    w, V = np.linalg.eigh(B)
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
    """
    if policy not in ("strict", "clamp"):
        raise ParameterError(f"unknown psd policy {policy!r}")
    B = np.asarray(B, dtype=float)
    tol = CLIP_TOL * np.abs(B).reshape(B.shape[0], -1).max(axis=1)
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

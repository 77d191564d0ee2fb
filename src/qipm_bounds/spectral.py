"""Structural sparsities and certified condition-number lower bounds.

Sparsity of the solved systems follows structural counting rules (the
basis-inverse blocks are treated as fully dense). Extreme singular values
are estimated one-sidedly from Rayleigh quotients ||op v|| / ||v||, which
never leave the interval [sigma_min, sigma_max]: sigma_max from below at the
top Ritz vector of a Krylov iteration on the Gram operator, sigma_min from
above at the vector that a Krylov iteration picks, wherever that iteration
stops (convergence, iteration cap, breakdown or wall-clock timeout). When
the operator carries an inverse Gram operator (F, through one sparse
factorization of A_N D_N^2 A_N', and O's A-block, through one of
A D^2 A'), the vector is the top Ritz vector of that inverse; otherwise,
or when the factorization fails, it is the smallest Ritz vector of the
forward Gram operator. Either way the certificate is the
forward Rayleigh quotient at that vector, so the inverse's accuracy never
affects soundness. Only a non-positive timeout replaces the iteration by
the minimum of ||op w|| over seeded random unit vectors. Both directions
combine into a condition-number estimate that never exceeds the true
kappa, so the derived difficulty gamma = s * kappa is itself a lower bound.

The OSS operator O = [-X A'  S V] at a constant iterate X = xI, S = sI
(build_oss attaches its parts there) is bounded from the A-block x A and
the coupling F = A_B^-1 A_N, never by iterating on O itself:
- block split: O'O = diag(x^2 A A', s^2 V'V) because A V = 0, so
  sigma(O) = x sigma(A) u s sigma(V);
- V from F: V'V = I + F'F, so sigma(sV) is s sqrt(1 + sigma_i(F)^2),
  plus s itself when n - m > m, because F'F then has rank at most m;
- A floor: A A' >= A_B A_B', so sigma_min(xA') >= x min |a_b| when A_B is
  a scaled permutation (one entry per row); otherwise the floor is 0.
sigma_max lifts F's estimate and adds the A-block's only where its
Hoelder ceiling can win. sigma_min takes the exact s when n - m > m, and
runs the A-block, and then F when n - m <= m, only where its floor lies
below the best value so far; see kappa_lower_oss.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dsterf

from .lp_model import SparseMatrix
from .newton import BasisSelection, NewtonOperator

DEFAULT_MAX_ITERS = 300
DEFAULT_RITZ_TOL = 1e-10
DEFAULT_TIMEOUT = 60.0
DEFAULT_SAMPLES = 10000
_SAMPLE_CHUNK = 256
# floating-point safety: matvec cancellation perturbs computed Rayleigh
# values by O(eps * dim * sigma_max) in absolute terms, so sigma_min upper
# bounds are padded by a dominating multiple of that scale and sigma_max
# enters condition numbers with a relative shave
_FP_PAD = 1000.0 * float(np.finfo(float).eps)
_FP_SHAVE = 1e-12


class NumericalError(RuntimeError):
    """A matvec produced non-finite values during estimation."""


@dataclass
class KappaBound:
    """One-sided condition number estimate with its ingredients."""
    kappa_lower: float
    sigma_max_lb: float
    sigma_min_ub: float
    sigma_min_method: str  # iterative | random_sampling | rank_deficiency_exact


# ---------------------------------------------------------------------------
# sparsity rules

def sparsity_mnes(m: int) -> int:
    """The modified NES matrix carries sparsity m: the dense basis inverse
    appears as a factor, so rows and columns are structurally full."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return m


def sparsity_oss(A: SparseMatrix, m: int, n: int,
                 basis: BasisSelection) -> int:
    """Structural max row/column sparsity of O = [-X A'  S V].

    Counts: (a) columns of -X A' carry the row sparsities of A; (b) columns
    of S V carry m + 1 entries (dense top block plus one from -I); (c) rows
    at basic positions carry nnz(column of A) + (n - m) with the basis-inverse
    block taken as dense; (d) rows at nonbasic positions carry
    nnz(column of A) + 1, always dominated by (b).
    """
    if A.shape != (m, n):
        raise ValueError(f"A has shape {A.shape}, expected {(m, n)}")
    col_nnz = A.col_nnz()
    best = int(A.row_nnz().max()) if m else 0  # (a)
    if n > m:
        best = max(best, m + 1)  # (b)
    if len(basis.basic):
        best = max(best, int(col_nnz[basis.basic].max()) + (n - m))  # (c)
    if len(basis.nonbasic):
        bump = 1 if n > m else 0
        best = max(best, int(col_nnz[basis.nonbasic].max()) + bump)  # (d)
    return best


# ---------------------------------------------------------------------------
# extreme singular value estimation

def _gram_side(op: NewtonOperator):
    """(dim, gram, image) of the smaller side: gram = image' image, whose
    eigenvalues are sigma_i^2."""
    rows, cols = op.shape
    if cols <= rows:
        return cols, lambda v: op.apply_transpose(op.apply(v)), op.apply
    return rows, lambda v: op.apply(op.apply_transpose(v)), op.apply_transpose


def _check_finite(v: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(v)):
        raise NumericalError(f"non-finite values in {what}")
    return v


def _rayleigh_sigma(image, v: np.ndarray) -> float:
    """sqrt(v' G v / v'v) = ||op v|| / ||v||, a certified Rayleigh value."""
    y = _check_finite(image(v), "operator image")
    num = float(y @ y)
    den = float(v @ v)
    if den == 0.0:
        return 0.0
    return float(np.sqrt(num / den))


def _lanczos_extreme(gram, image, dim: int, which: str,
                     rng: np.random.Generator, deadline: float | None):
    """Krylov iteration on the Gram operator with full reorthogonalization.

    Stops at convergence of the extreme Ritz value, at the iteration cap
    DEFAULT_MAX_ITERS, on breakdown or, after at least one step, past the
    deadline. Returns (sigma_value, sigma_max_ritz) where sigma_value is the
    certified Rayleigh-quotient bound at the extreme Ritz vector of the
    steps taken.
    """
    q = rng.standard_normal(dim)
    q /= np.linalg.norm(q)
    cap = min(DEFAULT_MAX_ITERS, dim)
    # the kept vectors; rows are added by doubling as steps are taken
    Q = np.zeros((min(cap, 16), dim))
    alphas: list[float] = []
    betas: list[float] = []
    prev = None
    theta_prev = None
    alpha_max = 0.0  # breakdown is relative, so scaling op cannot move it
    k = 0
    while True:
        if k == len(Q):
            Q = np.concatenate([Q, np.zeros((min(k, cap - k), dim))])
        Q[k] = q
        u = _check_finite(gram(q), "gram matvec")
        alpha = float(q @ u)
        u = u - alpha * q - (betas[-1] * prev if prev is not None else 0.0)
        # full reorthogonalization against all kept vectors
        u -= Q[:k + 1].T @ (Q[:k + 1] @ u)
        u -= Q[:k + 1].T @ (Q[:k + 1] @ u)
        alphas.append(alpha)
        alpha_max = max(alpha_max, abs(alpha))
        beta = float(np.linalg.norm(u))
        k += 1
        # each step needs only the extreme Ritz value; its vector is
        # solved for once, at the stop
        vals = _ritz_values(alphas, betas, vectors=False)
        theta = vals[_extreme_index(vals, which)]
        converged = (theta_prev is not None
                     and abs(theta - theta_prev)
                     <= DEFAULT_RITZ_TOL * max(abs(theta), 1e-300))
        theta_prev = theta
        if beta <= 1e-14 * alpha_max or converged or k >= cap or \
                (deadline is not None and time.monotonic() > deadline):
            vals, vecs = _ritz_values(alphas, betas, vectors=True)
            ritz_vec = Q[:k].T @ vecs[:, _extreme_index(vals, which)]
            nrm = np.linalg.norm(ritz_vec)
            if nrm > 0.0:
                ritz_vec /= nrm
            smax_ritz = vals[_extreme_index(vals, "max")]
            return _rayleigh_sigma(image, ritz_vec), \
                float(np.sqrt(max(smax_ritz, 0.0)))
        betas.append(beta)
        prev = q
        q = u / beta


def _ritz_values(alphas, betas, vectors: bool):
    """Eigenvalues (ascending) of the Lanczos tridiagonal matrix and, with
    `vectors`, (values, eigenvectors). Values alone come straight from
    LAPACK's dsterf, which eigh_tridiagonal's default routine (stevd) runs
    for them too, without its per-call validation: every Lanczos step
    takes them."""
    if len(alphas) == 1:
        vals = np.array(alphas, dtype=float)
        return (vals, np.ones((1, 1))) if vectors else vals
    if vectors:
        return eigh_tridiagonal(np.asarray(alphas), np.asarray(betas))
    vals, info = dsterf(np.asarray(alphas), np.asarray(betas))
    if info:
        raise np.linalg.LinAlgError(f"dsterf failed with info {info}")
    return vals


def _extreme_index(vals: np.ndarray, which: str) -> int:
    # "max" is the largest magnitude: the top value of a semidefinite Gram
    # operator, and still the null direction of an inverse Gram operator
    # whose near-singular factor rounded that huge eigenvalue negative
    return int(np.argmax(np.abs(vals))) if which == "max" else 0


def sigma_max_lower(op: NewtonOperator, seed: int = 0) -> float:
    """Certified lower bound on the largest singular value of op.

    The value returned is the Rayleigh quotient ||op v|| / ||v|| at the top
    Ritz vector of a seeded Krylov iteration, capped at DEFAULT_MAX_ITERS
    steps, which never exceeds sigma_max.
    """
    dim, gram, image = _gram_side(op)
    if dim == 0 or op.shape[0] == 0:
        return 0.0
    rng = np.random.Generator(np.random.Philox(key=seed))
    value, _ = _lanczos_extreme(gram, image, dim, "max", rng, deadline=None)
    return value


def sigma_min_upper(op: NewtonOperator, timeout: float = DEFAULT_TIMEOUT,
                    n_samples: int = DEFAULT_SAMPLES, seed: int = 0,
                    sigma_max_hint: float | None = None) -> tuple[float, str]:
    """Certified upper bound on the smallest singular value of op.

    With timeout > 0, runs a Krylov iteration and returns the forward
    Rayleigh quotient of op on its smaller side at the vector v the
    iteration picks, wherever it stops: convergence, the DEFAULT_MAX_ITERS
    cap, breakdown or the timeout, which ends the iteration early (after at
    least one step) without discarding it. When op.inverse_gram is set (on
    F when n - m >= m, and on O's A-block), v is the top Ritz vector of
    that inverse (op op')^-1, whose lazy factorization runs under the same
    timeout, and the quotient is ||op' v|| / ||v||; if the
    factorization or an inverse solve fails, v is instead the smallest Ritz
    vector of the forward Gram operator. Every Rayleigh quotient bounds
    sigma_min from above by the min-max principle, however v was chosen.
    With timeout <= 0, takes instead the minimum of ||op w|| over n_samples
    seeded random unit vectors. Either value is padded by a floating-point
    safety margin scaled by sigma_max_hint (on the inverse path,
    sigma_max_lower(op) when no hint is given) or the largest value
    observed.
    """
    dim, gram, image = _gram_side(op)
    if dim == 0 or op.shape[0] == 0:
        return 0.0, "rank_deficiency_exact"
    scale_ref = sigma_max_hint or 0.0
    if timeout > 0:
        deadline = time.monotonic() + timeout
        if op.inverse_gram is not None:
            rng = np.random.Generator(np.random.Philox(key=seed))
            try:
                # its Ritz value is about 1 / sigma_min, no pad scale
                value, _ = _lanczos_extreme(
                    op.inverse_gram, op.apply_transpose, dim, "max", rng,
                    deadline)
            except (RuntimeError, np.linalg.LinAlgError):
                pass  # fall back to the forward Gram below
            else:
                scale_ref = scale_ref or sigma_max_lower(op, seed=seed)
                return value + _FP_PAD * (dim + 10) * scale_ref, "iterative"
        rng = np.random.Generator(np.random.Philox(key=seed))
        value, smax_ritz = _lanczos_extreme(
            gram, image, dim, "min", rng, deadline)
        pad = _FP_PAD * (dim + 10) * max(scale_ref, smax_ritz)
        return value + pad, "iterative"

    if n_samples < 1:
        raise NumericalError(
            "sigma_min estimation produced no certified value: iterative "
            "stage disabled by timeout <= 0 and random sampling disabled")
    sample_rng = np.random.Generator(
        np.random.Philox(key=(seed + 0x9E3779B97F4A7C15) % (1 << 64)))
    best = np.inf
    remaining = n_samples
    while remaining > 0:
        k = min(_SAMPLE_CHUNK, remaining)
        W = sample_rng.standard_normal((dim, k))
        norms = np.linalg.norm(W, axis=0)
        norms[norms == 0.0] = 1.0
        W /= norms
        Y = _check_finite(image(W), "operator image")
        vals = np.linalg.norm(Y, axis=0)
        best = min(best, float(vals.min()))
        scale_ref = max(scale_ref, float(vals.max()))
        remaining -= k
    pad = _FP_PAD * (dim + 10) * scale_ref
    return best + pad, "random_sampling"


# ---------------------------------------------------------------------------
# condition number lower bounds

def kappa_lower_mnes(fbar: NewtonOperator, m: int, n: int,
                     timeout: float = DEFAULT_TIMEOUT,
                     seed: int = 0, n_samples: int = DEFAULT_SAMPLES
                     ) -> KappaBound:
    """kappa(M_hat) >= (1 + sigma_max(F)^2) / (1 + sigma_min(F)^2) from below.

    When n - m < m the Gram matrix F F' is rank deficient, so sigma_min = 0
    exactly and the smallest eigenvalue of M_hat is 1.
    """
    if fbar.shape != (m, n - m):
        raise ValueError(f"fbar has shape {fbar.shape}, expected {(m, n - m)}")
    smax = sigma_max_lower(fbar, seed=seed) if n > m else 0.0
    if n - m < m:
        smin, method = 0.0, "rank_deficiency_exact"
    else:
        smin, method = sigma_min_upper(
            fbar, timeout=timeout, n_samples=n_samples, seed=seed,
            sigma_max_hint=smax)
    smax_eff = smax * (1.0 - _FP_SHAVE)
    kappa = max((1.0 + smax_eff * smax_eff) / (1.0 + smin * smin), 1.0)
    return KappaBound(kappa, smax, smin, method)


def kappa_lower_oss(oss: NewtonOperator, timeout: float = DEFAULT_TIMEOUT,
                    seed: int = 0, n_samples: int = DEFAULT_SAMPLES, *,
                    fbar_sigma_max: float | None = None) -> KappaBound:
    """kappa(O) = sigma_max / sigma_min estimated from below.

    An operator without parts (a dense test operator, or O at an iterate
    whose x or s is not constant) is estimated directly. When
    newton.build_oss attached O's parts at X = xI, S = sI, the A-block x A
    and the coupling F with s, sigma(O) = x sigma(A) u s sigma(V), where
    sigma(sV) is s sqrt(1 + sigma_i(F)^2), plus s itself when n - m > m,
    and no Krylov iteration runs in n dimensions:
    - sigma_max is the larger of s sqrt(1 + sigma_max_lower(F)^2), when
      n > m, and sigma_max_lower of the A-block, which runs only when its
      certified ceiling x sqrt(||A||_1 ||A||_inf) exceeds the former.
    - sigma_min starts at s, exact and labelled rank_deficiency_exact,
      when n - m > m, else at infinity. Then the A-block runs
      sigma_min_upper unless its floor (x min |a_b| when A_B is a scaled
      permutation, else 0) is at least the best value so far, and, when
      0 < n - m <= m and s is below the best value, so does F, lifted to
      s sqrt(1 + value^2); a smaller result replaces the best value and
      its label. Every value kept bounds sigma_min(O) from above.
    `timeout` bounds the whole sigma_min stage with one deadline: once a
    best value exists, a part starts only before the deadline, with the
    time left. A given `fbar_sigma_max` stands for sigma_max_lower(oss.fbar,
    seed=seed), which then does not run: the harness hands over MNES's
    value, the same iteration on the same F at the same seed.
    """
    if oss.fbar is not None:
        smax, smin, method = _composed_extremes(oss, timeout, seed, n_samples,
                                                fbar_sigma_max)
    else:
        smax = sigma_max_lower(oss, seed=seed)
        smin, method = sigma_min_upper(oss, timeout=timeout,
                                       n_samples=n_samples, seed=seed,
                                       sigma_max_hint=smax)
    # O is invertible at a strictly positive iterate; a zero estimate
    # signals numerical breakdown
    kappa = (np.inf if smin == 0.0
             else max(smax * (1.0 - _FP_SHAVE) / smin, 1.0))
    return KappaBound(kappa, smax, smin, method)


def _composed_extremes(oss: NewtonOperator, timeout: float, seed: int,
                       n_samples: int, fbar_sigma_max: float | None
                       ) -> tuple[float, float, str]:
    """(sigma_max_lb, sigma_min_ub, method) of O from its A-block and F,
    by kappa_lower_oss's rules, with a given `fbar_sigma_max` as F's."""
    a, f, s = oss.a_block, oss.fbar, oss.s
    m, k = f.shape  # k = n - m
    smax = fmax = 0.0
    if k:
        fmax = fbar_sigma_max if fbar_sigma_max is not None else \
            sigma_max_lower(f, seed=seed)
        smax = s * math.sqrt(1.0 + fmax * fmax)
    if a is not None and a.ceiling > smax:
        smax = max(smax, sigma_max_lower(a, seed=seed))
    smin, method = (s, "rank_deficiency_exact") if k > m else (math.inf, "")
    deadline = time.monotonic() + timeout

    def upper(op, hint):
        left = timeout
        if timeout > 0 and smin < math.inf:
            left = deadline - time.monotonic()
            if left <= 0:
                return None  # smin already bounds sigma_min from above
        return sigma_min_upper(op, timeout=left, n_samples=n_samples,
                               seed=seed, sigma_max_hint=hint)

    if a is not None and a.floor < smin:
        # the pad scales with the block's own norm, which its ceiling bounds
        out = upper(a, min(smax, a.ceiling))
        if out is not None and out[0] < smin:
            smin, method = out
    if 0 < k <= m and s < smin:
        out = upper(f, fmax)
        if out is not None:
            value, label = out
            value = s * math.sqrt(1.0 + value * value)
            if value < smin:
                smin, method = value, label
    return smax, smin, method

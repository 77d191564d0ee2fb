"""Matrix-free Newton system operators at a primal-dual iterate.

Given standard-form data (A, b, c) and a strictly positive iterate (x, y, s),
this module selects a basis B of A, builds the normal equation system (NES),
its basis-preconditioned modification (MNES), the null-space operator V, the
nonbasic coupling operator F = D_B^-1 A_B^-1 A_N D_N, and the orthogonal
subspace system (OSS), all as linear operators that never materialize the
underlying matrices. Step-recovery routines map (possibly inexact) solutions
of each system back to full Newton updates (dx, dy, ds).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as splinalg

from .lp_model import SparseMatrix, StandardLP
from .standardize import core_basis

# relative diagonal shift of the NES retry after an exactly singular factor
NES_SHIFT = 1e-14
# SuperLU settings of the NES factor: symmetric mode, no row interchanges
_SPD_LU = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
               options=dict(SymmetricMode=True))


class RankDeficiencyError(ValueError):
    """A should have full row rank here; carries the deficient row count."""

    def __init__(self, deficient_rows: int):
        super().__init__(
            f"constraint matrix is rank deficient by {deficient_rows} row(s); "
            "run rank repair first")
        self.deficient_rows = deficient_rows


@dataclass
class Iterate:
    """Primal-dual triple (x, y, s) with x > 0 and s > 0 component-wise."""
    x: np.ndarray
    y: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.s = np.asarray(self.s, dtype=float)
        if self.x.size and not np.all(self.x > 0.0):
            raise ValueError("iterate requires x > 0 componentwise")
        if self.s.size and not np.all(self.s > 0.0):
            raise ValueError("iterate requires s > 0 componentwise")

    @property
    def d2(self) -> np.ndarray:
        """Diagonal of D^2 = X S^-1."""
        return self.x / self.s

    def default_beta_mu(self, beta: float = 0.5) -> float:
        """beta * mu with mu = x's/n; 0.5 at the all-ones iterate."""
        n = self.x.size
        return beta * float(self.x @ self.s) / n if n else 0.0


def canonical_iterate(m: int, n: int) -> Iterate:
    """The all-ones strictly positive (not necessarily feasible) start."""
    return Iterate(np.ones(n), np.zeros(m), np.ones(n))


@dataclass
class BasisSelection:
    """m linearly independent columns of A plus a way to solve with them.

    `basic` is standardize.core_basis's read-only column pick; `nonbasic`
    the complement in ascending order. `a_b` and `a_n` are A's column
    blocks A[:, basic] and A[:, nonbasic], sliced once for every operator
    built on this basis. solve/solve_t apply A_B^-1 and A_B^-T (A_B is
    never inverted), for a vector or stacked columns:
    - when a_b has m entries (as when the slack crash covers every row),
      the nonsingular A_B holds one entry per row and column, a scaled
      permutation, and `lu` is None: the solves gather or scatter by the
      entries' columns and divide by their values. That is the
      arithmetic an LU solve performs on such a matrix (its L is the
      identity, its U the entries), so the result is exact and equal bit
      for bit to SuperLU's, in the same Fortran order;
    - otherwise `lu` is a retained SuperLU factorization of a_b.
    """
    basic: np.ndarray
    nonbasic: np.ndarray
    a_b: SparseMatrix
    a_n: SparseMatrix
    lu: splinalg.SuperLU | None

    def solve(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if self.lu is not None:
            return self.lu.solve(v)
        cols, vals = self._entries(v)
        out = np.empty(v.shape, order="F")
        out[cols] = v / vals
        return out

    def solve_t(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if self.lu is not None:
            return self.lu.solve(v, trans="T")
        cols, vals = self._entries(v)
        return np.divide(v[cols], vals, out=np.empty(v.shape, order="F"))

    def _entries(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Column and value of each row's one entry of a scaled-permutation
        a_b, the values shaped to divide v's rows."""
        csr = self.a_b.tocsr()
        return csr.indices, csr.data if v.ndim == 1 else csr.data[:, None]

    @property
    def m(self) -> int:
        return len(self.basic)


def select_basis(A: SparseMatrix) -> BasisSelection:
    """Pick m independent columns of A: standardize.core_basis's pick.

    RankDeficiencyError reports the core's missing pivots. A_B is factored
    by SuperLU unless it has m entries, which makes it a scaled permutation
    that BasisSelection solves with exactly and without a factor.
    Deterministic for fixed input.
    """
    m, n = A.n_rows, A.n_cols
    if m > n:
        raise RankDeficiencyError(m - n)
    _, rest, basic, rank = core_basis(A)
    if rank < rest.size:
        raise RankDeficiencyError(rest.size - rank)
    mask = np.ones(n, dtype=bool)
    mask[basic] = False
    nonbasic = np.flatnonzero(mask)

    a_b = A.columns(basic)
    lu = None if a_b.nnz == m else splinalg.splu(a_b.tocsc())
    return BasisSelection(basic=basic, nonbasic=nonbasic, a_b=a_b,
                          a_n=A.columns(nonbasic), lu=lu)


def factor_nes(A, d2: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Factor M = A D^2 A' by one sparse symmetric-mode LU; return its solve.

    A is a SciPy sparse matrix. Rank repair leaves A with full row rank and
    every iterate has D > 0, so M is symmetric positive definite. SuperLU
    therefore runs in symmetric mode with no row interchanges
    (diag_pivot_thresh=0): the MMD_AT_PLUS_A ordering of M + M' keeps its
    fill however D spreads, and elimination without pivoting is backward
    stable on an SPD matrix (Higham 2002, Accuracy and Stability of
    Numerical Algorithms, ch. 10). Partial pivoting would swap rows as D
    spreads and more than double the fill. F's inverse Gram passes A_N,
    which may lack full row rank; there M is only semidefinite, and its
    solve only picks the vector of a forward Rayleigh quotient. SuperLU
    raises RuntimeError on an exactly singular factor; the one retry shifts
    the diagonal by NES_SHIFT * max(diag M), and a second failure
    propagates.
    """
    M = (A.multiply(d2) @ A.T).tocsc()
    try:
        lu = splinalg.splu(M, **_SPD_LU)
    except RuntimeError:
        shift = NES_SHIFT * float(M.diagonal().max())
        M = M + shift * sparse.identity(M.shape[0], format="csc")
        lu = splinalg.splu(M, **_SPD_LU)
    return lu.solve


@dataclass
class NewtonOperator:
    """A linear operator with its transpose and (optional) right-hand side.

    apply/apply_transpose accept a vector of matching dimension or a 2-D
    array of stacked column vectors. kind is one of "nes", "mnes", "oss",
    "oss_a", "fbar", "nullspace". inverse_gram, set only by build_fbar
    (when n - m >= m) and on O's A-block, applies (op op')^-1 to a single
    vector of length shape[0]; its top eigenvectors u minimize the Rayleigh
    quotient ||op' u|| / ||u||. floor and ceiling are certified bounds on
    the smallest and the largest singular value. build_oss sets a_block,
    fbar and s at a constant iterate (see there).
    """
    shape: tuple[int, int]
    kind: str
    _matvec: Callable[[np.ndarray], np.ndarray]
    _rmatvec: Callable[[np.ndarray], np.ndarray]
    rhs: np.ndarray | None = None
    inverse_gram: Callable[[np.ndarray], np.ndarray] | None = None
    floor: float = 0.0
    ceiling: float = math.inf
    a_block: NewtonOperator | None = None
    fbar: NewtonOperator | None = None
    s: float = 0.0

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.shape[1]:
            raise ValueError(
                f"apply expects leading dimension {self.shape[1]}, got {v.shape}")
        return self._matvec(v)

    def apply_transpose(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.shape[0]:
            raise ValueError(
                f"apply_transpose expects leading dimension {self.shape[0]}, "
                f"got {v.shape}")
        return self._rmatvec(v)

    def to_dense(self) -> np.ndarray:
        return self.apply(np.eye(self.shape[1]))


def _dmul(d: np.ndarray, v: np.ndarray) -> np.ndarray:
    """diag(d) @ v for vector or stacked-columns v."""
    return d * v if v.ndim == 1 else d[:, None] * v


@dataclass
class NewtonStep:
    """Full-space Newton update with the row where inexactness lands."""
    dx: np.ndarray
    dy: np.ndarray
    ds: np.ndarray
    residual_location: str  # "primal_row" | "complementarity_row" | "none"


def _check_iterate(std: StandardLP, it: Iterate) -> None:
    if it.x.shape != (std.n,) or it.s.shape != (std.n,) or it.y.shape != (std.m,):
        raise ValueError("iterate dimensions do not match the LP")


def build_nes(std: StandardLP, it: Iterate, beta_mu: float) -> NewtonOperator:
    """Normal equation system: M = A D^2 A', rhs sigma; dim m.

    sigma = A D^2 c - M y - beta_mu * A S^-1 1 + b - A x.
    """
    _check_iterate(std, it)
    A = std.A.tocsr()
    d2 = it.d2
    s_inv = 1.0 / it.s

    # a lazy transpose: the internal IPM builds this operator every
    # iteration for its rhs alone, inside the classical timer
    def matvec(v):
        return A @ _dmul(d2, A.T @ v)

    rhs = (A @ (d2 * (std.c - A.T @ it.y)) - beta_mu * (A @ s_inv)
           + std.b - A @ it.x)
    return NewtonOperator((std.m, std.m), "nes", matvec, matvec, rhs=rhs)


def build_mnes(std: StandardLP, it: Iterate, basis: BasisSelection,
               beta_mu: float) -> NewtonOperator:
    """Modified NES: M_hat = D_B^-1 A_B^-1 M A_B^-T D_B^-1, rhs sigma_hat.

    Applied as the chain v -> D_B^-1 A_B^-1 A D^2 A' A_B^-T D_B^-1 v using
    the basis factorization for both solves; dim m.
    """
    _check_iterate(std, it)
    A, a_t = std.A.tocsr(), std.A.tocsc().T
    d2 = it.d2
    db = np.sqrt(it.x[basis.basic] / it.s[basis.basic])
    db_inv = 1.0 / db

    def matvec(v):
        u = basis.solve_t(_dmul(db_inv, v))
        u = A @ _dmul(d2, a_t @ u)
        return _dmul(db_inv, basis.solve(u))

    resid = std.c - a_t @ it.y - it.s
    sigma_hat = (db_inv * basis.solve(std.b)
                 - beta_mu * (db_inv * basis.solve(A @ (1.0 / it.s)))
                 + db_inv * basis.solve(A @ (d2 * resid)))
    return NewtonOperator((std.m, std.m), "mnes", matvec, matvec,
                          rhs=sigma_hat)


def build_fbar(basis: BasisSelection, A: SparseMatrix,
               it: Iterate) -> NewtonOperator:
    """Nonbasic coupling operator F = D_B^-1 A_B^-1 A_N D_N, shape m x (n-m).

    At the all-ones iterate this is A_B^-1 A_N; M_hat = I + F F'.

    When n - m >= m the operator carries the inverse Gram
    (F F')^-1 = D_B A_B' (A_N D_N^2 A_N')^-1 A_B D_B, which needs one sparse
    factorization of A_N D_N^2 A_N' and no basis solve. It is factored on
    first use; sigma_min_upper iterates on it only to choose the vector at
    which the forward Rayleigh quotient ||F' u|| / ||u|| is taken.

    `A` is the matrix `basis` was picked from; the operator reads only the
    basis's own blocks of it.
    """
    m = basis.m
    k = len(basis.nonbasic)
    a_n, a_nt = basis.a_n.tocsr(), basis.a_n.tocsc().T
    db = np.sqrt(it.x[basis.basic] / it.s[basis.basic])
    db_inv = 1.0 / db
    d2n = it.x[basis.nonbasic] / it.s[basis.nonbasic]
    dn = np.sqrt(d2n)

    def matvec(v):
        return _dmul(db_inv, basis.solve(a_n @ _dmul(dn, v)))

    def rmatvec(u):
        return _dmul(dn, a_nt @ basis.solve_t(_dmul(db_inv, u)))

    inverse_gram = None
    if k >= m:
        a_b, a_bt = basis.a_b.tocsr(), basis.a_b.tocsc().T
        solve = functools.cache(lambda: factor_nes(a_n, d2n))

        def inverse_gram(u):
            return db * (a_bt @ solve()(a_b @ (db * u)))

    return NewtonOperator((m, k), "fbar", matvec, rmatvec,
                          inverse_gram=inverse_gram)


def null_space_matrix(basis: BasisSelection, A: SparseMatrix) -> NewtonOperator:
    """Null-space operator V, shape n x (n-m): A @ (V v) = 0 for all v.

    Rows at basic positions carry A_B^-1 A_N, rows at nonbasic positions -I,
    both in original column order of A.
    """
    n = A.n_cols
    k = len(basis.nonbasic)
    a_n, a_nt = basis.a_n.tocsr(), basis.a_n.tocsc().T

    def matvec(v):
        v = np.asarray(v, dtype=float)
        out_shape = (n,) if v.ndim == 1 else (n, v.shape[1])
        out = np.zeros(out_shape)
        out[basis.basic] = basis.solve(a_n @ v)
        out[basis.nonbasic] = -v
        return out

    def rmatvec(w):
        return a_nt @ basis.solve_t(w[basis.basic]) - w[basis.nonbasic]

    return NewtonOperator((n, k), "nullspace", matvec, rmatvec)


def build_oss(std: StandardLP, it: Iterate, basis: BasisSelection,
              beta_mu: float, fbar: NewtonOperator | None = None
              ) -> NewtonOperator:
    """Orthogonal subspace system: O = [-X A'  S V], rhs tau; dim n.

    The input vector stacks the dy block (m) over the null-space coefficient
    block (n - m); tau_i = beta_mu - x_i s_i.

    When x and s are constant vectors, x 1 and s 1 as at canonical_iterate,
    O'O = diag(x^2 A A', s^2 V'V) because A V = 0, so sigma(O) is
    x sigma(A) together with s sigma(V), and O carries both parts:
    - a_block, x A (m x n; see _a_block);
    - fbar, the coupling F = A_B^-1 A_N (build_fbar at this iterate), and
      s: V'V = I + F'F, so sigma(sV) is s sqrt(1 + sigma_i(F)^2), plus s
      itself when n - m > m, because F'F then has rank at most m < n - m.
    A given `fbar`, build_fbar(basis, std.A, it) built by the caller, is
    attached as it is, so F and its lazy factorization exist once.
    """
    _check_iterate(std, it)
    A, a_t = std.A.tocsr(), std.A.tocsc().T
    m, n = std.m, std.n
    V = null_space_matrix(basis, std.A)

    def matvec(w):
        vy, vl = w[:m], w[m:]
        return -_dmul(it.x, a_t @ vy) + _dmul(it.s, V.apply(vl))

    def rmatvec(u):
        top = -(A @ _dmul(it.x, u))
        bot = V.apply_transpose(_dmul(it.s, u))
        return np.concatenate([top, bot], axis=0)

    tau = beta_mu - it.x * it.s
    oss = NewtonOperator((n, n), "oss", matvec, rmatvec, rhs=tau)
    if n and np.all(it.x == it.x[0]) and np.all(it.s == it.s[0]):
        oss.fbar = fbar if fbar is not None else build_fbar(basis, std.A, it)
        oss.s = float(it.s[0])
        if m:
            oss.a_block = _a_block(A, a_t, basis, it)
    return oss


def _a_block(A, a_t, basis: BasisSelection, it: Iterate) -> NewtonOperator:
    """O's A-block x A (m x n) at the constant iterate X = xI, S = sI.

    - Inverse Gram: (x^2 A A')^-1 = M^-1 / (x s) with M = A D^2 A' =
      (x / s) A A', one solve of M's sparse factorization (factored on
      first use).
    - Floor: A A' >= A_B A_B', so sigma_min(xA') >= x sigma_min(A_B). When
      A_B is a scaled permutation (basis.lu is None) that is
      x min |a_b|; otherwise the floor is 0.
    - Ceiling: ||A||_2^2 <= ||A||_1 ||A||_inf (Hoelder), so
      sigma_max(xA') <= x sqrt(||A||_1 ||A||_inf).
    """
    x, s = float(it.x[0]), float(it.s[0])
    solve = functools.cache(lambda: factor_nes(A, it.d2))
    floor = 0.0
    if basis.lu is None:
        floor = x * float(np.abs(basis.a_b.tocsr().data).min())
    return NewtonOperator(
        A.shape, "oss_a", lambda v: x * (A @ v), lambda u: x * (a_t @ u),
        inverse_gram=lambda u: solve()(u) / (x * s), floor=floor,
        ceiling=x * math.sqrt(splinalg.norm(A, 1) * splinalg.norm(A, np.inf)))


# ---------------------------------------------------------------------------
# update recovery

def recover_updates_nes(std: StandardLP, it: Iterate, beta_mu: float,
                        dy_tilde: np.ndarray) -> NewtonStep:
    """Recover (dx, dy, ds) from a (possibly inexact) NES solution.

    ds = c - A'y - s - A'dy and dx = beta_mu S^-1 1 - x - D^2 ds; any solve
    error lands in the primal feasibility row only.
    """
    dy = np.asarray(dy_tilde, dtype=float)
    if dy.shape != (std.m,):
        raise ValueError(f"dy_tilde must have length {std.m}")
    A = std.A.tocsr()
    ds = std.c - A.T @ it.y - it.s - A.T @ dy
    dx = beta_mu / it.s - it.x - it.d2 * ds
    return NewtonStep(dx, dy, ds, "primal_row")


def recover_updates_mnes(std: StandardLP, it: Iterate, basis: BasisSelection,
                         beta_mu: float, z_tilde: np.ndarray,
                         r_hat: np.ndarray) -> NewtonStep:
    """Recover (dx, dy, ds) from an inexact MNES solution z_tilde.

    r_hat is the solve residual sigma_hat - M_hat z_tilde, computed by the
    caller to high precision. The residual is transferred into the
    complementarity row: primal and dual feasibility rows hold exactly
    (up to roundoff) for any z_tilde.
    """
    z = np.asarray(z_tilde, dtype=float)
    r = np.asarray(r_hat, dtype=float)
    if z.shape != (std.m,) or r.shape != (std.m,):
        raise ValueError(f"z_tilde and r_hat must have length {std.m}")
    A = std.A.tocsr()
    db = np.sqrt(it.x[basis.basic] / it.s[basis.basic])
    dy = basis.solve_t(z / db)
    ds = std.c - A.T @ it.y - it.s - A.T @ dy
    # v carries D_B r_hat scattered to the basic positions, signed so that
    # A dx = b - A x holds identically (transfer identity)
    v = np.zeros(std.n)
    v[basis.basic] = -db * r
    dx = beta_mu / it.s - it.x - it.d2 * ds - v
    return NewtonStep(dx, dy, ds, "complementarity_row")


def recover_updates_oss(std: StandardLP, it: Iterate, basis: BasisSelection,
                        w_tilde: np.ndarray) -> NewtonStep:
    """Recover (dx, dy, ds) from an OSS solution w = (dy, lambda).

    dx = V lambda lies in A's null space and ds = -A'dy in A's row space by
    construction, for arbitrary w; inexactness lands in the complementarity
    row only.
    """
    w = np.asarray(w_tilde, dtype=float)
    if w.shape != (std.n,):
        raise ValueError(f"w_tilde must have length {std.n}")
    m = std.m
    A = std.A.tocsr()
    V = null_space_matrix(basis, std.A)
    dy = w[:m].copy()
    ds = -(A.T @ dy)
    dx = V.apply(w[m:])
    return NewtonStep(dx, dy, ds, "complementarity_row")

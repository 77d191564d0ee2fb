"""Shared generators and dense oracles for the test suite.

Oracles are assembled independently of the library's matrix-free paths:
dense NumPy/LAPACK products and inverses only.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from qipm_bounds.lp_model import GeneralLP, SparseMatrix, StandardLP
from qipm_bounds.newton import NewtonOperator


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def load_gen_corpus():
    """tools/gen_corpus.py as a module, loaded by path; its main() writes
    the bundled corpus and is never called from the tests."""
    path = Path(__file__).resolve().parent.parent / "tools" / "gen_corpus.py"
    spec = importlib.util.spec_from_file_location("gen_corpus", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def general_lp(rows, cols, entries, objective, *, name="test", sense="min",
               objective_name="obj", constant=0.0) -> GeneralLP:
    """GeneralLP built by hand. rows: (name, sense, rhs[, range]) with range
    None for none; cols: (name, lower, upper); entries: (row, col, value)."""
    ranges = [r[3] if len(r) > 3 and r[3] is not None else math.nan
              for r in rows]
    return GeneralLP(
        name=name, objective_sense=sense, objective_name=objective_name,
        row_names=[r[0] for r in rows],
        sense=np.array([r[1] for r in rows], dtype="<U2"),
        rhs=np.array([r[2] for r in rows], dtype=float),
        ranges=np.array(ranges, dtype=float),
        row_lower=np.full(len(rows), math.nan),
        col_names=[c[0] for c in cols],
        lower=np.array([c[1] for c in cols], dtype=float),
        upper=np.array([c[2] for c in cols], dtype=float),
        coefficients=SparseMatrix.from_entries(len(rows), len(cols), entries),
        objective=np.asarray(objective, dtype=float),
        objective_constant=constant)


def row_tuples(lp: GeneralLP) -> list[tuple]:
    """(name, sense, rhs, range) per row, range None for none: the row as a
    tuple of Python values."""
    return [(name, sense, rhs, None if math.isnan(r) else r)
            for name, sense, rhs, r in zip(lp.row_names, lp.sense.tolist(),
                                           lp.rhs.tolist(),
                                           lp.ranges.tolist())]


def col_tuples(lp: GeneralLP) -> list[tuple]:
    """(name, lower, upper) per column, as Python values."""
    return list(zip(lp.col_names, lp.lower.tolist(), lp.upper.tolist()))


def random_full_rank(rng, m: int, n: int, density: float = 0.4) -> np.ndarray:
    """Dense m x n matrix (m <= n) of full row rank with a sparse pattern."""
    while True:
        mask = rng.random((m, n)) < density
        a = np.where(mask, rng.normal(size=(m, n)), 0.0)
        # keep at least one entry per row and per column
        for i in range(m):
            if not mask[i].any():
                a[i, rng.integers(n)] = rng.normal()
        for j in range(n):
            if not (a[:, j] != 0).any():
                a[rng.integers(m), j] = rng.normal()
        if np.linalg.matrix_rank(a) == m:
            return a


def random_standard_lp(seed: int, m: int, n: int,
                       density: float = 0.4) -> StandardLP:
    """Feasible, bounded random standard-form LP (primal and dual feasible
    points exist by construction)."""
    rng = rng_for(seed)
    a = random_full_rank(rng, m, n, density)
    x0 = rng.uniform(0.5, 2.0, size=n)
    y0 = rng.normal(size=m)
    s0 = rng.uniform(0.5, 2.0, size=n)
    return StandardLP(
        A=SparseMatrix(sparse.csr_matrix(a)),
        b=a @ x0,
        c=a.T @ y0 + s0,
        name=f"rand_{seed}")


def random_iterate(rng, m: int, n: int):
    from qipm_bounds.newton import Iterate
    return Iterate(rng.uniform(0.3, 3.0, size=n), rng.normal(size=m),
                   rng.uniform(0.3, 3.0, size=n))


def op_from_dense(mat: np.ndarray, kind: str = "dense") -> NewtonOperator:
    mat = np.asarray(mat, dtype=float)

    def mv(v):
        return mat @ v

    def rmv(v):
        return mat.T @ v

    return NewtonOperator(mat.shape, kind, mv, rmv)


# --- dense oracles for the Newton operators ---------------------------------

def dense_nes(a: np.ndarray, it) -> np.ndarray:
    return a @ np.diag(it.x / it.s) @ a.T


def dense_mnes(a: np.ndarray, basic, it) -> np.ndarray:
    a_b = a[:, basic]
    db_inv = np.diag(np.sqrt(it.s[basic] / it.x[basic]))
    left = db_inv @ np.linalg.inv(a_b)
    return left @ dense_nes(a, it) @ left.T


def dense_fbar(a: np.ndarray, basic, nonbasic, it) -> np.ndarray:
    a_b, a_n = a[:, basic], a[:, nonbasic]
    db_inv = np.diag(np.sqrt(it.s[basic] / it.x[basic]))
    dn = np.diag(np.sqrt(it.x[nonbasic] / it.s[nonbasic]))
    return db_inv @ np.linalg.inv(a_b) @ a_n @ dn


def dense_nullspace(a: np.ndarray, basic, nonbasic) -> np.ndarray:
    n = a.shape[1]
    k = len(nonbasic)
    v = np.zeros((n, k))
    v[basic] = np.linalg.inv(a[:, basic]) @ a[:, nonbasic]
    v[nonbasic] = -np.eye(k)
    return v


def dense_oss(a: np.ndarray, basic, nonbasic, it) -> np.ndarray:
    v = dense_nullspace(a, basic, nonbasic)
    return np.hstack([-np.diag(it.x) @ a.T, np.diag(it.s) @ v])


def newton_residuals(std, it, beta_mu, step):
    """Residuals of the three Newton rows at the given step."""
    a = std.A.to_dense()
    r_primal = a @ step.dx - (std.b - a @ it.x)
    r_dual = a.T @ step.dy + step.ds - (std.c - a.T @ it.y - it.s)
    r_comp = it.x * step.ds + it.s * step.dx - (beta_mu - it.x * it.s)
    return r_primal, r_dual, r_comp


@pytest.fixture
def tiny_min_text() -> str:
    return """NAME          TINYMIN
ROWS
 N  COST
 G  C1
COLUMNS
    X         COST          1   C1            1
RHS
    RHS       C1            1
ENDATA
"""

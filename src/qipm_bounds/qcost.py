"""Chebyshev-QLSA query counts and total quantum cycle lower bounds.

All ceilings are evaluated exactly: inputs are canonicalized to rationals
(floats through their shortest decimal form), powers of two are resolved in
closed form, and everything else goes through escalating-precision decimal
arithmetic that refuses to round across an integer boundary. Results are
exact big integers, never floats.

The query count for an s-sparse system with condition number kappa at target
precision eps is

    Q = 8 * ceil(sqrt(ceil(g^2 lb(g/eps)) * lb((4/eps) ceil(g^2 lb(g/eps)))))
        * n_qaa,        g = s * kappa,  lb = log base 2,

and the total cycle count for reading out a d-dimensional solution in the
copy-access tomography model multiplies the bracket by 8 (d - 1) / eps^2.
"""

from __future__ import annotations

import functools
import math
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction

_START_PREC = 60
_MAX_PREC = 4000

Rational = int | float | str | Fraction


def to_fraction(x: Rational) -> Fraction:
    """Exact rational form of x; floats are read via their shortest decimal
    representation (so 0.1 means 1/10, as intended by callers)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):  # includes numpy floats, normalized first
        x = float(x)
        if not math.isfinite(x):
            raise ValueError(f"non-finite value {x}")
        return Fraction(Decimal(repr(x)))
    return Fraction(x)


def _pow2_exponent(r: Fraction) -> int | None:
    """k if r == 2**k exactly, else None."""
    if r <= 0:
        return None
    num, den = r.numerator, r.denominator
    if den == 1:
        if num & (num - 1) == 0:
            return num.bit_length() - 1
        return None
    if num == 1 and den & (den - 1) == 0:
        return -(den.bit_length() - 1)
    return None


def _dec_log2(fr: Fraction) -> Decimal:
    """log2 of a positive rational at the ambient decimal precision."""
    num = Decimal(fr.numerator).ln()
    den = Decimal(fr.denominator).ln()
    ctx = getcontext()
    return (num - den) / _ln2(ctx.prec, ctx.rounding)


@functools.lru_cache(maxsize=None)
def _ln2(prec: int, rounding: str) -> Decimal:
    """ln 2 as the ambient context (prec, rounding) rounds it; _dec_log2
    divides by it at each precision the escalation visits."""
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = prec, rounding
        return Decimal(2).ln()


def _ceil_decided(z: Decimal, prec: int) -> int | None:
    """ceil(z_true) when z provably lies strictly between two integers."""
    floor = int(z.to_integral_value(rounding="ROUND_FLOOR"))
    frac = z - floor
    err = (abs(z) + 1) * Decimal(10) ** (-prec)
    if frac > err and (1 - frac) > err:
        return floor + 1
    return None


def _ceil_escalating(value) -> int:
    """Exact ceiling of the Decimal that value() computes at the ambient
    precision, re-evaluated at doubling precision until it is decided."""
    prec = _START_PREC
    while prec <= _MAX_PREC:
        # decided in the same context: at the default 28 digits, z - floor
        # rounds a value just below an integer up to that integer
        with localcontext() as ctx:
            ctx.prec = prec + 20
            decided = _ceil_decided(value(), prec)
        if decided is not None:
            return decided
        prec *= 2
    raise ArithmeticError("ceiling not decidable at maximum precision")


def ceil_log_term(coeff: Fraction, arg: Fraction) -> int:
    """Exact ceil(coeff * log2(arg)) for rational coeff > 0, arg > 1."""
    if arg <= 1:
        raise ValueError(f"log2 argument must exceed 1, got {arg}")
    k = _pow2_exponent(arg)
    if k is not None:
        return math.ceil(coeff * k)
    return _ceil_escalating(
        lambda: (Decimal(coeff.numerator) / Decimal(coeff.denominator))
        * _dec_log2(arg))


def ceil_sqrt_log_term(inner: int, arg: Fraction) -> int:
    """Exact ceil(sqrt(inner * log2(arg))) for integer inner >= 1, arg > 1."""
    if inner < 1:
        raise ValueError(f"inner factor must be >= 1, got {inner}")
    if arg <= 1:
        raise ValueError(f"log2 argument must exceed 1, got {arg}")
    j = _pow2_exponent(arg)
    if j is not None:
        prod = inner * j
        if prod <= 0:
            return 0
        return math.isqrt(prod - 1) + 1  # exact ceil(sqrt(int))
    return _ceil_escalating(lambda: (Decimal(inner) * _dec_log2(arg)).sqrt())


def chebyshev_bracket(gamma: Rational, epsilon: Rational) -> int:
    """The shared ceil(sqrt(...)) factor of the query and cycle formulas,
    computed once per exact (gamma, epsilon): qlsa_query_count and
    total_quantum_cycles of one formulation both read it."""
    return _bracket(to_fraction(gamma), to_fraction(epsilon))


@functools.lru_cache(maxsize=256)
def _bracket(g: Fraction, eps: Fraction) -> int:
    if not 0 < eps < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {eps}")
    if g <= eps:
        raise ValueError(
            f"difficulty {g} must exceed epsilon {eps} (log argument <= 1)")
    inner = ceil_log_term(g * g, g / eps)
    return ceil_sqrt_log_term(inner, Fraction(4) / eps * inner)


def qlsa_query_count(s: int, kappa: Rational, epsilon: Rational,
                     n_qaa: int = 1) -> int:
    """Oracle queries of the Chebyshev-based quantum linear solver.

    Exact integer evaluation of
    8 * ceil(sqrt(ceil(s^2 k^2 lb(sk/e)) * lb((4/e) ceil(s^2 k^2 lb(sk/e)))))
    times the amplitude-amplification repetition count.
    """
    if s < 1:
        raise ValueError(f"sparsity must be >= 1, got {s}")
    if n_qaa < 1:
        raise ValueError(f"n_qaa must be >= 1, got {n_qaa}")
    k = to_fraction(kappa)
    if k <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    return 8 * chebyshev_bracket(s * k, epsilon) * n_qaa


def total_quantum_cycles(d: int, gamma: Rational, epsilon: Rational) -> int:
    """Quantum cycle lower bound including copy-access tomography readout.

    Exact evaluation of (8 (d-1) / eps^2) * bracket(gamma, eps), rounded up
    to the next integer cycle. d = 1 is degenerate (nothing to read out)
    and yields 0.
    """
    if d < 1:
        raise ValueError(f"solution dimension must be >= 1, got {d}")
    eps = to_fraction(epsilon)
    if not 0 < eps < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {eps}")
    if d == 1:
        return 0
    bracket = chebyshev_bracket(gamma, eps)
    return math.ceil(Fraction(8 * (d - 1)) / (eps * eps) * bracket)


def hermitian_dilation_params(d: int, s: int, kappa: float,
                              is_hermitian: bool) -> tuple[int, int, float]:
    """Solver-side system parameters after Hermitian dilation.

    A non-Hermitian system is embedded into a 2d x 2d Hermitian one with the
    same sparsity and condition number; Hermitian systems pass through.
    """
    if is_hermitian:
        return d, s, kappa
    return 2 * d, s, kappa


DEFAULT_DURATION_MIN = 1e-15
DEFAULT_DURATION_MAX = 1e-3
DEFAULT_DURATION_POINTS = 121
REFERENCE_CYCLE_DURATION = 8e-10  # current two-qubit gate speed record


def duration_grid(d_min: float = DEFAULT_DURATION_MIN,
                  d_max: float = DEFAULT_DURATION_MAX,
                  points: int = DEFAULT_DURATION_POINTS) -> list[float]:
    """Logarithmic cycle-duration grid plus REFERENCE_CYCLE_DURATION."""
    if points < 2 or not 0 < d_min < d_max < math.inf:  # NaN fails too
        raise ValueError("need points >= 2 and 0 < d_min < d_max < inf")
    lo, hi = math.log10(d_min), math.log10(d_max)
    grid = [10.0 ** (lo + (hi - lo) * k / (points - 1)) for k in range(points)]
    if REFERENCE_CYCLE_DURATION not in grid:
        grid.append(REFERENCE_CYCLE_DURATION)
    return sorted(grid)


@functools.lru_cache(maxsize=8)
def exact_grid(durations: tuple[float, ...]) -> tuple[Fraction, ...]:
    """The durations as exact rationals (`to_fraction`), converted once per
    distinct tuple of values, whichever config or caller they come from."""
    return tuple(to_fraction(t) for t in durations)

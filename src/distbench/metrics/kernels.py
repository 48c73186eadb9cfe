"""The distance/similarity kernels and the shared cores.

28 measures have a kernel here. The other 26 are finished, in the
registry, from the shared cores below: reductions such as the sum of
absolute differences that several measures are simple functions of.

Every kernel and core is a pure function of two float ndarrays whose
last axis is the vector dimension, so the same code evaluates a single
pair (n,), a training matrix against one query (m, n) vs (n,), or
batches of pairs (b, n) vs (b, n). Reductions always run over the last
axis. Callers are expected to pass float64 arrays; the registry front
end does the conversion and the domain checks.

Division by zero and logs of non-positive arguments are resolved by a
GuardPolicy: a term whose numerator (or log coefficient) is zero always
contributes 0, otherwise the offending denominator/argument is replaced
by a small epsilon (default) or the whole term is zeroed, depending on
the policy. Under the default policy every kernel returns a finite value
for finite inputs in its domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPSILON = 1e-12

TERM_IS_ZERO = "term_is_zero"
EPSILON_SUBSTITUTE = "epsilon_substitute"


@dataclass(frozen=True)
class GuardPolicy:
    """How kernels resolve zero denominators and non-positive log arguments."""

    zero_denominator: str = EPSILON_SUBSTITUTE
    log_nonpositive: str = EPSILON_SUBSTITUTE
    epsilon: float = EPSILON

    def __post_init__(self):
        if self.zero_denominator not in (TERM_IS_ZERO, EPSILON_SUBSTITUTE):
            raise ValueError(f"bad zero_denominator policy {self.zero_denominator!r}")
        if self.log_nonpositive not in (TERM_IS_ZERO, EPSILON_SUBSTITUTE):
            raise ValueError(f"bad log_nonpositive policy {self.log_nonpositive!r}")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")


DEFAULT_GUARD = GuardPolicy()


def _div(num, den, guard: GuardPolicy):
    """num / den with zero denominators resolved by the guard policy."""
    num = np.asarray(num, dtype=np.float64)
    den = np.asarray(den, dtype=np.float64)
    bad = den == 0.0
    if not np.any(bad):
        return num / den
    out = num / np.where(bad, 1.0, den)
    if guard.zero_denominator == TERM_IS_ZERO:
        fallback = np.zeros_like(out)
    else:
        fallback = num / guard.epsilon
    return np.where(bad, np.where(num == 0.0, 0.0, fallback), out)


def _xlog(coef, arg, guard: GuardPolicy):
    """coef * ln(arg); zero coefficients contribute 0, bad args follow policy."""
    coef = np.asarray(coef, dtype=np.float64)
    arg = np.asarray(arg, dtype=np.float64)
    bad = arg <= 0.0
    term = coef * np.log(np.where(bad, guard.epsilon, arg))
    if guard.log_nonpositive == TERM_IS_ZERO:
        term = np.where(bad, 0.0, term)
    return np.where(coef == 0.0, 0.0, term)


def _xlogx(value, guard: GuardPolicy):
    """value * ln(value) with the 0 * ln(0) = 0 convention."""
    return _xlog(value, value, guard)


def _dim(x, y) -> int:
    return np.broadcast_shapes(np.shape(x), np.shape(y))[-1]


# Shared cores: reductions ``(x, y, guard) -> values`` over the last axis.
# The registry finishes 26 measures from them, so factor-related measures
# agree to the last ulp.

def abs_diff_sum(x, y, guard=DEFAULT_GUARD):
    """Sum of absolute component differences."""
    return np.sum(np.abs(x - y), axis=-1)


def abs_diff_max(x, y, guard=DEFAULT_GUARD):
    """Largest absolute component difference."""
    return np.max(np.abs(x - y), axis=-1)


def sq_diff_sum(x, y, guard=DEFAULT_GUARD):
    """Sum of squared component differences."""
    return np.sum(np.square(x - y), axis=-1)


def nonzero_count(x, y, guard=DEFAULT_GUARD):
    """Count of positions where x or y is non-zero, as a float."""
    return np.sum((np.square(x) + np.square(y)) != 0.0, axis=-1).astype(np.float64)


def inner_product(x, y, guard=DEFAULT_GUARD):
    """Sum of component products."""
    return np.sum(x * y, axis=-1)


def squared_chord_sum(x, y, guard=DEFAULT_GUARD):
    """Sum of squared differences of component square roots."""
    return np.sum(np.square(np.sqrt(x) - np.sqrt(y)), axis=-1)


def squared_chi2_sum(x, y, guard=DEFAULT_GUARD):
    """Sum of squared differences over component sums."""
    return np.sum(_div(np.square(x - y), x + y, guard), axis=-1)


def neyman_sum(x, y, guard=DEFAULT_GUARD):
    """Directed chi-squared sum with x as the reference: sum((x - y)^2 / x)."""
    return np.sum(_div(np.square(x - y), x, guard), axis=-1)


def pearson_sum(x, y, guard=DEFAULT_GUARD):
    """Directed chi-squared sum with y as the reference: sum((y - x)^2 / y)."""
    return neyman_sum(y, x, guard)


def topsoe_sum(x, y, guard=DEFAULT_GUARD):
    """Topsoe information statistic, twice the Jensen-Shannon divergence."""
    s = x + y
    return np.sum(_xlog(x, _div(2.0 * x, s, guard), guard)
                  + _xlog(y, _div(2.0 * y, s, guard), guard), axis=-1)


def pearson_r(x, y, guard=DEFAULT_GUARD):
    """Pearson correlation over the last axis; zero variance maps to r = 0."""
    xc = x - np.mean(x, axis=-1, keepdims=True)
    yc = y - np.mean(y, axis=-1, keepdims=True)
    num = np.sum(xc * yc, axis=-1)
    den = np.sqrt(np.sum(np.square(xc), axis=-1) * np.sum(np.square(yc), axis=-1))
    r = np.where(den == 0.0, 0.0, num / np.where(den == 0.0, 1.0, den))
    return np.clip(r, -1.0, 1.0)


# L1 family

def lorentzian(x, y, guard=DEFAULT_GUARD):
    """Sum of ln(1 + |x - y|); the +1 keeps each term non-negative."""
    return np.sum(np.log1p(np.abs(x - y)), axis=-1)


def canberra(x, y, guard=DEFAULT_GUARD):
    """Manhattan weighted per dimension by |x| + |y|."""
    return np.sum(_div(np.abs(x - y), np.abs(x) + np.abs(y), guard), axis=-1)


def sorensen(x, y, guard=DEFAULT_GUARD):
    """Bray-Curtis: summed absolute differences over summed values."""
    return _div(abs_diff_sum(x, y), np.sum(x + y, axis=-1), guard)


def soergel(x, y, guard=DEFAULT_GUARD):
    """Summed absolute differences over summed component maxima."""
    return _div(abs_diff_sum(x, y), np.sum(np.maximum(x, y), axis=-1), guard)


def kulczynski(x, y, guard=DEFAULT_GUARD):
    """Summed absolute differences over summed component minima."""
    return _div(abs_diff_sum(x, y), np.sum(np.minimum(x, y), axis=-1), guard)


# Inner product family

def chord(x, y, guard=DEFAULT_GUARD):
    """Chord length between the vectors projected on the unit sphere.

    Computed as the plain Euclidean distance between the normalized
    vectors, which equals sqrt(2 - 2 cos) without the cancellation that
    form suffers near identical vectors.
    """
    xn = _div(x, np.sqrt(np.sum(np.square(x), axis=-1, keepdims=True)), guard)
    yn = _div(y, np.sqrt(np.sum(np.square(y), axis=-1, keepdims=True)), guard)
    return np.sqrt(np.sum(np.square(xn - yn), axis=-1))


# Squared chord family (non-negative inputs only)

def bhattacharyya(x, y, guard=DEFAULT_GUARD):
    """Negative log of the sum of geometric means; may be negative."""
    s = np.sum(np.sqrt(x * y), axis=-1)
    return -_xlog(np.ones_like(s), s, guard)


# Squared L2 family

def clark(x, y, guard=DEFAULT_GUARD):
    """Root of summed squared relative differences |x-y|/(x+y)."""
    return np.sqrt(np.sum(np.square(_div(np.abs(x - y), x + y, guard)), axis=-1))


def divergence(x, y, guard=DEFAULT_GUARD):
    """Twice the summed squared differences over squared component sums."""
    return 2.0 * np.sum(_div(np.square(x - y), np.square(x + y), guard), axis=-1)


def additive_symmetric_chi2(x, y, guard=DEFAULT_GUARD):
    """Symmetrized chi-squared: 2 * sum((x-y)^2 (x+y) / (x y))."""
    return 2.0 * np.sum(_div(np.square(x - y) * (x + y), x * y, guard), axis=-1)


def squared_chi_squared(x, y, guard=DEFAULT_GUARD):
    """Squared differences over the absolute component sums."""
    return np.sum(_div(np.square(x - y), np.abs(x + y), guard), axis=-1)


# Shannon entropy family (non-negative inputs only)

def kullback_leibler(x, y, guard=DEFAULT_GUARD):
    """Relative entropy of x with respect to y; not symmetric."""
    return np.sum(_xlog(x, _div(x, y, guard), guard), axis=-1)


def jeffreys(x, y, guard=DEFAULT_GUARD):
    """Symmetrized relative entropy: sum of (x - y) (ln x - ln y).

    The split-log form makes the kernel symmetric to the last bit; both
    factors negate exactly when the arguments swap.
    """
    coef = x - y
    bad_x = x <= 0.0
    bad_y = y <= 0.0
    term = coef * (np.log(np.where(bad_x, guard.epsilon, x))
                   - np.log(np.where(bad_y, guard.epsilon, y)))
    if guard.log_nonpositive == TERM_IS_ZERO:
        term = np.where(bad_x | bad_y, 0.0, term)
    return np.sum(np.where(coef == 0.0, 0.0, term), axis=-1)


def k_divergence(x, y, guard=DEFAULT_GUARD):
    """Divergence of x from the midpoint distribution."""
    return np.sum(_xlog(x, _div(2.0 * x, x + y, guard), guard), axis=-1)


def jensen_difference(x, y, guard=DEFAULT_GUARD):
    """Half the summed Jensen differences of the entropy function."""
    m = 0.5 * (x + y)
    terms = 0.5 * (_xlogx(x, guard) + _xlogx(y, guard)) - _xlogx(m, guard)
    return 0.5 * np.sum(terms, axis=-1)


# Vicissitude family

def vicis_wave_hedges(x, y, guard=DEFAULT_GUARD):
    """Absolute differences over the component minima."""
    return np.sum(_div(np.abs(x - y), np.minimum(x, y), guard), axis=-1)


def vicis_symmetric1(x, y, guard=DEFAULT_GUARD):
    """Squared differences over the squared component minima."""
    return np.sum(_div(np.square(x - y), np.square(np.minimum(x, y)), guard), axis=-1)


def vicis_symmetric2(x, y, guard=DEFAULT_GUARD):
    """Squared differences over the component minima."""
    return np.sum(_div(np.square(x - y), np.minimum(x, y), guard), axis=-1)


def vicis_symmetric3(x, y, guard=DEFAULT_GUARD):
    """Squared differences over the component maxima."""
    return np.sum(_div(np.square(x - y), np.maximum(x, y), guard), axis=-1)


# Other measures

def kumar_johnson(x, y, guard=DEFAULT_GUARD):
    """Sum of (x^2 + y^2)^2 / (2 (x y)^1.5)."""
    num = np.square(np.square(x) + np.square(y))
    den = 2.0 * np.power(x * y, 1.5)
    return np.sum(_div(num, den, guard), axis=-1)


def taneja(x, y, guard=DEFAULT_GUARD):
    """Arithmetic-geometric mean divergence."""
    m = 0.5 * (x + y)
    arg = _div(x + y, 2.0 * np.sqrt(x * y), guard)
    return np.sum(_xlog(m, arg, guard), axis=-1)


def hamming(x, y, guard=DEFAULT_GUARD):
    """Count of positions where the components differ exactly."""
    return np.sum(x != y, axis=-1).astype(np.float64)


def hausdorff(x, y, guard=DEFAULT_GUARD):
    """Hausdorff distance treating each vector as a set of scalars."""
    diff = np.abs(x[..., :, None] - y[..., None, :])   # (..., n_x, n_y)
    h_xy = np.max(np.min(diff, axis=-1), axis=-1)
    h_yx = np.max(np.min(diff, axis=-2), axis=-1)
    return np.maximum(h_xy, h_yx)


def chi2_statistic(x, y, guard=DEFAULT_GUARD):
    """Sum of (x - m) / m with m the per-dimension midpoint; sign-indefinite."""
    m = 0.5 * (x + y)
    return np.sum(_div(x - m, m, guard), axis=-1)


def whittaker(x, y, guard=DEFAULT_GUARD):
    """Half the L1 distance between the sum-normalized vectors."""
    sx = np.sum(x, axis=-1, keepdims=True)
    sy = np.sum(y, axis=-1, keepdims=True)
    return 0.5 * np.sum(np.abs(_div(x, sx, guard) - _div(y, sy, guard)), axis=-1)


def meehl(x, y, guard=DEFAULT_GUARD):
    """Sum over consecutive positions of (d_i - d_{i+1})^2 with d = x - y."""
    d = x - y
    return np.sum(np.square(d[..., :-1] - d[..., 1:]), axis=-1)


def motyka(x, y, guard=DEFAULT_GUARD):
    """Summed component maxima over summed values; 0.5 at identical vectors."""
    return _div(np.sum(np.maximum(x, y), axis=-1), np.sum(x + y, axis=-1), guard)


def hassanat(x, y, guard=DEFAULT_GUARD):
    """Bounded per-dimension dissimilarity, each term in [0, 1].

    For non-negative pairs the term is 1 - (1 + min) / (1 + max); when the
    minimum is negative both numerator and denominator are shifted by
    |min| for any reals. The exact term is below 1 but rounds to 1.0 once
    the ratio is at most 2**-54, as for 0 against 1e20.
    """
    lo = np.minimum(x, y)
    hi = np.maximum(x, y)
    shift = np.where(lo >= 0.0, 0.0, -lo)
    # lo + shift is lo itself or exactly 0, so equal values give 0 at any
    # magnitude; 1 + lo + shift would round 1 away below about -2**53.
    # An overflowed denominator gives 1 - 1/inf, the correctly rounded 1.0.
    with np.errstate(over="ignore"):
        return np.sum(1.0 - (1.0 + (lo + shift)) / (1.0 + (hi + shift)), axis=-1)

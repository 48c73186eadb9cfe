"""The distance/similarity kernels, the shared cores and the pair terms.

28 measures have a kernel here. The other 26 are finished, in the
registry, from the shared cores below: reductions such as the sum of
absolute differences that several measures are simple functions of.

Every kernel and core is a pure function of two float ndarrays whose
last axis is the vector dimension, so the same code evaluates a single
pair (n,), a training matrix against one query (m, n) vs (n,), or
batches of pairs (b, n) vs (b, n). Reductions always run over the last
axis. Callers are expected to pass float64 arrays; the registry front
end does the conversion and the domain checks.

Kernels that read elementwise terms such as x - y or min(x, y) are
written over a PairTerms and wrapped by ``over_terms``, so they are
still called as ``f(x, y, guard)``. A PairTerms computes each term once,
so a registry.Cell that evaluates every metric of a query block on one
PairTerms computes each term once per block.

Division by zero and logs of non-positive arguments are resolved by a
GuardPolicy: a term whose numerator (or log coefficient) is zero always
contributes 0, otherwise the offending denominator/argument is replaced
by a small epsilon (default) or the whole term is zeroed, depending on
the policy. Under the default policy every kernel returns a finite value
for finite inputs in its domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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
    """num / den with zero denominators resolved by the guard policy.

    A copy of the denominator holds 1 or the epsilon at each zero, so one
    division gives every term, and one masked pass fixes up only the
    flagged positions: zeroed, or num / epsilon turned +0.0 where num is
    a zero of either sign.
    """
    num = np.asarray(num, dtype=np.float64)
    den = np.asarray(den, dtype=np.float64)
    bad = den == 0.0
    if not bad.any():
        return num / den
    zeroing = guard.zero_denominator == TERM_IS_ZERO
    safe = den.copy()
    safe[bad] = 1.0 if zeroing else guard.epsilon
    out = np.asarray(num / safe)
    if zeroing:
        np.copyto(out, 0.0, where=bad)
    else:
        np.add(out, 0.0, out=out, where=bad)
    return out


def _xlog(coef, arg, guard: GuardPolicy):
    """coef * ln(arg); zero coefficients contribute 0, bad args follow policy."""
    coef = np.asarray(coef, dtype=np.float64)
    arg = np.asarray(arg, dtype=np.float64)
    bad = arg <= 0.0
    flagged = bad.any()
    if flagged:
        arg = arg.copy()
        arg[bad] = guard.epsilon
    term = np.asarray(coef * np.log(arg))
    if flagged and guard.log_nonpositive == TERM_IS_ZERO:
        np.copyto(term, 0.0, where=bad)
    zero = coef == 0.0
    if zero.any():
        np.copyto(term, 0.0, where=zero)
    return term


def _xlogx(value, guard: GuardPolicy):
    """value * ln(value) with the 0 * ln(0) = 0 convention."""
    return _xlog(value, value, guard)


def _dim(x, y) -> int:
    return np.broadcast_shapes(np.shape(x), np.shape(y))[-1]


def _frozen(value):
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    return value


class PairTerms:
    """Elementwise terms of x against y, each computed on first use and kept.

    ``x`` and ``y`` broadcast against each other, as a kernel's arguments
    do. Reading ``t.diff`` and the other names in TERMS computes that
    term once; ``core()`` computes a core once per guard policy. Terms
    and cores are read-only, so a kernel that writes into one fails
    loudly instead of changing what the next metric reads.
    """

    def __init__(self, x, y):
        self.x = x
        self.y = y
        self._cores: dict = {}

    def __getattr__(self, name):   # reached only for a term not yet computed
        try:
            recipe = TERMS[name]
        except KeyError:
            raise AttributeError(name) from None
        value = _frozen(recipe(self))
        setattr(self, name, value)
        return value

    def core(self, core, guard: GuardPolicy):
        """The value of the shared core ``core`` under ``guard``, computed once."""
        key = (core, guard)
        value = self._cores.get(key)
        if value is None:
            value = self._cores[key] = _frozen(on_terms(core, self, guard))
        return value


# The shared pair terms, by attribute name: each is a function of the PairTerms.
TERMS: dict[str, Callable[[PairTerms], np.ndarray]] = {
    "diff": lambda t: t.x - t.y,
    "sum": lambda t: t.x + t.y,
    "min": lambda t: np.minimum(t.x, t.y),
    "max": lambda t: np.maximum(t.x, t.y),
    "prod": lambda t: t.x * t.y,
    "abs_diff": lambda t: np.abs(t.diff),
    "sq_diff": lambda t: np.square(t.diff),
    "sq_sum": lambda t: np.square(t.x) + np.square(t.y),
}


def over_terms(body):
    """The kernel ``f(x, y, guard)`` computing ``body(PairTerms(x, y), guard)``.

    ``f.over_terms`` is ``body``, which a caller holding the PairTerms of
    several metrics calls directly.
    """
    def kernel(x, y, guard=DEFAULT_GUARD):
        return body(PairTerms(x, y), guard)

    kernel.__name__, kernel.__qualname__ = body.__name__, body.__qualname__
    kernel.__doc__ = body.__doc__
    kernel.over_terms = body
    return kernel


def on_terms(func, t: PairTerms, guard: GuardPolicy):
    """A kernel or core evaluated on ``t``: through its body when it has one."""
    body = getattr(func, "over_terms", None)
    return body(t, guard) if body is not None else func(t.x, t.y, guard)


# Shared cores: reductions ``(x, y, guard) -> values`` over the last axis.
# The registry finishes 26 measures from them, so factor-related measures
# agree to the last ulp.

@over_terms
def abs_diff_sum(t, guard):
    """Sum of absolute component differences."""
    return np.sum(t.abs_diff, axis=-1)


@over_terms
def abs_diff_max(t, guard):
    """Largest absolute component difference."""
    return np.max(t.abs_diff, axis=-1)


@over_terms
def sq_diff_sum(t, guard):
    """Sum of squared component differences."""
    return np.sum(t.sq_diff, axis=-1)


@over_terms
def nonzero_count(t, guard):
    """Count of positions where x or y is non-zero, as a float."""
    return np.sum(t.sq_sum != 0.0, axis=-1).astype(np.float64)


@over_terms
def inner_product(t, guard):
    """Sum of component products."""
    return np.sum(t.prod, axis=-1)


def squared_chord_sum(x, y, guard=DEFAULT_GUARD):
    """Sum of squared differences of component square roots."""
    return np.sum(np.square(np.sqrt(x) - np.sqrt(y)), axis=-1)


@over_terms
def squared_chi2_sum(t, guard):
    """Sum of squared differences over component sums."""
    return np.sum(_div(t.sq_diff, t.sum, guard), axis=-1)


@over_terms
def neyman_sum(t, guard):
    """Directed chi-squared sum with x as the reference: sum((x - y)^2 / x)."""
    return np.sum(_div(t.sq_diff, t.x, guard), axis=-1)


@over_terms
def pearson_sum(t, guard):
    """Directed chi-squared sum with y as the reference: sum((y - x)^2 / y).

    (y - x)^2 is (x - y)^2 bit for bit: the two differences are exact
    negations, zeros included up to sign, and squaring drops the sign.
    """
    return np.sum(_div(t.sq_diff, t.y, guard), axis=-1)


@over_terms
def topsoe_sum(t, guard):
    """Topsoe information statistic, twice the Jensen-Shannon divergence."""
    x, y, s = t.x, t.y, t.sum
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

@over_terms
def lorentzian(t, guard):
    """Sum of ln(1 + |x - y|); the +1 keeps each term non-negative."""
    return np.sum(np.log1p(t.abs_diff), axis=-1)


@over_terms
def canberra(t, guard):
    """Manhattan weighted per dimension by |x| + |y|."""
    return np.sum(_div(t.abs_diff, np.abs(t.x) + np.abs(t.y), guard), axis=-1)


@over_terms
def sorensen(t, guard):
    """Bray-Curtis: summed absolute differences over summed values."""
    return _div(t.core(abs_diff_sum, guard), np.sum(t.sum, axis=-1), guard)


@over_terms
def soergel(t, guard):
    """Summed absolute differences over summed component maxima."""
    return _div(t.core(abs_diff_sum, guard), np.sum(t.max, axis=-1), guard)


@over_terms
def kulczynski(t, guard):
    """Summed absolute differences over summed component minima."""
    return _div(t.core(abs_diff_sum, guard), np.sum(t.min, axis=-1), guard)


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

@over_terms
def bhattacharyya(t, guard):
    """Negative log of the sum of geometric means; may be negative."""
    s = np.sum(np.sqrt(t.prod), axis=-1)
    return -_xlog(np.ones_like(s), s, guard)


# Squared L2 family

@over_terms
def clark(t, guard):
    """Root of summed squared relative differences |x-y|/(x+y)."""
    return np.sqrt(np.sum(np.square(_div(t.abs_diff, t.sum, guard)), axis=-1))


@over_terms
def divergence(t, guard):
    """Twice the summed squared differences over squared component sums."""
    return 2.0 * np.sum(_div(t.sq_diff, np.square(t.sum), guard), axis=-1)


@over_terms
def additive_symmetric_chi2(t, guard):
    """Symmetrized chi-squared: 2 * sum((x-y)^2 (x+y) / (x y))."""
    return 2.0 * np.sum(_div(t.sq_diff * t.sum, t.prod, guard), axis=-1)


@over_terms
def squared_chi_squared(t, guard):
    """Squared differences over the absolute component sums."""
    return np.sum(_div(t.sq_diff, np.abs(t.sum), guard), axis=-1)


# Shannon entropy family (non-negative inputs only)

def kullback_leibler(x, y, guard=DEFAULT_GUARD):
    """Relative entropy of x with respect to y; not symmetric."""
    return np.sum(_xlog(x, _div(x, y, guard), guard), axis=-1)


@over_terms
def jeffreys(t, guard):
    """Symmetrized relative entropy: sum of (x - y) (ln x - ln y).

    The split-log form makes the kernel symmetric to the last bit; both
    factors negate exactly when the arguments swap.
    """
    x, y = t.x, t.y
    bad_x = x <= 0.0
    bad_y = y <= 0.0
    term = t.diff * (np.log(np.where(bad_x, guard.epsilon, x))
                     - np.log(np.where(bad_y, guard.epsilon, y)))
    if guard.log_nonpositive == TERM_IS_ZERO:
        np.copyto(term, 0.0, where=bad_x | bad_y)
    np.copyto(term, 0.0, where=t.diff == 0.0)
    return np.sum(term, axis=-1)


@over_terms
def k_divergence(t, guard):
    """Divergence of x from the midpoint distribution."""
    return np.sum(_xlog(t.x, _div(2.0 * t.x, t.sum, guard), guard), axis=-1)


@over_terms
def jensen_difference(t, guard):
    """Half the summed Jensen differences of the entropy function."""
    m = 0.5 * t.sum
    terms = 0.5 * (_xlogx(t.x, guard) + _xlogx(t.y, guard)) - _xlogx(m, guard)
    return 0.5 * np.sum(terms, axis=-1)


# Vicissitude family

@over_terms
def vicis_wave_hedges(t, guard):
    """Absolute differences over the component minima."""
    return np.sum(_div(t.abs_diff, t.min, guard), axis=-1)


@over_terms
def vicis_symmetric1(t, guard):
    """Squared differences over the squared component minima."""
    return np.sum(_div(t.sq_diff, np.square(t.min), guard), axis=-1)


@over_terms
def vicis_symmetric2(t, guard):
    """Squared differences over the component minima."""
    return np.sum(_div(t.sq_diff, t.min, guard), axis=-1)


@over_terms
def vicis_symmetric3(t, guard):
    """Squared differences over the component maxima."""
    return np.sum(_div(t.sq_diff, t.max, guard), axis=-1)


# Other measures

@over_terms
def kumar_johnson(t, guard):
    """Sum of (x^2 + y^2)^2 / (2 (x y)^1.5)."""
    num = np.square(t.sq_sum)
    den = 2.0 * np.power(t.prod, 1.5)
    return np.sum(_div(num, den, guard), axis=-1)


@over_terms
def taneja(t, guard):
    """Arithmetic-geometric mean divergence."""
    m = 0.5 * t.sum
    arg = _div(t.sum, 2.0 * np.sqrt(t.prod), guard)
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


@over_terms
def chi2_statistic(t, guard):
    """Sum of (x - m) / m with m the per-dimension midpoint; sign-indefinite."""
    m = 0.5 * t.sum
    return np.sum(_div(t.x - m, m, guard), axis=-1)


def whittaker(x, y, guard=DEFAULT_GUARD):
    """Half the L1 distance between the sum-normalized vectors."""
    sx = np.sum(x, axis=-1, keepdims=True)
    sy = np.sum(y, axis=-1, keepdims=True)
    return 0.5 * np.sum(np.abs(_div(x, sx, guard) - _div(y, sy, guard)), axis=-1)


@over_terms
def meehl(t, guard):
    """Sum over consecutive positions of (d_i - d_{i+1})^2 with d = x - y."""
    d = t.diff
    return np.sum(np.square(d[..., :-1] - d[..., 1:]), axis=-1)


@over_terms
def motyka(t, guard):
    """Summed component maxima over summed values; 0.5 at identical vectors."""
    return _div(np.sum(t.max, axis=-1), np.sum(t.sum, axis=-1), guard)


@over_terms
def hassanat(t, guard):
    """Bounded per-dimension dissimilarity, each term in [0, 1].

    For non-negative pairs the term is 1 - (1 + min) / (1 + max); when the
    minimum is negative both numerator and denominator are shifted by
    |min| for any reals. The exact term is below 1 but rounds to 1.0 once
    the ratio is at most 2**-54, as for 0 against 1e20.
    """
    lo, hi = t.min, t.max
    shifted = lo < 0.0
    # An overflowed denominator gives 1 - 1/inf, the correctly rounded 1.0.
    with np.errstate(over="ignore"):
        num = 1.0 + lo
        den = 1.0 + hi
        if shifted.any():
            # lo + shift is exactly 0, so equal values give 0 at any
            # magnitude; 1 + lo + shift would round 1 away below about -2**53.
            shift = -lo[shifted]
            num[shifted] = 1.0 + (lo[shifted] + shift)
            den[shifted] = 1.0 + (hi[shifted] + shift)
        return np.sum(1.0 - num / den, axis=-1)

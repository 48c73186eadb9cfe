"""The guard helpers against their full-array references.

``_div``, ``_guarded``, ``_log`` and ``hassanat`` substitute only the flagged
positions, and ``_xlog`` and ``jeffreys`` leave a zero coefficient's term
to the product: a zero of its own sign, where the ``np.where`` forms in
``_reference`` give +0.0. No distance tells the two apart, so every
metric computed with the package's helpers must equal, bit for bit, the
same metric computed with the references, on cases with signed zeros,
subnormals, magnitudes near overflow and negatives, and raise no
RuntimeWarning the reference does not raise. The ``rule`` id names the
one guard rule, EPSILON substitution.
"""

import dataclasses
import warnings

import numpy as np
import pytest

import _reference as ref
from distbench import describe, list_metrics
from distbench.metrics import kernels, registry
from distbench.metrics.kernels import PairTerms


def _cases():
    rng = np.random.default_rng(1080)
    smooth = rng.uniform(0.0, 3.0, size=(7, 5))
    cases = {
        "ordinary": (smooth[:3], smooth[3:]),
        "zeros in both": (np.where(smooth[:3] < 1.0, 0.0, smooth[:3]),
                          np.where(smooth[3:] < 1.0, 0.0, smooth[3:])),
        "zeros in one": (np.where(smooth[:3] < 1.5, 0.0, smooth[:3]), smooth[3:]),
        "signed zeros": (np.where(smooth[:3] < 1.5, -0.0, smooth[:3]),
                         np.where(smooth[3:] < 1.5, 0.0, smooth[3:])),
        "subnormal": (np.where(smooth[:3] < 1.5, 5e-324, smooth[:3]), smooth[3:]),
        "near overflow": (smooth[:3] * 1e300, np.where(smooth[3:] < 1.0, 0.0, smooth[3:])),
        "equal": (smooth[:3], smooth[:4]),
        "negatives": (smooth[:3] - 1.5, smooth[3:] - 1.5),
        "negative zeros and subnormals": (np.where(smooth[:3] < 1.0, -5e-324, -smooth[:3]),
                                          np.where(smooth[3:] < 1.0, -0.0, smooth[3:])),
        "pool": tuple(rng.choice(np.array([0.0, -0.0, 5e-324, 1.0, 2.5, 1e300, 3.0]),
                                 size=shape) for shape in ((3, 5), (4, 5))),
    }
    return cases


CASES = _cases()


def _run(desc, x, y):
    """Bits of the (3, 4) distances, and the RuntimeWarnings raised, as texts."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = np.asarray(desc.func(PairTerms(x[:, None, :], y)), dtype=np.float64)
    return out.view(np.int64), [str(w.message) for w in caught
                                if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("case", CASES, ids=CASES.keys())
@pytest.mark.parametrize("rule", ["epsilon"])
def test_guard_helpers_equal_their_references(case, rule, monkeypatch):
    x, y = CASES[case]
    got = {abbrev: _run(describe(abbrev), x, y) for abbrev in list_metrics()}
    monkeypatch.setattr(kernels, "_div", ref.div_ref)
    monkeypatch.setattr(registry, "_div", ref.div_ref)
    monkeypatch.setattr(kernels, "_guarded", ref.guarded_ref)   # the shared denominators
    monkeypatch.setattr(kernels, "_xlog", ref.xlog_ref)
    originals = {"JefD": ref.jeffreys_ref, "HasD": ref.hassanat_ref}
    for abbrev in list_metrics():
        desc = describe(abbrev)
        if abbrev in originals:
            desc = dataclasses.replace(desc, func=lambda t, ref=originals[abbrev]: ref(t.x, t.y))
        bits, caught = got[abbrev]
        want_bits, want_caught = _run(desc, x, y)
        assert np.array_equal(bits, want_bits), abbrev
        # the reference may also warn about a fallback it computes and then
        # discards (num / epsilon where the denominator is not zero)
        assert set(caught) <= set(want_caught), (abbrev, caught, want_caught)


@pytest.mark.parametrize("rule", ["epsilon"])
def test_div_and_xlog_equal_their_references_elementwise(rule):
    # every (numerator or coefficient, denominator or argument) pair of the
    # pool, with the second operand broadcast along one axis as a query is;
    # _log takes the second operand alone. The values agree: a zero may
    # differ in sign, and a zero coefficient times the log of +inf (or NaN)
    # is NaN where the reference gives 0
    pool = np.array([0.0, -0.0, 5e-324, -5e-324, 1.0, -2.5, 1e300, -1e300, np.inf, -np.inf])
    first = np.repeat(pool, len(pool)).reshape(len(pool), len(pool))
    for second in (np.tile(pool, (len(pool), 1)), pool[None, :]):
        for helper, reference in ((kernels._div, ref.div_ref), (kernels._xlog, ref.xlog_ref),
                                  (kernels._log, ref.log_ref)):
            args = (second,) if helper is kernels._log else (first, second)
            got, caught = _warned(helper, *args)
            want, want_caught = _warned(reference, *args)
            if helper is kernels._xlog:
                want = np.where((first == 0.0) & ~(second < np.inf), np.nan, want)
            assert np.array_equal(got, want, equal_nan=True), helper.__name__
            assert set(caught) <= set(want_caught), (helper.__name__, caught, want_caught)


def _warned(func, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = np.asarray(func(*args), dtype=np.float64)
    return out, [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]

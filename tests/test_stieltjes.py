"""Digamma at rationals and the first two generalized Stieltjes constants.

Cross-validation strategy: the Gauss closed form and the Euler-Maclaurin
tail expansion are two independent routes to gamma_0; shift recurrences and
a pair of exact closed-form differences pin gamma_1. The branch-free
kernel is checked bit for bit against its Neumaier form in em_oracle, and
both coefficients against the frozen mpmath table em_reference.csv.
"""
import csv
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekconst import (DEFAULT_EM_TERMS, EULER_GAMMA, digamma_rational,
                     stieltjes01, stieltjes_pair_table)
from ekconst import stieltjes
from ekconst.ekgamma import EM_BLOCK_POINTS
from ekconst.stieltjes import _diff_step, _em_laurent, _sum_step
from em_oracle import em_laurent_neumaier, neumaier_step


def test_euler_gamma_constant():
    # gamma to all stored digits; digamma(1) = -gamma is the anchor
    assert digamma_rational(1, 1) == pytest.approx(-EULER_GAMMA, abs=5e-16)
    assert abs(EULER_GAMMA - 0.57721566490153286061) < 1e-16


def test_digamma_half():
    # digamma(1/2) = -gamma - 2 log 2
    want = -EULER_GAMMA - 2.0 * math.log(2.0)
    assert digamma_rational(1, 2) == pytest.approx(want, abs=1e-14)
    assert want == pytest.approx(-1.9635100260214235, abs=1e-13)


def test_gauss_form_vs_euler_maclaurin_all_rationals_to_50():
    for q in range(1, 51):
        g0 = stieltjes_pair_table(q)[0]
        for a in range(1, q + 1):
            # gamma_0(x) = -digamma(x)
            assert abs(digamma_rational(a, q) + g0[a - 1]) < 1e-10, (a, q)


def test_pair_table_matches_scalar_route():
    for q in (1, 2, 3, 7, 30):
        g0, g1, err = stieltjes_pair_table(q)
        assert err < 1e-12
        for a in range(1, q + 1):
            pair = stieltjes01(a, q)
            assert g0[a - 1] == pytest.approx(pair.gamma0, abs=1e-14)
            assert g1[a - 1] == pytest.approx(pair.gamma1, abs=1e-14)


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=400),
       st.integers(min_value=1, max_value=120))
def test_shift_recurrences(a, q):
    # zeta(s, x+1) = zeta(s, x) - x^(-s) gives, at s = 1:
    #   gamma_0(x+1) = gamma_0(x) - 1/x
    #   gamma_1(x+1) = gamma_1(x) - log(x)/x
    x = a / q
    lo = stieltjes01(a, q)
    hi = stieltjes01(a + q, q)
    assert hi.gamma0 == pytest.approx(lo.gamma0 - 1.0 / x, abs=1e-10)
    assert hi.gamma1 == pytest.approx(lo.gamma1 - math.log(x) / x, abs=1e-10)
    # same recurrence through the digamma route
    assert digamma_rational(a + q, q) == pytest.approx(
        digamma_rational(a, q) + 1.0 / x, abs=1e-10)


def test_gamma1_at_one():
    # gamma_1 = gamma_1(1), the first classical Stieltjes constant
    assert stieltjes01(1, 1).gamma1 == pytest.approx(-0.0728158454836767,
                                                     abs=1e-12)


def test_exact_differences_at_thirds():
    # digamma(4/3) - digamma(1/3) = 3, and the shift at x = 1/3 gives
    # gamma_1(4/3) = gamma_1(1/3) - log(1/3)/(1/3), so the difference is
    # exactly -3 log 3
    assert digamma_rational(4, 3) - digamma_rational(1, 3) == pytest.approx(
        3.0, abs=1e-12)
    d = stieltjes01(1, 3).gamma1 - stieltjes01(4, 3).gamma1
    assert d == pytest.approx(-3.0 * math.log(3.0), abs=1e-12)


def test_reflection_sum_digamma():
    # digamma(1/4) + digamma(3/4) = -2 gamma - 6 log 2 (Gauss sum over q = 4)
    got = digamma_rational(1, 4) + digamma_rational(3, 4)
    want = -2.0 * EULER_GAMMA - 6.0 * math.log(2.0)
    assert got == pytest.approx(want, abs=1e-13)


def test_argument_validation():
    with pytest.raises(ValueError):
        stieltjes01(0, 3)
    with pytest.raises(ValueError):
        stieltjes01(1, 0)
    with pytest.raises(ValueError):
        stieltjes01(1, 3, n_terms=5)
    with pytest.raises(ValueError):
        digamma_rational(0, 5)


def test_more_terms_tightens_error_bound():
    e_small = stieltjes01(1, 7, n_terms=12).err_estimate
    e_big = stieltjes01(1, 7, n_terms=DEFAULT_EM_TERMS).err_estimate
    assert e_big < e_small


def test_default_depth_is_smallest_meeting_tail_target():
    # the tail bound is largest as x -> 0+; the default is the first depth
    # >= 10 at which it is at most 2^-56, an eighth of the unit roundoff
    def bound(n):
        return _em_laurent(np.array([1e-9]), n)[2]
    assert bound(DEFAULT_EM_TERMS) <= 2.0**-56
    assert all(bound(n) > 2.0**-56 for n in range(10, DEFAULT_EM_TERMS))


def _em_reference():
    # gamma_0 and gamma_1 at a/q from mpmath, written by gen_em_reference.py
    path = Path(__file__).with_name("em_reference.csv")
    with path.open(encoding="ascii") as fh:
        rows = list(csv.DictReader(line for line in fh
                                   if not line.startswith("#")))
    return [(int(r["a"]), int(r["q"]), r["gamma0"], r["gamma1"])
            for r in rows]


def _worst_error(got, want):
    # exact difference from the 25-digit value, relative where |value| > 1
    # and absolute otherwise
    exact = [Fraction(w) for w in want]
    return max(float(abs(Fraction(g) - e) / max(1, abs(e)))
               for g, e in zip(got.tolist(), exact))


@pytest.mark.parametrize("n_terms", [DEFAULT_EM_TERMS, 50])
def test_euler_maclaurin_against_mpmath(n_terms):
    a, q, g0, g1 = zip(*_em_reference())
    assert len(a) >= 150
    c0, c1, _ = _em_laurent(np.array(a) / np.array(q), n_terms)
    assert _worst_error(c0, g0) <= 1e-15
    assert _worst_error(-c1, g1) <= 2e-15


# ------------------------------------------- kernel against the Neumaier form


def _bits(arr):
    return np.asarray(arr, dtype=np.float64).view(np.uint64)


def _assert_same_as_oracle(x, n_terms):
    got = _em_laurent(x, n_terms)
    want = em_laurent_neumaier(x, n_terms)
    for g, w in zip(got[:2], want[:2]):
        assert np.array_equal(_bits(g), _bits(w)), n_terms
    assert float.hex(got[2]) == float.hex(want[2])


def _unit_arguments(q_max):
    # a/q for the units a of every q <= q_max, as conductor_totals forms
    # them; x = 1 stands for q = 1
    parts = [np.ones(1)]
    for q in range(2, q_max + 1):
        a = np.arange(1, q)
        parts.append(a[np.gcd(a, q) == 1] / q)
    return np.concatenate(parts)


def test_kernel_matches_neumaier_on_unit_grids():
    # every unit argument of q <= 1500 (684,182 points) in the blocks the
    # scan uses
    x = _unit_arguments(1500)
    for start in range(0, x.size, EM_BLOCK_POINTS):
        _assert_same_as_oracle(x[start:start + EM_BLOCK_POINTS],
                               DEFAULT_EM_TERMS)


@pytest.mark.parametrize("n_terms", [10, 12, 30, 50])
def test_kernel_matches_neumaier_at_other_depths(n_terms):
    # units of small q, arguments above 1 (a <= 3q, as stieltjes01 takes
    # them) and tiny arguments in [1e-9, 1e-3]
    above = np.concatenate([np.arange(1, 3 * q + 1) / q
                            for q in range(1, 61)])
    tiny = np.geomspace(1e-9, 1e-3, 1001)
    _assert_same_as_oracle(np.concatenate([_unit_arguments(200), above, tiny]),
                           n_terms)


def test_kernel_matches_neumaier_on_scalars():
    for a, q in ((1, 1), (1, 3), (7, 2), (3, 1000), (2999, 1000)):
        _assert_same_as_oracle(np.float64(a / q), DEFAULT_EM_TERMS)


@pytest.mark.parametrize("shape", [(), (1,), (7,), (3, 5),
                                   (EM_BLOCK_POINTS,)])
def test_line_aligned_keeps_the_shape(shape):
    buf = stieltjes._line_aligned(np.empty(shape))
    assert buf.shape == shape and buf.dtype == np.float64
    assert buf.flags.c_contiguous and buf.flags.writeable
    assert buf.ctypes.data % 64 == 0


def test_kernel_buffers_are_line_aligned(monkeypatch):
    made = []

    def spy(x):
        made.append(real(x))
        return made[-1]
    real = stieltjes._line_aligned
    monkeypatch.setattr(stieltjes, "_line_aligned", spy)
    x = _unit_arguments(60)[1:]
    c0, c1, _ = _em_laurent(x, DEFAULT_EM_TERMS)
    assert len(made) == 12
    assert all(b.shape == x.shape and b.ctypes.data % 64 == 0 for b in made)
    assert c0.ctypes.data % 64 == 0 and c1.ctypes.data % 64 == 0


@pytest.mark.parametrize("offset", range(8))
def test_kernel_matches_neumaier_at_every_offset(offset):
    # the input starts 8 * offset bytes past a cache line; 4,999 points
    # leave a tail after every SIMD width
    x = _unit_arguments(150)[:4999]
    block = stieltjes._line_aligned(np.empty(x.size + 8))
    block[offset:offset + x.size] = x
    moved = block[offset:offset + x.size]
    assert moved.ctypes.data % 64 == 8 * offset
    _assert_same_as_oracle(moved, DEFAULT_EM_TERMS)


@pytest.mark.parametrize("x", [np.float64(0.25), np.asarray(2.5)])
def test_kernel_keeps_a_0d_input_0d(x):
    c0, c1, _ = _em_laurent(x, DEFAULT_EM_TERMS)
    assert c0.shape == () and c1.shape == ()
    _assert_same_as_oracle(x, DEFAULT_EM_TERMS)


def test_stieltjes01_warns_nothing():
    # a 0-d result converts to float without numpy's DeprecationWarning for
    # arrays with ndim > 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pair = stieltjes01(3, 7)
    assert math.isclose(pair.gamma0, -digamma_rational(3, 7), rel_tol=1e-13)


def _scalar_neumaier(terms):
    total = comp = 0.0
    for term in terms:
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
    return total + comp


finite = st.floats(min_value=-1e12, max_value=1e12,
                   allow_nan=False, allow_infinity=False)
wide = st.floats(min_value=-1e300, max_value=1e300,
                 allow_nan=False, allow_infinity=False)


@settings(max_examples=50)
@given(st.lists(st.lists(finite, min_size=4, max_size=4),
                min_size=1, max_size=50))
def test_neumaier_step_vector_lanes(rows):
    # each of the 4 lanes must equal an independent scalar Neumaier sum
    total = np.zeros(4)
    comp = np.zeros(4)
    for row in rows:
        total, comp = neumaier_step(total, comp, np.array(row))
    final = total + comp
    for lane in range(4):
        assert math.isclose(final[lane],
                            _scalar_neumaier(row[lane] for row in rows),
                            rel_tol=2.3e-16, abs_tol=5e-324)


@settings(max_examples=200)
@given(*(st.lists(wide, min_size=4, max_size=4) for _ in range(3)))
def test_branch_free_steps_are_the_neumaier_step(totals, terms, comps):
    # lane by lane, the branch-free steps give the new total and the
    # compensation Neumaier's branch gives, bit for bit; _diff_step takes
    # the negated term
    total = np.array(totals)
    term = np.array(terms)
    want_total, want_comp = neumaier_step(total, np.array(comps), term)
    for step, arg in ((_sum_step, term), (_diff_step, -term)):
        comp = np.array(comps)
        out, e, f = np.empty(4), np.empty(4), np.empty(4)
        new, free = step(total, arg, comp, out, e, f)
        assert new is out and free is total
        assert np.array_equal(_bits(new), _bits(want_total))
        assert np.array_equal(_bits(comp), _bits(want_comp))

"""The vectorized Newton of the tracker against the scalar loops it replaced.

_newton_root and _polish_root below are the per-root Newton loops that
monodromy.py ran before Newton worked on the whole root vector.  They are
kept here as reference oracles: the vectorized routine must return the same
complex values bit for bit, or fail exactly when one of them fails.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from coxfact.monodromy import _abs, _horner, _min_pairwise, _newton


def _newton_root(coeffs, dcoeffs, z, guard):
    for _ in range(60):
        f = np.polyval(coeffs, z)
        df = np.polyval(dcoeffs, z)
        if df == 0:
            return None
        step = f / df
        if abs(step) > guard:
            return None
        z = z - step
        if abs(step) < 1e-12 * max(1.0, abs(z)):
            return z
    return z if abs(step) < 1e-9 * max(1.0, abs(z)) else None


def _polish_root(coeffs, dcoeffs, z, max_iter=60):
    for _ in range(max_iter):
        f = np.polyval(coeffs, z)
        df = np.polyval(dcoeffs, z)
        if df == 0:
            return z
        step = f / df
        z = z - step
        if abs(step) < 1e-14 * max(1.0, abs(z)):
            break
    return z


def _reference_track(coeffs, dcoeffs, zs, guard):
    out = [_newton_root(coeffs, dcoeffs, complex(z), guard) for z in zs]
    return None if any(z is None for z in out) else out


def _reference_polish(coeffs, dcoeffs, zs):
    return [_polish_root(coeffs, dcoeffs, z) for z in zs]


def _bits(values) -> list[int]:
    return np.array(values, dtype=complex).view(np.uint64).tolist()


def _corpus(seed: int, cases: int):
    """(coeffs, start points, guard) with guard failures, flat and cap cases."""
    rng = np.random.default_rng(seed)
    for n in range(cases):
        kind = n % 10
        m = int(rng.integers(2, 8))
        if kind == 9:
            # z^2 + 1 from real starts: Newton stays real and never converges,
            # or meets p' == 0 exactly at 0
            coeffs = np.array([1, 0, 1], dtype=complex)
            zs = np.array([rng.uniform(-2, 2), 0.0][: 1 + n % 20 // 10], dtype=complex)
            yield coeffs, zs, math.inf
            continue
        box = 10.0 ** rng.uniform(-2, 2)
        coeffs = np.zeros(m + 1, dtype=complex)
        coeffs[0] = 1
        coeffs[2:] = box * (rng.uniform(-1.5, 1.5, m - 1) + 1j * rng.uniform(-1.5, 1.5, m - 1))
        if kind == 8:
            # p(z) = z^m - t: p'(0) == 0 exactly; start one root there
            coeffs[2:-1] = 0
            zs = np.roots(coeffs)
            zs[int(rng.integers(m))] = 0
        else:
            roots = np.roots(coeffs)
            if kind >= 6:
                # start near the critical points, where p' is small
                crit = np.roots(np.polyder(coeffs))
                roots[: m - 1] = crit
            noise = 10.0 ** rng.uniform(-14, 0, m) * box ** (1 / m)
            zs = roots + noise * np.exp(2j * math.pi * rng.uniform(0, 1, m))
        guard = 0.4 * _min_pairwise(zs) if m > 1 else math.inf
        if kind in (3, 4):
            guard *= 10.0 ** rng.uniform(-6, 0)
        yield coeffs, zs, guard


def test_vectorized_newton_matches_scalar_tracking_newton():
    failures = 0
    for coeffs, zs, guard in _corpus(seed=31, cases=2000):
        dcoeffs = np.polyder(coeffs)
        want = _reference_track(coeffs, dcoeffs, zs, guard)
        got = _newton(coeffs, dcoeffs, zs, 1e-12, guard)
        if want is None:
            failures += 1
            assert got is None
        else:
            assert got is not None and _bits(got) == _bits(want)
    assert 200 < failures < 1800  # both outcomes well represented


@pytest.mark.parametrize("derivative", [False, True], ids=["roots", "critical-points"])
def test_vectorized_newton_matches_scalar_polish(derivative):
    with np.errstate(all="ignore"):
        for coeffs, zs, _ in _corpus(seed=32, cases=400):
            if derivative:  # critical_points polishes the roots of p'
                coeffs = np.polyder(coeffs)
                if len(coeffs) < 2:
                    continue
                zs = np.roots(coeffs) * (1 + 1e-9j)
            dcoeffs = np.polyder(coeffs)
            want = _reference_polish(coeffs, dcoeffs, zs)
            got = _newton(coeffs, dcoeffs, zs, 1e-14)
            assert _bits(got) == _bits(want)


def test_flat_and_capped_roots():
    z2 = np.array([1, 0, 1], dtype=complex)
    dz2 = np.polyder(z2)
    # p'(0) == 0: tracking fails, polishing leaves the root where it is
    assert _newton(z2, dz2, [0j, 1j], 1e-12, math.inf) is None
    assert _bits(_newton(z2, dz2, [0j, 1j], 1e-14)) == _bits([0j, 1j])
    # a real start on z^2 + 1 never converges: the 60-step cap decides
    assert _reference_track(z2, dz2, [0.5], math.inf) is None
    assert _newton(z2, dz2, [0.5 + 0j], 1e-12, math.inf) is None
    assert _bits(_newton(z2, dz2, [0.5 + 0j], 1e-14)) == _bits(
        _reference_polish(z2, dz2, [0.5 + 0j])
    )


def test_array_helpers_match_scalar_arithmetic_bit_for_bit():
    # numpy's SIMD complex absolute on arrays differs from abs() of a scalar
    # in the last bit on a good share of inputs; every stop rule compares
    # such magnitudes, so _abs must agree with the scalar one exactly
    rng = np.random.default_rng(33)
    z = (rng.standard_normal(4096) + 1j * rng.standard_normal(4096)) * 10.0 ** rng.uniform(-8, 8, 4096)
    assert _bits(_abs(z).astype(complex)) == _bits([abs(complex(v)) for v in z])
    coeffs = np.array([1, 0, *(rng.standard_normal(5) + 1j * rng.standard_normal(5))])
    assert _bits(_horner(coeffs, z)) == _bits([np.polyval(coeffs, v) for v in z])

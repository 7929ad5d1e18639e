"""Tests for critical-value monodromy, labeling, and fiber exploration."""

from __future__ import annotations

import cmath
import itertools
import math
import random

import numpy as np
import pytest

from coxfact import monodromy
from coxfact.factorizations import enumerate_red
from coxfact.groups import GroupElement, compose, conjugate, inverse, product_of
from coxfact.monodromy import (
    CenteredPolynomial,
    RegularityError,
    coxeter_loop,
    critical_value_jacobian,
    critical_values,
    equivariance_check,
    explore_fiber,
    lift_path,
    random_polynomial,
    rlbl,
    sample_equivariance_polynomial,
    swap_motion,
)
from coxfact.monodromy import _ordered_critical_values
from coxfact.groups import build_group


def reflection_length(g: GroupElement) -> int:
    return g.n - len(g.cycles())


def approx_points(config, expected, tol=1e-8):
    got = config.points
    assert len(got) == len(expected)
    for (v, mu), (w, nu) in zip(got, expected):
        assert abs(v - w) < tol
        assert mu == nu


def test_centered_polynomial_basics():
    p = CenteredPolynomial((-3, 0))
    assert p.degree == 3
    assert p(2.0) == pytest.approx(2.0)
    assert p(0.0) == pytest.approx(0.0)
    assert p.scale == pytest.approx(1 + math.sqrt(3))
    with pytest.raises(ValueError):
        CenteredPolynomial(())


def test_critical_values_frozen_examples():
    approx_points(
        critical_values(CenteredPolynomial((-3, 0))), [(-2, 1), (2, 1)]
    )
    approx_points(
        critical_values(CenteredPolynomial((-2, 0, 0))), [(-1, 2), (0, 1)]
    )
    approx_points(critical_values(CenteredPolynomial((0, 0))), [(0, 2)])
    approx_points(critical_values(CenteredPolynomial((5,))), [(5, 1)])


def test_critical_values_degenerate_family():
    # z^4 + a z^2 has a simple critical value 0 and a double one at -a^2/4
    a = 1 + 0.3j
    config = critical_values(CenteredPolynomial((a, 0, 0)))
    approx_points(config, [(-(a**2) / 4, 2), (0, 1)])


def test_coxeter_loop_frozen():
    assert coxeter_loop(2).perm == (1, 0)
    assert coxeter_loop(3).perm == (2, 0, 1)
    assert coxeter_loop(4).perm == (1, 3, 0, 2)


def test_coxeter_loop_matches_rotation_oracle():
    # tracking z^m around the unit circle must rotate the lex-sorted roots
    # of unity one step counterclockwise
    for m in range(2, 7):
        roots = sorted(
            (cmath.exp(2j * math.pi * k / m) for k in range(m)),
            key=lambda z: (z.real, z.imag),
        )
        rot = cmath.exp(2j * math.pi / m)
        expected = tuple(
            min(range(m), key=lambda j: abs(roots[j] - roots[i] * rot))
            for i in range(m)
        )
        loop = coxeter_loop(m)
        assert loop.perm == expected
        assert sorted(len(c) for c in loop.cycles()) == [m]


def test_rlbl_tracks_the_reference_loop_once_per_degree(monkeypatch):
    # coxeter_loop is memoized, so a second rlbl at the same degree tracks
    # exactly one leg fewer than the first: the unit circle of z^m
    legs = []
    track = monodromy._track_leg
    monkeypatch.setattr(
        monodromy, "_track_leg", lambda fn, zs: legs.append(fn) or track(fn, zs)
    )
    coxeter_loop.cache_clear()
    p = CenteredPolynomial((-3, 0))
    first = rlbl(p)
    cold = len(legs)
    second = rlbl(p)
    assert second == first
    assert cold - (len(legs) - cold) == 1
    before = len(legs)
    assert coxeter_loop(3) == coxeter_loop(3)
    assert len(legs) == before


def test_jacobian_frozen_cubic():
    jac = critical_value_jacobian(CenteredPolynomial((-3, 0)))
    assert np.allclose(jac, [[1, 1], [-1, 1]])


def test_jacobian_matches_finite_differences():
    rng = random.Random(3)
    step = 1e-7
    for degree in (3, 4, 5):
        for _ in range(4):
            p = random_polynomial(degree, rng)
            anchors, _ = _ordered_critical_values(p)
            jac_rows = {}
            pts = sorted(
                (complex(z) for z in np.roots(np.polyder(p.descending()))),
                key=lambda z: (p(z).real, p(z).imag),
            )
            jac = critical_value_jacobian(p)
            for col, k in enumerate(range(2, degree + 1)):
                bumped = list(p.coeffs)
                bumped[k - 2] += step
                plus, _ = _ordered_critical_values(
                    CenteredPolynomial(tuple(bumped)), anchors=anchors
                )
                bumped[k - 2] -= 2 * step
                minus, _ = _ordered_critical_values(
                    CenteredPolynomial(tuple(bumped)), anchors=anchors
                )
                fd = (np.array(plus) - np.array(minus)) / (2 * step)
                # rows of jac follow the same value ordering as anchors
                assert np.allclose(jac[:, col], fd, atol=1e-5)


def test_rlbl_frozen_real_cubic():
    labels = rlbl(CenteredPolynomial((-3, 0)))
    assert [c.perm for c in labels] == [(2, 1, 0), (1, 0, 2)]


def test_rlbl_pure_power_is_reference_cycle():
    for m in (2, 3, 4):
        labels = rlbl(CenteredPolynomial((0,) * (m - 1)))
        assert labels == (coxeter_loop(m),)


def test_rlbl_degenerate_double_value():
    labels = rlbl(CenteredPolynomial((-2, 0, 0)))
    assert [c.perm for c in labels] == [(2, 3, 0, 1), (0, 2, 1, 3)]
    assert [reflection_length(c) for c in labels] == [2, 1]


def test_rlbl_product_and_lengths_on_random_samples():
    rng = random.Random(5)
    for degree in (3, 4, 5):
        for _ in range(3):
            p = random_polynomial(degree, rng)
            labels = rlbl(p)
            config = critical_values(p)
            assert product_of(*labels) == coxeter_loop(degree)
            assert [reflection_length(c) for c in labels] == list(
                config.multiplicities
            )


def test_rlbl_length_matches_multiplicity_when_degenerate():
    a = 1 + 0.3j
    labels = rlbl(CenteredPolynomial((a, 0, 0)))
    assert [reflection_length(c) for c in labels] == [2, 1]
    assert product_of(*labels) == coxeter_loop(4)


def test_rlbl_handles_nearly_stacked_values():
    # two critical values almost sharing a real part; the descent corridors
    # must still visit the clusters in lex order
    p = CenteredPolynomial(
        (
            -0.5285017055005129 - 1.0474524782264942j,
            0.4528034191195611 - 1.2826911399973717j,
        )
    )
    centers = critical_values(p).centers
    assert abs(centers[0].real - centers[1].real) < 0.1
    labels = rlbl(p)
    assert product_of(*labels) == coxeter_loop(3)


def test_rlbl_rejects_barely_separated_values():
    # critical values about 5e-7 apart: too close to route circles, too far
    # apart to merge into one cluster
    with pytest.raises(RegularityError):
        rlbl(CenteredPolynomial((7.5e-5, 0)))


def test_swap_motion_geometry():
    values = (0j, 1 + 0j, 3 + 1j)
    motion = swap_motion(values, 2)
    assert motion(0.0) == values
    end = motion(1.0)
    assert abs(end[1] - values[2]) < 1e-12
    assert abs(end[2] - values[1]) < 1e-12
    assert end[0] == values[0]
    # the pair rotates rigidly about its midpoint
    mid = motion(0.5)
    center = (values[1] + values[2]) / 2
    assert abs(mid[1] + mid[2] - 2 * center) < 1e-12
    assert abs(abs(mid[1] - center) - abs(values[1] - center)) < 1e-12
    with pytest.raises(ValueError):
        swap_motion(values, 3)
    with pytest.raises(ValueError):
        swap_motion(values, 0)


def test_lift_path_constant_motion_is_identity():
    rng = random.Random(9)
    p = random_polynomial(3, rng)
    values, _ = _ordered_critical_values(p)
    lifted = lift_path(p, lambda s: tuple(values))
    assert max(
        abs(a - b) for a, b in zip(lifted.coeffs, p.coeffs)
    ) < 1e-9 * p.scale


def test_lift_path_swap_roundtrip():
    rng = random.Random(10)
    for degree in (3, 4):
        p = random_polynomial(degree, rng)
        values, _ = _ordered_critical_values(p)
        once = lift_path(p, swap_motion(values, 1, +1))
        mid_values, _ = _ordered_critical_values(once)
        back = lift_path(once, swap_motion(mid_values, 1, -1))
        assert max(
            abs(a - b) for a, b in zip(back.coeffs, p.coeffs)
        ) < 1e-6 * p.scale


def test_lift_path_tracks_target_configuration():
    rng = random.Random(12)
    p = random_polynomial(4, rng)
    values, _ = _ordered_critical_values(p)
    lifted = lift_path(p, swap_motion(values, 2, +1))
    final = sorted(
        critical_values(lifted).centers, key=lambda z: (z.real, z.imag)
    )
    target = sorted(
        swap_motion(values, 2, +1)(1.0), key=lambda z: (z.real, z.imag)
    )
    assert max(abs(a - b) for a, b in zip(final, target)) < 1e-7 * p.scale


def test_lift_path_rejects_colliding_motion():
    rng = random.Random(13)
    p = random_polynomial(3, rng)
    values, _ = _ordered_critical_values(p)

    def collide(s):
        return (values[0], values[1] + s * (values[0] - values[1]))

    with pytest.raises(RegularityError):
        lift_path(p, collide)


def test_forward_swap_realizes_forward_braid_move():
    rng = random.Random(7)
    for degree in (3, 4):
        for _ in range(3):
            p = sample_equivariance_polynomial(degree, rng)
            values, _ = _ordered_critical_values(p)
            before = rlbl(p)
            for index in range(1, degree - 1):
                lifted = lift_path(p, swap_motion(values, index, +1))
                moved = rlbl(lifted)
                i = index - 1
                a, b = before[i], before[i + 1]
                expected = before[:i] + (b, conjugate(a, b)) + before[i + 2 :]
                assert moved == expected


def test_backward_swap_realizes_inverse_braid_move():
    rng = random.Random(8)
    for degree in (3, 4):
        p = sample_equivariance_polynomial(degree, rng)
        values, _ = _ordered_critical_values(p)
        before = rlbl(p)
        for index in range(1, degree - 1):
            lifted = lift_path(p, swap_motion(values, index, -1))
            moved = rlbl(lifted)
            i = index - 1
            a, b = before[i], before[i + 1]
            expected = (
                before[:i]
                + (compose(compose(a, b), inverse(a)), a)
                + before[i + 2 :]
            )
            assert moved == expected


def test_equivariance_check_passes_on_samples():
    rng = random.Random(21)
    for degree in (3, 4):
        for _ in range(2):
            p = sample_equivariance_polynomial(degree, rng)
            for index in range(1, degree - 1):
                assert equivariance_check(p, index)


def test_equivariance_check_rejects_swept_disk():
    # the third critical value of this quartic sits inside the disk swept by
    # the first adjacent pair's half-turn, so the comparison is refused
    p = CenteredPolynomial(
        (
            0.8812530655708954 - 0.803241850700341j,
            -0.801915145801339 - 1.372993750046434j,
            1.4926836266079473 + 0.7160632559068825j,
        )
    )
    with pytest.raises(RegularityError):
        equivariance_check(p, 1)
    assert equivariance_check(p, 2)


def brute_reduced_factorizations(m: int):
    """All (m-1)-tuples of transpositions multiplying to coxeter_loop(m)."""
    target = coxeter_loop(m)
    transpositions = []
    for i, j in itertools.combinations(range(m), 2):
        perm = list(range(m))
        perm[i], perm[j] = perm[j], perm[i]
        transpositions.append(GroupElement(tuple(perm), (0,) * m, 1))
    return {
        tup
        for tup in itertools.product(transpositions, repeat=m - 1)
        if product_of(*tup) == target
    }


def test_explore_fiber_cubic():
    out = explore_fiber(CenteredPolynomial((-3, 0)))
    assert out["size"] == 3
    assert out["labels_injective"]
    assert set(out["labels"]) == brute_reduced_factorizations(3)


def test_explore_fiber_cubic_matches_group_enumeration():
    # conjugating the group's reduced factorizations onto the reference
    # m-cycle must give exactly the fiber labels
    out = explore_fiber(CenteredPolynomial((-3, 0)))
    W = build_group(1, 1, 3)
    c = W.coxeter_element()
    target = coxeter_loop(3)
    sigma = next(
        g for g in W.elements if conjugate(c, g) == target
    )
    transported = {
        tuple(conjugate(f, sigma) for f in fact) for fact in enumerate_red(W)
    }
    assert set(out["labels"]) == transported


def test_explore_fiber_quartic(monkeypatch):
    lifts = []
    lift = monodromy.lift_path
    monkeypatch.setattr(
        monodromy, "lift_path", lambda p, motion: lifts.append(p) or lift(p, motion)
    )
    rng = random.Random(0)
    p = random_polynomial(4, rng)
    out = explore_fiber(p)
    assert out["size"] == 16
    # forward lifts only: one per member and adjacent swap of 3 values
    assert len(lifts) == out["size"] * 2
    assert out["labels_injective"]
    assert set(out["labels"]) == brute_reduced_factorizations(4)


def test_explore_fiber_rejects_degenerate_start():
    with pytest.raises(RegularityError):
        explore_fiber(CenteredPolynomial((-2, 0, 0)))


def test_random_polynomial_is_deterministic_and_generic():
    a = random_polynomial(4, random.Random(42))
    b = random_polynomial(4, random.Random(42))
    assert a == b
    config = critical_values(a)
    assert all(mu == 1 for mu in config.multiplicities)


def test_parameter_validation():
    with pytest.raises(ValueError):
        coxeter_loop(1)
    with pytest.raises(ValueError):
        random_polynomial(1, random.Random(0))

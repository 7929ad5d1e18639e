"""Critical-value monodromy of centered polynomials, with numeric root tracking.

A centered polynomial p(z) = z^m + a_2 z^(m-2) + ... + a_m is sent to the
multiset of its critical values.  Around each cluster of critical values we
read a permutation of the fiber p^(-1)(basepoint) by tracking the m roots
of p(z) - t along a lollipop path: down from a basepoint placed above the
configuration, once counterclockwise around the cluster, and back.

Permutations are expressed in a reference labeling obtained by transporting
the fiber to the fiber of z^m over t = 1 along a path that stays far above
every critical value.  This makes the labels independent of incidental
coordinate orderings, and the tuple of cluster labels (clusters ordered by
real part, ties by imaginary part) multiplies left to right to the fixed
m-cycle coxeter_loop(m) exactly; rlbl verifies that identity on every call.

Permutations are returned as weightless GroupElement values so they compose
directly with the factorization and braid-move machinery.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .groups import GroupElement, conjugate, product_of

__all__ = [
    "CenteredPolynomial",
    "Configuration",
    "FiberAmbiguityError",
    "PathSystemError",
    "RegularityError",
    "TrackingError",
    "coxeter_loop",
    "critical_value_jacobian",
    "critical_values",
    "equivariance_check",
    "explore_fiber",
    "lift_path",
    "random_polynomial",
    "rlbl",
    "sample_equivariance_polynomial",
    "swap_motion",
]

CLUSTER_TOL = 1e-7          # times scale: critical values closer than this merge
SEPARATION_TOL = 1e-4       # times scale: minimum value gap for lifting
DEDUP_TOL = 1e-6            # times scale: fiber members closer than this coincide
ENDPOINT_TOL = 1e-8         # times scale: lift endpoint polish target
ROOT_RESIDUAL_TOL = 1e-10   # times scale: |p'| at a polished critical point
MIN_STEP = 1e-12            # adaptive tracking step floor

# Orientation of the configuration half-turn that realizes the forward braid
# move on labels; test_forward_swap_realizes_forward_braid_move pins it.
FORWARD_ORIENTATION = +1


class TrackingError(RuntimeError):
    """Adaptive root tracking could not continue (step underflow or jump)."""


class RegularityError(ValueError):
    """Configuration too close to the discriminant for the requested operation."""


class PathSystemError(RuntimeError):
    """The lollipop path system could not be routed safely."""


class FiberAmbiguityError(RuntimeError):
    """Two fiber candidates fell into the dedup ambiguity band."""


@dataclass(frozen=True)
class CenteredPolynomial:
    """p(z) = z^m + a_2 z^(m-2) + ... + a_m, with no z^(m-1) term."""

    coeffs: tuple[complex, ...]  # (a_2, ..., a_m)

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise ValueError("degree must be at least 2")
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) + 1

    @property
    def scale(self) -> float:
        return 1.0 + max(
            abs(a) ** (1.0 / k) for k, a in enumerate(self.coeffs, start=2)
        )

    def descending(self) -> np.ndarray:
        """Coefficients [1, 0, a_2, ..., a_m] for numpy's polynomial routines."""
        return np.array([1.0, 0.0, *self.coeffs], dtype=complex)

    def __call__(self, z):
        return np.polyval(self.descending(), z)


@dataclass(frozen=True)
class Configuration:
    """Critical values with multiplicities, sorted by (real, imaginary) part."""

    points: tuple[tuple[complex, int], ...]

    @property
    def centers(self) -> tuple[complex, ...]:
        return tuple(v for v, _ in self.points)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(mu for _, mu in self.points)


def _lex_key(z: complex):
    return (z.real, z.imag)


# -- Newton on a whole root vector ---------------------------------------------------


def _horner(coeffs, x):  # np.polyval's ufunc sequence, without its call overhead
    y = np.zeros(x.shape, dtype=x.dtype)
    for c in coeffs:
        y = y * x + c
    return y


def _abs(z):  # equals scalar abs() bit for bit; np.abs on arrays (SIMD) does not
    return np.hypot(z.real, z.imag)


def _newton(coeffs, dcoeffs, zs, tol, guard=None):
    """Newton on each root until |step| < tol * max(1, |z|), at most 60 steps.

    Root by root, the arithmetic of a scalar Newton loop over np.polyval.
    Polishing (guard None): a root with p'(z) == 0 stops where it is, and an
    unconverged root is returned as it stands.  Tracking (guard a float):
    returns None if any root meets p'(z) == 0, takes a step above guard, or
    ends 60 steps with its last step still above 1e-9 * max(1, |z|).
    """
    z = x = np.array(zs, dtype=complex)
    active = np.arange(len(z))
    for _ in range(60):
        f, df = _horner(coeffs, x), _horner(dcoeffs, x)
        flat = df == 0
        if flat.any():
            if guard is not None:
                return None
            active, x, f, df = active[~flat], x[~flat], f[~flat], df[~flat]
        step = f / df
        size = _abs(step)
        if guard is not None and (size > guard).any():
            return None
        x = x - step
        z[active] = x
        bound = np.fmax(1.0, _abs(x))
        done = size < tol * bound
        if done.all():
            return z
        if done.any():
            active, x, size, bound = (a[~done] for a in (active, x, size, bound))
    if guard is not None and not (size < 1e-9 * bound).all():
        return None
    return z


# -- critical points and values --------------------------------------------------


def critical_points(p: CenteredPolynomial) -> tuple[complex, ...]:
    """Roots of p', polished by Newton, sorted by the value they map to."""
    dcoeffs = np.polyder(p.descending())
    pts = _newton(dcoeffs, np.polyder(dcoeffs), np.roots(dcoeffs), 1e-14)
    if (_abs(_horner(dcoeffs, pts)) > ROOT_RESIDUAL_TOL * p.scale).any():
        raise TrackingError("critical-point polish did not converge")
    keys = [_lex_key(complex(v)) for v in p(pts)]
    return tuple(pts[j] for j in sorted(range(len(pts)), key=keys.__getitem__))


def critical_values(p: CenteredPolynomial) -> Configuration:
    """The multiset of critical values, clustered at 1e-7 * scale."""
    pts = critical_points(p)
    values = [complex(v) for v in p(np.array(pts))]
    tol = CLUSTER_TOL * p.scale
    k = len(values)
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if abs(values[i] - values[j]) <= tol:
                parent[find(i)] = find(j)
    clusters: dict[int, list[complex]] = {}
    for i in range(k):
        clusters.setdefault(find(i), []).append(values[i])
    points = [
        (sum(vals) / len(vals), len(vals)) for vals in clusters.values()
    ]
    points.sort(key=lambda pair: _lex_key(pair[0]))
    return Configuration(points=tuple(points))


def critical_value_jacobian(p: CenteredPolynomial) -> np.ndarray:
    """d(critical values)/d(coefficients); entry (j, i) is z_j ** (m - k_i).

    Rows follow the critical points in value-sorted order, columns the
    coefficients a_2 ... a_m.  Because p'(z_j) = 0, moving a coefficient
    moves the critical value by exactly the monomial's value there.
    """
    m = p.degree
    pts = critical_points(p)
    return np.array(
        [[z ** (m - k) for k in range(2, m + 1)] for z in pts], dtype=complex
    )


# -- adaptive root tracking -------------------------------------------------------


def _min_pairwise(zs) -> float:
    return min(abs(a - b) for a, b in itertools.combinations(zs, 2))


def _track_leg(coeff_fn, zs):
    """Continue the full root vector of coeff_fn(s) from s=0 to s=1."""
    zs = np.array(zs, dtype=complex)
    many = len(zs) > 1
    s, ds = 0.0, 0.125
    while s < 1.0:
        target = min(s + ds, 1.0)
        coeffs = coeff_fn(target)
        guard = 0.4 * _min_pairwise(zs) if many else math.inf
        new = _newton(coeffs, np.polyder(coeffs), zs, 1e-12, guard)
        if new is not None and not (many and (_abs(new - zs) > guard).any()):
            zs, s = new, target
            ds = min(ds * 1.6, 0.25)
        else:
            ds *= 0.5
            if ds < MIN_STEP:
                raise TrackingError("tracking step underflow")
    return zs


def _match_slots(reference, finals) -> GroupElement:
    """Permutation rho with rho[i] = slot whose start position strand i ends on."""
    ref = [complex(z) for z in reference]
    tol = 0.3 * _min_pairwise(ref) if len(ref) > 1 else math.inf
    perm = []
    for z in finals:
        dists = [abs(z - r) for r in ref]
        j = min(range(len(ref)), key=dists.__getitem__)
        if dists[j] > tol:
            raise TrackingError("loop endpoint does not match any start slot")
        perm.append(j)
    if len(set(perm)) != len(perm):
        raise TrackingError("loop endpoint matching is not a bijection")
    return GroupElement(tuple(perm), (0,) * len(perm), 1)


def _segment_path(p_desc, t0, t1):
    base = np.array(p_desc, dtype=complex)

    def fn(s):
        c = base.copy()
        c[-1] -= (1 - s) * t0 + s * t1
        return c

    return fn


def _circle_path(p_desc, center, radius, theta0, orientation):
    base = np.array(p_desc, dtype=complex)

    def fn(s):
        c = base.copy()
        c[-1] -= center + radius * cmath.exp(1j * (theta0 + orientation * 2 * math.pi * s))
        return c

    return fn


def _fiber_at(p_desc, t):
    coeffs = np.array(p_desc, dtype=complex)
    coeffs[-1] -= t
    roots = _newton(coeffs, np.polyder(coeffs), np.roots(coeffs), 1e-14)
    return sorted((complex(z) for z in roots), key=_lex_key)


# -- the fixed m-cycle ------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def coxeter_loop(m: int) -> GroupElement:
    """Monodromy of z^m over the counterclockwise unit circle, lex-labeled at t=1.

    Memoized, so each degree is tracked once per process.
    """
    if m < 2:
        raise ValueError("degree must be at least 2")
    desc = np.zeros(m + 1, dtype=complex)
    desc[0] = 1.0
    start = _fiber_at(desc, 1.0)
    finals = _track_leg(_circle_path(desc, 0.0, 1.0, 0.0, +1), start)
    loop = _match_slots(start, finals)
    if sorted(len(c) for c in loop.cycles()) != [m]:
        raise TrackingError("reference loop did not produce an m-cycle")
    return loop


# -- lollipop path system and rlbl -------------------------------------------------


def _choose_rotation(centers) -> float:
    """A frame rotation making the cluster order read off the real axis.

    Returns theta such that Re(exp(-i*theta) * v) is strictly increasing
    along the lex-ordered centers with the largest achievable margin; theta
    is 0 whenever the configuration is already comfortably spread.  Without
    the rotation, nearly vertically stacked clusters would force descent
    corridors that visit the clusters out of order.
    """
    k = len(centers)
    if k == 1:
        return 0.0
    minpair = _min_pairwise(centers)
    deltas = [
        centers[j] - centers[i]
        for i in range(k)
        for j in range(i + 1, k)
    ]

    def margin(theta):
        rot = cmath.exp(-1j * theta)
        return min((rot * d).real for d in deltas)

    if margin(0.0) >= 0.25 * minpair:
        return 0.0
    grid = np.linspace(-1.2, 1.2, 9601)
    best = max(grid, key=lambda th: (margin(th), -abs(th)))
    if margin(best) <= 1e-3 * minpair:
        raise PathSystemError(
            "no frame rotation separates the cluster descent corridors"
        )
    return float(best)


def _path_system(config: Configuration, scale: float):
    """Basepoint, per-cluster approach waypoints, and circle radius.

    Corridors descend vertically in a rotated frame in which the lex order
    of clusters agrees with the left-to-right order of their abscissas, so
    the loop concatenation order below is the cluster order.  Every planned
    segment must clear every circle it does not target.
    """
    centers = list(config.centers)
    k = len(centers)
    if k > 1:
        minpair = _min_pairwise(centers)
        if minpair <= 10 * CLUSTER_TOL * scale:
            raise RegularityError("clusters too close together to route paths")
        spread = max(abs(a - b) for a, b in itertools.combinations(centers, 2))
        radius = 0.1 * minpair
    else:
        minpair = max(1.0, abs(centers[0]))
        spread = 1.0
        radius = 0.1 * minpair

    theta = _choose_rotation(centers)
    rot = cmath.exp(-1j * theta)
    unrot = cmath.exp(1j * theta)
    spots = [rot * v for v in centers]
    if k > 1:
        gap = min((b - a).real for a, b in zip(spots, spots[1:]))
        radius = min(radius, gap / 2.2)
        if radius <= 1e-3 * minpair:
            raise PathSystemError("descent corridors cannot clear the circles")

    base_im = max(u.imag for u in spots) + 2 * spread
    base = complex(sum(u.real for u in spots) / k, base_im)
    y_fan = base_im - spread

    plans: dict[int, dict] = {}
    for idx, u in enumerate(spots):
        waypoints = [
            unrot * base,
            unrot * complex(u.real, y_fan),
            unrot * (u + 1j * radius),
        ]
        plans[idx] = {"waypoints": waypoints, "theta0": math.pi / 2 + theta}

    _check_clearance(plans, centers, radius)
    return unrot * base, plans, radius, theta


def _segment_point_distance(a, b, z) -> float:
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0:
        return abs(z - a)
    t = max(0.0, min(1.0, ((z - a) * ab.conjugate()).real / denom))
    return abs(z - (a + t * ab))


def _check_clearance(plans, centers, radius):
    for idx, plan in plans.items():
        pts = plan["waypoints"]
        for a, b in zip(pts, pts[1:]):
            for l, v in enumerate(centers):
                clearance = _segment_point_distance(a, b, v)
                if clearance < 0.95 * radius:
                    raise PathSystemError(
                        f"approach path for cluster {idx} passes cluster {l} "
                        f"at distance {clearance:.3g} < radius {radius:.3g}"
                    )


def _loop_monodromy(p_desc, start, plan, center, radius):
    """Track the fiber along basepoint -> circle (ccw) -> basepoint."""
    zs = list(start)
    pts = plan["waypoints"]
    for a, b in zip(pts, pts[1:]):
        zs = _track_leg(_segment_path(p_desc, a, b), zs)
    zs = _track_leg(_circle_path(p_desc, center, radius, plan["theta0"], +1), zs)
    for a, b in zip(reversed(pts), list(reversed(pts))[1:]):
        zs = _track_leg(_segment_path(p_desc, a, b), zs)
    return _match_slots(start, zs)


def _reference_transport(p: CenteredPolynomial, basepoint, start, theta) -> GroupElement:
    """Match the basepoint fiber to the lex-labeled fiber of z^m over t = 1.

    The connecting path rises far above every critical value of every
    polynomial on the straight-line morph from p to z^m (in the same rotated
    frame the path system uses), crosses over the configuration, morphs the
    coefficients at a safely distant basepoint, and descends to t = 1.
    """
    m = p.degree
    p_desc = p.descending()
    # uniform bound on critical values along the morph (1-s)*coeffs
    cap = 1.0 + max(
        abs((m - k) * a / m) for k, a in enumerate(p.coeffs, start=2)
    )
    bound = cap**m + sum(
        abs(a) * cap ** (m - k) for k, a in enumerate(p.coeffs, start=2)
    )
    height = 2 * bound + 10 * p.scale + 2 * abs(basepoint)

    unrot = cmath.exp(1j * theta)
    u0 = basepoint / unrot
    zs = list(start)
    zs = _track_leg(
        _segment_path(p_desc, basepoint, unrot * complex(u0.real, height)), zs
    )
    far = unrot * complex(0.0, height)
    zs = _track_leg(
        _segment_path(p_desc, unrot * complex(u0.real, height), far), zs
    )

    def morph(s):
        c = p_desc.copy()
        c[2:] *= 1 - s
        c[-1] -= far
        return c

    zs = _track_leg(morph, zs)
    pure = np.zeros(m + 1, dtype=complex)
    pure[0] = 1.0
    zs = _track_leg(_segment_path(pure, far, 1.0), zs)
    reference = _fiber_at(pure, 1.0)
    return _match_slots(reference, zs)


def rlbl(p: CenteredPolynomial) -> tuple[GroupElement, ...]:
    """Cluster monodromy labels, in cluster order, in the reference labeling.

    The tuple multiplies left to right to coxeter_loop(degree), and each
    label's reflection length equals its cluster's multiplicity; both facts
    are verified on every call and raised on as tracking failures since they
    hold exactly for correctly traced loops.
    """
    config = critical_values(p)
    basepoint, plans, radius, theta = _path_system(config, p.scale)
    p_desc = p.descending()
    start = _fiber_at(p_desc, basepoint)
    tau = _reference_transport(p, basepoint, start, theta)

    labels = []
    for idx, (center, mult) in enumerate(config.points):
        rho = _loop_monodromy(p_desc, start, plans[idx], center, radius)
        label = conjugate(rho, tau)
        if p.degree - len(label.cycles()) != mult:
            raise TrackingError(
                "cluster label length disagrees with its multiplicity"
            )
        labels.append(label)
    if product_of(*labels) != coxeter_loop(p.degree):
        raise TrackingError(
            "cluster labels do not multiply to the reference m-cycle"
        )
    return tuple(labels)


# -- lifting configuration motions -------------------------------------------------


def swap_motion(values, index: int, orientation: int = +1):
    """Half-turn of values[index-1] and values[index] about their midpoint.

    values is the ordered tuple of distinct critical values (1-based index
    pairs slot index and index+1 in that ordering); all other values stay
    put.  Returns a callable s in [0,1] -> tuple of values.
    """
    values = tuple(complex(v) for v in values)
    i = index - 1
    if not 0 <= i < len(values) - 1:
        raise ValueError(f"swap index {index} out of range")
    a, b = values[i], values[i + 1]
    mid = (a + b) / 2
    half = (a - b) / 2

    def motion(s):
        rot = half * cmath.exp(1j * math.pi * s * orientation)
        out = list(values)
        out[i] = mid + rot
        out[i + 1] = mid - rot
        return tuple(out)

    return motion


def _ordered_critical_values(p: CenteredPolynomial, anchors=None):
    """Critical values ordered to continue anchors (or lex-sorted if None)."""
    pts = critical_points(p)
    values = [complex(v) for v in p(np.array(pts))]
    if anchors is None:
        return sorted(values, key=_lex_key), pts
    if len(anchors) != len(values):
        raise RegularityError("configuration changed size during lifting")
    tol = 0.45 * _min_pairwise(anchors) if len(anchors) > 1 else math.inf
    taken = [False] * len(values)
    ordered_vals, ordered_pts = [], []
    for a in anchors:
        dists = [
            abs(a - v) if not taken[j] else math.inf
            for j, v in enumerate(values)
        ]
        j = min(range(len(values)), key=dists.__getitem__)
        if dists[j] > tol:
            raise TrackingError("critical values jumped during lifting")
        taken[j] = True
        ordered_vals.append(values[j])
        ordered_pts.append(pts[j])
    return ordered_vals, ordered_pts


def lift_path(p0: CenteredPolynomial, motion) -> CenteredPolynomial:
    """Continue coefficients so the critical values follow a prescribed motion.

    motion(s) returns the ordered tuple of target values; motion(0) must
    match the critical values of p0.  The motion must stay regular (values
    pairwise farther than 1e-4 * scale).
    """
    m = p0.degree
    scale = p0.scale
    sep_floor = SEPARATION_TOL * scale
    coeffs = np.array(p0.coeffs, dtype=complex)

    targets0 = [complex(v) for v in motion(0.0)]
    if len(targets0) != m - 1 or _min_pairwise(targets0) < sep_floor:
        raise RegularityError("motion does not start at a regular configuration")
    # align our bookkeeping with the motion's ordering
    current, _ = _ordered_critical_values(p0, anchors=targets0)
    if max(abs(a - b) for a, b in zip(current, targets0)) > 1e-6 * scale:
        raise RegularityError("motion(0) does not match the critical values of p0")

    def correct(coeffs, targets, anchors):
        # any divergence here just means the step was too ambitious
        try:
            p = CenteredPolynomial(tuple(coeffs))
            vals, pts = _ordered_critical_values(p, anchors=anchors)
            for _ in range(40):
                residual = np.array(vals) - np.array(targets)
                if np.max(np.abs(residual)) < 1e-13 * scale:
                    break
                jac = np.array(
                    [[z ** (m - k) for k in range(2, m + 1)] for z in pts],
                    dtype=complex,
                )
                delta = np.linalg.solve(jac, residual)
                coeffs = coeffs - delta
                p = CenteredPolynomial(tuple(coeffs))
                vals, pts = _ordered_critical_values(p, anchors=targets)
        except (TrackingError, np.linalg.LinAlgError):
            return None, None
        if np.max(np.abs(np.array(vals) - np.array(targets))) > 1e-10 * scale:
            return None, None
        return coeffs, vals

    s, ds = 0.0, 0.125
    anchors = current
    while s < 1.0:
        target_s = min(s + ds, 1.0)
        targets = [complex(v) for v in motion(target_s)]
        if _min_pairwise(targets) < sep_floor:
            raise RegularityError("motion left the regular configuration space")
        stepped, vals = correct(coeffs.copy(), targets, anchors)
        if stepped is not None:
            coeffs, anchors, s = stepped, vals, target_s
            ds = min(ds * 1.6, 0.25)
        else:
            ds *= 0.5
            if ds < MIN_STEP:
                raise TrackingError("lift step underflow")
    out = CenteredPolynomial(tuple(coeffs))
    final, _ = _ordered_critical_values(out, anchors=[complex(v) for v in motion(1.0)])
    if max(
        abs(a - b) for a, b in zip(final, motion(1.0))
    ) > ENDPOINT_TOL * scale:
        raise TrackingError("lift endpoint missed the target configuration")
    return out


# -- fiber exploration and equivariance ---------------------------------------------


def _require_regular(p: CenteredPolynomial):
    config = critical_values(p)
    if any(mu != 1 for mu in config.multiplicities):
        raise RegularityError("polynomial has a degenerate critical value")
    if len(config.centers) > 1 and _min_pairwise(config.centers) < SEPARATION_TOL * p.scale:
        raise RegularityError("critical values too close for fiber exploration")
    return config


def explore_fiber(p0: CenteredPolynomial) -> dict:
    """All polynomials sharing p0's critical values, found by braid-move lifts.

    Breadth-first closure under lifts of the forward adjacent half-turn
    swaps, deduplicated by coefficient distance.  Each swap permutes the
    finite fiber, so its inverse is a positive power of it: forward closure
    reaches the orbit of both orientations with half the lifts.  Returns
    the members, their labels, and the label-injectivity verdict.
    """
    scale = p0.scale
    values = sorted((complex(v) for v in _require_regular(p0).centers), key=_lex_key)
    k = len(values)
    members: list[CenteredPolynomial] = [p0]
    frontier = [p0]
    while frontier:
        new = []
        for p in frontier:
            base, _ = _ordered_critical_values(p, anchors=values)
            for i in range(1, k):
                lifted = lift_path(p, swap_motion(base, i))
                dists = [
                    max(abs(a - b) for a, b in zip(lifted.coeffs, q.coeffs))
                    for q in members
                ]
                nearest = min(dists) if dists else math.inf
                if nearest < DEDUP_TOL * scale:
                    continue
                if nearest < 10 * DEDUP_TOL * scale:
                    raise FiberAmbiguityError(
                        f"fiber candidates separated by {nearest:.3g}, inside "
                        f"the ambiguity band of {DEDUP_TOL * scale:.3g}"
                    )
                members.append(lifted)
                new.append(lifted)
        frontier = new
    labels = tuple(rlbl(p) for p in members)
    return {
        "polynomials": tuple(members),
        "labels": labels,
        "size": len(members),
        "labels_injective": len(set(labels)) == len(labels),
    }


def _swap_is_clear(values, index: int, margin: float = 1.15) -> bool:
    """Whether the half-turn disk for this swap avoids all other values.

    The half-turn represents the standard adjacent interchange only when no
    third critical value lies in the disk the rotating pair sweeps.
    """
    i = index - 1
    a, b = values[i], values[i + 1]
    mid = (a + b) / 2
    half = abs(a - b) / 2
    return all(
        abs(v - mid) > margin * half
        for j, v in enumerate(values)
        if j not in (i, i + 1)
    )


def equivariance_check(p: CenteredPolynomial, index: int) -> bool:
    """Lifting the forward half-turn swap must act as the forward braid move.

    Requires the swap disk to be clear of the other critical values; when a
    third value sits inside the swept disk the half-turn is a different
    element of the motion groupoid and the comparison would be meaningless.
    """
    _require_regular(p)
    values, _ = _ordered_critical_values(p)
    if not _swap_is_clear(values, index):
        raise RegularityError(
            "half-turn would sweep past another critical value; "
            "sample a clearer configuration"
        )
    lifted = lift_path(p, swap_motion(values, index, FORWARD_ORIENTATION))
    moved = rlbl(lifted)
    before = rlbl(p)
    i = index - 1
    a, b = before[i], before[i + 1]
    expected = before[:i] + (b, conjugate(a, b)) + before[i + 2 :]
    return moved == expected


def random_polynomial(degree: int, rng, max_tries: int = 500) -> CenteredPolynomial:
    """A generic centered polynomial with well-separated critical values."""
    if degree < 2:
        raise ValueError("degree must be at least 2")
    for _ in range(max_tries):
        coeffs = tuple(
            complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            for _ in range(degree - 1)
        )
        p = CenteredPolynomial(coeffs)
        config = critical_values(p)
        if any(mu != 1 for mu in config.multiplicities):
            continue
        if len(config.centers) > 1 and _min_pairwise(config.centers) < 1e-2 * p.scale:
            continue
        return p
    raise RegularityError("could not sample a generic polynomial")


def sample_equivariance_polynomial(degree: int, rng, max_tries: int = 500):
    """A generic polynomial whose adjacent swaps all have clear half-turn disks."""
    for _ in range(max_tries):
        p = random_polynomial(degree, rng)
        values, _ = _ordered_critical_values(p)
        if all(_swap_is_clear(values, i) for i in range(1, degree - 1)):
            return p
    raise RegularityError("could not sample a swap-clear polynomial")

"""Command-line reports.

Two command families: ``group`` runs the exact enumerative verifications
for one reflection group, ``ll`` runs the numerical monodromy toolkit on
centered polynomials.  Every subcommand emits a single JSON document
(stdout, or --out) whose bytes depend only on the request and the seed,
and exits 0 exactly when every verdict in the document passes.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys

import numpy as np

from .cache import prime_group
from .groups import GroupConstructionError, GroupElement, build_group, product_of
from .monodromy import (
    CenteredPolynomial,
    coxeter_loop,
    critical_values,
    equivariance_check,
    explore_fiber,
    random_polynomial,
    rlbl,
    sample_equivariance_polynomial,
)
from .reports import (
    FLATS_CSV_COLUMNS,
    SCHEMA_VERSION,
    _verdict,
    first_failure,
    group_report,
)

__all__ = ["entrypoint"]


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _emit(report: dict, out_path) -> int:
    """Serialize, write, and turn the verdicts into an exit status."""
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    failing = first_failure(report)
    if failing is not None:
        print(f"FAILED: {failing}", file=sys.stderr)
        return 1
    return 0


def _write_flats_csv(path, table) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FLATS_CSV_COLUMNS)
        for row in table:
            writer.writerow(
                [
                    cell if isinstance(cell, (str, int)) or cell is None
                    else json.dumps(cell)
                    for cell in (row[col] for col in FLATS_CSV_COLUMNS)
                ]
            )


def _run_group(args) -> int:
    try:
        W = build_group(args.d, args.r, args.n)
    except GroupConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.cache:
        prime_group(W, args.cache)
    report = group_report(W, args.group_kind)
    if getattr(args, "csv", None):
        _write_flats_csv(args.csv, report["flat_orbits"])
    return _emit(report, args.out)


def _parse_coeffs(raw_tokens) -> list[complex]:
    """Coefficients from space- or comma-separated tokens.

    Comma separation (--coeffs=-1-2j,0.5) exists because a leading minus
    makes a space-separated token look like an option flag.
    """
    out = []
    for raw in raw_tokens:
        for piece in raw.split(","):
            piece = piece.strip()
            if not piece:
                continue
            try:
                out.append(complex(piece))
            except ValueError:
                raise ValueError(
                    f"{piece!r} is not a complex number "
                    "(use Python syntax, e.g. 1.5-2j)"
                )
    return out


def _reflection_length(g) -> int:
    return g.n - len(g.cycles())


def _label_report(p: CenteredPolynomial) -> tuple[dict, list[dict]]:
    """Clusters, labels, and the two defining verdicts for one polynomial."""
    config = critical_values(p)
    labels = rlbl(p)
    loop = coxeter_loop(p.degree)
    section = {
        "clusters": [
            {"value": _complex_pair(v), "multiplicity": mult}
            for v, mult in config.points
        ],
        "labels": [list(lab.perm) for lab in labels],
        "reference_loop": list(loop.perm),
    }
    verdicts = [
        _verdict(
            "label_product_equals_reference_loop",
            list(product_of(*labels).perm),
            list(loop.perm),
        ),
        _verdict(
            "label_length_equals_cluster_multiplicity",
            [_reflection_length(lab) for lab in labels],
            list(config.multiplicities),
        ),
    ]
    return section, verdicts


def _run_rlbl(args) -> int:
    degree = args.degree
    try:
        coeffs = _parse_coeffs(args.coeffs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(coeffs) != degree - 1:
        print(
            f"error: degree {degree} needs {degree - 1} coefficients "
            f"(powers z^{degree - 2} down to the constant), got {len(coeffs)}",
            file=sys.stderr,
        )
        return 2
    p = CenteredPolynomial(tuple(coeffs))
    section, verdicts = _label_report(p)
    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": "ll_rlbl",
        "degree": degree,
        "coeffs": [_complex_pair(c) for c in p.coeffs],
        "verdicts": verdicts,
    }
    report.update(section)
    return _emit(report, args.out)


def _brute_reduced(m: int) -> set:
    """All reduced reflection factorizations of the reference loop, brute force."""
    transpositions = []
    for i, j in itertools.combinations(range(m), 2):
        perm = list(range(m))
        perm[i], perm[j] = perm[j], perm[i]
        transpositions.append(GroupElement(tuple(perm), (0,) * m, 1))
    target = coxeter_loop(m)
    return {
        tup
        for tup in itertools.product(transpositions, repeat=m - 1)
        if product_of(*tup) == target
    }


def _run_fiber(args) -> int:
    rng = np.random.default_rng(args.seed)
    p = random_polynomial(args.degree, rng)
    result = explore_fiber(p)
    m = args.degree
    brute = _brute_reduced(m)
    found = set(result["labels"])
    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": "ll_fiber",
        "degree": m,
        "seed": args.seed,
        "base_coeffs": [_complex_pair(c) for c in p.coeffs],
        "fiber_size": result["size"],
        "labels_injective": result["labels_injective"],
        "verdicts": [
            _verdict("fiber_size_equals_degree_power", result["size"], m ** (m - 2)),
            _verdict(
                "labels_are_injective",
                len(found),
                result["size"],
                ok=result["labels_injective"],
            ),
            _verdict(
                "labels_exhaust_reduced_factorizations",
                len(found),
                len(brute),
                ok=found == brute,
            ),
        ],
    }
    return _emit(report, args.out)


def _run_equivariance(args) -> int:
    rng = np.random.default_rng(args.seed)
    results = []
    passes = 0
    for _ in range(args.trials):
        p = sample_equivariance_polynomial(args.degree, rng)
        indices = list(range(1, args.degree - 1))
        ok = all(equivariance_check(p, i) for i in indices)
        passes += ok
        results.append(
            {
                "coeffs": [_complex_pair(c) for c in p.coeffs],
                "indices": indices,
                "passed": ok,
            }
        )
    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": "ll_equivariance",
        "degree": args.degree,
        "seed": args.seed,
        "trials": args.trials,
        "results": results,
        "verdicts": [
            _verdict(
                "half_turn_lifts_match_braid_moves", passes, args.trials
            )
        ],
    }
    return _emit(report, args.out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxfact",
        description="Exact and numerical reports on Coxeter factorizations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    group = sub.add_parser("group", help="exact per-group verification reports")
    gsub = group.add_subparsers(dest="group_kind", required=True)
    for kind, helptext in (
        ("info", "numerology: degrees, order, reflection counts"),
        ("verify", "the full identity suite with per-orbit tables"),
        ("passports", "block factorization census by passport"),
    ):
        p = gsub.add_parser(kind, help=helptext)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--r", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        p.add_argument("--cache", help="directory for the per-group table cache")
        if kind == "verify":
            p.add_argument("--csv", help="also export the flat-orbit table as CSV")
        p.set_defaults(func=_run_group)

    ll = sub.add_parser("ll", help="numerical monodromy on centered polynomials")
    lsub = ll.add_subparsers(dest="ll_kind", required=True)

    p = lsub.add_parser("rlbl", help="reference labels of one polynomial")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument(
        "--coeffs",
        nargs="+",
        required=True,
        metavar="C",
        help="coefficients of z^(m-2) .. z^0, Python complex syntax, "
        "space- or comma-separated (--coeffs=-1-2j,0.5 for leading minus)",
    )
    p.add_argument("--out")
    p.set_defaults(func=_run_rlbl)

    p = lsub.add_parser("fiber", help="explore one fiber by braid moves")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_run_fiber)

    p = lsub.add_parser("equivariance", help="half-turn lifts against braid moves")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_run_equivariance)

    return parser


def entrypoint(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    for option, least in (("degree", 2), ("seed", 0), ("trials", 1)):  # ll only
        value = getattr(args, option, least)
        if value < least:
            print(f"error: --{option} must be at least {least}, got {value}", file=sys.stderr)
            return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(entrypoint())

"""Workload inputs and output oracles.

Every input is a CLI argument list generated from the workload seed; the
program sees nothing else.  Nothing here imports numpy or coxfact, so the
caller can pin the BLAS thread pools before either is loaded.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

WORKLOADS = ("verify-matrix", "verify-s7", "fiber-lift", "label-batch")

# The ten acceptance groups of tests/test_acceptance.py, then G(2,1,4) and
# G(2,2,5) from the ROADMAP workload matrix.
VERIFY_MATRIX = (
    (1, 1, 3), (1, 1, 4), (1, 1, 5), (1, 1, 6),
    (2, 1, 2), (2, 1, 3), (2, 2, 4), (3, 1, 2), (3, 3, 3), (5, 5, 2),
    (2, 1, 4), (2, 2, 5),
)
S7 = (1, 1, 7)

# Degree-5 fiber times vary by polynomial (7.4 to 11 s on one core), so a
# fiber-lift pass covers three CLI seeds to keep the pass time of one
# workload seed close to another's.
FIBER_SEEDS = 3

LABEL_BASES = 40
LABEL_DEGREES = (3, 4, 5, 6)
LABEL_SCALES = (1, 10, 100)
COEFF_MILLI = 1500  # coefficients are multiples of 0.001 in [-1.5, 1.5]


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its oracle needs to know about it."""

    name: str
    argv: tuple[str, ...]
    group: str | None = None  # "G(d,r,n)" for group verify
    base: int | None = None   # index of the base polynomial for ll rlbl
    scale: int = 1            # the lambda of the rescaling for ll rlbl


def _verify_op(d: int, r: int, n: int) -> Op:
    key = f"G({d},{r},{n})"
    argv = ("group", "verify", "--d", str(d), "--r", str(r), "--n", str(n))
    return Op(f"verify {key}", argv, group=key)


def _decimal(milli: int) -> str:
    """The exact decimal text of milli / 1000."""
    sign = "-" if milli < 0 else ""
    whole, frac = divmod(abs(milli), 1000)
    return f"{sign}{whole}.{frac:03d}"


def _complex_text(re_milli: int, im_milli: int) -> str:
    im = _decimal(im_milli)
    return f"{_decimal(re_milli)}{'' if im.startswith('-') else '+'}{im}j"


def rescaled_coeffs(coeffs, lam: int) -> list[tuple[int, int]]:
    """Coefficients of lam^m p(z/lam): a_k (of z^(m-k)) becomes lam^k a_k.

    Coefficients are (re, im) pairs in thousandths, so the rescaling is exact
    integer arithmetic and reaches the CLI as exact decimal text.
    """
    return [
        (re * lam**k, im * lam**k) for k, (re, im) in enumerate(coeffs, start=2)
    ]


def label_bases(seed: int) -> list[list[tuple[int, int]]]:
    rng = random.Random(f"label-batch:{seed}")
    bases = []
    for b in range(LABEL_BASES):
        degree = LABEL_DEGREES[b % len(LABEL_DEGREES)]
        bases.append(
            [
                (rng.randint(-COEFF_MILLI, COEFF_MILLI),
                 rng.randint(-COEFF_MILLI, COEFF_MILLI))
                for _ in range(degree - 1)
            ]
        )
    return bases


def make_ops(workload: str, seed: int) -> list[Op]:
    """The operations of one pass of a workload, generated from the seed."""
    if workload == "verify-matrix":
        groups = list(VERIFY_MATRIX)
        random.Random(f"verify-matrix:{seed}").shuffle(groups)
        return [_verify_op(*g) for g in groups]
    if workload == "verify-s7":
        return [_verify_op(*S7)]
    if workload == "fiber-lift":
        ops = []
        for k in range(FIBER_SEEDS):
            s = str(seed * FIBER_SEEDS + k)
            ops += [
                Op(f"fiber degree 4 seed {s}", ("ll", "fiber", "--degree", "4", "--seed", s)),
                Op(f"fiber degree 5 seed {s}", ("ll", "fiber", "--degree", "5", "--seed", s)),
                Op(
                    f"equivariance degree 4 seed {s}",
                    ("ll", "equivariance", "--degree", "4", "--trials", "20",
                     "--seed", s),
                ),
            ]
        return ops
    if workload == "label-batch":
        ops = []
        for b, coeffs in enumerate(label_bases(seed)):
            degree = len(coeffs) + 1
            for lam in LABEL_SCALES:
                text = ",".join(
                    _complex_text(re, im) for re, im in rescaled_coeffs(coeffs, lam)
                )
                ops.append(
                    Op(
                        f"rlbl base {b} degree {degree} x{lam}",
                        ("ll", "rlbl", "--degree", str(degree), f"--coeffs={text}"),
                        base=b,
                        scale=lam,
                    )
                )
        return ops
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Oracle:
    """Checks the outputs of one pass; check() returns None or what is wrong.

    Operations are checked in pass order, so the scale-1 label of a base
    polynomial is known before its rescalings are checked.
    """

    def __init__(self, seed: int, golden: dict):
        self.verify_sha = golden["group_verify_sha256"]
        self.golden_labels = golden["rlbl_labels"].get(str(seed))
        self.labels_at_1: dict[int, list] = {}

    def check(self, op: Op, stdout: str) -> str | None:
        if op.group is not None:
            want = self.verify_sha[op.group]
            got = sha256_text(stdout)
            return None if got == want else f"report sha256 {got} != golden {want}"
        report = json.loads(stdout)
        failing = [v["identity"] for v in report["verdicts"] if not v["pass"]]
        if failing:
            return f"verdict failed: {failing[0]}"
        if op.base is None:
            return None
        return self.check_labels(op, report["labels"])

    def check_labels(self, op: Op, labels: list) -> str | None:
        if op.scale == 1:
            self.labels_at_1[op.base] = labels
            if self.golden_labels is not None and labels != self.golden_labels[op.base]:
                return f"labels {labels} != golden {self.golden_labels[op.base]}"
            return None
        want = self.labels_at_1.get(op.base)
        if want is None and self.golden_labels is not None:
            want = self.golden_labels[op.base]
        if want is not None and labels != want:
            return f"labels {labels} != scale-1 labels {want}"
        return None

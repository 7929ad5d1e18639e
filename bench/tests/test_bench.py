"""Self-tests of the benchmark: span arithmetic, wrappers, oracles, inputs."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, aggregate  # noqa: E402
from workloads import Op, Oracle, make_ops  # noqa: E402


def test_self_time_on_a_synthetic_span_tree():
    tree = [
        Span("cli.entrypoint", 0.0, 10.0, -1, 0),
        Span("absolute.length_table", 1.0, 4.0, 0, 0),
        Span("absolute.length_table", 2.0, 3.0, 1, 0),  # nested call of itself
        Span("monodromy.rlbl", 5.0, 7.0, 0, 0, error="TrackingError"),
    ]
    stats = aggregate(tree)
    assert stats["cli.entrypoint"].self_s == pytest.approx(10 - 3 - 2)
    assert stats["absolute.length_table"].calls == 2
    assert stats["absolute.length_table"].self_s == pytest.approx(2 + 1)
    assert stats["absolute.length_table"].total_s == pytest.approx(3)
    assert stats["monodromy.rlbl"].errors == {"TrackingError": 1}
    assert spans.layer_metrics(tree)["monodromy.rlbl_failed"] == 1


def test_report_bytes_are_identical_with_and_without_wrappers():
    cli = run.import_program()
    original = cli.entrypoint
    verify = workloads._verify_op(1, 1, 4)
    label = make_ops("label-batch", 0)[0]

    def outputs():
        return [run.run_op(cli, op).stdout for op in (verify, label)]

    plain = outputs()
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = outputs()
    finally:
        tracer.uninstall()
    assert wrapped == plain == outputs()
    assert cli.entrypoint is original
    names = {s.name for s in tracer.spans}
    assert {"cli.entrypoint", "flats.intersection_lattice", "monodromy.rlbl"} <= names
    golden = workloads.load_golden()
    assert workloads.sha256_text(plain[0]) == golden["group_verify_sha256"]["G(1,1,4)"]


def test_rescaling_oracle_catches_a_permuted_label_tuple():
    labels = [[1, 0, 2, 3], [0, 2, 1, 3], [0, 1, 3, 2]]
    at_1 = Op("x1", (), base=0, scale=1)
    at_10 = Op("x10", (), base=0, scale=10)
    oracle = Oracle(seed=12345, golden={"group_verify_sha256": {}, "rlbl_labels": {}})
    assert oracle.check_labels(at_1, labels) is None
    assert oracle.check_labels(at_10, labels) is None
    assert oracle.check_labels(at_10, labels[1:] + labels[:1]) is not None

    golden = workloads.load_golden()
    seed0 = Oracle(seed=0, golden=golden)
    first = golden["rlbl_labels"]["0"][0]
    assert seed0.check_labels(at_1, first[::-1]) is not None


def test_generated_inputs_are_deterministic_for_a_seed():
    for name in workloads.WORKLOADS:
        assert make_ops(name, 3) == make_ops(name, 3)
    for name in ("verify-matrix", "fiber-lift", "label-batch"):
        assert make_ops(name, 3) != make_ops(name, 4)
    # the rescaling is exact decimal arithmetic on thousandths
    assert workloads.rescaled_coeffs([(1234, -5), (7, 0)], 10) == [
        (123400, -500), (7000, 0)
    ]
    assert workloads._complex_text(-1234, 5) == "-1.234+0.005j"


def test_benchmark_json_names_the_metrics_the_runs_compute():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    fake = run.Pass(2.0, [run.OpResult(Op("op", ()), 1.0)], spans=[])
    e2e, _ = run.end_to_end([fake], [0.1])
    layers, _ = run.per_layer([fake], [fake])
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert [m["name"] for m in spec["per_layer"]] == list(layers)

"""Report assembly, disk cache, and command-line behavior."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from coxfact.cache import FORMAT_VERSION, group_cache_dir, prime_group
from coxfact.cli import entrypoint
from coxfact.groups import build_group
from coxfact.reports import first_failure, group_report


def run_cli(*args) -> int:
    return entrypoint([str(a) for a in args])


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())


# -- report assembly --------------------------------------------------------------


def test_verify_report_all_verdicts_pass_for_weyl_member():
    W = build_group(1, 1, 4)
    report = group_report(W, "verify")
    assert report["schema_version"] == 1
    assert report["red_count"] == 16
    assert report["nc_size"] == 14
    assert all(v["pass"] for v in report["verdicts"])
    assert first_failure(report) is None
    names = [v["identity"] for v in report["verdicts"]]
    assert "reduced_factorization_count_formula" in names
    assert "kreweras_char_poly_formula_all_orbits" in names


def test_verify_report_skips_kreweras_assertion_outside_weyl_members():
    W = build_group(3, 1, 2)
    report = group_report(W, "verify")
    names = [v["identity"] for v in report["verdicts"]]
    assert "kreweras_char_poly_formula_all_orbits" not in names
    assert all(v["pass"] for v in report["verdicts"])


def test_flat_table_rows_cover_every_orbit_with_both_formula_sides():
    W = build_group(2, 1, 2)
    report = group_report(W, "verify")
    table = report["flat_orbits"]
    assert [row["label"] for row in table][0] == "V"
    assert {row["codim"] for row in table} == {0, 1, 2}
    for row in table:
        assert row["primitive_count"] == row["primitive_formula"]
        assert row["kreweras_formula"][1] >= 1
        if row["quotient_is_reflection_group"]:
            assert row["q_at_one"] == row["primitive_count"]


def test_every_verdict_carries_both_sides():
    W = build_group(1, 1, 3)
    for kind in ("info", "verify", "passports"):
        for verdict in group_report(W, kind)["verdicts"]:
            assert set(verdict) == {"identity", "lhs", "rhs", "pass"}


def test_first_failure_names_the_first_failing_identity():
    report = {
        "verdicts": [
            {"identity": "fine", "lhs": 1, "rhs": 1, "pass": True},
            {"identity": "broken_one", "lhs": 1, "rhs": 2, "pass": False},
            {"identity": "broken_two", "lhs": 0, "rhs": 2, "pass": False},
        ]
    }
    assert first_failure(report) == "broken_one"


def test_report_is_json_serializable_with_sorted_keys():
    W = build_group(2, 2, 3)
    text = json.dumps(group_report(W, "verify"), sort_keys=True)
    assert json.loads(text)["descriptor"]["name"] == "G(2,2,3)"


# -- disk cache -------------------------------------------------------------------


def test_cache_miss_then_hit(tmp_path):
    W = build_group(1, 1, 4)
    hits = prime_group(W, tmp_path)
    assert hits == {"lengths": False, "nc": False, "lattice": False}
    directory = group_cache_dir(tmp_path, W)
    assert sorted(p.name for p in directory.iterdir()) == [
        "lattice.json",
        "lengths.json",
        "nc.json",
    ]
    fresh = build_group(1, 1, 4)
    hits = prime_group(fresh, tmp_path)
    assert hits == {"lengths": True, "nc": True, "lattice": True}
    assert "length_table" in fresh._cache and "nc_elements" in fresh._cache


def test_cache_hit_and_miss_reports_are_identical(tmp_path):
    cold = build_group(2, 2, 3)
    prime_group(cold, tmp_path)
    miss_report = group_report(cold, "verify")
    warm = build_group(2, 2, 3)
    prime_group(warm, tmp_path)
    hit_report = group_report(warm, "verify")
    assert json.dumps(miss_report, sort_keys=True) == json.dumps(
        hit_report, sort_keys=True
    )


def test_corrupt_cache_files_are_recomputed_and_rewritten(tmp_path):
    W = build_group(1, 1, 3)
    prime_group(W, tmp_path)
    directory = group_cache_dir(tmp_path, W)

    lengths_path = directory / "lengths.json"
    good_lengths = json.loads(lengths_path.read_text())
    lengths_path.write_text("{not json")
    nc_path = directory / "nc.json"
    nc_data = json.loads(nc_path.read_text())
    nc_data["elements"] = nc_data["elements"][:-1]
    nc_path.write_text(json.dumps(nc_data))

    fresh = build_group(1, 1, 3)
    hits = prime_group(fresh, tmp_path)
    assert hits["lengths"] is False and hits["nc"] is False
    assert json.loads(lengths_path.read_text()) == good_lengths
    assert len(json.loads(nc_path.read_text())["elements"]) == 5


def test_stale_format_version_is_a_miss(tmp_path):
    W = build_group(1, 1, 3)
    prime_group(W, tmp_path)
    path = group_cache_dir(tmp_path, W) / "lengths.json"
    data = json.loads(path.read_text())
    data["format_version"] = FORMAT_VERSION + 1
    path.write_text(json.dumps(data))
    hits = prime_group(build_group(1, 1, 3), tmp_path)
    assert hits["lengths"] is False
    assert json.loads(path.read_text())["format_version"] == FORMAT_VERSION


def test_cached_tables_match_fresh_computation(tmp_path):
    from coxfact.absolute import length_table, nc_elements

    cold = build_group(2, 1, 2)
    expected_lengths = length_table(cold)
    expected_nc = nc_elements(cold)
    prime_group(cold, tmp_path)

    warm = build_group(2, 1, 2)
    prime_group(warm, tmp_path)
    assert length_table(warm) == expected_lengths
    assert nc_elements(warm) == expected_nc


# -- command line -----------------------------------------------------------------


def test_cli_group_info_exits_zero_and_is_byte_stable(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("group", "info", "--d", 2, "--r", 1, "--n", 2, "--out", first) == 0
    assert run_cli("group", "info", "--d", 2, "--r", 1, "--n", 2, "--out", second) == 0
    assert first.read_bytes() == second.read_bytes()
    report = read_json(first)
    assert report["kind"] == "group_info"
    assert report["descriptor"]["coxeter_number"] == 4


def test_cli_group_verify_with_cache_is_byte_stable_across_hit_and_miss(tmp_path):
    cache = tmp_path / "cache"
    miss, hit = tmp_path / "miss.json", tmp_path / "hit.json"
    base = ("group", "verify", "--d", 1, "--r", 1, "--n", 4, "--cache", cache)
    assert run_cli(*base, "--out", miss) == 0
    assert run_cli(*base, "--out", hit) == 0
    assert miss.read_bytes() == hit.read_bytes()


def test_cli_csv_export_round_trips_the_flat_table(tmp_path):
    out, table = tmp_path / "report.json", tmp_path / "flats.csv"
    code = run_cli(
        "group", "verify", "--d", 1, "--r", 1, "--n", 4,
        "--out", out, "--csv", table,
    )
    assert code == 0
    with open(table, newline="") as fh:
        rows = list(csv.DictReader(fh))
    report = read_json(out)
    assert len(rows) == len(report["flat_orbits"])
    by_label = {row["label"]: row for row in rows}
    assert by_label["V"]["primitive_count"] == "16"
    assert json.loads(by_label["A1"]["char_poly"]) == [2, -3, 1]


def test_cli_rejects_unsupported_group(capsys):
    assert run_cli("group", "info", "--d", 3, "--r", 2, "--n", 3) == 2
    assert "error" in capsys.readouterr().err


def test_cli_stdout_report_is_deterministic(capsys):
    assert run_cli("group", "passports", "--d", 1, "--r", 1, "--n", 3) == 0
    first = capsys.readouterr().out
    assert run_cli("group", "passports", "--d", 1, "--r", 1, "--n", 3) == 0
    assert capsys.readouterr().out == first
    report = json.loads(first)
    assert report["passports"]["A1,A1"]["total"] == 3


def test_cli_rlbl_frozen_cubic(tmp_path):
    out = tmp_path / "rlbl.json"
    code = run_cli(
        "ll", "rlbl", "--degree", 3, "--coeffs=0,-3", "--out", out
    )
    assert code == 0
    report = read_json(out)
    assert report["labels"] == [[2, 0, 1]]
    assert report["clusters"] == [{"multiplicity": 2, "value": [-3.0, 0.0]}]
    assert all(v["pass"] for v in report["verdicts"])


def test_cli_rlbl_counts_coefficients(capsys):
    assert run_cli("ll", "rlbl", "--degree", 4, "--coeffs", "1", "2") == 2
    assert "3 coefficients" in capsys.readouterr().err


def test_cli_rlbl_rejects_malformed_coefficient(capsys):
    assert run_cli("ll", "rlbl", "--degree", 3, "--coeffs", "1", "spam") == 2
    assert "complex" in capsys.readouterr().err


def test_cli_fiber_explores_the_cubic_fiber(tmp_path):
    out = tmp_path / "fiber.json"
    assert run_cli("ll", "fiber", "--degree", 3, "--seed", 0, "--out", out) == 0
    report = read_json(out)
    assert report["fiber_size"] == 3
    assert report["labels_injective"] is True
    assert all(v["pass"] for v in report["verdicts"])


def test_cli_equivariance_seeded_trials(tmp_path):
    out = tmp_path / "equi.json"
    code = run_cli(
        "ll", "equivariance", "--degree", 3, "--trials", 2, "--seed", 5,
        "--out", out,
    )
    assert code == 0
    report = read_json(out)
    assert report["trials"] == 2
    assert len(report["results"]) == 2
    assert all(r["passed"] for r in report["results"])
    assert all(r["indices"] == [1] for r in report["results"])


def test_cli_failure_exit_is_wired_to_first_failure(capsys, monkeypatch, tmp_path):
    import coxfact.cli as cli

    def broken_report(W, kind):
        return {
            "schema_version": 1,
            "verdicts": [
                {"identity": "rigged_identity", "lhs": 0, "rhs": 1, "pass": False}
            ],
        }

    monkeypatch.setattr(cli, "group_report", broken_report)
    out = tmp_path / "broken.json"
    assert run_cli("group", "info", "--d", 1, "--r", 1, "--n", 3, "--out", out) == 1
    assert "rigged_identity" in capsys.readouterr().err
    assert read_json(out)["verdicts"][0]["pass"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ("ll", "fiber", "--degree", "1"),
        ("ll", "equivariance", "--degree", "1"),
        ("ll", "rlbl", "--degree", "1", "--coeffs="),
        ("ll", "fiber", "--degree", "3", "--seed", "-1"),
        ("ll", "equivariance", "--degree", "3", "--trials", "0"),
    ],
    ids=lambda argv: " ".join(argv[1:]),
)
def test_cli_rejects_invalid_ll_request_in_one_line(argv):
    import subprocess
    import sys

    import coxfact

    done = subprocess.run(
        [sys.executable, "-m", "coxfact.cli", *argv],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(Path(coxfact.__file__).parents[1])},
        timeout=60,
    )
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert done.stdout == ""

"""End-to-end CLI behavior: payloads, formats, determinism, exit codes."""

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

import pytest

from ekr_matchings import baranyai, cli, core, katona, transposition_lab
from ekr_matchings.baranyai import (
    MAX_COUNTEREXAMPLES,
    Permutation,
    all_permutations,
    rooted_order,
    sample_permutations,
)
from ekr_matchings.cli import EXIT_INTERNAL, main
from ekr_matchings.ekr_search import SearchBudget
from ekr_matchings.transposition_lab import SWAP_IDENTITIES, swap_identities

from oracles import naive_goodness_failures


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def test_count_payload(capsys):
    code, payload = run_json(capsys, "count", "--n", "3", "--r", "2")
    assert code == 0
    assert payload["chi"] == 45
    assert payload["phi"] == 6
    assert payload["q_formula"] == 240
    assert payload["q_oracle"] == 240
    assert payload["passed"] is True


def test_count_skips_oracle_beyond_limit(capsys):
    code, payload = run_json(capsys, "count", "--n", "6", "--r", "2")
    assert code == 0
    assert payload["q_oracle"] is None
    assert payload["q_formula"] == 11 * 6 * (2 * 4 * 40320)


def test_count_pairs_csv(capsys):
    code, out, err = run(
        capsys, "count", "--pairs", "2:1,3:2", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,r,chi,phi,q_formula,q_split,q_oracle"
    assert lines[1] == '2,1,6,1,24,"[12,12]",24'
    assert lines[2] == '3,2,45,6,240,"[80,160]",240'


def test_count_rejects_an_empty_pair_list(capsys):
    assert run(capsys, "count", "--pairs", "") == (2, "", "error: expected 'n:r' pairs, got ''\n")


def test_output_is_deterministic(capsys):
    first = run(capsys, "verify-goodness", "--n", "5", "--samples", "30")
    second = run(capsys, "verify-goodness", "--n", "5", "--samples", "30")
    assert first == second
    third = run(capsys, "verify-goodness", "--n", "5", "--samples", "30", "--seed", "2")
    assert third[0] == 0 and third[1] != first[1]


def test_out_file_roundtrip(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, err = run(
        capsys, "count", "--n", "3", "--r", "2", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["q_formula"] == 240


def test_construct_shift_rotates_cycle(capsys):
    code, base = run_json(capsys, "construct", "--n", "3")
    assert code == 0
    code, shifted = run_json(capsys, "construct", "--n", "3", "--c", "2")
    assert code == 0
    rotation = 2 * 3
    assert shifted["cyclic_order"] == base["cyclic_order"][rotation:] + base["cyclic_order"][:rotation]


def test_construct_given_sigma(capsys):
    code, payload = run_json(capsys, "construct", "--n", "2", "--sigma", "2,1,4,3")
    assert code == 0
    assert payload["root"] == 3
    assert payload["sigma"] == [2, 1, 4, 3]
    assert payload["checks"]["parts_partition_edge_set"] is True


def test_construct_reports_parts_that_repeat_an_edge(capsys, monkeypatch):
    order = rooted_order(Permutation.identity(6))
    repeated = order._replace(parts=(order.parts[0], *order.parts[:-1]))
    monkeypatch.setattr(cli, "rooted_order", lambda sigma: repeated)
    code, payload = run_json(capsys, "construct", "--n", "3")
    assert code == 1
    assert payload["checks"] == {"parts_partition_edge_set": False}


def test_verify_goodness_single_sigma(capsys):
    code, payload = run_json(capsys, "verify-goodness", "--n", "4", "--sigma", "5,3,1,7,2,8,4,6")
    assert code == 0
    assert payload["mode"] == "given"
    assert payload["permutations_checked"] == 1
    assert payload["counterexamples"] == []


def test_exhaustive_goodness_matches_full_sweep(capsys):
    code, payload = run_json(capsys, "verify-goodness", "--n", "3")
    assert code == 0
    assert payload["mode"] == "exhaustive"
    failures = []
    permutations = 0
    for sigma in all_permutations(6):
        permutations += 1
        failures.extend(naive_goodness_failures(sigma.images, 3, 2))
    assert payload["permutations_checked"] == permutations == 720
    assert payload["intervals_checked"] == permutations * 15
    assert payload["counterexamples"] == failures == []


@pytest.mark.parametrize("n", range(1, 7))
def test_verify_goodness_counterexamples_match_window_oracle_per_sigma(capsys, n):
    # the windows are scanned once; the report must still name the failures
    # the oracle finds sigma by sigma, in its order, cut where the cap cuts
    total = n * (2 * n - 1)
    cut_inside_a_permutation = False
    for r in sorted({1, n - 1, n, n + 1, 2 * n, total} & set(range(1, total + 1))):
        failures = [
            {"sigma": list(sigma.images), "position": start}
            for sigma in sample_permutations(2 * n, 50, seed=n)
            for start in naive_goodness_failures(sigma.images, n, r)
        ]
        argv = ["verify-goodness", "--n", str(n), "--r", str(r), "--samples", "50", "--seed", str(n)]
        code, payload = run_json(capsys, *argv)
        assert code == (1 if failures else 0)
        assert payload["intervals_checked"] == 50 * total
        assert payload["counterexamples"] == failures[:MAX_COUNTEREXAMPLES]
        if len(failures) > 20 and failures[19]["sigma"] == failures[20]["sigma"]:
            cut_inside_a_permutation = True
    assert cut_inside_a_permutation == (n >= 2)


def count_reads(monkeypatch, name, module=cli):
    """Replace module.<name> by a generator that records every item read from it."""
    reads = []
    original = getattr(module, name)

    def recorded(*args):
        for item in original(*args):
            reads.append(item)
            yield item

    monkeypatch.setattr(module, name, recorded)
    return reads


@pytest.mark.parametrize(
    "argv, mode, permutations",
    [
        (("verify-goodness", "--n", "4"), "exhaustive", 40320),
        (("verify-goodness", "--n", "30", "--samples", "1000"), "sampled", 1000),
        (("lemma-identities", "--n", "4", "--samples", "0"), "exhaustive", 40320),
        (("lemma-identities", "--n", "20", "--samples", "1000"), "sampled", 1000),
        (("verify-goodness", "--n", "5"), "exhaustive", math.factorial(10)),
        (("lemma-identities", "--n", "6"), "exhaustive", math.factorial(12)),
    ],
)
def test_passing_sweeps_read_no_permutation(capsys, monkeypatch, argv, mode, permutations):
    # the claims do not depend on sigma, so the permutations are only counted;
    # without --samples the sweep is exhaustive at any n
    exhaustive = count_reads(monkeypatch, "rotation_classes")
    sampled = count_reads(monkeypatch, "sample_permutations")
    code, payload = run_json(capsys, *argv)
    assert (code, payload["mode"], payload["permutations_checked"]) == (0, mode, permutations)
    assert payload["seed"] == (cli.DEFAULT_SEED if mode == "sampled" else None)
    assert exhaustive == sampled == []


def test_failing_sweeps_read_only_the_permutations_they_name(capsys, monkeypatch):
    exhaustive = count_reads(monkeypatch, "rotation_classes")
    sampled = count_reads(monkeypatch, "sample_permutations")

    def named(entries):
        return list(dict.fromkeys(tuple(entry["sigma"]) for entry in entries))

    # ten windows of length 3 fail at n = 3, so the 20 counterexamples name two sigmas
    code, payload = run_json(capsys, "verify-goodness", "--n", "3", "--r", "3")
    assert (code, payload["permutations_checked"]) == (1, 720)
    assert named(payload["counterexamples"]) == exhaustive and len(exhaustive) == 2
    # fifteen of length 4 fail, so the cap cuts inside the second sigma
    code, payload = run_json(capsys, "verify-goodness", "--n", "3", "--r", "4", "--samples", "100")
    assert (code, payload["permutations_checked"]) == (1, 100)
    assert named(payload["counterexamples"]) == [sigma.images for sigma in sampled] and len(sampled) == 2
    monkeypatch.setattr(transposition_lab, "composition_identity", lambda sigma, j: False)
    del sampled[:]
    code, payload = run_json(capsys, "lemma-identities", "--n", "5", "--samples", "30")
    assert (code, payload["permutations_checked"]) == (1, 30)
    assert named(payload["failures"]) == [sigma.images for sigma in sampled] and len(sampled) == 5


@pytest.mark.parametrize("command", ["double-count", "center-map"])
@pytest.mark.parametrize("n,r", [(3, 2), (4, 3), (5, 2)])
def test_star_sweeps_trace_one_permutation_per_position(capsys, monkeypatch, command, n, r):
    # each position of the star's edge stands for the 2(2n-2)! permutations that put
    # the edge there, and the window scan gives its trace size: no permutation is
    # traced, no star is built, and no rotation class or placement is read
    calls = []

    def counted(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)

        return wrapper

    for module in (katona, transposition_lab):
        monkeypatch.setattr(module, "compatible_member_keys", counted("trace", katona.compatible_member_keys))
    for module in (core, cli):
        monkeypatch.setattr(module, "star_family", counted("star", core.star_family))
    classes = [
        count_reads(monkeypatch, "rotation_classes", module)
        for module in (baranyai, cli, katona, transposition_lab)
        if hasattr(module, "rotation_classes")
    ]
    placements = count_reads(monkeypatch, "star_placements", transposition_lab)
    code, payload = run_json(capsys, command, "--n", str(n), "--r", str(r), "--edge", "2,3")
    assert code == 0
    assert calls == []
    assert not any(classes)
    assert placements == []
    if command == "double-count":
        assert payload["sweep_total"] == payload["weighted_count"]
    else:
        assert payload["saturated"] == math.factorial(2 * n)


def test_double_count_fails_when_every_window_repeats(capsys, monkeypatch):
    # a scan failing every window leaves every trace empty, so the sum is 0, not q * phi
    monkeypatch.setattr(katona, "window_repeats", lambda pairs, *args: list(range(1, len(pairs) + 1)))
    code, payload = run_json(capsys, "double-count", "--n", "3", "--r", "2")
    assert code == 1
    assert (payload["sweep_total"], payload["sweep_max_trace"], payload["weighted_count"]) == (0, 0, 1440)
    assert payload["checks"] == {
        "bound_holds": True,
        "sweep_sum_matches": False,
        "trace_sizes_bounded": True,
        "member_counts_match_formula": False,
    }


def test_exhaustive_lemma_identities_match_full_sweep(capsys):
    code, payload = run_json(capsys, "lemma-identities", "--n", "3", "--samples", "0")
    assert code == 0
    assert payload["mode"] == "exhaustive"
    counts = dict.fromkeys(SWAP_IDENTITIES, 0)
    failures = []
    permutations = 0
    for sigma in all_permutations(6):
        permutations += 1
        for name, j, holds in swap_identities(sigma):
            counts[name] += 1
            if not holds:
                failures.append((name, j))
    assert payload["permutations_checked"] == permutations == 720
    assert payload["checks_run"] == counts
    assert payload["failures"] == failures == []


def test_double_count_text_format(capsys):
    code, out, err = run(
        capsys, "double-count", "--n", "3", "--r", "2", "--format", "text"
    )
    assert code == 0
    assert "weighted_count = 1440" in out
    assert "PASS: bound_holds" in out
    assert "RESULT: PASS" in out


def test_ekr_search_enumeration(capsys):
    code, payload = run_json(
        capsys, "ekr-search", "--n", "3", "--r", "2", "--enumerate-max"
    )
    assert code == 0
    assert payload["max"] == 6
    assert payload["maximum_families"] == 15
    assert payload["all_stars"] is True
    assert len(payload["centers"]) == 15


def test_ekr_search_perfect_matchings_n2(capsys):
    # the stars at {1,2} and {3,4} are one family, so there are 3 maxima, not 6
    code, payload = run_json(
        capsys, "ekr-search", "--n", "2", "--r", "2", "--enumerate-max"
    )
    assert code == 0
    assert payload["maximum_families"] == 3
    assert payload["passed"] is True
    assert "one_maximum_family_per_edge" not in payload["checks"]


def test_ekr_search_pairs_csv(capsys):
    code, out, err = run(
        capsys, "ekr-search", "--pairs", "2:1,3:1,3:2", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3  # one row per instance
    for column in ("n", "r", "chi", "phi", "max"):
        assert column in rows[0]
    assert [row["max"] for row in rows] == ["1", "1", "6"]
    assert [row["phi"] for row in rows] == ["1", "1", "6"]


def test_ekr_search_budget_exit(capsys):
    # the bound search at (5,5) takes 19 nodes
    code, out, err = run(capsys, "ekr-search", "--n", "5", "--r", "5", "--max-nodes", "5")
    assert code == 3
    payload = json.loads(out)
    assert payload["status"] == "budget_exhausted"


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize(
    "argv",
    [("--n", "5", "--r", "5", "--max-nodes", "5"), ("--n", "5", "--r", "3", "--max-seconds", "1e-9")],
    ids=" ".join,
)
def test_a_budget_exhausted_search_has_not_passed(capsys, argv, fmt):
    # no check fails, yet nothing was proven: passed is false exactly when the exit code is not 0
    code, out, err = run(capsys, "ekr-search", *argv, "--format", fmt)
    assert (code, err) == (cli.EXIT_BUDGET, "")
    if fmt == "json":
        payload = json.loads(out)
        assert (payload["status"], payload["passed"]) == ("budget_exhausted", False)
    elif fmt == "csv":
        (row,) = csv.DictReader(io.StringIO(out))
        assert (row["status"], row["passed"]) == ("budget_exhausted", "False")
    else:
        assert "status = budget_exhausted\n" in out and out.endswith("\nRESULT: FAIL\n")


def test_ekr_search_non_star_maxima_exit(capsys, planted_non_star):
    code, payload = run_json(
        capsys, "ekr-search", "--n", "3", "--r", "2", "--enumerate-max"
    )
    assert code == 1
    assert payload["all_stars"] is False
    assert payload["maximum_families"] is None  # nothing was counted
    assert payload["checks"]["all_maximum_are_stars"] is False
    assert payload["checks"]["max_equals_phi"] is True


def test_center_map_cli(capsys):
    code, payload = run_json(capsys, "center-map", "--n", "3", "--r", "2", "--edge", "2,5")
    assert code == 0
    assert payload["center"] == [2, 5]
    assert payload["violation_count"] == 0
    assert payload["saturated"] == 720


def test_lemma_identities_restricted(capsys):
    code, payload = run_json(
        capsys, "lemma-identities", "--n", "4", "--j", "5", "--samples", "50"
    )
    assert code == 0
    assert payload["checks_run"]["composition"] == 50
    assert payload["checks_run"]["reflection_involution"] == 0
    assert payload["passed"] is True


def _per_sigma_lemma_sweep(sigmas, j=None):
    """checks_run and failures of lemma-identities, with the suite run at every sigma."""
    counts = dict.fromkeys(SWAP_IDENTITIES, 0)
    failures = []
    for sigma in sigmas:
        for name, k, holds in swap_identities(sigma, j):
            counts[name] += 1
            if not holds and len(failures) < 10:
                failures.append({"identity": name, "sigma": list(sigma.images), "j": k})
    return counts, failures


@pytest.mark.parametrize("j", [None, 5])
def test_lemma_identities_match_per_sigma_sweep(capsys, j):
    argv = ["lemma-identities", "--n", "5", "--samples", "30"] + (["--j", str(j)] if j else [])
    code, payload = run_json(capsys, *argv)
    assert code == 0
    counts, failures = _per_sigma_lemma_sweep(sample_permutations(10, 30, cli.DEFAULT_SEED), j)
    assert payload["permutations_checked"] == 30
    assert payload["checks_run"] == counts
    assert payload["failures"] == failures == []


def test_lemma_identities_report_failures_per_sigma(capsys, monkeypatch):
    monkeypatch.setattr(transposition_lab, "composition_identity", lambda sigma, j: False)
    code, payload = run_json(capsys, "lemma-identities", "--n", "5", "--samples", "30")
    assert code == 1
    assert payload["checks"]["composition"] is False
    assert all(payload["checks"][name] for name in SWAP_IDENTITIES if name != "composition")
    sigmas = list(sample_permutations(10, 30, cli.DEFAULT_SEED))
    # composition runs at j = 6 and 7, so the first ten failures span five sigmas
    expected = [
        {"identity": "composition", "sigma": list(sigma.images), "j": j}
        for sigma in sigmas[:5]
        for j in (6, 7)
    ]
    assert payload["failures"] == expected
    assert (payload["checks_run"], payload["failures"]) == _per_sigma_lemma_sweep(sigmas)


def test_lemma_identities_rejects_bad_index(capsys):
    code, out, err = run(capsys, "lemma-identities", "--n", "4", "--j", "8")
    assert code == 2
    assert "--j 8" in err
    code, out, err = run(capsys, "lemma-identities", "--n", "1")
    assert code == 2
    assert "n >= 2" in err


def test_lemma_identities_small_n(capsys):
    code, payload = run_json(capsys, "lemma-identities", "--n", "2")
    assert code == 0
    assert payload["checks_run"]["composition"] == 0
    assert "composition" not in payload["checks"]


def test_kneser_cert_schema_and_verify(tmp_path, capsys):
    target = tmp_path / "cert.json"
    code, out, err = run(capsys, "kneser-cert", "--n", "4", "--out", str(target))
    assert code == 0
    payload = json.loads(target.read_text())
    assert set(payload) == {"m", "k", "order"}
    assert payload["m"] == 8 and payload["k"] == 2

    code, verdict = run_json(capsys, "kneser-verify", "--cert", str(target))
    assert code == 0
    assert verdict["valid"] is True


def test_kneser_verify_applies_k_to_a_loaded_certificate(tmp_path, capsys):
    target = tmp_path / "cert.json"
    run(capsys, "kneser-cert", "--n", "4", "--out", str(target))
    code, verdict = run_json(capsys, "kneser-verify", "--cert", str(target), "--k", "3")
    assert code == 1
    assert verdict["k"] == 3 and verdict["valid"] is False
    assert run_json(capsys, "kneser-verify", "--n", "4", "--k", "3") == (code, verdict)
    code, verdict = run_json(capsys, "kneser-verify", "--cert", str(target), "--k", "1")
    assert code == 0
    assert verdict["k"] == 1 and verdict["valid"] is True
    code, out, err = run(capsys, "kneser-verify", "--cert", str(target), "--k", "0")
    assert (code, out, err) == (2, "", "error: claimed power must be at least 1, got 0\n")


def test_kneser_verify_rejects_sigma_with_cert(tmp_path, capsys):
    target = tmp_path / "cert.json"
    run(capsys, "kneser-cert", "--n", "4", "--out", str(target))
    code, out, err = run(capsys, "kneser-verify", "--cert", str(target), "--sigma", "8,7,6,5,4,3,2,1")
    assert code == 2
    assert out == ""
    assert err == "error: --sigma generates a certificate, so it cannot be combined with --cert\n"


def test_kneser_verify_checks_a_loaded_certificate_against_n(tmp_path, capsys):
    target = tmp_path / "cert.json"
    run(capsys, "kneser-cert", "--n", "4", "--out", str(target))
    code, out, err = run(capsys, "kneser-verify", "--cert", str(target), "--n", "7")
    assert (code, out, err) == (2, "", "error: certificate is for m=8, expected m=14\n")
    code, out, err = run(capsys, "kneser-verify", "--cert", str(target), "--n", "0")
    assert (code, out, err) == (2, "", "error: n must be a positive integer, got 0\n")
    matched = run(capsys, "kneser-verify", "--cert", str(target), "--n", "4")
    assert matched == run(capsys, "kneser-verify", "--cert", str(target))
    assert matched[0] == 0 and json.loads(matched[1])["valid"] is True


@pytest.mark.parametrize("field", ["m", "k", "vertex"])
def test_kneser_verify_rejects_json_booleans(tmp_path, capsys, field):
    # json reads true as a bool, which is an int to isinstance; it must not pass as 1
    target = tmp_path / "cert.json"
    run(capsys, "kneser-cert", "--n", "3", "--out", str(target))
    payload = json.loads(target.read_text())
    if field == "vertex":
        payload["order"] = [[True if x == 1 else x for x in pair] for pair in payload["order"]]
        message = "error: order entries must be integer pairs, got [True, 6]\n"
    else:
        payload[field] = True
        message = "error: certificate fields have the wrong types\n"
    target.write_text(json.dumps(payload))
    assert run(capsys, "kneser-verify", "--cert", str(target)) == (2, "", message)


@pytest.mark.parametrize("k", [0, -3])
def test_kneser_cert_refuses_power_below_1(tmp_path, capsys, k):
    target = tmp_path / "cert.json"
    code, out, err = run(capsys, "kneser-cert", "--n", "4", "--k", str(k), "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: claimed power must be at least 1, got {k}\n"
    assert not target.exists()
    assert run(capsys, "kneser-verify", "--n", "4", "--k", str(k)) == (code, out, err)


JSON_REPORTS = [
    ("construct", "--n", "4", "--c", "3"),
    ("construct", "--n", "50"),  # 4 950 rows, more than one block of the writer
    ("construct", "--n", "2", "--sigma", "2,1,4,3"),
    ("verify-goodness", "--n", "4", "--r", "4"),
    ("verify-goodness", "--n", "5", "--samples", "3"),
    ("count", "--pairs", "2:1,3:2,4:4"),
    ("double-count", "--n", "3", "--r", "2", "--edge", "2,5"),
    ("ekr-search", "--n", "4", "--r", "2", "--enumerate-max"),
    ("ekr-search", "--pairs", "3:2,3:3"),
    ("center-map", "--n", "3", "--r", "2"),
    ("lemma-identities", "--n", "3", "--j", "2"),
    ("kneser-cert", "--n", "4", "--sigma", "8,7,6,5,4,3,2,1"),
    ("kneser-verify", "--n", "4", "--k", "3"),
]


def test_json_reports_cover_every_subcommand():
    assert {argv[0] for argv in JSON_REPORTS} == set(cli.HANDLERS)


@pytest.mark.parametrize("argv", JSON_REPORTS, ids=" ".join)
def test_json_report_equals_json_dumps(tmp_path, capsys, argv):
    expected = json.dumps(cli.dispatch(cli.parse_args(argv))[1], indent=2) + "\n"
    code, out, err = run(capsys, *argv)
    assert out == expected
    target = tmp_path / "report.json"
    run(capsys, *argv, "--out", str(target))
    assert target.read_text(encoding="utf-8") == expected


def test_kneser_verify_falsified_exits_1(capsys):
    code, out, err = run(capsys, "kneser-verify", "--n", "4", "--k", "3")
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["passed"] is False


def test_usage_errors_exit_2(capsys):
    code, out, err = run(capsys, "count", "--n", "3", "--r", "9")
    assert code == 2
    assert "error:" in err

    code, out, err = run(capsys, "construct", "--n", "3", "--sigma", "1,2,3")
    assert code == 2

    code, out, err = run(capsys, "verify-goodness", "--n", "3", "--sigma", "1,2,3,4,5,6,7,8")
    assert (code, out, err) == (2, "", "error: sigma has 8 images, expected 2n = 6\n")

    code, out, err = run(capsys, "kneser-verify", "--cert", "/nonexistent/cert.json")
    assert code == 2

    code, out, err = run(capsys, "ekr-search", "--n", "600", "--r", "600")
    message = f"error: the seed star cannot be listed: phi(600, 600) > {sys.maxsize}\n"
    assert (code, out, err) == (2, "", message)

    code, payload = run_json(capsys, "verify-goodness", "--n", "6", "--samples", "0")
    assert (code, payload["mode"], payload["permutations_checked"]) == (0, "exhaustive", math.factorial(12))


@pytest.mark.parametrize("command", ["verify-goodness", "lemma-identities"])
def test_negative_samples_exit_2_with_a_given_sigma(capsys, command):
    argv = [command, "--n", "3", "--samples", "-4"]
    expected = (2, "", "error: --samples must be nonnegative, got -4\n")
    assert run(capsys, *argv) == expected
    assert run(capsys, *argv, "--sigma", "1,2,3,4,5,6") == expected


def test_ekr_search_rejects_a_nan_time_budget(capsys):
    # a deadline of nan never passes, so the search would run with no time budget
    code, out, err = run(capsys, "ekr-search", "--n", "3", "--r", "2", "--max-seconds", "nan")
    assert (code, out, err) == (2, "", "error: max_seconds must be positive, got nan\n")
    code, payload = run_json(capsys, "ekr-search", "--n", "3", "--r", "2", "--max-seconds", "inf")
    assert code == 0 and payload["status"] == "proven"


def test_ekr_search_budget_defaults_are_the_search_defaults():
    # tests/test_surface.py pins SearchBudget()'s fields
    budget = SearchBudget()
    argv = ["ekr-search", "--n", "3", "--r", "2"]
    config = cli.parse_args(argv)
    assert (config.max_nodes, config.max_seconds, config.enumerate_max) == (
        budget.max_nodes,
        budget.max_seconds,
        budget.enumerate_all_maximum,
    )


@pytest.mark.parametrize(
    "error",
    [ArithmeticError("witness family is not intersecting"), RecursionError("too deep"), MemoryError()],
)
def test_internal_errors_exit_4(capsys, monkeypatch, error):
    def fail(*args):
        raise error

    monkeypatch.setattr(cli, "max_intersecting", fail)
    code, out, err = run(capsys, "ekr-search", "--n", "3", "--r", "2")
    assert code == EXIT_INTERNAL == 4
    assert out == ""
    assert err == f"internal error: {type(error).__name__}: {error}\n"


def test_argparse_rejects_unknown(capsys):
    with pytest.raises(SystemExit) as info:
        main(["count", "--bogus"])
    assert info.value.code == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])


# stdout, stderr and exit code of every help text and of the top-level and
# subcommand parse errors, recorded from the parser that declared every option
PARSER_TEXT = json.loads((Path(__file__).parent / "parser_text.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", PARSER_TEXT, ids=lambda case: " ".join(case["argv"]))
def test_parser_text_is_pinned(capsys, monkeypatch, case):
    # argparse wraps usage and help at the terminal width, read from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        main(case["argv"])
    captured = capsys.readouterr()
    assert (info.value.code, captured.out, captured.err) == (case["exit"], case["stdout"], case["stderr"])


# stdout, stderr and exit code of double-count and center-map, recorded when both
# built the star and traced one permutation per position of its edge; the eight argv
# with --limit-perms or at (7,6) were re-recorded when both commands lost that option
STAR_REPORTS = json.loads((Path(__file__).parent / "star_reports.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", STAR_REPORTS, ids=lambda case: " ".join(case["argv"]))
def test_star_reports_are_pinned(capsys, monkeypatch, case):
    # an unrecognized option is an argparse error, whose usage wraps at COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(case["argv"])
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["exit"], case["stdout"], case["stderr"])


COUNT_FLAGS = [["-h", "--help"], ["--n"], ["--r"], ["--pairs"], ["--limit-perms"], ["--format"], ["--out"]]


def record_parsers(monkeypatch):
    """The list every argparse.ArgumentParser built from now on is appended to."""
    built = []
    init = argparse.ArgumentParser.__init__

    def recording_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording_init)
    return built


def test_a_well_formed_call_builds_one_parser(capsys, monkeypatch):
    built = record_parsers(monkeypatch)
    code, payload = run_json(capsys, "count", "--n", "3", "--r", "2")
    assert (code, payload["q_oracle"]) == (0, 240)
    assert len(built) == 1
    assert built[0].prog == "ekr-matchings count"
    assert [action.option_strings for action in built[0]._actions] == COUNT_FLAGS


def test_fallback_parser_declares_each_subcommands_options(capsys, monkeypatch):
    # a token the subcommand does not take is reported by the top-level parser,
    # which declares every subcommand with its COMMANDS options
    built = record_parsers(monkeypatch)
    with pytest.raises(SystemExit) as info:
        main(["count", "--n", "3", "--r", "2", "extra"])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith("ekr-matchings: error: unrecognized arguments: extra\n")
    direct, top, *subs = built
    assert [action.option_strings for action in direct._actions] == COUNT_FLAGS
    (commands,) = [action for action in top._actions if isinstance(action, argparse._SubParsersAction)]
    assert list(commands.choices) == list(cli.COMMANDS)
    assert list(commands.choices.values()) == subs
    for name, sub in commands.choices.items():
        flags = [action.option_strings for action in sub._actions]
        declared = [entry[0] if isinstance(entry, tuple) else entry for entry in cli.COMMANDS[name][1]]
        assert flags == [["-h", "--help"], ["--n"], *([flag] for flag in declared), ["--format"], ["--out"]]
        assert (["--limit-perms"] in flags) == (name == "count")


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--li", "6", "--n", "3", "--r", "2"),
        ("count", "--n=3", "--r=2"),
        ("count", "--n", "4", "--r", "2", "--n", "3"),
    ],
    ids=" ".join,
)
def test_other_spellings_give_the_canonical_report(capsys, argv):
    assert run(capsys, *argv) == run(capsys, "count", "--n", "3", "--r", "2")

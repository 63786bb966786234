"""The benchmark's workloads and the exact-value oracle for their reports.

Each workload is a fixed list of ``ekr-matchings`` invocations.  The seed
only chooses program inputs: ``--seed`` of the sampled sweeps and the star
``--edge`` of ``double-count`` and ``center-map``.  Every report is checked
against closed forms computed here, independently of the library, and its
SHA-256 is compared with the digest recorded in ``expected.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

DEFAULT_SEED = 1729  # the CLI's own default sampling seed
WORKLOADS = ("search-ladder", "perm-sweep", "certify-large")
EXPECTED_PATH = Path(__file__).with_name("expected.json")


@dataclass(frozen=True)
class Invocation:
    """One CLI call: a stable id, its argv, and the sizes the oracle needs."""

    id: str
    argv: tuple[str, ...]
    n: int
    r: int | None = None
    seeded: bool = False  # the seed changes this invocation's inputs
    out: str | None = None  # the report goes to this file instead of stdout
    extra: dict[str, Any] = field(default_factory=dict)


def star_edge(seed: int, two_n: int) -> tuple[int, int]:
    """The seed's star edge among the vertices 1..two_n."""
    a, b = sorted(random.Random(seed).sample(range(1, two_n + 1), 2))
    return a, b


def invocations(workload: str, seed: int, workdir: Path) -> list[Invocation]:
    """The workload's invocations, in order; --out files go under workdir."""
    if workload == "search-ladder":
        ladder = [(3, 2, True), (4, 2, True), (4, 3, True), (5, 2, True),
                  (5, 3, False), (5, 3, True), (5, 4, False)]
        return [
            Invocation(
                id=f"{'enum' if enum else 'bound'}-n{n}r{r}",
                argv=("ekr-search", "--n", str(n), "--r", str(r))
                + (("--enumerate-max",) if enum else ()),
                n=n,
                r=r,
                extra={"enumerate": enum},
            )
            for n, r, enum in ladder
        ]
    if workload == "perm-sweep":
        edge = star_edge(seed, 8)
        edge_arg = f"{edge[0]},{edge[1]}"
        return [
            Invocation("count-n4r3", ("count", "--n", "4", "--r", "3"), 4, 3),
            Invocation("count-n5r2", ("count", "--n", "5", "--r", "2"), 5, 2),
            Invocation("double-count-n4r3", ("double-count", "--n", "4", "--r", "3", "--edge", edge_arg),
                       4, 3, seeded=True, extra={"edge": list(edge)}),
            Invocation("center-map-n4r3", ("center-map", "--n", "4", "--r", "3", "--edge", edge_arg),
                       4, 3, seeded=True, extra={"edge": list(edge)}),
            Invocation("goodness-n4", ("verify-goodness", "--n", "4"), 4, extra={"samples": 0}),
            Invocation("lemma-n4", ("lemma-identities", "--n", "4", "--samples", "0"), 4,
                       extra={"samples": 0}),
        ]
    if workload == "certify-large":
        cert = str(workdir / "kneser-n100.json")
        construct = str(workdir / "construct-n150.json")
        pairs = "10:3,20:5,40:9,80:20"
        return [
            Invocation("kneser-cert-n100", ("kneser-cert", "--n", "100", "--out", cert), 100, out=cert),
            Invocation("kneser-verify-n100", ("kneser-verify", "--cert", cert), 100),
            Invocation("construct-n150", ("construct", "--n", "150", "--out", construct), 150,
                       out=construct),
            Invocation("goodness-n30", ("verify-goodness", "--n", "30", "--samples", "1000",
                                        "--seed", str(seed)),
                       30, seeded=True, extra={"samples": 1000, "seed": seed}),
            Invocation("lemma-n20", ("lemma-identities", "--n", "20", "--samples", "500",
                                     "--seed", str(seed)),
                       20, seeded=True, extra={"samples": 500, "seed": seed}),
            Invocation("count-pairs", ("count", "--pairs", pairs, "--limit-perms", "0"), 0,
                       extra={"pairs": [(10, 3), (20, 5), (40, 9), (80, 20)]}),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def load_expected() -> dict[str, Any]:
    """Digests and exact counts recorded on the default seed."""
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# Closed forms, computed here rather than taken from the library under test.

def _exact(numerator: int, denominator: int) -> int:
    value, rest = divmod(numerator, denominator)
    if rest:
        raise ArithmeticError(f"{numerator}/{denominator} is not an integer")
    return value


def chi(n: int, r: int) -> int:
    """r-matchings of K_{2n}: (2n)! / (2^r r! (2n-2r)!)."""
    return _exact(math.factorial(2 * n), 2**r * math.factorial(r) * math.factorial(2 * n - 2 * r))


def phi(n: int, r: int) -> int:
    """r-matchings through one edge: r * chi / n(2n-1), by edge transitivity."""
    return _exact(r * chi(n, r), n * (2 * n - 1))


def q(n: int, r: int) -> int:
    """Permutations compatible with one r-matching: stars make q * phi = r (2n)! tight."""
    return _exact(r * math.factorial(2 * n), phi(n, r))


def _expect(problems: list[str], name: str, got: Any, want: Any) -> None:
    if got != want:
        problems.append(f"{name}: got {got!r}, expected {want!r}")


def _check_count_row(problems: list[str], row: dict[str, Any], n: int, r: int, oracle: bool) -> None:
    prefix = f"n{n}r{r}."
    _expect(problems, prefix + "chi", row.get("chi"), chi(n, r))
    _expect(problems, prefix + "phi", row.get("phi"), phi(n, r))
    if r <= n - 1:
        _expect(problems, prefix + "q_formula", row.get("q_formula"), q(n, r))
        _expect(problems, prefix + "q_oracle", row.get("q_oracle"), q(n, r) if oracle else None)


def _sweep_size(inv: Invocation) -> int:
    samples = inv.extra["samples"]
    return samples if samples else math.factorial(2 * inv.n)


def check_report(inv: Invocation, code: int | None, data: bytes) -> list[str]:
    """Every way the report misses its closed form; empty when it is right."""
    if code != 0:
        return [f"exit code {code!r}"]
    try:
        report = json.loads(data)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    try:
        return _check(inv, report)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        return [f"malformed report: {exc!r}"]


def _check(inv: Invocation, report: Any) -> list[str]:
    problems: list[str] = []
    if "passed" in report:
        _expect(problems, "passed", report["passed"], True)
    command = inv.argv[0]
    n, r = inv.n, inv.r
    if command == "ekr-search":
        _expect(problems, "status", report.get("status"), "proven")
        _expect(problems, "chi", report.get("chi"), chi(n, r))
        _expect(problems, "phi", report.get("phi"), phi(n, r))
        _expect(problems, "max", report.get("max"), phi(n, r))
        if inv.extra["enumerate"] and r <= n - 1:
            _expect(problems, "maximum_families", report.get("maximum_families"), math.comb(2 * n, 2))
            _expect(problems, "all_stars", report.get("all_stars"), True)
    elif command == "count":
        if "pairs" in inv.extra:
            rows = report.get("instances") or []
            _expect(problems, "instances", [(x.get("n"), x.get("r")) for x in rows],
                    [tuple(p) for p in inv.extra["pairs"]])
            for row, (pn, pr) in zip(rows, inv.extra["pairs"]):
                _check_count_row(problems, row, pn, pr, oracle=False)
        else:
            _check_count_row(problems, report, n, r, oracle=True)
    elif command == "double-count":
        weighted = q(n, r) * phi(n, r)
        _expect(problems, "edge", report.get("edge"), inv.extra["edge"])
        _expect(problems, "family_size", report.get("family_size"), phi(n, r))
        _expect(problems, "q_value", report.get("q_value"), q(n, r))
        _expect(problems, "weighted_count", report.get("weighted_count"), weighted)
        _expect(problems, "bound", report.get("bound"), r * math.factorial(2 * n))
        _expect(problems, "tight", report.get("tight"), True)
        _expect(problems, "sweep_total", report.get("sweep_total"), weighted)
        _expect(problems, "sweep_max_trace", report.get("sweep_max_trace"), r)
    elif command == "center-map":
        perms = math.factorial(2 * n)
        _expect(problems, "edge", report.get("edge"), inv.extra["edge"])
        _expect(problems, "permutations", report.get("permutations"), perms)
        _expect(problems, "saturated", report.get("saturated"), perms)
        _expect(problems, "violation_count", report.get("violation_count"), 0)
        _expect(problems, "center", report.get("center"), inv.extra["edge"])
    elif command == "verify-goodness":
        perms = _sweep_size(inv)
        _expect(problems, "r", report.get("r"), n - 1)
        _expect(problems, "seed", report.get("seed"), inv.extra.get("seed"))
        _expect(problems, "permutations_checked", report.get("permutations_checked"), perms)
        _expect(problems, "intervals_checked", report.get("intervals_checked"), perms * n * (2 * n - 1))
        _expect(problems, "counterexamples", report.get("counterexamples"), [])
    elif command == "lemma-identities":
        perms = _sweep_size(inv)
        _expect(problems, "seed", report.get("seed"), inv.extra.get("seed"))
        _expect(problems, "permutations_checked", report.get("permutations_checked"), perms)
        _expect(problems, "checks_run", report.get("checks_run"), {
            "adjacent_involution": perms * (2 * n - 1),
            "reflection_involution": perms * (n - 1),
            "boundary_coincidence": perms,
            "last_part_preserved": perms * (n - 1),
            "composition": perms * max(0, n - 3),
        })
        _expect(problems, "failures", report.get("failures"), [])
    elif command == "kneser-cert":
        vertices = {(a, b) for a in range(1, 2 * n + 1) for b in range(a + 1, 2 * n + 1)}
        order = [tuple(v) for v in report.get("order", [])]
        _expect(problems, "m", report.get("m"), 2 * n)
        _expect(problems, "k", report.get("k"), n - 2)
        _expect(problems, "order_length", len(order), len(vertices))
        _expect(problems, "order_covers_vertices", set(order) == vertices, True)
    elif command == "kneser-verify":
        _expect(problems, "m", report.get("m"), 2 * n)
        _expect(problems, "k", report.get("k"), n - 2)
        _expect(problems, "vertices", report.get("vertices"), math.comb(2 * n, 2))
        _expect(problems, "valid", report.get("valid"), True)
    elif command == "construct":
        parts = report.get("parts", [])
        flat = [e for part in parts for e in part]
        _expect(problems, "sigma", report.get("sigma"), list(range(1, 2 * n + 1)))
        _expect(problems, "root", report.get("root"), 2 * n)
        _expect(problems, "part_count", len(parts), 2 * n - 1)
        _expect(problems, "part_sizes", {len(part) for part in parts}, {n})
        _expect(problems, "distinct_edges", len({tuple(e) for e in flat}), math.comb(2 * n, 2))
        _expect(problems, "cyclic_order", report.get("cyclic_order"), flat)
    else:
        problems.append(f"no oracle for {command!r}")
    return problems


def report_counts(inv: Invocation, data: bytes) -> dict[str, int]:
    """Exact counts a report states, for comparison between runs."""
    try:
        report = json.loads(data)
    except ValueError:
        return {}
    keys = ("maximum_families", "q_oracle", "sweep_total", "permutations",
            "permutations_checked", "intervals_checked", "vertices")
    return {f"{inv.id}.{key}": report[key] for key in keys if isinstance(report.get(key), int)}

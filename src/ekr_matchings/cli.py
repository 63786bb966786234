"""Command-line interface: one subcommand per verification task.

Every subcommand emits a machine-readable report (json, csv, or text) and
exits 0 when all claims checked out, 1 when a claim was falsified, 2 on
usage or input errors, and 3 when a search budget ran out before a proof.
Exit code 4 is an internal error: an internal consistency check failed
(ArithmeticError), the r nested generators of core.iter_matchings ran
past Python's recursion limit (RecursionError), or memory ran out
(MemoryError).  None of them says anything about the claims, so none is
reported as falsified; one "internal error: ..." line goes to stderr and
no report is written.
Reports never contain wall-clock data, so identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from .core import (
    Edge,
    Parameters,
    chi,
    first_matching,
    iter_indented,
    lists_each_edge_once,
    make_edge,
    phi,
)
from .baranyai import (
    MAX_COUNTEREXAMPLES,
    Permutation,
    rooted_order,
    rotation_classes,
    sample_permutations,
    shift,
    verify_goodness,
)
from .katona import q_bruteforce, q_formula, verify_double_count
from .ekr_search import (
    DEFAULT_MAX_NODES,
    DEFAULT_MAX_SECONDS,
    STATUS_PROVEN,
    SearchBudget,
    max_intersecting,
)
from .kneser import (
    HamPowerCertificate,
    certificate_from_json,
    ham_power_certificate,
    verify_ham_power,
)
from .transposition_lab import SWAP_IDENTITIES, center_map, swap_identities
# looked up only by the benchmark tracer, see ENTRY_POINTS in bench/spans.py;
# none of these nine is called here any more, so their spans read 0
from .baranyai import all_permutations, baranyai_edge, cyclic_order  # noqa: F401
from .core import star_family  # noqa: F401
from .ekr_search import is_star  # noqa: F401
from .kneser import kneser_graph  # noqa: F401
from .transposition_lab import composition_identity, reflect_swap, transpose_adjacent  # noqa: F401

__all__ = ["dispatch", "emit_report", "main", "parse_args"]

EXIT_PASS = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

DEFAULT_SEED = 1729

FORMATS = ("json", "csv", "text")


class CommandResult(NamedTuple):
    payload: dict[str, Any]
    checks: dict[str, bool]
    budget_exhausted: bool = False
    bare_payload: bool = False


def _parse_edge(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected an edge as 'a,b', got {text!r}")
    try:
        u, v = (int(p) for p in parts)
    except ValueError:
        raise ValueError(f"edge endpoints must be integers, got {text!r}") from None
    return make_edge(u, v)


def _parse_sigma(text: str, two_n: int) -> Permutation:
    try:
        images = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"sigma must be a comma-separated image list, got {text!r}") from None
    if len(images) != two_n:
        raise ValueError(f"sigma has {len(images)} images, expected 2n = {two_n}")
    return Permutation(images)


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    pairs = []
    for chunk in text.split(","):
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ValueError(f"expected 'n:r' pairs, got {chunk!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(f"pair entries must be integers, got {chunk!r}") from None
    return pairs


def _require_n(config: argparse.Namespace) -> int:
    if config.n is None:
        raise ValueError("this subcommand requires --n")
    if config.n < 1:
        raise ValueError(f"n must be a positive integer, got {config.n}")
    return config.n


def _sigma_or_identity(config: argparse.Namespace, two_n: int) -> Permutation:
    if config.sigma is None:
        return Permutation.identity(two_n)
    return _parse_sigma(config.sigma, two_n)


def _instances(config: argparse.Namespace) -> list[tuple[int, int]]:
    if config.pairs is not None:
        return _parse_pairs(config.pairs)
    if config.n is None or config.r is None:
        raise ValueError("this subcommand requires --n and --r (or --pairs)")
    return [(config.n, config.r)]


def _over_instances(config: argparse.Namespace, run: Callable[[int, int], CommandResult]) -> CommandResult:
    """Run every requested (n, r) instance and merge the per-instance results.

    A single instance reports its row at the top level.  A sweep reports
    the rows under "instances" and suffixes each check name with _n{n}_r{r}.
    """
    results = [(n, r, run(n, r)) for n, r in _instances(config)]
    if len(results) == 1:
        return results[0][2]
    rows = [result.payload for _, _, result in results]
    checks = {
        f"{name}_n{n}_r{r}": ok
        for n, r, result in results
        for name, ok in result.checks.items()
    }
    exhausted = any(result.budget_exhausted for _, _, result in results)
    return CommandResult({"instances": rows}, checks, exhausted)


def _sigma_sample(
    config: argparse.Namespace, two_n: int
) -> tuple[Iterable[tuple[int, ...]], str, int]:
    """Image tuples of the permutations swept, drawn as read, a label, and their count.

    An exhaustive sweep, the default, streams one tuple per shift orbit
    and counts (2n)!.
    """
    samples = config.samples
    if samples < 0:
        raise ValueError(f"--samples must be nonnegative, got {samples}")
    if config.sigma is not None:
        return [_parse_sigma(config.sigma, two_n).images], "given", 1
    if samples == 0:
        return rotation_classes(two_n), "exhaustive", math.factorial(two_n)
    return (sigma.images for sigma in sample_permutations(two_n, samples, config.seed)), "sampled", samples


def _first_failures(
    sigmas: Iterable[tuple[int, ...]], failing: Sequence[Any], cap: int
) -> list[tuple[tuple[int, ...], Any]]:
    """(images, item) for each failing item at each permutation in turn, the first cap pairs.

    Reads only the permutations it names, and none when nothing fails.
    """
    if not failing:
        return []
    return list(itertools.islice(((images, item) for images in sigmas for item in failing), cap))


def _cmd_construct(config: argparse.Namespace) -> CommandResult:
    n = _require_n(config)
    sigma = _sigma_or_identity(config, 2 * n)
    if config.c is not None:
        sigma = shift(sigma, config.c)
    order = rooted_order(sigma)
    covered = [e for part in order.parts for e in part]
    partitioned = lists_each_edge_once(2 * n, covered)
    payload = {
        "n": n,
        "sigma": list(sigma.images),
        "root": order.root,
        # top-level values stay lists: the csv and text formats flatten only lists and dicts
        "parts": list(order.parts),
        "cyclic_order": covered,
    }
    return CommandResult(payload, {"parts_partition_edge_set": partitioned})


def _cmd_verify_goodness(config: argparse.Namespace) -> CommandResult:
    n = _require_n(config)
    sigmas, mode, count = _sigma_sample(config, 2 * n)
    report = verify_goodness(n, r=config.r)
    payload = {
        "n": n,
        "r": report.r,
        "mode": mode,
        "seed": config.seed if mode == "sampled" else None,
        "permutations_checked": count,
        "intervals_checked": count * report.intervals_checked,
        "counterexamples": [
            {"sigma": list(images), "position": position}
            for images, position in _first_failures(sigmas, report.failing, MAX_COUNTEREXAMPLES)
        ],
    }
    return CommandResult(payload, {"all_intervals_are_matchings": report.passed})


def _count_instance(n: int, r: int, config: argparse.Namespace) -> CommandResult:
    params = Parameters(n, r)
    chi_value = chi(params)
    phi_value = phi(params)
    row: dict[str, Any] = {"n": n, "r": r, "chi": chi_value, "phi": phi_value}
    checks = {"phi_identity": phi_value * (n * (2 * n - 1)) == r * chi_value}
    if r <= n - 1:
        count = q_formula(params)
        row["q_formula"] = count.formula_value
        row["q_split"] = list(count.split)
        if 2 * n <= config.limit_perms:
            oracle = q_bruteforce(first_matching(r), params)
            row["q_oracle"] = oracle
            checks["q_formula_matches_oracle"] = oracle == count.formula_value
        else:
            row["q_oracle"] = None
    else:
        row["q_formula"] = None
        row["q_split"] = None
        row["q_oracle"] = None
    return CommandResult(row, checks)


def _cmd_count(config: argparse.Namespace) -> CommandResult:
    return _over_instances(config, lambda n, r: _count_instance(n, r, config))


def _star(config: argparse.Namespace) -> tuple[Parameters, Edge]:
    """The parameters and the --edge (default 1,2) of double-count and center-map.

    The library calls check the edge against K_{2n} before anything else.
    """
    n = _require_n(config)
    if config.r is None:
        raise ValueError("this subcommand requires --r")
    return Parameters(n, config.r), _parse_edge(config.edge) if config.edge else (1, 2)


def _cmd_double_count(config: argparse.Namespace) -> CommandResult:
    params, edge = _star(config)
    report = verify_double_count(params, edge)
    payload = {
        "n": params.n,
        "r": params.r,
        "edge": list(edge),
        "family_size": report.family_size,
        "q_value": report.q_value,
        "weighted_count": report.weighted_count,
        "bound": report.bound,
        "tight": report.tight,
        "sweep_total": report.sweep_total,
        "sweep_max_trace": report.sweep_max_trace,
    }
    checks = {
        "bound_holds": report.bound_holds,
        "sweep_sum_matches": report.sweep_matches,
        "trace_sizes_bounded": report.katona_bound_ok,
        # each member lies in sweep_total / phi traces, so the per-member counts
        # equal q exactly when the sum matches
        "member_counts_match_formula": report.sweep_matches,
    }
    return CommandResult(payload, checks)


def _search_instance(n: int, r: int, budget: SearchBudget) -> CommandResult:
    params = Parameters(n, r)
    report = max_intersecting(params, budget)
    row: dict[str, Any] = {
        "n": n,
        "r": r,
        "chi": chi(params),
        "phi": report.phi_value,
        "max": report.max_size,
        "status": report.status,
        # fresh lists: the members' own edge tuples, held past the search, kept
        # about 1 MiB more of its memory resident over a run of searches
        "witness": [[list(e) for e in m.edges] for m in report.witness.members],
        "maximum_families": report.maximum_family_count,
        "all_stars": report.all_maximum_are_stars,
    }
    checks: dict[str, bool] = {}
    if report.max_size > report.phi_value:
        # a verified intersecting family beats the star bound: falsified
        checks["no_family_beats_star_bound"] = False
    if report.proven:
        checks["max_equals_phi"] = report.max_size == report.phi_value
    if report.all_maximum_are_stars is not None:
        row["centers"] = list(report.centers or ())
        checks["all_maximum_are_stars"] = report.all_maximum_are_stars
    if report.maximum_family_count is not None and r <= n - 1:
        # for r = n distinct edges can span the same star, e.g. {1,2} and {3,4} at n = 2;
        # for r <= n - 1 each edge spans its own star (_star_centers), so the key
        # carries the non-star search's verdict
        checks["one_maximum_family_per_edge"] = report.all_maximum_are_stars
    return CommandResult(row, checks, budget_exhausted=report.status != STATUS_PROVEN)


def _cmd_ekr_search(config: argparse.Namespace) -> CommandResult:
    budget = SearchBudget(
        max_nodes=config.max_nodes,
        max_seconds=config.max_seconds,
        enumerate_all_maximum=config.enumerate_max,
    )
    return _over_instances(config, lambda n, r: _search_instance(n, r, budget))


def _cmd_center_map(config: argparse.Namespace) -> CommandResult:
    params, edge = _star(config)
    result = center_map(params, edge)
    payload = {
        "n": params.n,
        "r": params.r,
        "edge": list(edge),
        "permutations": result.total,
        "saturated": result.saturated,
        "violation_count": result.violation_count,
        "center": list(result.constant_edge) if result.constant_edge else None,
        "violations": [
            {"sigma": list(v.images), "reason": v.reason, "trace_size": v.trace_size}
            for v in result.violations
        ],
    }
    checks = {
        "every_permutation_saturated": result.violation_count == 0,
        "center_map_constant": result.is_constant,
        "center_is_star_edge": result.constant_edge == edge,
    }
    return CommandResult(payload, checks)


def _cmd_lemma_identities(config: argparse.Namespace) -> CommandResult:
    n = _require_n(config)
    sigmas, mode, count = _sigma_sample(config, 2 * n)
    if config.j is not None and not 1 <= config.j <= 2 * n - 1:
        raise ValueError(f"--j {config.j} is outside every identity's index range for n={n}")
    # the outcomes compare position maps only, so they are the same for every sigma
    outcomes = list(swap_identities(Permutation.identity(2 * n), config.j))
    failing = [(name, j) for name, j, holds in outcomes if not holds]
    counts = dict.fromkeys(SWAP_IDENTITIES, 0)
    for name, _, _ in outcomes:
        counts[name] += count
    payload = {
        "n": n,
        "mode": mode,
        "seed": config.seed if mode == "sampled" else None,
        "permutations_checked": count,
        "checks_run": counts,
        "failures": [
            {"identity": name, "sigma": list(images), "j": j}
            for images, (name, j) in _first_failures(sigmas, failing, 10)
        ],
    }
    checks = {name: name not in dict(failing) for name, ran in counts.items() if ran}
    return CommandResult(payload, checks)


def _certificate_for(config: argparse.Namespace) -> HamPowerCertificate:
    n = _require_n(config)
    sigma = _parse_sigma(config.sigma, 2 * n) if config.sigma else None
    return ham_power_certificate(n, sigma, config.k)


def _cmd_kneser_cert(config: argparse.Namespace) -> CommandResult:
    certificate = _certificate_for(config)
    payload = {"m": certificate.m, "k": certificate.k, "order": list(certificate.order)}
    return CommandResult(payload, {}, bare_payload=True)


def _cmd_kneser_verify(config: argparse.Namespace) -> CommandResult:
    if config.cert is not None:
        if config.sigma is not None:
            raise ValueError("--sigma generates a certificate, so it cannot be combined with --cert")
        if config.cert == "-":
            text = sys.stdin.read()
        else:
            try:
                with open(config.cert, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as exc:
                raise ValueError(f"cannot read certificate {config.cert!r}: {exc}") from exc
        certificate = certificate_from_json(text)
        if config.k is not None:
            certificate = certificate._replace(k=config.k)
    else:
        certificate = _certificate_for(config)
    # --n with --cert names the m = 2n the loaded certificate must be for
    m = certificate.m if config.n is None else 2 * _require_n(config)
    valid = verify_ham_power(m, certificate)
    payload = {
        "m": certificate.m,
        "k": certificate.k,
        "vertices": len(certificate.order),
        "valid": valid,
    }
    return CommandResult(payload, {"power_certified": valid})


HANDLERS: dict[str, Callable[[argparse.Namespace], CommandResult]] = {
    "construct": _cmd_construct,
    "verify-goodness": _cmd_verify_goodness,
    "count": _cmd_count,
    "double-count": _cmd_double_count,
    "ekr-search": _cmd_ekr_search,
    "center-map": _cmd_center_map,
    "lemma-identities": _cmd_lemma_identities,
    "kneser-cert": _cmd_kneser_cert,
    "kneser-verify": _cmd_kneser_verify,
}


def _flatten_cell(value: Any) -> Any:
    if value is None:
        return ""
    if isinstance(value, (list, dict)):
        return json.dumps(value, separators=(",", ":"))
    return value


def _csv_text(payload: dict[str, Any]) -> str:
    rows = payload.get("instances")
    if not isinstance(rows, list):
        rows = [{k: v for k, v in payload.items() if k not in ("checks",)}]
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({key: _flatten_cell(row.get(key)) for key in columns})
    return buffer.getvalue()


def _text_lines(payload: dict[str, Any]) -> list[str]:
    lines: list[str] = []

    def render(prefix: str, mapping: dict[str, Any]) -> None:
        for key, value in mapping.items():
            if key in ("checks", "passed"):
                continue
            if key == "instances" and isinstance(value, list):
                for row in value:
                    lines.append(f"instance n={row.get('n')} r={row.get('r')}")
                    render("  ", {k: v for k, v in row.items() if k not in ("n", "r")})
                continue
            if isinstance(value, (list, dict)):
                rendered = json.dumps(value, separators=(",", ":"))
                if len(rendered) > 120:
                    rendered = rendered[:117] + "..."
                lines.append(f"{prefix}{key} = {rendered}")
            else:
                lines.append(f"{prefix}{key} = {value}")

    render("", payload)
    for name, passed in payload.get("checks", {}).items():
        lines.append(f"{'PASS' if passed else 'FAIL'}: {name}")
    if "passed" in payload:
        lines.append(f"RESULT: {'PASS' if payload['passed'] else 'FAIL'}")
    return lines


def emit_report(payload: dict[str, Any], fmt: str, out: str | None) -> None:
    """Serialize a report deterministically and write it to out or stdout.

    A json report is written piece by piece as core.iter_indented yields
    it, so its whole text is never held in memory.
    """
    if fmt == "json":
        pieces: Iterable[str] = itertools.chain(iter_indented(payload), ["\n"])
    elif fmt == "csv":
        pieces = [_csv_text(payload)]
    elif fmt == "text":
        pieces = ["\n".join(_text_lines(payload)) + "\n"]
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if out is None:
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)


def dispatch(config: argparse.Namespace) -> tuple[int, dict[str, Any]]:
    """Run one subcommand; returns (exit code, report payload).

    Every report but a bare one is framed here: "command" first, then the
    handler's fields, its checks, and "passed", true exactly when the exit
    code is 0, so a search whose budget ran out has not passed.
    """
    if config.format not in FORMATS:
        raise ValueError(f"unknown format {config.format!r}")
    handler = HANDLERS.get(config.command)
    if handler is None:
        raise ValueError(f"unknown subcommand {config.command!r}")
    result = handler(config)
    if not all(result.checks.values()):
        code = EXIT_FALSIFIED
    elif result.budget_exhausted:
        code = EXIT_BUDGET
    else:
        code = EXIT_PASS
    if result.bare_payload:
        return code, result.payload
    return code, {
        "command": config.command,
        **result.payload,
        "checks": result.checks,
        "passed": code == EXIT_PASS,
    }


OPTIONS: dict[str, dict[str, Any]] = {
    "--n": {"type": int, "help": "half the number of vertices"},
    "--r": {"type": int, "help": "edges per matching"},
    "--sigma": {"help": "comma-separated images, default identity"},
    "--c": {"type": int, "help": "rotate the polygon positions by c first"},
    "--j": {"type": int, "help": "restrict to one swap index"},
    "--samples": {
        "type": int,
        "default": 0,
        "help": "random permutations to check; 0, the default, sweeps all of S_{2n}",
    },
    "--seed": {"type": int, "default": DEFAULT_SEED, "help": "sampling seed"},
    "--limit-perms": {"type": int, "default": 10, "help": "largest 2n for the brute-force oracle"},
    "--pairs": {"help": "sweep instances, e.g. '2:1,3:1,3:2'"},
    "--edge": {"help": "star edge as 'a,b', default 1,2"},
    "--enumerate-max": {
        "action": "store_true",
        "help": "enumerate every maximum family, not just one witness",
    },
    "--max-nodes": {"type": int, "default": DEFAULT_MAX_NODES, "help": "search node budget"},
    "--max-seconds": {
        "type": float,
        "default": DEFAULT_MAX_SECONDS,
        "help": "search wall-clock budget",
    },
    "--k": {"type": int, "help": "claimed power, default n-2"},
    "--cert": {"help": "certificate file, '-' for stdin"},
    "--format": {"choices": FORMATS, "default": "json", "help": "report format"},
    "--out": {"help": "write the report to this file"},
}
COMMANDS: dict[str, tuple[str, list[str | tuple[str, str]]]] = {
    "construct": ("rotational partition and cyclic edge order", ["--sigma", "--c"]),
    "verify-goodness": (
        "check that short cyclic-order intervals are matchings",
        [("--r", "interval length, default n-1"), ("--sigma", "check a single permutation"),
         "--samples", "--seed"],
    ),
    "count": (
        "matching counts and the compatibility constant",
        ["--r", "--pairs", "--limit-perms"],
    ),
    "double-count": (
        "the counting bound for a star family, with exhaustive sweep",
        ["--r", "--edge"],
    ),
    "ekr-search": (
        "exact maximum intersecting family search",
        ["--r", "--pairs", "--enumerate-max", "--max-nodes", "--max-seconds"],
    ),
    "center-map": (
        "trace every permutation against a star family",
        ["--r", "--edge"],
    ),
    "lemma-identities": (
        "involution and composition identities",
        [("--sigma", "check a single permutation"), "--j", "--samples", "--seed"],
    ),
    "kneser-cert": ("emit a Hamiltonian-power certificate", ["--sigma", "--k"]),
    "kneser-verify": (
        "verify a Hamiltonian-power certificate",
        ["--cert", ("--sigma", "generate from this permutation instead"), "--k"],
    ),
}


def _declare_options(parser: argparse.ArgumentParser, name: str) -> None:
    """Declare subcommand name's options on parser: --n, its COMMANDS flags, --format, --out.

    OPTIONS declares each flag once.  COMMANDS gives each subcommand its
    summary and the other flags it takes; a (flag, help) entry keeps the
    flag's declaration and gives it that subcommand's help text.  Argparse
    derives each dest from the flag.
    """
    for entry in ["--n", *COMMANDS[name][1], "--format", "--out"]:
        flag, help_text = entry if isinstance(entry, tuple) else (entry, OPTIONS[entry]["help"])
        parser.add_argument(flag, **{**OPTIONS[flag], "help": help_text})


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser: every subcommand, each with its options.

    parse_args falls back to it for whatever one subcommand's parser does
    not settle alone, so it prints the top-level usage, help and choice
    errors, and an "unrecognized arguments" error names only the tokens
    the subcommand does not take.
    """
    parser = argparse.ArgumentParser(
        prog="ekr-matchings",
        description="Construct and verify intersecting families of matchings in K_{2n}.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _) in COMMANDS.items():
        _declare_options(subparsers.add_parser(name, help=summary), name)
    return parser


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """The configuration argv asks for; argparse prints help or an error and exits otherwise.

    When argv starts with a subcommand, one parser with that subcommand's
    options reads the rest, the same parse its subparser would make.  Only
    what that leaves to the top level (no subcommand first, or tokens left
    over) builds build_parser(), which prints the top-level usage, help
    and errors.
    """
    if argv and argv[0] in COMMANDS:
        parser = argparse.ArgumentParser(prog="ekr-matchings " + argv[0])
        _declare_options(parser, argv[0])
        config, rest = parser.parse_known_args(argv[1:])
        if not rest:
            config.command = argv[0]
            return config
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    config = parse_args(argv)
    try:
        code, payload = dispatch(config)
        emit_report(payload, config.format, config.out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, RecursionError, MemoryError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return code

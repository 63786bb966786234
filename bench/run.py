"""Benchmark of the ekr-matchings CLI, end to end and per layer.

Usage (from the repository root, standard library only):

    python3 bench/run.py --workload search-ladder [--seed 1729] [--seconds 40] [--trace 0]
    python3 bench/run.py --record

A run starts fresh child interpreters, one at a time.  Each child imports
``ekr_matchings.cli`` from ``src/`` and calls ``cli.main(argv)`` for every
invocation of the workload, in order (a closed loop with one caller).
After the first pass, another starts while it would end within
``--seconds``; the metrics are medians over the passes.  Set-up is also
sampled by children that only import the CLI.

With ``--trace 0`` the run prints the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it adds one traced pass, whose wrappers time the calls
into each layer, and prints the per-layer metrics; a layer the workload
never calls reads 0.  Every report is checked against closed forms and,
where its inputs match the recorded ones, against the SHA-256 recorded in
``expected.json``; ``--record`` records those on the default seed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Each run also writes a record with its
raw samples to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

OUT = BENCH / "out"
SETUP_PROBES = 6  # set-up samples per run, besides one per pass
RUN_LIMIT_S = 170.0  # a run gives up before the 180 s it is allowed
RECORD_LIMIT_S = 900.0


class HarnessError(Exception):
    """The benchmark itself could not complete a run."""


class Runner:
    """Starts child interpreters against one deadline."""

    def __init__(self, workdir: Path, limit_s: float):
        self.workdir = workdir
        self.limit_s = limit_s
        self.deadline = time.monotonic() + limit_s

    def child(self, *args: str) -> dict:
        started = time.monotonic()
        remaining = self.deadline - started
        if remaining <= 0:
            raise HarnessError(f"run exceeded {self.limit_s} s")
        command = [sys.executable, "-I", str(BENCH / "child.py"), str(ROOT), *args]
        try:
            proc = subprocess.run(command, capture_output=True, text=True, timeout=remaining, cwd=ROOT)
        except subprocess.TimeoutExpired:
            raise HarnessError(f"run exceeded {self.limit_s} s") from None
        if proc.returncode != 0:
            raise HarnessError(f"child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        sys.stderr.write(proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        result["setup_s"] = result["imported"] - started
        return result

    def passes(self, workload: str, seed: int, seconds: float) -> list[dict]:
        """One pass, then more while another of the same length fits in `seconds`."""
        done: list[dict] = []
        begin = time.monotonic()
        while not done or (time.monotonic() - begin) * (len(done) + 1) / len(done) <= seconds:
            done.append(self.child(workload, str(seed), str(self.workdir), "0"))
        return done

    def traced_pass(self, workload: str, seed: int) -> dict:
        return self.child(workload, str(seed), str(self.workdir), "1")

    def setup_probes(self) -> list[float]:
        return [self.child("--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]


def judge(pass_result: dict, invs: list[workloads.Invocation], seed: int, expected: dict) -> list[str]:
    """Failures of one pass, one line per failed invocation."""
    seeded = {inv.id for inv in invs if inv.seeded}
    failures = []
    for inv in pass_result["invocations"]:
        problems = list(inv["problems"])
        if inv["error"]:
            problems.append("raised " + inv["error"].strip().splitlines()[-1])
        recorded = expected["digests"].get(inv["id"])
        if (seed == workloads.DEFAULT_SEED or inv["id"] not in seeded) and inv["sha256"] != recorded:
            problems.append(f"sha256 {inv['sha256']} differs from the recorded {recorded}")
        if problems:
            failures.append(f"{inv['id']}: " + "; ".join(problems))
    return failures


def tally(results: list[dict], invs: list[workloads.Invocation], seed: int, expected: dict) -> tuple[list[str], int]:
    """(failure lines, invocations attempted) over all passes of a run."""
    failures = [f"pass {i}: {line}" for i, p in enumerate(results) for line in judge(p, invs, seed, expected)]
    return failures, sum(len(p["invocations"]) for p in results)


def pass_counts(pass_result: dict) -> dict[str, int]:
    """Exact counts of one pass: those its reports state, and the traced ones."""
    counts: dict[str, int] = {}
    for inv in pass_result["invocations"]:
        counts.update(inv["counts"])
    counts.update(spans.exact_counts(pass_result.get("layer_metrics", {})))
    return counts


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return None


def _machine() -> dict:
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }


def run(workload: str, seed: int, seconds: float, traced: bool, runner: Runner) -> tuple[dict, dict]:
    """Measure one workload; returns (the last-line result, the run record)."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = workloads.load_expected()
    record = {**_machine(), "seed": seed, "workloads": [workload], "seconds": seconds,
              "trace": int(traced), "started_utc": datetime.now(timezone.utc).isoformat()}
    probes = [] if traced else runner.setup_probes()
    passes = runner.passes(workload, seed, seconds)
    traced_pass = runner.traced_pass(workload, seed) if traced else None
    everything = passes + ([traced_pass] if traced_pass else [])

    invs = workloads.invocations(workload, seed, runner.workdir)
    failures, attempted = tally(everything, invs, seed, expected)
    samples = {
        "wall_s": [p["end"] - p["start"] for p in passes],
        "setup_s": probes + [p["setup_s"] for p in passes],
        "peak_rss_mib": [p["peak_rss_kib"] / 1024 for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "invocation_s": [{inv["id"]: inv["seconds"] for inv in p["invocations"]} for p in passes],
    }
    counts = [pass_counts(p) for p in everything]
    recorded_counts = expected["exact_counts"].get(workload, {})
    count_diffs = {name: [recorded_counts.get(name), value] for name, value in counts[-1].items()
                   if recorded_counts.get(name) != value}

    if traced_pass is None:
        values = {name: statistics.median(samples[name]) for name in ("wall_s", "setup_s", "peak_rss_mib")}
        names = declared["end_to_end"]
    else:
        values = dict.fromkeys((m["name"] for m in declared["per_layer"]), 0)
        values.update(traced_pass["layer_metrics"])
        values["process.cpu_s"] = statistics.median(samples["cpu_s"])
        values["trace.overhead_s"] = (traced_pass["end"] - traced_pass["start"]) - statistics.median(samples["wall_s"])
        names = declared["per_layer"]
    undeclared = set(values) - {m["name"] for m in names}
    if undeclared:
        raise HarnessError(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}

    record.update({
        "loadavg_end": os.getloadavg(),
        "passes": len(passes),
        "samples": samples,
        "metrics": metrics,
        "fail_ratio": len(failures) / attempted,
        "failures": failures,
        "invocations": [p["invocations"] for p in everything],
        "exact_counts": counts[-1],
        "exact_counts_same_in_every_pass": all(counts[-1].items() >= c.items() for c in counts),
        "exact_counts_differing_from_recorded": count_diffs,
    })
    if traced_pass is not None:
        record["spans"] = traced_pass["spans"]
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    return result, record


def write_record(record: dict, workload: str, seed: int, traced: bool) -> Path:
    OUT.mkdir(exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%f")
    path = OUT / f"{workload}-seed{seed}-trace{int(traced)}-{stamp}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def print_summary(workload: str, result: dict, record: dict, path: Path) -> None:
    print(f"{workload}: seed {record['seed']}, {record['passes']} pass(es), record in {path.relative_to(ROOT)}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  fail_ratio = {record['fail_ratio']:.6g} ({result['failed']}/{result['attempted']} invocations failed)")
    for line in record["failures"]:
        print(f"  FAIL {line}", file=sys.stderr)
    if not record["exact_counts_same_in_every_pass"]:
        print("  exact counts differ between the passes of this run", file=sys.stderr)
    if record["exact_counts_differing_from_recorded"]:
        print(f"  exact counts differ from the recorded ones: {record['exact_counts_differing_from_recorded']}",
              file=sys.stderr)


def record_expected(runner: Runner) -> None:
    """Record report digests and exact counts on the default seed."""
    seed = workloads.DEFAULT_SEED
    expected: dict = {"seed": seed, "digests": {}, "exact_counts": {}}
    for workload in workloads.WORKLOADS:
        plain, traced = runner.passes(workload, seed, 0)[0], runner.traced_pass(workload, seed)
        for a, b in zip(plain["invocations"], traced["invocations"]):
            if a["problems"] or a["error"] or a["sha256"] != b["sha256"]:
                raise HarnessError(f"{a['id']} is wrong or changes under tracing; nothing recorded")
            expected["digests"][a["id"]] = a["sha256"]
        expected["exact_counts"][workload] = pass_counts(traced)
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"recorded {workloads.EXPECTED_PATH.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0, help="measure passes for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="re-record expected.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ekr_matchings" / "cli.py").is_file():
        print(f"error: no ekr_matchings source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workdir, RECORD_LIMIT_S if args.record else RUN_LIMIT_S)
        if args.record:
            record_expected(runner)
            return 0
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace), runner)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = write_record(record, args.workload, args.seed, bool(args.trace))
    print_summary(args.workload, result, record, path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

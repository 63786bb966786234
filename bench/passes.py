"""The body of one benchmark pass; child.py runs it in a fresh interpreter."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import resource
import time
import traceback
import tracemalloc
from pathlib import Path

import spans as bench_spans
import workloads
from ekr_matchings import cli


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _list_mib(two_n: int) -> float:
    """Memory held by list(all_permutations(two_n)), as the CLI builds it."""
    tracemalloc.start()
    try:
        held = list(cli.all_permutations(two_n))
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del held
    return current / 2**20


def run_pass(invs: list[workloads.Invocation], traced: bool) -> dict:
    """Call cli.main once per invocation, in order, then check every report."""
    for inv in invs:
        if inv.out is not None:  # no report may be left over from an earlier pass
            Path(inv.out).unlink(missing_ok=True)
    tracer = bench_spans.Tracer() if traced else None
    captured: list[tuple[int | None, str, str | None, float]] = []
    if tracer is not None:
        tracer.install()
    try:
        start = time.monotonic()
        for inv in invs:
            if tracer is not None:
                tracer.invocation = inv.id
            buffer = io.StringIO()
            error = None
            called = time.monotonic()
            try:
                with contextlib.redirect_stdout(buffer):
                    code = cli.main(list(inv.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                code, error = None, traceback.format_exc()
            captured.append((code, buffer.getvalue(), error, time.monotonic() - called))
        end = time.monotonic()
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        cpu = _cpu_seconds()
    finally:
        if tracer is not None:
            tracer.uninstall()

    results = []
    for inv, (code, text, error, seconds) in zip(invs, captured):
        data = text.encode("utf-8")
        if inv.out is not None and code == 0:
            try:
                data = Path(inv.out).read_bytes()
            except OSError:
                data = b""
        results.append({
            "id": inv.id,
            "exit": code,
            "seconds": seconds,
            "error": error,
            "sha256": workloads.digest(data),
            "bytes": len(data),
            "problems": workloads.check_report(inv, code, data),
            "counts": workloads.report_counts(inv, data) if code == 0 else {},
        })
    out = {
        "start": start,
        "end": end,
        "peak_rss_kib": peak_kib,
        "cpu_s": cpu,
        "invocations": results,
    }
    if tracer is not None:
        spans = [dataclasses.asdict(span) for span in tracer.spans]
        metrics = bench_spans.layer_metrics(spans)
        metrics["cli.report_bytes"] = sum(r["bytes"] for r in results)
        sizes = {s["info"]["two_n"] for s in spans if s["name"] == "cli.all_permutations"}
        metrics["cli.all_permutations.mib"] = sum(_list_mib(two_n) for two_n in sizes)
        out["spans"] = spans
        out["layer_metrics"] = metrics
    return out

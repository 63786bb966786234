"""Spans around the calls into each layer, recorded from outside the library.

The traced pass replaces, for its duration only, the names a calling module
looks up (``cli.max_intersecting``, ``katona.compatible_member_keys``, ...)
with timing wrappers, and puts the originals back afterwards.  A layer entry
point gets one span per call.  A hot per-permutation function instead adds
its call count and summed time to the innermost open span, so memory stays
bounded on sweeps of a million calls.  Spans stay in memory until the pass
ends.
"""

from __future__ import annotations

import importlib
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

PACKAGE = "ekr_matchings"

# (calling module, looked-up name, span name, kind); kind "hot" aggregates
# on the enclosing span, "gen" times a generator until it is exhausted.
ENTRY_POINTS: tuple[tuple[str, str, str, str], ...] = (
    ("cli", "main", "cli.main", "span"),
    ("cli", "emit_report", "cli.emit_report", "span"),
    ("cli", "all_permutations", "cli.all_permutations", "gen"),
    ("ekr_search", "enumerate_matchings", "core.enumerate_matchings", "span"),
    ("core", "enumerate_matchings", "core.enumerate_matchings", "span"),
    ("cli", "star_family", "core.star_family", "span"),
    ("cli", "max_intersecting", "ekr_search.max_intersecting", "span"),
    ("ekr_search", "intersection_graph", "ekr_search.intersection_graph", "span"),
    ("cli", "is_star", "ekr_search.is_star", "span"),
    ("ekr_search", "is_star", "ekr_search.is_star", "span"),
    ("cli", "q_bruteforce", "katona.q_bruteforce", "span"),
    ("cli", "verify_double_count", "katona.verify_double_count", "span"),
    ("katona", "compatible_member_keys", "katona.compatible_member_keys", "hot"),
    ("transposition_lab", "compatible_member_keys", "katona.compatible_member_keys", "hot"),
    ("cli", "center_map", "transposition_lab.center_map", "span"),
    ("cli", "transpose_adjacent", "transposition_lab.swaps", "hot"),
    ("cli", "reflect_swap", "transposition_lab.swaps", "hot"),
    ("cli", "composition_identity", "transposition_lab.swaps", "hot"),
    ("cli", "verify_goodness", "baranyai.verify_goodness", "span"),
    ("cli", "sample_permutations", "baranyai.sample_permutations", "span"),
    ("cli", "rooted_order", "baranyai.rooted_order", "span"),
    ("cli", "cyclic_order", "baranyai.cyclic_order", "span"),
    ("cli", "baranyai_edge", "baranyai.baranyai_edge", "hot"),
    ("cli", "kneser_graph", "kneser.kneser_graph", "span"),
    ("cli", "verify_ham_power", "kneser.verify_ham_power", "span"),
    ("cli", "ham_power_certificate", "kneser.ham_power_certificate", "span"),
    ("cli", "certificate_from_json", "kneser.certificate_from_json", "span"),
)


def _info_max_intersecting(args: tuple, result: Any) -> dict[str, Any]:
    return {"nodes": result.search_nodes, "maximum_families": result.maximum_family_count}


def _info_q_bruteforce(args: tuple, result: Any) -> dict[str, Any]:
    return {"permutations": math.factorial(2 * args[1].n)}


def _info_verify_goodness(args: tuple, result: Any) -> dict[str, Any]:
    return {"intervals": result.intervals_checked}


def _info_verify_ham_power(args: tuple, result: Any) -> dict[str, Any]:
    # a valid certificate has every position checked against the next k
    total = len(args[1].order)
    return {"adjacency_checks": total * min(args[1].k, total - 1) if result else 0}


def _info_all_permutations(args: tuple, result: Any) -> dict[str, Any]:
    return {"two_n": args[0]}


INFO: dict[str, Callable[[tuple, Any], dict[str, Any]]] = {
    "ekr_search.max_intersecting": _info_max_intersecting,
    "katona.q_bruteforce": _info_q_bruteforce,
    "baranyai.verify_goodness": _info_verify_goodness,
    "kneser.verify_ham_power": _info_verify_ham_power,
    "cli.all_permutations": _info_all_permutations,
}


@dataclass
class Span:
    """One call into a layer; hot maps a function name to [calls, seconds]."""

    id: int
    name: str
    start: float
    parent: int | None
    invocation: str | None
    end: float = 0.0
    hot: dict[str, list] = field(default_factory=dict)
    info: dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Installs the wrappers, collects spans, and removes the wrappers again."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.invocation: str | None = None
        self._saved: list[tuple[Any, str, Any]] = []

    def open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent, self.invocation)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()

    def _span_wrapper(self, fn: Callable, name: str) -> Callable:
        info = INFO.get(name)

        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if info is not None:
                span.info.update(info(args, result))
            return result

        return wrapper

    def _gen_wrapper(self, fn: Callable, name: str) -> Callable:
        info = INFO.get(name)

        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                yield from fn(*args, **kwargs)
            finally:
                self.close(span)
            if info is not None:
                span.info.update(info(args, None))

        return wrapper

    def _hot_wrapper(self, fn: Callable, name: str) -> Callable:
        clock = time.perf_counter
        stack = self.stack

        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            cell = stack[-1].hot.get(name)
            if cell is None:
                stack[-1].hot[name] = [1, elapsed]
            else:
                cell[0] += 1
                cell[1] += elapsed
            return result

        return wrapper

    def install(self) -> None:
        makers = {"span": self._span_wrapper, "gen": self._gen_wrapper, "hot": self._hot_wrapper}
        for module_name, attr, name, kind in ENTRY_POINTS:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, makers[kind](original, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def self_times(spans: list[dict[str, Any]]) -> dict[int, float]:
    """Span duration minus the part its child spans cover and its hot calls' time."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = {}
    for span in spans:
        covered = 0.0
        reach = span["start"]
        for start, end in sorted(children.get(span["id"], [])):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        hot = sum(seconds for _, seconds in span["hot"].values())
        out[span["id"]] = span["end"] - span["start"] - covered - hot
    return out


def layer_metrics(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans."""
    selfs = self_times(spans)
    by_name: dict[str, list[dict[str, Any]]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in by_name.get(name, []))

    def self_total(name: str) -> float:
        return sum(selfs[s["id"]] for s in by_name.get(name, []))

    def hot(name: str) -> tuple[int, float]:
        cells = [s["hot"][name] for s in spans if name in s["hot"]]
        return sum(c[0] for c in cells), sum(c[1] for c in cells)

    def info_sum(name: str, key: str) -> int:
        return sum(s["info"].get(key) or 0 for s in by_name.get(name, []))

    def per(seconds: float, count: int, scale: float) -> float:
        return seconds / count * scale if count else 0.0

    m: dict[str, float] = {}
    for span in by_name.get("cli.main", []):
        m[f"cli.main.s.{span['invocation']}"] = span["end"] - span["start"]
    m["cli.emit_report.s"] = total("cli.emit_report")
    m["cli.all_permutations.s"] = total("cli.all_permutations")
    m["core.enumerate_matchings.s"] = total("core.enumerate_matchings")
    m["core.enumerate_matchings.calls"] = len(by_name.get("core.enumerate_matchings", []))
    m["core.star_family.s"] = total("core.star_family")

    m["ekr_search.intersection_graph.s"] = total("ekr_search.intersection_graph")
    searches = {s["invocation"]: s for s in by_name.get("ekr_search.max_intersecting", [])}
    for inv, span in searches.items():
        m[f"ekr_search.max_intersecting.self_s.{inv}"] = selfs[span["id"]]
        m[f"ekr_search.nodes.{inv}"] = span["info"]["nodes"]
        if span["info"]["maximum_families"] is not None:
            m[f"ekr_search.maximum_families.{inv}"] = span["info"]["maximum_families"]
    if "enum-n5r3" in searches and "bound-n5r3" in searches:
        enum, bound = searches["enum-n5r3"], searches["bound-n5r3"]
        m["ekr_search.enumeration.s.n5r3"] = selfs[enum["id"]] - selfs[bound["id"]]
        enumeration_nodes = enum["info"]["nodes"] - bound["info"]["nodes"]
        m["ekr_search.cliques_per_mnode.n5r3"] = per(enum["info"]["maximum_families"], enumeration_nodes, 1e6)
    m["ekr_search.is_star.s"] = total("ekr_search.is_star")

    m["katona.q_bruteforce.s"] = total("katona.q_bruteforce")
    m["katona.q_bruteforce.ns_per_perm"] = per(
        m["katona.q_bruteforce.s"], info_sum("katona.q_bruteforce", "permutations"), 1e9)
    m["katona.verify_double_count.self_s"] = self_total("katona.verify_double_count")
    calls, seconds = hot("katona.compatible_member_keys")
    m["katona.compatible_member_keys.calls"] = calls
    m["katona.compatible_member_keys.ns_per_call"] = per(seconds, calls, 1e9)

    m["transposition_lab.center_map.self_s"] = self_total("transposition_lab.center_map")
    calls, seconds = hot("transposition_lab.swaps")
    m["transposition_lab.swaps.calls"] = calls
    m["transposition_lab.swaps.s"] = seconds

    m["baranyai.verify_goodness.s"] = total("baranyai.verify_goodness")
    m["baranyai.verify_goodness.ns_per_interval"] = per(
        m["baranyai.verify_goodness.s"], info_sum("baranyai.verify_goodness", "intervals"), 1e9)
    for name in ("sample_permutations", "rooted_order", "cyclic_order"):
        m[f"baranyai.{name}.s"] = total(f"baranyai.{name}")
    m["baranyai.baranyai_edge.calls"] = hot("baranyai.baranyai_edge")[0]

    for name in ("kneser_graph", "verify_ham_power", "ham_power_certificate", "certificate_from_json"):
        m[f"kneser.{name}.s"] = total(f"kneser.{name}")
    m["kneser.verify_ham_power.adjacency_checks"] = info_sum("kneser.verify_ham_power", "adjacency_checks")
    return m


# Exact counts: they repeat bit for bit between runs of the same code.
EXACT_PREFIXES = (
    "ekr_search.nodes.",
    "ekr_search.maximum_families.",
    "katona.compatible_member_keys.calls",
    "transposition_lab.swaps.calls",
    "kneser.verify_ham_power.adjacency_checks",
    "core.enumerate_matchings.calls",
    "baranyai.baranyai_edge.calls",
)


def exact_counts(metrics: dict[str, float]) -> dict[str, int]:
    return {k: int(v) for k, v in metrics.items() if k.startswith(EXACT_PREFIXES)}

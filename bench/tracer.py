"""Spans and counters around the library's public functions, from outside.

The tracer replaces every module binding of each traced function with one
wrapper: `from .enumeration import shortest_in_coset` copies the name into
`latdefect.defects`, so patching only `latdefect.enumeration` would miss the
calls made from there. Modules are found through `sys.modules`, because
`import latdefect.defects` yields the function `defects` that the package
re-exports over the submodule name.

Each span holds its name, start and end in nanoseconds, the index of its
parent span, the job id and its self time: its duration minus the time its
child spans cover. Spans, and a summary of each `shortest_in_coset` result,
stay in memory until `write` is called.

Counters are read from return values, so the library needs no changes.
Per-element helpers such as `mat_vec` and private names are not traced.

The wrappers' own cost is estimated apart from the noisy difference of
traced and untraced passes: `wrapper_cost_s` times a wrapped no-op.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import sys
from collections import Counter
from time import perf_counter_ns

from source import PACKAGE

LAYERS = {
    "plumbing": ("parse_expression", "canonical_plumbing", "gram"),
    "lattice": ("validate_lattice", "discriminant_group"),
    "linalg": (
        "invert_matrix",
        "ldl_decomposition",
        "integer_matrix_inverse",
        "smith_normal_form",
        "hermite_row_basis",
    ),
    "reduction": ("lll_reduce_gram",),
    "enumeration": ("shortest_in_coset", "enumerate_in_coset"),
    "defects": ("defects", "min_char_norm", "max_char_square"),
    "dinvariant": ("evaluate_expression", "spinc_classes"),
    "glue": ("glue_overlattice",),
    "obstruction": ("report_verdict", "surgery_difference"),
    "verify": ("verify_suite",),
}
TRACED = tuple(f"{module}.{name}" for module, names in LAYERS.items() for name in names)
TRACING = (
    "tracing.overhead_s",
    "tracing.wrapper_s",
    "tracing.traced_wall_s",
    "tracing.untraced_wall_s",
    "tracing.spans",
)
NODES_PER_S = "enumeration.nodes_per_s"
COUNTERS = (
    "enumeration.nodes",
    "enumeration.minimizers",
    "defects.max_char_square.minimizers_discarded",
    "linalg.ldl_decomposition.lower_nonzeros",
    "dinvariant.spinc_classes.classes",
)

# span fields
NAME, START, END, PARENT, JOB, SELF = range(6)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out = []
    for name in TRACED:
        out += [(f"{name}.calls", "count"), (f"{name}.total_s", "s"), (f"{name}.self_s", "s")]
    out += [(name, "count") for name in COUNTERS] + [(NODES_PER_S, "1/s")]
    out += [(name, "count" if name == "tracing.spans" else "s") for name in TRACING]
    return out


def per_pass(count: int, passes: int):
    """A count per pass: exact when every pass did the same work."""
    whole, rest = divmod(count, passes)
    return count / passes if rest else whole


def wrapper_cost_s(calls: int = 20_000, repeats: int = 5) -> float:
    """Median seconds one wrapper adds to a call, from a wrapped no-op."""

    def noop():
        return None

    costs = []
    for _ in range(repeats):
        wrapped = Tracer().wrap("calibration", noop)
        start = perf_counter_ns()
        for _ in range(calls):
            wrapped()
        middle = perf_counter_ns()
        for _ in range(calls):
            noop()
        end = perf_counter_ns()
        costs.append((middle - start - (end - middle)) / calls / 1e9)
    return statistics.median(costs)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []  # [span index, nanoseconds covered by children]
        self.job = None
        self.counts: Counter = Counter()
        self.searches: list[list] = []  # [span index, nodes, minimizers, min_norm]
        self.bindings: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every binding of every traced function in the loaded package."""
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"{PACKAGE}.{layer}")
            for name in names:
                original = getattr(home, name)
                wrapper = self.wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attribute, value in list(vars(module).items()):
                        if value is original:
                            self.bindings.append((module, attribute, original))
                            setattr(module, attribute, wrapper)

    def remove(self) -> None:
        for module, attribute, original in reversed(self.bindings):
            setattr(module, attribute, original)
        self.bindings.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    def wrap(self, name: str, original):
        spans, stack = self.spans, self.stack
        count = {
            "enumeration.shortest_in_coset": self.count_search,
            "linalg.ldl_decomposition": self.count_ldl,
            "dinvariant.spinc_classes": self.count_classes,
        }.get(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1][0] if stack else None, self.job, 0]
            frame = [len(spans), 0]
            spans.append(span)
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                span[START], span[END] = start, end
                span[SELF] = end - start - frame[1]
                if stack:
                    stack[-1][1] += end - start
            if count is not None:
                count(result, frame[0])
            return result

        return traced

    def count_search(self, result, index: int) -> None:
        self.searches.append(
            [index, result.nodes_visited, len(result.minimizers), str(result.min_norm)]
        )
        self.counts["enumeration.nodes"] += result.nodes_visited
        self.counts["enumeration.minimizers"] += len(result.minimizers)
        # max_char_square returns only the value, so its minimizers are unused
        if any(self.spans[i][NAME] == "defects.max_char_square" for i, _ in self.stack):
            self.counts["defects.max_char_square.minimizers_discarded"] += len(result.minimizers)

    def count_ldl(self, result, index: int) -> None:
        lower, _diag = result
        self.counts["linalg.ldl_decomposition.lower_nonzeros"] += sum(
            1 for i, row in enumerate(lower) for x in row[:i] if x != 0
        )

    def count_classes(self, result, index: int) -> None:
        self.counts["dinvariant.spinc_classes.classes"] += len(result)

    def sums(self) -> Counter:
        """Calls, total and self nanoseconds per traced function, and the
        counters, over every span recorded.

        total leaves out spans nested inside a span of the same function, so
        recursion is not counted twice.
        """
        out = Counter(self.counts)
        for span in self.spans:
            name = span[NAME]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += span[SELF]
            parent = span[PARENT]
            while parent is not None and self.spans[parent][NAME] != name:
                parent = self.spans[parent][PARENT]
            if parent is None:
                out[f"{name}.total_s"] += span[END] - span[START]
        return out

    def layer_metrics(self, passes: int = 1, setup: "Tracer | None" = None) -> dict[str, float]:
        """calls, total_s and self_s per traced function, plus the counters,
        per pass when the spans cover several passes over the same jobs,
        plus what a tracer of the run's set-up recorded, once.
        """
        each = self.sums()
        once = setup.sums() if setup is not None else Counter()
        out: dict[str, float] = {}
        names = [f"{f}.{m}" for f in TRACED for m in ("calls", "total_s", "self_s")]
        for name in names + list(COUNTERS):
            if name.endswith("_s"):
                out[name] = (each[name] / passes + once[name]) / 1e9
            else:
                out[name] = per_pass(each[name], passes) + once[name]
        search_s = out["enumeration.shortest_in_coset.self_s"]
        out[NODES_PER_S] = out["enumeration.nodes"] / search_s if search_s else 0.0
        return out

    def write(self, path, **header) -> None:
        """Write spans and searches as JSON, times in ns from the first start."""
        origin = min((s[START] for s in self.spans), default=0)
        spans = [
            [s[NAME], s[START] - origin, s[END] - origin, s[PARENT], s[JOB], s[SELF]]
            for s in self.spans
        ]
        payload = {
            **header,
            "span_fields": ["name", "start_ns", "end_ns", "parent", "job", "self_ns"],
            "spans": spans,
            "search_fields": ["span", "nodes_visited", "minimizers", "min_norm"],
            "searches": self.searches,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n")

"""In-memory span tracer that wraps layer entry points from outside the program.

Each wrapped name is replaced, in the module whose attribute the callers
resolve, by a wrapper that records one span per call: name, start, end,
parent span, the operation it served and an optional tag (such as the
server count of a verified layout).  Nothing under ``src/`` changes; the
originals are put back by ``restore``; used as a context manager, the
tracer installs on entry and restores on exit.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass


def _system_m(args, kwargs, result):
    return args[0].m


def _result_len(args, kwargs, result):
    return len(result)


def _first_arg_len(args, kwargs, result):
    return len(args[0])


def _d4_args(args, kwargs, result):
    return args[:2]


def _nodes(args, kwargs, result):
    return result.nodes_explored


# (module, attribute, layer, tag function).  The span name is
# "<module tail>.<attribute>", e.g. "cli.parse"; the layer is where its
# self time is charged.
WRAPPED = [
    ("cbckit.cli", "main", "cli", None),
    ("cbckit.cli", "sample_batch", "cli", None),
    ("cbckit.cli", "parse", "core", _first_arg_len),
    ("cbckit.cli", "serialize", "core", _result_len),
    ("cbckit.cli", "verify_hc2", "hall", _system_m),
    ("cbckit.cli", "plan_batch", "hall", None),
    ("cbckit.construct", "construct_best", "construct", None),
    ("cbckit.construct", "construct_uniform", "construct", None),
    ("cbckit.construct", "best_d4_code", "cwc", _d4_args),
    ("cbckit.cwc", "best_d4_code", "cwc", _d4_args),
    ("cbckit.bounds", "known_n", "bounds", None),
    ("cbckit.bounds", "lower_bound", "bounds", None),
    ("cbckit.hall", "verify_hc2", "hall", _system_m),
    ("cbckit.hall", "plan_batch", "hall", None),
    ("cbckit.hall", "find_sdr", "hall", None),
    ("cbckit.oracle", "search_optimal", "oracle", _nodes),
    ("cbckit.oracle", "verify_hc2", "hall", _system_m),
]
# Span names that carry a tag.  A call that raises leaves its tag None.
TAGGED = {f"{module.rsplit('.', 1)[1]}.{attr}" for module, attr, _, tag in WRAPPED if tag}


@dataclass(slots=True)
class Span:
    span_id: int
    parent: int | None
    op: int
    name: str
    layer: str
    start_ns: int
    end_ns: int = 0
    child_ns: int = 0
    tag: object = None

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        return self.dur_ns - self.child_ns


class Tracer:
    """Records spans while ``active``; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.next_id = 0
        self.active = False
        self.op = 0
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.active = False
        self.restore()

    def install(self) -> None:
        for module_name, attr, layer, tag in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            name = f"{module_name.rsplit('.', 1)[1]}.{attr}"
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, layer, tag))

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def wrap(self, fn, name: str, layer: str, tag=None):
        """``fn`` recording a span per call while the tracer is active."""
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack
            span = Span(self.next_id, stack[-1].span_id if stack else None,
                        self.op, name, layer, clock())
            self.next_id += 1
            self.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = clock()
                stack.pop()
                if stack:
                    stack[-1].child_ns += span.dur_ns
            if tag is not None:
                span.tag = tag(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def take(self) -> list[Span]:
        """The spans recorded since the last take, which the tracer then forgets."""
        spans, self.spans = self.spans, []
        return spans


def dump(spans: list[Span]) -> list[list]:
    """Spans as JSON-ready rows: id, parent, op, name, start_ns, end_ns, tag."""
    return [[s.span_id, s.parent, s.op, s.name, s.start_ns, s.end_ns,
             list(s.tag) if isinstance(s.tag, tuple) else s.tag] for s in spans]


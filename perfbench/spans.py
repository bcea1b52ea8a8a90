"""Spans around the public calls into each eatxt layer, recorded from outside.

``Tracer.install`` replaces every reference to a listed layer function in
every loaded ``eatxt`` module with a wrapper that records a span (name,
start, end, parent span, request id) and a few counts taken from the call's
arguments and result. Calls between layers go through module globals, so
nested calls (``lex`` inside ``parse_model``) show up as child spans.
Spans stay in memory; ``write`` dumps them when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# Public entry points per layer, and how to count the work of one call.
LAYERS: dict[str, tuple[str, ...]] = {
    "metamodel": ("load_metamodel",),
    "grammar": ("generate_grammar", "parse_config", "adapt_grammar", "emit_grammar",
                "grammar_from_dict", "grammar_to_dict"),
    "textsyntax": ("lex", "parse_model", "format_model"),
    "model": ("resolve", "build_cache", "lookup_first_fitting"),
    "xmlio": ("to_eaxml", "from_eaxml"),
    "assist": ("locate_context", "locate_context_at", "complete", "build_template"),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _references(root) -> int:
    count, stack = 0, [root]
    while stack:
        el = stack.pop()
        count += len(el.cross_refs)
        stack.extend(child for _, child in el.children)
    return count


COUNTERS = {
    "textsyntax.lex": lambda a, k, r: {"tokens": len(r[0]),
                                       "bytes": len(_arg(a, k, 0, "text").encode("utf-8"))},
    "textsyntax.parse_model": lambda a, k, r: {"diagnostics": len(r[1])},
    "model.resolve": lambda a, k, r: {"references": _references(_arg(a, k, 0, "root"))},
    "xmlio.to_eaxml": lambda a, k, r: {"bytes": len(r.encode("utf-8"))},
    "xmlio.from_eaxml": lambda a, k, r: {"bytes": len(_arg(a, k, 0, "text").encode("utf-8"))},
    "assist.complete": lambda a, k, r: {"proposals": len(r)},
}

ROOT = "cli.main"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent, request, counts]
        self.stack: list[int] = []
        self.request = ""
        self._patches: list[tuple[object, str, object, object]] = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, count = self.spans, self.stack, COUNTERS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                record[5] = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        wrappers = {}
        for layer, names in LAYERS.items():
            module = sys.modules.get(f"eatxt.{layer}")
            for fname in names if module is not None else ():
                fn = getattr(module, fname, None)
                if callable(fn):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "eatxt" and not mod_name.startswith("eatxt."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value, hit[1]))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original, _ in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- requests ---------------------------------------------------------------

    def call(self, request: str, fn, *args):
        """Run ``fn`` as the root span of one request."""
        self.request = request
        record = [ROOT, 0, 0, -1, request, None]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            record[2] = time.perf_counter_ns()
            self.stack.pop()

    def write(self, path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "request", "counts")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    # -- analysis -----------------------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict, float]:
        """Inclusive ms, self ms and summed counts per span name, plus the
        CLI's own time: each request's root span minus its direct children."""
        inclusive: dict[str, float] = defaultdict(float)
        children: dict[int, float] = defaultdict(float)
        counts: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _, cnt in self.spans:
            dur = (end - start) / 1e6
            inclusive[name] += dur
            if parent >= 0:
                children[parent] += dur
            for key, value in (cnt or {}).items():
                counts[f"{name}.{key}"] += value
        self_ms: dict[str, float] = defaultdict(float)
        overhead = 0.0
        for idx, (name, start, end, parent, _, _) in enumerate(self.spans):
            own = (end - start) / 1e6 - children.get(idx, 0.0)
            self_ms[name] += own
            if name == ROOT:
                overhead += own
        return inclusive, self_ms, counts, overhead

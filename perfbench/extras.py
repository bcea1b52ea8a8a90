"""Traced-run extras: figures that gate nothing but size the work.

- ``prefill``: the reference-cache claim. For every class, a lookup in a
  built cache against a pre-order walk for the first fitting target, plus
  a check of ``build_cache`` against a brute-force table.
- ``depth_sweep``: the deepest nesting each stage survives (``depth.py``,
  in its own process so that a crash is recorded, not fatal).
- ``cli_wall``: import time and the wall time of each subcommand launched
  as a fresh ``python -m eatxt.cli`` process.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import schema
from worker import verify

HERE = Path(__file__).resolve().parent
CLI_LAUNCHES = 3
IMPORT_LAUNCHES = 5


def _per_call_us(fn, budget: float = 0.01) -> float:
    """Median time of one call over five batches sized to ``budget``/5 each."""
    n = 1
    while True:
        start = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - start > budget / 5 or n >= 1 << 20:
            break
        n *= 4
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - start) / n)
    return statistics.median(samples) * 1e6


def _walk(root, keep):
    """Pre-order over elements reachable by a qualified name, yielding
    (dotted name, element) for those ``keep`` accepts."""
    path: list[str] = []
    stack = [(root, 0)]
    while stack:
        el, depth = stack.pop()
        if not el.short_name:
            continue
        del path[depth:]
        path.append(el.short_name)
        if keep(el):
            yield ".".join(path), el
        stack.extend((child, depth + 1) for _, child in reversed(el.children))


def walk_first(root, fits: frozenset[str]) -> str | None:
    return next((name for name, _ in _walk(root, lambda el: el.class_name in fits)), None)


def brute_force_table(root) -> dict[str, list[tuple[str, int]]]:
    """One walk per class: every addressable element assignable to it."""
    table = {}
    for cls in schema.CLASSES:
        entries = [(name, el.id) for name, el in
                   _walk(root, lambda el: schema.is_subtype(el.class_name, cls))]
        if entries:
            table[cls] = entries
    return table


def prefill(m: dict, problems: list[str]) -> dict:
    from eatxt.grammar import adapt_grammar, generate_grammar, parse_config
    from eatxt.metamodel import load_metamodel
    from eatxt.model import build_cache, lookup_first_fitting
    from eatxt.textsyntax import parse_model

    def read(path: str) -> str:
        return Path(path).read_text(encoding="utf-8")

    mm = load_metamodel(read(m["mm"]))
    g, _ = adapt_grammar(generate_grammar(mm), parse_config(read(m["cfg"])))
    doc = m["prefill_doc"] or m["probe_doc"]
    root, _ = parse_model(read(doc), g, mm)

    builds = []
    for _ in range(5):
        start = time.perf_counter()
        cache = build_cache(root, mm)
        builds.append(time.perf_counter() - start)
    build_ms = statistics.median(builds) * 1e3

    cache_us, walk_us = [], []
    for cls in schema.CLASSES:
        fits = frozenset(c for c in schema.CLASSES if schema.is_subtype(c, cls))
        found = lookup_first_fitting(cache, cls)
        found = found.dotted if found is not None else None
        walked = walk_first(root, fits)
        if found != walked:
            problems.append(f"prefill {cls}: cache gives {found}, walk gives {walked}")
        cache_us.append(_per_call_us(lambda: lookup_first_fitting(cache, cls)))
        walk_us.append(_per_call_us(lambda: walk_first(root, fits)))

    got = {cls: [(q.dotted, i) for q, i in entries] for cls, entries in cache.by_class.items() if entries}
    if got != brute_force_table(root):
        problems.append(f"build_cache differs from the brute-force table on {doc}")

    cache_mean, walk_mean = statistics.fmean(cache_us), statistics.fmean(walk_us)
    saved = walk_mean - cache_mean
    return {
        "model.prefill_cache_us": (cache_mean, "us"),
        "model.prefill_walk_us": (walk_mean, "us"),
        "model.prefill_build_ms": (build_ms, "ms"),
        "model.prefill_breakeven_lookups": (build_ms * 1e3 / saved if saved > 0 else -1.0, "count"),
    }


def depth_sweep(root: Path, workdir: Path) -> dict:
    """Rungs that never report count as failed; a sweep that hangs or
    crashes keeps the rungs it printed before."""
    try:
        out = subprocess.run(
            [sys.executable, str(HERE / "depth.py"), "--root", str(root)],
            capture_output=True, text=True, timeout=60, cwd=workdir,
        ).stdout
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout.decode() if isinstance(exc.stdout, bytes) else (exc.stdout or "")
    rungs = [json.loads(line) for line in out.splitlines() if line.startswith("{") and line.endswith("}")]
    metrics = {}
    for stage in ("parse_model", "resolve", "format_model", "to_eaxml", "from_eaxml", "build_cache"):
        ok = [r for r in rungs if r["stage"] == stage and r["ok"]]
        best = max(ok, key=lambda r: r["depth"]) if ok else None
        metrics[f"depth.{stage}.max_ok"] = (best["depth"] if best else 0, "count")
        metrics[f"depth.{stage}.us_per_element"] = (best["us_per_element"] if best else 0.0, "us")
    return metrics


def _env(root: Path) -> dict:
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def cli_wall(probe: list[dict], root: Path, problems: list[str]) -> dict:
    env = _env(root)
    metrics = {}
    timed_import = "import time; t = time.perf_counter(); import eatxt.cli; " \
                   "print((time.perf_counter() - t) * 1e3, eatxt.cli.__file__)"
    imports = []
    for _ in range(IMPORT_LAUNCHES):
        proc = subprocess.run([sys.executable, "-c", timed_import], capture_output=True, text=True,
                              encoding="utf-8", env=env, cwd=root, timeout=60)
        if proc.returncode != 0:
            problems.append(f"import eatxt.cli failed: {proc.stderr[-200:]!r}")
            continue
        ms, where = proc.stdout.split()
        if not Path(where).resolve().is_relative_to((root / "src").resolve()):
            problems.append(f"subprocess imported eatxt from {where}")
        imports.append(float(ms))
    metrics["cli.import_ms"] = (statistics.median(imports) if imports else 0.0, "ms")

    seen = set()
    for op in probe:
        if op["cmd"] in seen or "fresh" in op:
            continue
        seen.add(op["cmd"])
        walls = []
        for _ in range(CLI_LAUNCHES):
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "eatxt.cli", *op["argv"]], capture_output=True,
                                  text=True, encoding="utf-8", env=env, cwd=root, timeout=60)
            walls.append(time.perf_counter() - start)
            problem = verify(op, proc.returncode, proc.stdout, proc.stderr)
            if problem:
                problems.append(f"subprocess {op['cmd']}: {problem}")
        metrics[f"cli.{op['cmd']}.wall_ms"] = (statistics.median(walls) * 1e3, "ms")
    return metrics

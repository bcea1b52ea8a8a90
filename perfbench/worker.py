"""The measured process: runs one workload's ops through ``eatxt.cli.main``.

Every op is one in-process CLI invocation, timed around ``main`` alone;
writing its input file and checking its output against the oracle happen
outside the timed region. The worker prints one JSON object as its last
line of standard output.

Modes:
  setup  import eatxt and run the warm-up ops, then stop
  timed  warm up, then run the workload's ops for ``--seconds`` untraced
  traced warm up, then alternate untraced and traced passes for
         ``--seconds`` and run the traced-only extras
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import time
from pathlib import Path

# Each workload's tail percentile, the highest of 50, 75, 90, 95 and 99 that
# leaves at least ten samples beyond it at the benchmark's run length. The
# tail metric is the mean of the samples at and above it: batch-large mixes
# commands and document sizes whose latencies form separate clusters, and a
# single percentile that falls in the gap between two of them jumps from
# run to run. A timed run goes on past --seconds until it has MIN_SAMPLES
# ops, so that the ten samples are there even on a slow machine.
TAIL_PERCENTILE = {"batch-large": 75.0, "complete-large": 75.0, "cli-small": 99.0}
MIN_SAMPLES = {"batch-large": 45, "complete-large": 40, "cli-small": 1000}
MAX_FAILURES_SHOWN = 5


def load_cli(root: Path):
    """The ``eatxt.cli`` module from the checkout's ``src``, and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import eatxt.cli

    where = Path(eatxt.__file__).resolve()
    if src not in where.parents:
        raise ImportError(f"eatxt was imported from {where}, not from {src}")
    return eatxt.cli


def _unescape(body: str) -> str:
    out, i = [], 0
    while i < len(body):
        ch = body[i]
        if ch == "\\" and i + 1 < len(body):
            out.append({"n": "\n", "t": "\t", "\\": "\\"}.get(body[i + 1], body[i + 1]))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def check_reply(stdout: str, reply: dict) -> str | None:
    """Compare a ``complete`` reply with what the generator's tree says."""
    items = [line.split("\t", 1) for line in stdout.splitlines()]
    if any(len(item) != 2 for item in items):
        return "malformed reply line"
    kinds = [kind for kind, _ in items]
    if kinds != sorted(kinds):  # KEYWORD lines come before TEMPLATE lines
        return "keywords and templates interleaved"
    keywords = [body for kind, body in items if kind == "KEYWORD"]
    templates = [_unescape(body) for kind, body in items if kind == "TEMPLATE"]
    if keywords != reply["keywords"]:
        return f"keywords {keywords} != expected {reply['keywords']}"
    if len(templates) != len(reply["templates"]):
        return f"{len(templates)} templates, expected {len(reply['templates'])}"
    for text, want in zip(templates, reply["templates"]):
        lines = text.split("\n")
        header = want["keyword"] + (" ${1:name}" if want["named"] else "")
        if lines[0] != header:
            return f"template header {lines[0]!r} != {header!r}"
        for keyword, target in want["prefill"]:
            if target is None:
                ok = any(line.startswith(f"    {keyword} ${{") for line in lines[1:])
            else:
                ok = f"    {keyword} {target}" in lines[1:]
            if not ok:
                return f"template {want['keyword']}: {keyword} not pre-filled with {target}"
    return None


def verify(op: dict, rc, stdout: str, stderr: str) -> str | None:
    """The oracle: exit status 0, nothing on stderr, and the output the
    benchmark's own writers predict (nothing at all for check and
    roundtrip-check)."""
    if rc != 0:
        return f"exit status {rc!r}; stderr {stderr[:200]!r}"
    if stderr:
        return f"unexpected stderr {stderr[:200]!r}"
    if "reply" in op:
        return check_reply(stdout, op["reply"])
    if op.get("expect"):
        expected = Path(op["expect"]).read_text(encoding="utf-8")
        if stdout != expected:
            at = next((i for i, (a, b) in enumerate(zip(stdout, expected)) if a != b),
                      min(len(stdout), len(expected)))
            return f"output differs from the oracle at offset {at}: {stdout[at:at + 60]!r}"
        return None
    return f"unexpected output {stdout[:200]!r}" if stdout else None


class Runner:
    """Runs ops one at a time (one client, closed loop) and checks them."""

    def __init__(self, cli):
        self.cli = cli
        self.m: dict = {}  # the workload's manifest, once loaded
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.empty_replies = 0
        self.replies = 0
        self.base_lines: list[str] | None = None

    def prepare(self, op: dict) -> None:
        if "edit" in op:
            after, line = op["edit"]
            if self.base_lines is None:
                self.base_lines = Path(self.m["base"]).read_text(encoding="utf-8").split("\n")[:-1]
            lines = self.base_lines
            text = "\n".join(lines[: after + 1] + [line] + lines[after + 1:]) + "\n"
            with open(self.m["edit_target"], "w", encoding="utf-8") as fh:
                fh.write(text)
        if "fresh" in op:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(op["fresh"])

    def run(self, op: dict, request: str | None = None) -> float:
        """One op; returns the seconds spent inside ``main``."""
        self.prepare(op)
        out, err = io.StringIO(), io.StringIO()
        argv = list(op["argv"])
        main = self.cli.main
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                if request is None:
                    rc = main(argv)
                else:
                    rc = self.tracer.call(request, main, argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a crash is a failed op, not a dead benchmark
                rc = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        self.attempted += 1
        stdout = out.getvalue()
        if "reply" in op:
            self.replies += 1
            self.empty_replies += stdout == ""
        problem = verify(op, rc, stdout, err.getvalue())
        if problem is not None:
            self.failed += 1
            if len(self.failures) < MAX_FAILURES_SHOWN:
                self.failures.append(f"{' '.join(argv[:2])}: {problem}")
        return elapsed


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of percentile ``q`` among ``n`` values."""
    return int(max(1, -(-n * q // 100)))


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[_rank(len(sorted_values), q) - 1]


def tail(sorted_values: list[float], q: float) -> list[float]:
    """The values at and above the nearest-rank percentile ``q``."""
    return sorted_values[_rank(len(sorted_values), q) - 1:]


def timed(runner: Runner, seconds: float) -> dict:
    workload = runner.m["workload"]
    ops = runner.m["ops"]
    latencies: list[float] = []
    work_bytes = 0
    by_cmd: dict[str, list[float]] = {}
    replies, empty = runner.replies, runner.empty_replies
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        op = ops[i % len(ops)]
        dt = runner.run(op)
        latencies.append(dt)
        work_bytes += op["bytes"]
        agg = by_cmd.setdefault(op["cmd"], [0, 0.0, 0])
        agg[0] += 1
        agg[1] += dt
        agg[2] += op["bytes"]
        i += 1
        # batch-large stops only at the end of a whole pass over its corpus.
        whole = workload != "batch-large" or i % runner.m["pass_ops"] == 0
        if whole and i >= MIN_SAMPLES[workload] and time.perf_counter() >= deadline:
            break
    busy = sum(latencies)
    ordered = sorted(latencies)
    q = TAIL_PERCENTILE[workload]
    # The median stays in the info line: on a machine whose speed swings
    # between regimes it flips from run to run more than means and the tail.
    metrics = {
        "ops_per_s": (len(latencies) / busy, "1/s"),
        "mb_per_s": (work_bytes / 1e6 / busy, "MB/s"),
        "op_ms_tail": (statistics.fmean(tail(ordered, q)) * 1e3, "ms"),
    }
    info = {
        "ops": len(latencies),
        "tail_percentile": q,
        "tail_samples": len(tail(ordered, q)),
        "ms_mean": round(busy / len(latencies) * 1e3, 3),
        "ms_at_percentile": {p: round(percentile(ordered, p) * 1e3, 3) for p in (50, 75, 90, 95, 99)},
        "per_command": {cmd: {"ops": n, "ms_mean": round(t / n * 1e3, 3),
                              "mb_per_s": round(b / 1e6 / t, 4) if b else None}
                        for cmd, (n, t, b) in sorted(by_cmd.items())},
    }
    if runner.replies > replies:
        info["empty_reply_share"] = round((runner.empty_replies - empty) / (runner.replies - replies), 4)
    return {"metrics": metrics, "info": info}


def traced(runner: Runner, probe: list[dict], seconds: float, root: Path, workdir: Path) -> dict:
    import extras
    import spans

    tracer = spans.Tracer()
    runner.tracer = tracer
    ops = probe + runner.m["traced"]
    plain = with_spans = 0.0
    passes = 0
    deadline = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < deadline:
        # Alternate which side runs first so that drift cancels out.
        for side in ((False, True) if passes % 2 == 0 else (True, False)):
            if side:
                tracer.install()
                try:
                    with_spans += sum(runner.run(op, f"p{passes}.{i}") for i, op in enumerate(ops))
                finally:
                    tracer.uninstall()
            else:
                plain += sum(runner.run(op) for op in ops)
        passes += 1

    n = passes * len(ops)
    inclusive, self_ms, counts, overhead = tracer.totals()

    def per_op(table: dict, key: str) -> float:
        return table.get(key, 0.0) / n

    def ms(key: str) -> tuple[float, str]:
        return per_op(inclusive, key), "ms"

    metrics = {
        "textsyntax.lex_ms": ms("textsyntax.lex"),
        "textsyntax.parse_ms": ms("textsyntax.parse_model"),
        "textsyntax.parse_self_ms": (per_op(self_ms, "textsyntax.parse_model"), "ms"),
        "textsyntax.format_ms": ms("textsyntax.format_model"),
        "textsyntax.tokens": (per_op(counts, "textsyntax.lex.tokens"), "count"),
        "textsyntax.bytes": (per_op(counts, "textsyntax.lex.bytes"), "bytes"),
        "textsyntax.diagnostics": (per_op(counts, "textsyntax.parse_model.diagnostics"), "count"),
        "model.resolve_ms": ms("model.resolve"),
        "model.references": (per_op(counts, "model.resolve.references"), "count"),
        "model.build_cache_ms": ms("model.build_cache"),
        "xmlio.to_eaxml_ms": ms("xmlio.to_eaxml"),
        "xmlio.from_eaxml_ms": ms("xmlio.from_eaxml"),
        "xmlio.bytes": (per_op(counts, "xmlio.to_eaxml.bytes") + per_op(counts, "xmlio.from_eaxml.bytes"), "bytes"),
        "assist.locate_context_ms": ms("assist.locate_context"),
        "assist.complete_ms": ms("assist.complete"),
        "assist.proposals": (per_op(counts, "assist.complete.proposals"), "count"),
        "metamodel.load_ms": ms("metamodel.load_metamodel"),
        "grammar.generate_ms": ms("grammar.generate_grammar"),
        "grammar.adapt_ms": ms("grammar.adapt_grammar"),
        "grammar.parse_config_ms": ms("grammar.parse_config"),
        "grammar.emit_ms": ms("grammar.emit_grammar"),
        "grammar.cache_load_ms": ms("grammar.grammar_from_dict"),
        "grammar.cache_dump_ms": ms("grammar.grammar_to_dict"),
        "cli.overhead_ms": (overhead / n, "ms"),
        "trace.spans_per_op": (len(tracer.spans) / n, "count"),
        "trace.overhead_pct": ((with_spans - plain) / plain * 100, "%"),
    }
    out_dir = root / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{runner.m['workload']}.jsonl")

    problems: list[str] = []
    metrics.update(extras.prefill(runner.m, problems))
    metrics.update(extras.depth_sweep(root, workdir))
    metrics.update(extras.cli_wall(probe, root, problems))
    runner.attempted += 1
    if problems:
        runner.failed += 1
        runner.failures.extend(problems[:MAX_FAILURES_SHOWN])
    info = {"passes": passes, "ops_per_pass": len(ops), "traced_ms": round(with_spans * 1e3, 1),
            "untraced_ms": round(plain * 1e3, 1)}
    return {"metrics": metrics, "info": info}


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seconds", type=float, default=0)
    args = ap.parse_args()
    root, workdir = Path(args.root), Path(args.workdir)

    runner = Runner(load_cli(root))
    probe = json.loads((workdir / "probe.json").read_text(encoding="utf-8"))
    for op in probe:
        runner.run(op)
    result = {"setup_end": time.monotonic()}
    if args.mode != "setup":
        runner.m = json.loads((workdir / "manifest.json").read_text(encoding="utf-8"))
    if args.mode == "timed":
        result.update(timed(runner, args.seconds))
        result["metrics"]["peak_rss_mb"] = (peak_rss_mb(), "MB")
    elif args.mode == "traced":
        result.update(traced(runner, probe, args.seconds, root, workdir))
    result.update(attempted=runner.attempted, failed=runner.failed, failures=runner.failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

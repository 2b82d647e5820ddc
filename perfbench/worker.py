"""One measured process of a benchmark run.

Usage: python3 perfbench/worker.py MANIFEST RESULTS SPAWNED_AT [--setup-only] [--trace SPANS]

SPAWNED_AT is the CLOCK_MONOTONIC reading the parent took just before
starting this process, so set-up time covers interpreter start, importing
`mullergames.cli` and loading the manifest.  The worker then runs the
manifest's items through `mullergames.cli.main(argv)` for the manifest's
number of passes, checks every output between items (untimed), and writes
one JSON result document.

The host's speed drifts by up to about 1.8x, switching within tens of
milliseconds.  So the worker times a fixed pure-Python routine
(`reference_work`) before each item, once after the last, and every
SAMPLE_EVERY_S of CPU time inside an item, from a signal handler whose
time is taken off the item's latency.  The parent scales each item's
latency by those readings.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

import mullergames.cli as cli  # noqa: E402  (the program under test)
from mullergames import automata, construction, games  # noqa: E402
from mullergames.conditions import load_condition  # noqa: E402

from instances import KNOWN_SUCCINCTNESS  # noqa: E402

# The program's own functions, bound before any tracing wrapper is installed,
# so output checks never show up in a trace.
parse_hoa, hoa_signature = automata.parse_hoa, automata.hoa_signature
build_gfg_rabin, build_parity_automaton = construction.build_gfg_rabin, construction.build_parity_automaton


class ItemTimeout(BaseException):
    """Raised inside an item that runs past the per-item time limit."""


def _on_alarm(signum, frame):
    raise ItemTimeout()


def reset_invocation_state() -> None:
    """Drop what a previous item left behind: each CLI invocation starts a
    fresh process, with empty caches and a clean heap."""
    cache = getattr(games, "_RABIN_AUTOMATON_CACHE", None)
    if cache is not None:
        cache.clear()
    gc.collect()


REFERENCE_READINGS = 4  # readings of the routine taken before each item
SAMPLE_EVERY_S = 0.025  # CPU seconds between readings inside an item


def reference_work() -> int:
    """A fixed mix of the dict, set, tuple, string and integer work the
    program does; it never changes, so its time measures the machine."""
    table: dict = {}
    seen = set()
    total = 0
    for i in range(1500):
        key = (i * 2654435761) & 255
        table[key] = table.get(key, 0) + (i ^ key)
        if key & 7 == 0:
            seen.add((key, i & 15))
        total += len(str(i)) + ((key, i & 15) in seen)
    return total + len(table)


class SpeedProbe:
    """Readings of how long `reference_work` takes, between and inside items."""

    def __init__(self, inside: bool):
        self.inside = inside
        self.readings: list[float] = []
        self.paused_s = 0.0

    def reading(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            reference_work()
            return time.perf_counter() - started
        finally:
            if enabled:
                gc.enable()

    def between_items(self) -> list[float]:
        return [self.reading() for _ in range(REFERENCE_READINGS)]

    def _on_sample(self, signum, frame):
        started = time.perf_counter()
        self.readings.append(self.reading())
        self.paused_s += time.perf_counter() - started

    def start(self) -> None:
        self.readings, self.paused_s = [], 0.0
        if self.inside:
            signal.signal(signal.SIGPROF, self._on_sample)
            signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        if self.inside:
            signal.setitimer(signal.ITIMER_PROF, 0)


def run_item(item: dict, limit: float, tracer, probe=None) -> tuple[float, str, list]:
    """Run an item's steps; returns (latency, status, per-step (rc, stdout, stderr)).

    Call `reset_invocation_state` first.  The latency leaves out the
    probe's readings inside the item.
    """
    results = []
    status = "done"
    if tracer is not None:
        tracer.begin_item(item["id"])
    signal.setitimer(signal.ITIMER_REAL, limit)
    if probe is not None:
        probe.start()
    started = time.perf_counter()
    try:
        for argv in item["steps"]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            results.append((rc, out.getvalue(), err.getvalue()))
    except ItemTimeout:
        status = "timeout"
    except Exception as exc:  # a traceback escaping the CLI is a failed item
        status = f"error: {type(exc).__name__}: {exc}"
    finally:
        latency = time.perf_counter() - started
        if probe is not None:
            probe.stop()
            latency -= probe.paused_s
        signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            tracer.end_item()
    return latency, status, results


# -- output checks ---------------------------------------------------------------


def _read(path: str):
    """A file's bytes, or None when the item wrote no such file."""
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        return handle.read()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _lines(text: str) -> list[str]:
    return text.strip().splitlines()


def _check_hoa(item: dict, data: bytes, kind: str, full: bool):
    expect = item["expect"]
    if data is None:
        return f"no {kind} HOA file written"
    if _sha(data) != expect[f"{kind}_hoa_sha256"]:
        return f"{kind} HOA differs from the recorded bytes"
    if full:
        condition = load_condition(item["condition"])
        built = build_gfg_rabin(condition).automaton if kind == "gfg" else build_parity_automaton(condition)
        if hoa_signature(parse_hoa(data.decode())) != hoa_signature(built):
            return f"{kind} HOA does not round-trip through parse_hoa"
    return None


def check_output(item: dict, steps: list, outputs: list, full: bool):
    """None when the item's output is right, else what is wrong.

    `full` asks for the expensive checks (HOA round trips), made the first
    time an item runs in a process; later runs must repeat its outputs.
    """
    expect = item["expect"]
    for rc, _, err in steps:
        if rc != 0:
            return f"exit code {rc}: {err.strip()[:200]}"
    kind = item["kind"]
    text = steps[-1][1]
    if kind == "zielonka":
        lines = _lines(text)
        memtree = int(lines[-1].split("=")[1])
        if "fn" in expect and memtree != expect["fn"] // 2:
            return f"memtree {memtree} is not n/2 for F_{expect['fn']}"
        if memtree != expect["memtree"] or len(lines) - 2 != expect["nodes"]:
            return f"tree shape {len(lines) - 2} nodes, memtree {memtree} differs from the record"
    elif kind == "build-gfg-rabin":
        states, pairs = text.split()[0], text.split()[2]
        if int(states) != expect["memtree"] or int(pairs) != expect["gfg_pairs"]:
            return f"GFG automaton has {states} states and {pairs} pairs"
        return _check_hoa(item, outputs[0], "gfg", full)
    elif kind == "build-parity":
        if int(text.split()[0]) != expect["leaves"]:
            return f"parity automaton has {text.split()[0]} states, not one per leaf"
        return _check_hoa(item, outputs[0], "parity", full)
    elif kind == "succinctness":
        row = [cell.strip() for cell in _lines(text)[2].split("|")]
        n, gfg, lower, upper = (int(cell) for cell in row[:4])
        if [n, gfg, lower, upper, row[4]] != expect["row"]:
            return f"succinctness row {row} differs from the record"
        if n in KNOWN_SUCCINCTNESS and (gfg, lower) != KNOWN_SUCCINCTNESS[n]:
            return f"succinctness row for n={n} contradicts the known separation"
    elif kind in ("check", "check-chain"):
        last = _lines(text)[-1]
        if not last.startswith("pass: ") or int(last.split()[1]) != expect["lassos"]:
            return f"expected 'pass: {expect['lassos']} lassos', got {last!r}"
        if kind == "check-chain" and (outputs[0] is None or _sha(outputs[0]) != expect["gfg_hoa_sha256"]):
            return "chained GFG HOA differs from the recorded bytes"
    elif kind == "solve":
        fields = dict(line.split(": ", 1) for line in _lines(text))
        if fields.get("winner") != expect["winner"]:
            return f"winner {fields.get('winner')} but the record says {expect['winner']}"
        if expect["winner"] == "Exist":
            size = int(fields["memory size"])
            if size > expect["memtree"]:
                return f"memory size {size} exceeds memtree {expect['memtree']}"
            if expect["memory"] is not None and size != expect["memory"]:
                return f"memory size {size} but the record says {expect['memory']}"
            if outputs and (outputs[0] is None or len(json.loads(outputs[0])["states"]) != size):
                return "memory file missing or disagrees with the printed memory size"
    return None


def output_digest(status: str, steps: list, outputs: list) -> str:
    parts = [status] + [f"{rc}\0{out}" for rc, out, _ in steps]
    parts += ["-" if data is None else _sha(data) for data in outputs]
    return _sha("\0".join(parts).encode())


# -- the timed section --------------------------------------------------------------


def run_section(manifest: dict, tracer) -> dict:
    items, limit = manifest["items"], manifest["limit_s"]
    signal.signal(signal.SIGALRM, _on_alarm)
    first_digest: dict[str, str] = {}
    executions = []
    # The traced run's readings stay between items, out of its spans.
    probe = SpeedProbe(inside=tracer is None)
    probe.between_items()  # warm-up
    for number in range(1, manifest["passes"] + 1):
        for item in items:
            for path in item.get("outputs", []):
                if os.path.exists(path):
                    os.remove(path)
            reset_invocation_state()
            before = probe.between_items()
            if executions:
                executions[-1]["reference_s"] += before
            latency, status, steps = run_item(item, limit, tracer, probe)
            problem = None
            outputs = []
            if status == "done":
                try:
                    outputs = [_read(path) for path in item.get("outputs", [])]
                    # A traced run's outputs are compared with the untraced run's,
                    # which made the expensive checks already.
                    full = tracer is None and item["id"] not in first_digest
                    problem = check_output(item, steps, outputs, full)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    problem = f"unreadable output: {type(exc).__name__}: {exc}"
            elif status == "timeout":
                if not item["expect"].get("known_timeout"):
                    problem = f"over the {limit} s item time limit"
            else:
                problem = status
            digest = output_digest(status, steps, outputs)
            if problem is None and first_digest.setdefault(item["id"], digest) != digest:
                problem = "output differs from the item's first run"
            executions.append({
                "id": item["id"],
                "pass": number,
                "latency_s": latency,
                "status": status,
                "ok": status == "done" and problem is None,
                "problem": problem,
                "digest": digest,
                "reference_s": before + probe.readings,
            })
    reset_invocation_state()
    executions[-1]["reference_s"] += probe.between_items()
    return {"passes": manifest["passes"], "executions": executions}


def main(argv: list[str]) -> int:
    manifest_path, results_path, spawned_at = argv[0], argv[1], float(argv[2])
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spawned_at
    result = {"setup_s": setup_s}
    if "--setup-only" not in argv:
        tracer = None
        if "--trace" in argv:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        result.update(run_section(manifest, tracer))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.write(argv[argv.index("--trace") + 1])
            result["layers"] = tracer.metrics()
            result["missing_targets"] = tracer.missing
    with open(results_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

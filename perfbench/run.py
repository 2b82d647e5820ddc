"""The mullergames benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload build --seed 1 --seconds 25 --trace 0

`--workload all` runs the three workloads in turn.  The instance files are
generated here, untimed, from the seed; each measurement then runs in a
fresh Python process (`worker.py`), one at a time.  With `--trace 0` the
last line of output is a JSON object with the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a traced run, next to an
untraced run of the same items whose outputs must be identical.

The exit code is 0 when every item's output was right, 1 when an item gave
a wrong output or failed unexpectedly, and 2 when the program or the
benchmark's files are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from instances import WORKLOADS, build_items, load_pool  # noqa: E402

SETUP_PROBES = 10
# Item times are scaled to the speed at which `worker.reference_work` takes
# this long: about the faster of the speeds the 2-core x86-64 cloud VM the
# benchmark was built on switches between.
REFERENCE_S = 1.1e-3
RUN_DEADLINE_S = 170  # a run, set-up probes included, ends within this
OUT_DIR = ".perfbench"


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of sorted values."""
    return values[max(1, math.ceil(p / 100 * len(values))) - 1]


def tail_percentile(n: int) -> int:
    """The highest whole percentile that leaves at least ten items beyond it."""
    return math.floor(100 * (n - 10) / n) if n > 10 else 100


def spawn_worker(deadline: float, manifest: str, results: str, *extra: str) -> dict:
    # Set iteration order changes how much work some of the program's
    # searches do, so every worker uses the same string hashing.
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), manifest, results, repr(spawned_at), *extra],
        check=True,
        timeout=max(1.0, deadline - time.monotonic()),
        env=env,
    )
    with open(results, encoding="utf-8") as handle:
        return json.load(handle)


def scaled_latency(execution: dict) -> float:
    """An item's latency at the reference speed.

    The host's speed drifts, so the worker times a fixed routine before,
    inside and after every item, and the item's time is scaled by how much
    slower than REFERENCE_S the routine ran on average.  A timed-out item
    cost its time limit, whatever the speed.
    """
    if execution["status"] == "timeout":
        return execution["latency_s"]
    return execution["latency_s"] * REFERENCE_S / statistics.fmean(execution["reference_s"])


def end_to_end(section: dict, setups: list[float], limit_s: float) -> tuple[dict, list[str]]:
    runs = section["executions"]
    ok = [r for r in runs if r["ok"]]
    latencies = sorted(scaled_latency(r) if r["ok"] else math.inf for r in runs)
    tail_p = tail_percentile(len(runs))
    tail = percentile(latencies, tail_p)
    reference = statistics.median(t for r in runs for t in r["reference_s"])
    notes = [
        f"{len(runs)} items in {section['passes']} passes, tail is p{tail_p}",
        f"times scaled to the reference speed; the host ran at {REFERENCE_S / reference:.3f} of it",
    ]
    if math.isinf(tail):
        notes.append(f"tail item failed; reported at the {limit_s} s item limit")
        tail = limit_s
    timed = sum(scaled_latency(r) for r in runs)
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": len(ok) / timed,
        "item_p50_ms": min(percentile(latencies, 50), limit_s) * 1000,
        "item_tail_ms": tail * 1000,
        "ok_ratio": len(ok) / len(runs),
        "peak_rss_mb": section["peak_rss_mb"],
    }
    return metrics, notes


def first_pass_digests(section: dict) -> dict[str, str]:
    return {r["id"]: r["digest"] for r in section["executions"] if r["pass"] == 1}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, bench: dict, pool: dict) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    os.makedirs(OUT_DIR, exist_ok=True)
    work = os.path.join(OUT_DIR, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        limit = WORKLOADS[workload]["limit_s"]
        items = build_items(pool, workload, seed, os.path.abspath(work))
        manifest = os.path.join(work, "manifest.json")
        # A fixed number of whole passes, so that every run of a workload does
        # the same work whatever the program's speed.
        passes = max(1, round((seconds / 2 if trace else seconds) / WORKLOADS[workload]["pass_s"]))
        with open(manifest, "w", encoding="utf-8") as handle:
            json.dump({"workload": workload, "seed": seed, "limit_s": limit, "passes": passes, "items": items}, handle)
        results = os.path.join(work, "results.json")
        setups = [spawn_worker(deadline, manifest, results, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES - 1)]
        plain = spawn_worker(deadline, manifest, results)
        setups.append(plain["setup_s"])
        sections = [plain]
        metrics, notes = end_to_end(plain, setups, limit)
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        if trace:
            spans_path = os.path.join(OUT_DIR, f"trace-{workload}-{seed}.jsonl")
            traced = spawn_worker(deadline, manifest, results, "--trace", spans_path)
            sections.append(traced)
            traced_metrics, _ = end_to_end(traced, setups, limit)
            layers = {k: (v if k == "games.exist_win_share" else v / traced["passes"]) for k, v in traced["layers"].items()}
            layers["trace.overhead_ratio"] = metrics["items_per_s"] / traced_metrics["items_per_s"]
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
            shown = {name: layers.get(name, 0.0) for name in units}
            notes.append(f"per-layer values are per pass ({traced['passes']} traced passes); spans in {spans_path}")
            if traced["missing_targets"]:
                notes.append("not traced (absent from the program): " + ", ".join(traced["missing_targets"]))
            plain_out, traced_out = first_pass_digests(plain), first_pass_digests(traced)
            differ = sorted(k for k in plain_out.keys() & traced_out.keys() if plain_out[k] != traced_out[k])
            notes.append(f"traced outputs equal untraced: {not differ}" + (f" (differ: {', '.join(differ[:5])})" if differ else ""))
        else:
            shown = metrics
        problems = [r for s in sections for r in s["executions"] if r["problem"]]
        failed = sum(1 for s in sections for r in s["executions"] if not r["ok"])
        attempted = sum(len(s["executions"]) for s in sections)
        correct = not problems and not (trace and differ)
        for r in problems[:20]:
            print(f"FAILED {r['id']}: {r['problem']}")
        print(f"workload {workload} seed {seed}: " + "; ".join(notes))
        print(f"  failed_ratio = {failed / attempted:.4f} ({failed} of {attempted})")
        for name, value in shown.items():
            print(f"  {name} = {value:.6g} {units[name]}")
        return {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in shown.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "mullergames", "cli.py")):
        print("error: run from the repository root; src/mullergames is missing", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    pool = load_pool()
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), bench, pool)
    else:
        parts = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), bench, pool) for w in WORKLOADS}
        result = {
            "correct": all(p["correct"] for p in parts.values()),
            "attempted": sum(p["attempted"] for p in parts.values()),
            "failed": sum(p["failed"] for p in parts.values()),
            "metrics": {f"{w}.{k}": v for w, p in parts.items() for k, v in p["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

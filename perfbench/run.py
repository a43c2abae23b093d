"""The nlgotz benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; it imports the library from `src/` of
that checkout, never from an installed copy.  Every pass runs in a fresh
interpreter started by this process, one at a time, so no in-process memo
carries over and the load comes from a single process.

With `--trace 0` it prints the end-to-end metrics of BENCHMARK.json; with
`--trace 1` it alternates untraced and traced passes and prints the
per-layer metrics.  The last line of standard output is the JSON result;
the lines before it repeat the metrics for a reader, with the sample
counts, the tail rank and the run's stamp.  The full record, with every
sample, goes to `.bench_out/` in the checkout.  See README.md for the
workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-all", "expansions", "subspaces")

SETUP_RUNS = 5
MIN_PASSES = 3
MIN_TRACE_PAIRS = 2
HARD_LIMIT_S = 170.0
PERCENTILES = (50, 75, 90, 95, 99, 99.9, 99.99)
TOP_SHAPES = 5

STATS = ("calls", "total_s", "self_s")


def rank_index(n: int, q: float) -> int:
    """Index of the nearest-rank q-th percentile in n sorted values."""
    return min(n, max(1, math.ceil(q / 100 * n))) - 1


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    s = sorted(values)
    return s[rank_index(len(s), q)] if s else 0.0


def tail_mean(values: list[float], q: float) -> tuple[float, int]:
    """Mean of the values at or beyond the nearest-rank q-th percentile, and
    their count.  The value at the rank alone is whichever item the seed
    puts there; the mean over the whole tail moves only when the tail does."""
    s = sorted(values)
    if not s:
        return 0.0, 0
    beyond = s[rank_index(len(s), q) :]
    return statistics.fmean(beyond), len(beyond)


def tail_rank(n: int) -> float:
    """The highest percentile of PERCENTILES with at least ten items beyond it."""
    return max(q for q in PERCENTILES if n * (1 - q / 100) >= 10 or q == 50)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


class Runner:
    """Starts the worker processes one at a time and keeps what they return."""

    def __init__(self, workload: str, seed: int, out_dir: Path):
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.t_start = time.perf_counter()
        self.nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.env["PERFBENCH_SRC"] = src
        self.threads = {
            var: str(self.nproc)
            for var in (
                "OMP_NUM_THREADS",
                "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS",
            )
        }
        self.env.update(self.threads)
        self.crashes: list[str] = []
        self.passes = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.t_start

    def child(self, mode: str) -> dict | None:
        """Run one worker; None when it crashed or timed out."""
        argv = [sys.executable, str(HERE / "worker.py"), mode, self.workload, str(self.seed)]
        argv += [str(self.out_dir), str(self.passes)]
        timeout = max(1.0, HARD_LIMIT_S - self.elapsed())
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            self.crashes.append(f"{mode} worker timed out after {timeout:.0f} s")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.crashes.append(f"{mode} worker exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
            return None
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            self.crashes.append(f"{mode} worker printed no result: {lines[-1][:200]}")
            return None


def run_passes(runner: Runner, seconds: int, trace: bool) -> tuple[list, list, list]:
    """Setup samples, untraced passes and traced passes of one run; the
    set-up samples count toward `seconds`, so a run lasts about that long."""
    t0 = time.perf_counter()
    setups = [runner.child("setup") for _ in range(SETUP_RUNS)]
    if any(s is None for s in setups):
        return [], [], []
    plain: list[dict | None] = []
    traced: list[dict | None] = []
    durations: list[float] = []
    while True:
        done = len(traced) if trace else len(plain)
        spent = time.perf_counter() - t0
        step = statistics.median(durations) if durations else 0.0
        if done >= (MIN_TRACE_PAIRS if trace else MIN_PASSES) and spent + step > seconds:
            break
        if runner.elapsed() + step > HARD_LIMIT_S - 10:
            break
        ts = time.perf_counter()
        plain.append(runner.child("pass"))
        runner.passes += 1
        if trace:
            traced.append(runner.child("trace"))
            runner.passes += 1
        durations.append(time.perf_counter() - ts)
    return setups, plain, traced


def end_to_end(setups: list[dict], ok: list[dict]) -> tuple[dict, dict]:
    # every pass runs the same items in the same order; an item's time is its
    # median over the passes, so a stall that hits one pass does not reach the tail
    items = [statistics.median(times) for times in zip(*(p["item_ms"] for p in ok))]
    # the samples beyond the rank are items times passes; the rank follows from
    # the fewest passes a run makes, so it is the same in every run
    rank = tail_rank(len(items) * MIN_PASSES)
    tail, tail_n = tail_mean(items, rank)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups + ok),
        "wall_s": statistics.median(p["wall_s"] for p in ok),
        "items_per_s": statistics.median(p["items"] / p["wall_s"] if p["wall_s"] else 0.0 for p in ok),
        "item_p50_ms": percentile(items, 50),
        "item_tail_ms": tail,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in ok),
    }
    notes = {
        "setup_s": f"median of {len(setups) + len(ok)} fresh interpreters",
        "wall_s": f"median of {len(ok)} passes",
        "items_per_s": f"median of {len(ok)} passes, {ok[0]['items']} items each",
        "item_p50_ms": f"p50 of {len(items)} {ok[0]['info']['item_times']}, median of {len(ok)} passes",
        "item_tail_ms": (
            f"mean of the {tail_n} slowest of the same, those at or beyond "
            f"p{rank:g} (p{rank:g} itself: {percentile(items, rank):.6g} ms)"
        ),
        "peak_rss_mb": f"median of {len(ok)} passes",
    }
    return metrics, notes


def layer_values(p: dict, names: list[str], plain_wall_s: float) -> dict[str, float]:
    """The named per-layer metrics of one traced pass; `plain_wall_s` is the
    untraced `wall_s` that `trace.overhead_s` is measured from.

    A name is a figure derived below, a counter of the tracer,
    `layer.<module>.self_s` (the self time of every span of a module),
    `verify.<suite>.s` (the span of one suite), or `<span>.<stat>` of a
    traced span.  A span that never ran, or whose public name is absent,
    reads 0; a name that fits none of these is an error.
    """
    layers, counters = p["layers"], p["counters"]

    def stat(span: str, key: str) -> float:
        return layers.get(span, {}).get(key, 0)

    rows = counters["modp.rref.rows_sum"]
    attempts = counters["graded.restrict_to_hyperplane.attempts"]
    derived = {
        "modp.rref.rank_over_rows": counters["modp.rref.rank_sum"] / rows if rows else 0,
        "graded.restrict_to_hyperplane.accept_ratio": (
            stat("graded.restrict_to_hyperplane", "calls") / attempts if attempts else 0
        ),
        "trace.self_sum_s": sum(v["self_s"] for v in layers.values()),
        "trace.wall_s": p["wall_s"],
        "trace.overhead_s": p["wall_s"] - plain_wall_s,
        "trace.spans": p["spans"],
        "trace.absent": len(p["absent"]),
    }
    out: dict[str, float] = {}
    for name in names:
        span, _, key = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif name in counters:
            out[name] = counters[name]
        elif span.startswith("layer.") and key == "self_s":
            module = span.split(".", 1)[1]
            out[name] = sum(v["self_s"] for k, v in layers.items() if k.split(".")[0] == module)
        elif span.startswith("verify.") and key == "s":
            out[name] = stat(span, "total_s")
        elif key in STATS:
            out[name] = stat(span, key)
        else:
            raise KeyError(f"per-layer metric {name} has no source")
    return out


def per_layer(plain: list[dict], traced: list[dict], names: list[str]) -> tuple[dict, dict]:
    plain_wall_s = statistics.median(p["wall_s"] for p in plain)
    per_pass = [layer_values(p, names, plain_wall_s) for p in traced]
    metrics = {k: statistics.median(v[k] for v in per_pass) for k in names}
    totals: dict[str, list] = {}
    for p in traced:
        for fn, shape, sec, calls in p["shapes"]:
            slot = totals.setdefault(f"{fn} {shape}", [0.0, 0])
            slot[0] += sec / len(traced)
            slot[1] += calls / len(traced)
    top = sorted(totals.items(), key=lambda kv: -kv[1][0])[:TOP_SHAPES]
    notes = {
        "top_shapes": [f"{k}: {s:.4f} s in {c:g} calls per pass" for k, (s, c) in top],
        "absent": sorted({n for p in traced for n in p["absent"]}),
        "passes": f"{len(traced)} traced, {len(plain)} untraced",
    }
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "nlgotz" / "__init__.py").is_file():
        print(f"no nlgotz sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    runner = Runner(args.workload, args.seed, out_dir)
    setups, plain, traced = run_passes(runner, args.seconds, bool(args.trace))
    ok = [p for p in plain + traced if p is not None]
    untraced = [p for p in plain if p is not None]
    if not setups or not untraced or (args.trace and len(ok) == len(untraced)):
        print("\n".join(["no pass completed"] + runner.crashes), file=sys.stderr)
        return 1
    attempted = sum(p["items"] for p in ok) + len(runner.crashes)
    failed = sum(p["failed"] for p in ok) + len(runner.crashes)
    if args.trace:
        wanted = spec["per_layer"]
        values, notes = per_layer(
            untraced, [p for p in traced if p is not None], [m["name"] for m in wanted]
        )
    else:
        values, notes = end_to_end(setups, untraced)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    stamp = dict(ok[0]["stamp"])
    stamp.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        python=platform.python_version(),
        machine=platform.machine(),
        nproc=runner.nproc,
        thread_caps=runner.threads,
        commit=git_commit(),
    )
    info = ok[0]["info"]
    lines = [
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"passes={len(ok)} elapsed={runner.elapsed():.1f}s",
        "stamp: " + ", ".join(f"{k}={v}" for k, v in stamp.items() if k != "thread_caps"),
        f"failed_frac: {failed / attempted:g} ({failed}/{attempted} items)",
        f"digest recorded for this seed: {'yes' if info.get('digest_recorded') else 'no'}",
    ]
    if "repeated_share" in info:
        lines.append(f"repeated (c, d) pairs: {info['repeated_share']:.4f} of each pass")
    for m in wanted:
        note = notes.get(m["name"], "")
        lines.append(f"{m['name']:<44} {values[m['name']]:>14.6g} {m['unit']:<6} {note}".rstrip())
    if args.trace:
        lines.append("top kernel shapes by time: " + "; ".join(notes["top_shapes"]))
        lines.append("absent public names: " + (", ".join(notes["absent"]) or "none"))
    errors = runner.crashes + [e for p in ok for e in p["errors"]]
    lines += [f"error: {e}" for e in errors[:10]]

    record = {
        "stamp": stamp,
        "metrics": metrics,
        "notes": notes,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "passes": ok,
        "setup_samples": [s["setup_s"] for s in setups],
    }
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(lines))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

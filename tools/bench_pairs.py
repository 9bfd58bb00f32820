"""Paired benchmark record of two source checkouts, a parent and a change.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --seeds 3401-3410 --out record.json

For each workload and seed, ``cfbench/run.py --trace 0`` runs for SECONDS
once in each checkout, one after the other, the first side flipping from
seed to seed.  Each side's figures are the medians over its runs;
``change_wins_op_p50`` counts the seeds whose change run has the lower
op_p50.  Then each command of LARGE runs in a fresh process per side and
each of LARGE_REPEATS repeats (``python -m cfcool ... --output``),
alternating sides, and its wall time (interpreter start included) and max
RSS are recorded.  Both checkouts need ``cfbench/``, ``src/`` and
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("spectrum_closed", "spectrum_solver", "sweep", "design_verify")
SECONDS = 20.0
LARGE_REPEATS = 3
METRICS = ("op_p50_ms", "op_p90_ms", "ops_per_s", "setup_s", "peak_rss_mb", "ok_frac")
NOTCH = "--topology notch --kappa 10 --g 0.1 --kappa-f 1"
#: Commands at the 10^6 bound on grid size, and one row for scale.
LARGE = {
    "spectrum, README notch (closed form)":
        f"spectrum {NOTCH} --omega-min -3 --omega-max 3 --points 1000000",
    "spectrum, delayed lossy imbalanced notch (closed form with delay)":
        "spectrum --topology notch --kappa 10 --g 0.1 --kappa1 1 --kappa2 1.3 --kappa-loss 0.2"
        " --tau 0.5 --omega-min -3 --omega-max 3 --points 1000000",
    "sweep --sweep-param delta, README notch":
        f"sweep {NOTCH} --sweep-param delta --sweep-min -5 --sweep-max 0 --sweep-points 1000000",
    "rates, one row (for scale)": f"rates {NOTCH}",
}


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def bench_run(root: Path, workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, "cfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(SECONDS), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else {}
    metrics = {k: v["value"] for k, v in result.get("metrics", {}).items()}
    why = {"stderr_tail": done.stderr[-800:]} if done.returncode else {}
    return {"exit": done.returncode, "failed_ops": result.get("failed"), **metrics, **why}


def side_summary(runs: list[dict]) -> dict:
    """Medians over the runs that exited 0 (None without one), and the
    quartiles of their op_p50 (None below two)."""
    ok = [run for run in runs if run["exit"] == 0]
    out = {m: statistics.median(run[m] for run in ok) if ok else None for m in METRICS}
    p50 = [run["op_p50_ms"] for run in ok]
    out["op_p50_quartiles"] = statistics.quantiles(p50, n=4) if len(p50) > 1 else None
    out.update(runs=len(ok), failed_ops=sum(run["failed_ops"] for run in ok))
    return out


def change_frac(parent: float | None, change: float | None) -> float | None:
    if parent is None or change is None:
        return None
    return change / parent - 1.0 if parent else 0.0


def large_run(root: Path, argv: list[str], path: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "cfcool", *argv, "--output", path], env=env)
    _, status, usage = os.wait4(proc.pid, 0)  # reaped here, for its rusage
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # so Popen does not wait again
    return {"exit": proc.returncode, "wall_s": wall, "max_rss_mb": usage.ru_maxrss / 1024.0}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", type=seeds, required=True, help="first-last")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    runs, workloads = [], {}
    for workload in WORKLOADS:
        by_side = {"parent": [], "change": []}
        for i, seed in enumerate(args.seeds):
            for side in ("parent", "change")[:: 1 if i % 2 == 0 else -1]:
                run = {"workload": workload, "side": side, "seed": seed,
                       **bench_run(roots[side], workload, seed)}
                print(json.dumps(run), flush=True)
                runs.append(run)
                by_side[side].append(run)
        summary = {side: side_summary(by_side[side]) for side in by_side}
        pairs = [(p, c) for p, c in zip(by_side["parent"], by_side["change"])
                 if p["exit"] == c["exit"] == 0]
        workloads[workload] = {
            "seeds": args.seeds,
            **summary,
            "pairs": len(pairs),
            "change_wins_op_p50": sum(c["op_p50_ms"] < p["op_p50_ms"] for p, c in pairs),
            "median_change_frac": {
                m: change_frac(summary["parent"][m], summary["change"][m]) for m in METRICS
            },
            "exit_codes_not_0": [run for run in by_side["parent"] + by_side["change"] if run["exit"]],
        }

    large = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, command in LARGE.items():
            rows = {"parent": [], "change": []}
            for repeat in range(LARGE_REPEATS):
                for side in ("parent", "change")[:: 1 if repeat % 2 == 0 else -1]:
                    rows[side].append(large_run(roots[side], command.split(), f"{tmp}/{side}.out"))
            # filecmp reads in chunks: a child's ru_maxrss starts from the RSS of
            # the process it was forked from, so this one stays small.  A
            # failed last run leaves no output to compare.
            same = None
            if rows["parent"][-1]["exit"] == rows["change"][-1]["exit"] == 0:
                same = filecmp.cmp(f"{tmp}/parent.out", f"{tmp}/change.out", shallow=False)
            large[name] = {"command": f"cfcool {command}", "same_bytes": same, **{
                side: {"wall_s": statistics.median(r["wall_s"] for r in rs),
                       "max_rss_mb": statistics.median(r["max_rss_mb"] for r in rs),
                       "exits": [r["exit"] for r in rs]}
                for side, rs in rows.items()}}
            print(json.dumps({name: large[name]}), flush=True)

    args.out.write_text(json.dumps({
        "command": f"python3 cfbench/run.py --workload <w> --seed <s> --seconds {SECONDS:g} --trace 0",
        "run_seconds": SECONDS,
        "pairing": "parent and change run one after the other for each seed, the first side "
                   "flipping from seed to seed",
        "workloads": workloads,
        "runs": runs,
        "large_tables": {
            "what": "one fresh process per command, side and repeat, sides alternating; medians of "
                    f"{LARGE_REPEATS} repeats; wall time includes interpreter start; max RSS "
                    "is the process's ru_maxrss; same_bytes compares the last outputs (None "
                    "unless both exited 0)",
            "commands": large,
        },
    }, indent=1) + "\n")


if __name__ == "__main__":
    main()

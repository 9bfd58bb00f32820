"""cfcool benchmark: one closed-loop workload per run, checked outputs, metrics.

    python3 cfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 cfbench/run.py --self-test

Run from the root of a source checkout; the package is imported from ``src``.
Every op runs in a worker process (``worker.py``) started in a fresh
interpreter with BLAS threads pinned to 1.  With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced worker, plus the tracing overhead
against an untraced worker of the same seed (each gets half of ``--seconds``).
The full record, provenance included, goes to ``.bench_out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("spectrum_closed", "spectrum_solver", "sweep", "design_verify")

THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}

#: Fresh-interpreter set-up probes per run, half before and half after the
#: measured worker; setup_s is their median.
SETUP_PROBES = 8
IMPORTTIME_PROBES = 3
#: An untraced run keeps going past --seconds until it has this many ops, so
#: that at least 10 latencies lie beyond the 90th percentile.
MIN_OPS = 100
WORKER_TIMEOUT_S = 160

def worker_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def start_worker(args: list[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True,
    )


def finish(proc: subprocess.Popen) -> str:
    """Wait for a worker; returns its remaining stdout."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def run_worker(workload, seed, seconds, traced, min_ops) -> tuple[float, dict]:
    """Start a worker; returns (seconds to READY, its summary)."""
    t0 = time.perf_counter()
    proc = start_worker(
        [workload, str(seed), repr(seconds), str(int(traced)), str(min_ops), str(OUT)]
    )
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if line.strip() != "READY":
            raise RuntimeError(f"worker did not get ready: {line!r}")
    finally:
        out = finish(proc)
    lines = out.strip().splitlines()
    return setup, json.loads(lines[-1]) if lines else {}


def setup_seconds(workload: str, seed: int, probes: int) -> list[float]:
    """Time fresh interpreters from start to first op ready.

    Each time is scaled to the reference host speed, as op latencies are.
    """
    times = []
    for _ in range(probes):
        setup, probe = run_worker(workload, seed, 0, False, 0)
        times.append(setup * probe["host_scale"])
    return times


def import_seconds() -> dict[str, float]:
    """Cumulative import times from ``python -X importtime``; medians of probes."""
    probes = {"numpy": [], "cfcool": []}
    for _ in range(IMPORTTIME_PROBES):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import cfcool"],
            cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S, check=True,
        )
        cumulative = {}
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in probes:
                cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
        for name in probes:
            probes[name].append(cumulative[name])
    numpy_s = statistics.median(probes["numpy"])
    return {
        "setup.import_numpy_s": numpy_s,
        # cfcool's own share: its cumulative time includes importing numpy.
        "setup.import_cfcool_s": statistics.median(probes["cfcool"]) - numpy_s,
    }


def source_digest(*dirs: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for d in dirs for p in d.rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def cache_sizes() -> dict[str, int | None]:
    sizes = {}
    for label, key in (
        ("l1d", "SC_LEVEL1_DCACHE_SIZE"), ("l2", "SC_LEVEL2_CACHE_SIZE"),
        ("l3", "SC_LEVEL3_CACHE_SIZE"),
    ):
        try:
            sizes[label] = os.sysconf(key) or None
        except (ValueError, OSError):
            sizes[label] = None
    return sizes


def check_digests(workload: str, seed: int, digests: dict) -> list[str]:
    """Compare output digests with earlier runs of the same seed and code.

    Digests are keyed by a hash of the package and benchmark sources, so they
    are never compared across versions of either.
    """
    code = source_digest(SRC, HERE)[:16]
    store = OUT / "digests" / f"{workload}-seed{seed}-{code}.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    mismatched = [k for k, d in digests.items() if known.get(k, d) != d]
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps({**digests, **known}, sort_keys=True))
    return [f"input {k}: output differs from an earlier run of seed {seed}" for k in mismatched]


def provenance(seed: int, numpy_version: str) -> dict:
    return {
        "seed": seed,
        "git_sha": git_sha(),
        "src_sha256": source_digest(SRC),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cache_bytes": cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "thread_env": THREAD_ENV,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns (final line, full record)."""
    record: dict = {"workload": workload, "seconds": seconds, "trace": trace}
    if trace:
        half = seconds / 2.0
        _, plain = run_worker(workload, seed, half, False, 0)
        _, traced = run_worker(workload, seed, half, True, 0)
        workers = [plain, traced]
        metrics = dict(traced["layers"])
        metrics.update(import_seconds())
        metrics["trace.overhead_frac"] = 1.0 - traced["ops_per_s"] / plain["ops_per_s"]
        record["spans_file"] = traced["spans_file"]
        record["spans_dropped"] = traced["spans_dropped"]
    else:
        setup_seconds(workload, seed, 1)  # warm-up: byte-compiles src once
        setups = setup_seconds(workload, seed, SETUP_PROBES // 2)
        _, main = run_worker(workload, seed, seconds, False, MIN_OPS)
        setups += setup_seconds(workload, seed, SETUP_PROBES - SETUP_PROBES // 2)
        workers = [main]
        metrics = {key: main[key] for key in ("op_p50_ms", "op_p90_ms", "ops_per_s", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(setups)
        record["samples"] = {
            "op_p50_ms": main["ops"], "op_p90_ms": main["ops"],
            "beyond_p90": main["beyond_p90"], "ops_per_s": main["ops"],
            "setup_s": len(setups), "peak_rss_mb": 1, "ok_frac": main["ops"],
        }
        record["setup_probes_s"] = setups
        record["raw"] = {
            key: main[key]
            for key in ("raw_op_p50_ms", "raw_op_p90_ms", "raw_ops_per_s", "probe_ms")
        }

    digests, mismatches = {}, []
    for w in workers:
        for k, d in w["digests"].items():
            if digests.setdefault(k, d) != d:
                mismatches.append(f"input {k}: output differs between the two workers")
    mismatches += check_digests(workload, seed, digests)
    attempted = sum(w["ops"] for w in workers)
    failed = min(attempted, sum(w["failed"] for w in workers) + len(mismatches))
    if not trace:
        metrics["ok_frac"] = 1.0 - failed / attempted
    record["failures"] = [f for w in workers for f in w["failures"]] + mismatches
    record["provenance"] = provenance(seed, workers[0]["numpy"])
    record["ops"] = [w["ops"] for w in workers]

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    final = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    record["result"] = final
    return final, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "cfcool" / "__init__.py").is_file():
        print(f"cfbench: no cfcool package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.self_test:
        return subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--self-test", str(OUT)],
            cwd=ROOT, env=worker_env(), timeout=WORKER_TIMEOUT_S,
        ).returncode
    if args.workload is None:
        parser.error("--workload is required")

    final, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    prov = record["provenance"]
    print(
        f"cfbench {args.workload} seed={args.seed} ops={record['ops']} "
        f"nproc={prov['nproc']} python={prov['python']} numpy={prov['numpy']} "
        f"git={prov['git_sha']} record={path.relative_to(ROOT)}"
    )
    for failure in record["failures"][:10]:
        print(f"FAILED: {failure}")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

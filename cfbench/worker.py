"""One benchmark process: import cfcool, build the seeded inputs, run the loop.

``run.py`` starts this script in a fresh interpreter, with ``src`` on
``PYTHONPATH`` and BLAS threads pinned to 1 in the environment:

    python3 cfbench/worker.py WORKLOAD SEED SECONDS TRACE MIN_OPS OUTDIR
    python3 cfbench/worker.py --self-test OUTDIR

It prints ``READY`` once the first op is ready; the parent times set-up up to
that line.  With SECONDS 0 it then only runs the reference probe (see
``reference_probe``).  Otherwise it runs the loop and prints one JSON line with
the run's summary.  The loop is closed: one client, each op issued only after
the previous one has finished and been checked.  Only the op itself is timed.
"""

from __future__ import annotations

import bisect
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

#: A run stops after this many seconds even if it has not reached MIN_OPS.
HARD_CAP_S = 120.0

#: Host speed: a reference probe runs before an op whenever PROBE_EVERY_S
#: have passed since the last one, and once after the last op.  An op is scaled
#: by the median of the probes that ran from PROBE_MARGIN_S before its start to
#: PROBE_MARGIN_S after its end, to a host on which the probe takes
#: REFERENCE_S.  These settings gave the steadiest percentiles on recorded runs.
PROBE_EVERY_S = 0.05
PROBE_MARGIN_S = 0.1
REFERENCE_S = 2.0e-3
SETUP_PROBE_REPEATS = 5
_PROBE_MATRIX = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]], dtype=complex)
_PROBE_RHS = np.ones(3, dtype=complex)

#: Spans kept in memory for the span file; calls beyond it are only counted.
SPAN_CAP = 100_000


def reference_probe() -> float:
    """Seconds taken by a fixed piece of work that does not touch cfcool.

    It mixes the interpreter-bound complex arithmetic and small numpy solves
    that dominate the workloads, so it slows down with them when the host
    does.
    """
    t0 = time.perf_counter()
    acc = 0j
    for k in range(3000):
        z = complex(k * 1e-3, 1.0)
        acc += 1.0 / (z * z + 0.5j)
    for _ in range(150):
        np.linalg.solve(_PROBE_MATRIX, _PROBE_RHS)
    return time.perf_counter() - t0


def host_speed(times: list[float], probes: list[float], start: float, end: float) -> float:
    """Median probe time around the interval [start, end] (else the nearest)."""
    lo = bisect.bisect_left(times, start - PROBE_MARGIN_S)
    hi = bisect.bisect_right(times, end + PROBE_MARGIN_S)
    if lo == hi:
        return probes[min(range(len(times)), key=lambda j: abs(times[j] - start))]
    return statistics.median(probes[lo:hi])


def latency_stats(starts, latencies, probe_times, probes) -> dict:
    """Op latency percentiles and throughput at the reference host speed.

    The host's speed drifts by up to 1.8x over seconds to minutes, which moves
    raw percentiles of a run by 30-50%.  Each latency is therefore scaled by
    REFERENCE_S / (the reference probe's time around that op), which expresses
    it at the speed of a host on which the probe takes REFERENCE_S.  Raw
    percentiles are reported alongside.
    """
    scaled = [
        latency * REFERENCE_S / host_speed(probe_times, probes, t, t + latency)
        for t, latency in zip(starts, latencies)
    ]

    def p90(values):
        return statistics.quantiles(values, n=10)[8] if len(values) >= 2 else values[0]

    tail = p90(scaled)
    return {
        "op_p50_ms": 1e3 * statistics.median(scaled),
        "op_p90_ms": 1e3 * tail,
        "ops_per_s": len(scaled) / sum(scaled),
        "beyond_p90": sum(x > tail for x in scaled),
        "raw_op_p50_ms": 1e3 * statistics.median(latencies),
        "raw_op_p90_ms": 1e3 * p90(latencies),
        "probe_ms": [1e3 * min(probes), 1e3 * statistics.median(probes), 1e3 * max(probes)],
    }


def run_loop(name, seed, seconds, traced, min_ops, outdir: Path) -> dict:
    from workloads import POOL, WORKLOADS, digest, make_inputs

    workload = WORKLOADS[name]
    specs = make_inputs(name, seed)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=outdir))
    try:
        print("READY", flush=True)
        if seconds <= 0:
            probe = statistics.median(reference_probe() for _ in range(SETUP_PROBE_REPEATS))
            return {"probe_s": probe, "host_scale": REFERENCE_S / probe}
        tracer = None
        if traced:
            from tracing import Tracer

            tracer = Tracer(SPAN_CAP)
            tracer.install()

        starts, latencies, probe_times, probes, failures, digests = [], [], [], [], [], {}
        failed, untimed_s, i = 0, 0.0, 0
        clock = time.perf_counter
        start = clock()
        while True:
            k = i % POOL
            spec = specs[k]
            if not probes or clock() - probe_times[-1] >= PROBE_EVERY_S:
                probe_times.append(clock())
                probes.append(reference_probe())
                untimed_s += clock() - probe_times[-1]
            if tracer:
                tracer.op, tracer.active = i, True
            t0 = clock()
            try:
                raw, errors = workload.run(spec, tmp), []
            except Exception as exc:  # an op that raises is a failed op
                errors = [f"op raised {exc!r}"]
            t1 = clock()
            if tracer:
                tracer.active = False
            starts.append(t0)
            latencies.append(t1 - t0)
            if not errors:
                try:
                    out = workload.collect(spec, tmp, raw)
                    errors = workload.check(spec, out)
                except Exception as exc:  # a malformed output fails its check
                    errors = [f"check raised {exc!r}"]
            if not errors:
                d = digest(out[0])
                if digests.setdefault(k, d) != d:
                    errors = [f"input {k}: output bytes differ from its earlier run"]
            if errors:
                failed += 1
                if len(failures) < 10:
                    failures.append({"op": i, "input": k, "errors": errors[:3]})
            untimed_s += clock() - t1
            i += 1
            elapsed = clock() - start
            if (elapsed >= seconds and i >= min_ops) or elapsed >= HARD_CAP_S:
                break
        probe_times.append(clock())
        probes.append(reference_probe())
        untimed_s += clock() - probe_times[-1]

        result = {
            "ops": i,
            "failed": failed,
            "failures": failures,
            **latency_stats(starts, latencies, probe_times, probes),
            "raw_ops_per_s": i / (clock() - start - untimed_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "digests": digests,
        }
        if tracer:
            tracer.uninstall()
            spans = outdir / f"spans-{name}.csv"
            result["layers"] = tracer.layer_metrics(i)
            result["spans_file"] = str(spans)
            result["spans_dropped"] = tracer.write_spans(spans)
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def self_test(outdir: Path) -> bool:
    """Run one op per workload, then show each check rejecting a corrupted copy."""
    from workloads import WORKLOADS, digest, make_inputs

    ok = True
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=outdir))
    try:
        for name, workload in WORKLOADS.items():
            spec = make_inputs(name, 0)[0]
            out = workload.collect(spec, tmp, workload.run(spec, tmp))
            clean = workload.check(spec, out)
            bad = workload.corrupt(spec, out)
            fired = workload.check(spec, bad)
            digest_fired = digest(bad[0]) != digest(out[0])
            passed = not clean and bool(fired) and digest_fired
            ok &= passed
            print(
                f"{name}: clean output {'passes' if not clean else 'FAILS ' + str(clean)}; "
                f"corrupted output {'rejected: ' + fired[0] if fired else 'NOT REJECTED'}; "
                f"digest {'changes' if digest_fired else 'UNCHANGED'} -> "
                f"{'ok' if passed else 'SELF-TEST FAILED'}"
            )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return ok


def main(argv: list[str]) -> int:
    if argv[:1] == ["--self-test"]:
        return 0 if self_test(Path(argv[1])) else 1
    name, seed, seconds, traced, min_ops, outdir = argv[:6]
    result = run_loop(
        name, int(seed), float(seconds), traced == "1", int(min_ops), Path(outdir)
    )
    result["numpy"] = np.__version__
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

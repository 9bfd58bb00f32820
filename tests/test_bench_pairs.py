"""The paired benchmark recorder's summaries of runs that fail."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def run(exit_code, op_p50_ms=1.0):
    if exit_code:
        return {"exit": exit_code, "failed_ops": None, "stderr_tail": "Traceback ..."}
    figures = {m: 2.0 for m in bench_pairs.METRICS}
    return {"exit": 0, "failed_ops": 0, **figures, "op_p50_ms": op_p50_ms}


@pytest.mark.parametrize("runs, medians, quartiles", [
    ([run(1), run(1)], None, None),
    ([run(1), run(0, 3.0)], 3.0, None),
    ([run(0, 1.0), run(1), run(0, 3.0)], 2.0, [0.5, 2.0, 3.5]),
], ids=["none-ok", "one-ok", "two-ok"])
def test_side_summary_of_failed_runs(runs, medians, quartiles):
    summary = bench_pairs.side_summary(runs)
    ok = sum(r["exit"] == 0 for r in runs)
    assert summary["runs"] == ok and summary["failed_ops"] == 0
    assert summary["op_p50_ms"] == medians
    assert summary["setup_s"] == (2.0 if ok else None)
    assert summary["op_p50_quartiles"] == quartiles


def test_change_frac_without_a_side():
    assert bench_pairs.change_frac(None, 1.0) is None
    assert bench_pairs.change_frac(2.0, None) is None
    assert bench_pairs.change_frac(2.0, 1.0) == -0.5
    assert bench_pairs.change_frac(0.0, 1.0) == 0.0

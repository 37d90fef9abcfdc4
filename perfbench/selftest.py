"""Short-horizon self-test of the benchmark.

Run from the repository root::

    python3 perfbench/selftest.py

For every workload it runs one ``--trace 0`` and one ``--trace 1`` pass on a
short virtual horizon and asserts that

* every metric ``BENCHMARK.json`` names is printed with its unit, in the
  table and in the JSON result, and nothing else is in the result;
* no sample failed: every output check passed, every sample of a seed
  simulated the same outputs, and every traced sample simulated the same
  outputs as the plain one (the wrappers are behaviour-neutral).

Takes about two minutes on a 2-core box.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402

#: Virtual seconds per workload: long enough for every honest node to
#: deliver an epoch, short enough for the whole test to take minutes.
SHORT_HORIZONS = {"wan-saturate": 6.0, "real-bytes": 3.0, "censor-poisson": 1.0}


def check_pass(name: str, trace: bool, expected: dict[str, str]) -> None:
    table = io.StringIO()
    with contextlib.redirect_stdout(table):
        result = run.run(name, seed=1, seconds=0.0, trace=trace, horizon=SHORT_HORIZONS[name])
    label = f"{name} --trace {int(trace)}"
    assert result["failed"] == 0 and result["correct"], (label, table.getvalue())
    got = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
    assert got == expected, (label, sorted(set(got) ^ set(expected)), got)
    lines = table.getvalue().splitlines()
    for metric, unit in expected.items():
        assert any(
            line.split()[:1] == [metric] and line.split()[-1] == unit for line in lines
        ), (label, metric, unit)
    json.dumps(result, allow_nan=False)
    print(f"ok  {label}: {len(got)} metrics, {result['attempted']} samples")


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    names = [w["name"] for w in bench["workloads"]]
    assert sorted(names) == sorted(SHORT_HORIZONS), names
    for name in names:
        check_pass(name, False, end_to_end)
        check_pass(name, True, per_layer)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""CI perf gate: fail when kernel throughput regresses against the record.

Compares a fresh Google Benchmark JSON report against the most recent entry
in BENCH_kernel.json (the repo's performance trajectory) and exits non-zero
if any benchmark's items_per_second fell more than --tolerance (default 10%)
below the recorded value.

Usage:
    ./build/bench/micro_kernel   --benchmark_format=json > kernel.json
    ./build/bench/micro_wormhole --benchmark_format=json > wormhole.json
    python3 tools/perf_gate.py kernel.json wormhole.json

Rules of engagement:
  - Only benchmarks present in BOTH the report and the latest BENCH entry
    are gated; new benchmarks are reported as informational and should be
    added to BENCH_kernel.json in the PR that introduces them.
  - Aggregate rows (mean/median/stddev from --benchmark_repetitions) are
    gated on the median when present, otherwise on the plain run.
  - A benchmark appearing in several report files is gated on its fastest
    observation: single-shot benches (fig_scaling, serve_sustained) can be
    run twice on a noisy 1-core runner and gated best-of-N.
  - Speedups are never an error: the gate only bounds regressions. When the
    numbers move up for good, refresh BENCH_kernel.json with a new entry
    rather than letting headroom accumulate.

Pair gates compare two benchmarks WITHIN the same reports instead of against
the historical record -- immune to runner noise because both sides ran on
the same machine moments apart. Used to pin the cost of the disabled
observability hooks:

    python3 tools/perf_gate.py kernel.json \\
      --pair "BM_SimulationEventChainNullObs/10000=BM_SimulationEventChain/10000" \\
      --pair-tolerance 0.03

fails if the instrumented-but-disabled side falls more than --pair-tolerance
below its baseline side.

The scaling study (bench/fig_scaling) emits the same JSON shape with
items_per_second = simulated jobs completed per wall second (events/sec is
a counter there: eliding events lowers it even as runs get faster), so it
is gated with the same machinery against its own record:

    ./build/bench/fig_scaling --sizes 64,256 --json scaling.json
    python3 tools/perf_gate.py scaling.json --baseline BENCH_scaling.json \\
      --flat bytes_per_node:4.0

--flat COUNTER:FACTOR additionally checks a per-row counter for flatness
across every row that carries it: max/min must not exceed FACTOR. Used to
pin the O(N)-memory claim (bytes per node must not grow with machine size).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys


def load_report(path: pathlib.Path) -> dict[str, float]:
    """Map benchmark name -> measured items_per_second from one report."""
    with open(path) as f:
        doc = json.load(f)
    plain: dict[str, float] = {}
    median: dict[str, float] = {}
    for row in doc.get("benchmarks", []):
        ips = row.get("items_per_second")
        if ips is None:
            continue
        if row.get("run_type") == "aggregate":
            if row.get("aggregate_name") == "median":
                median[row["run_name"]] = ips
        else:
            plain[row["name"]] = ips
    # Median (stable under noise) wins over the raw runs it summarizes.
    return {**plain, **median}


def load_counter(paths: list[pathlib.Path], counter: str) -> dict[str, float]:
    """Map benchmark name -> value of a custom per-row counter."""
    values: dict[str, float] = {}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        for row in doc.get("benchmarks", []):
            if row.get("run_type") == "aggregate":
                continue
            if isinstance(row.get(counter), (int, float)):
                values[row["name"]] = float(row[counter])
    return values


def load_baseline(path: pathlib.Path) -> tuple[str, dict[str, float]]:
    """Latest entry's (label, name -> items_per_second) from BENCH_kernel.json."""
    with open(path) as f:
        doc = json.load(f)
    entries = doc.get("entries", [])
    if not entries:
        sys.exit(f"perf_gate: no entries in {path}")
    latest = entries[-1]
    label = f"{latest.get('date', '?')} ({latest.get('commit', '?')})"
    baseline = {
        name: rec["items_per_second"]
        for name, rec in latest.get("benchmarks", {}).items()
        if "items_per_second" in rec
    }
    return label, baseline


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("reports", nargs="+", type=pathlib.Path,
                        help="Google Benchmark JSON report files")
    parser.add_argument("--baseline", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent
                        / "BENCH_kernel.json")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed fractional drop (default 0.10 = 10%%)")
    parser.add_argument("--pair", action="append", default=[],
                        metavar="INSTR=BASE",
                        help="gate benchmark INSTR against benchmark BASE "
                             "from the same reports (repeatable)")
    parser.add_argument("--pair-tolerance", type=float, default=0.03,
                        help="allowed fractional drop for --pair gates "
                             "(default 0.03 = 3%%)")
    parser.add_argument("--flat", action="append", default=[],
                        metavar="COUNTER:FACTOR",
                        help="require a per-row counter's max/min across all "
                             "rows to stay below FACTOR (repeatable)")
    args = parser.parse_args()

    label, baseline = load_baseline(args.baseline)
    measured: dict[str, float] = {}
    for report in args.reports:
        for name, ips in load_report(report).items():
            # Noise only ever slows a run down, so when a benchmark appears
            # in several reports (repeat-and-gate-best), the fastest
            # observation is the least noisy one.
            measured[name] = max(ips, measured.get(name, 0.0))
    if not measured:
        sys.exit("perf_gate: reports contained no items_per_second rows")

    print(f"perf_gate: baseline entry {label}")
    failures = []
    gated = 0
    for name in sorted(measured):
        now = measured[name]
        then = baseline.get(name)
        if then is None:
            print(f"  [new ] {name}: {now / 1e6:.2f}M items/s "
                  "(not in baseline; add it to BENCH_kernel.json)")
            continue
        gated += 1
        ratio = now / then
        verdict = "ok  " if ratio >= 1.0 - args.tolerance else "FAIL"
        print(f"  [{verdict}] {name}: {now / 1e6:.2f}M vs {then / 1e6:.2f}M "
              f"items/s ({ratio:.2f}x)")
        if verdict == "FAIL":
            failures.append(name)

    for pair in args.pair:
        instr_name, sep, base_name = pair.partition("=")
        if not sep:
            sys.exit(f"perf_gate: --pair wants INSTR=BASE, got '{pair}'")
        try:
            instr, base = measured[instr_name], measured[base_name]
        except KeyError as missing:
            sys.exit(f"perf_gate: --pair benchmark {missing} not in reports "
                     f"(have: {', '.join(sorted(measured))})")
        ratio = instr / base
        verdict = "ok  " if ratio >= 1.0 - args.pair_tolerance else "FAIL"
        print(f"  [{verdict}] {instr_name}: {ratio:.3f}x of {base_name} "
              f"(floor {1.0 - args.pair_tolerance:.2f}x)")
        if verdict == "FAIL":
            failures.append(pair)

    for flat in args.flat:
        counter, sep, factor_text = flat.partition(":")
        if not sep:
            sys.exit(f"perf_gate: --flat wants COUNTER:FACTOR, got '{flat}'")
        factor = float(factor_text)
        values = load_counter(args.reports, counter)
        if len(values) < 2:
            sys.exit(f"perf_gate: --flat counter '{counter}' present in "
                     f"{len(values)} row(s); need at least 2 to compare")
        lo_name = min(values, key=values.get)
        hi_name = max(values, key=values.get)
        ratio = values[hi_name] / values[lo_name] if values[lo_name] else float("inf")
        verdict = "ok  " if ratio <= factor else "FAIL"
        print(f"  [{verdict}] {counter}: {values[hi_name]:.0f} ({hi_name}) / "
              f"{values[lo_name]:.0f} ({lo_name}) = {ratio:.2f}x "
              f"(ceiling {factor:.2f}x)")
        if verdict == "FAIL":
            failures.append(flat)

    if gated == 0:
        sys.exit("perf_gate: no benchmark overlapped the baseline entry -- "
                 "name drift? refresh BENCH_kernel.json")
    if failures:
        print(f"perf_gate: {len(failures)} regression(s) beyond "
              f"{args.tolerance:.0%}: {', '.join(failures)}")
        return 1
    print(f"perf_gate: {gated} benchmark(s) within {args.tolerance:.0%} "
          "of the record")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare one benchmark between two google-benchmark JSON files.

Used by CI to guard the telemetry hooks: the HNOC_TELEMETRY=ON build
(hooks compiled in, nothing attached) must not regress the network
hot loop versus the OFF build by more than the threshold.

    check_perf_regression.py baseline.json candidate.json \
        --benchmark BM_NetworkStepBaseline --max-regression-pct 2.0

Cross-benchmark mode compares two different series (possibly from the
same file), which is how CI gates the active-set scheduler against its
exhaustive baseline (the `_always` series: Network::markAllBusy()
before every step):

    # saturation: active-set must not regress past the threshold
    check_perf_regression.py on.json on.json \
        --benchmark 'stepLoad/mesh_sat_always' \
        --candidate-benchmark 'stepLoad/mesh_sat_active' \
        --max-regression-pct 2.0

    # low load: active-set must be at least 2x faster
    check_perf_regression.py on.json on.json \
        --benchmark 'stepLoad/mesh_low_always' \
        --candidate-benchmark 'stepLoad/mesh_low_active' \
        --min-speedup 2.0

Counter mode gates a user counter instead of real_time, which is how
CI checks the adaptive simulation controller against the fixed-window
reference (counters are deterministic, so these gates are noise-free):

    # adaptive must simulate >= 40% fewer cycles
    check_perf_regression.py on.json on.json \
        --benchmark 'adaptiveSweep/fig07_ur_reference' \
        --candidate-benchmark 'adaptiveSweep/fig07_ur_adaptive' \
        --counter simulated_cycles --min-reduction-pct 40.0

    # ...while pre-saturation latency agrees within 1%
    ... --counter presat_latency_ns --max-delta-pct 1.0

    # ...and both classify the same points as saturated
    ... --counter saturated_points --require-equal

    # scaling gate: per-tile cost at 16x16 must stay within 1.5x of 8x8
    check_perf_regression.py scaling.json scaling.json \
        --benchmark 'scaling/mesh_8' \
        --candidate-benchmark 'scaling/mesh_16' \
        --counter ns_per_cycle_per_tile --max-increase-pct 50.0

Counter mode also supports an absolute ceiling, which is how CI caps
the profiled scan-overhead share (a percentage counter has a natural
absolute meaning, so no baseline series is needed — only the candidate
is read):

    # active-set scan + loop overhead must stay under 15% of step time
    check_perf_regression.py on.json on.json \
        --benchmark 'profiledStepLoad/mesh_mid' \
        --counter pct_scan_overhead --max-value 15.0

Either input may also be an `hnoc-perf-trajectory-v1` snapshot (the
distilled file make_perf_trajectory.py writes), so a committed
BENCH_trajectory.json can serve as the recorded baseline.

Exit status: 0 within threshold, 1 regression, 2 usage/data error.
Run with --self-test (no other arguments) to exercise the parsing and
comparison logic without pytest; CTest invokes this.
"""

import argparse
import json
import os
import sys
import tempfile


class DataError(Exception):
    """A benchmark file is missing, malformed, or lacks the series."""


def best_time(path, name):
    """Smallest real_time of `name` in a --benchmark_out JSON file.

    The minimum across repetitions is the standard low-noise estimate
    for a CPU-bound loop: noise only ever adds time.

    Also accepts an `hnoc-perf-trajectory-v1` snapshot, whose
    benchmarks map already records the per-series minimum.
    """
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        raise DataError(
            f"cannot read {path}: {e} "
            f"(did the benchmark step run and write --benchmark_out?)"
        )
    except ValueError as e:
        raise DataError(
            f"{path} is not valid JSON: {e} "
            f"(truncated benchmark run? re-run with --benchmark_out)"
        )
    if (
        isinstance(doc, dict)
        and doc.get("schema") == "hnoc-perf-trajectory-v1"
    ):
        series = doc.get("benchmarks")
        if not isinstance(series, dict):
            raise DataError(
                f"{path}: trajectory snapshot has no 'benchmarks' map"
            )
        entry = series.get(name)
        if not isinstance(entry, dict) or not isinstance(
            entry.get("min_ns"), (int, float)
        ):
            known = ", ".join(sorted(series)) or "(none)"
            raise DataError(
                f"no '{name}' series in trajectory {path}; file "
                f"contains: {known}"
            )
        return entry["min_ns"]
    if not isinstance(doc, dict) or not isinstance(
        doc.get("benchmarks"), list
    ):
        raise DataError(
            f"{path}: expected a google-benchmark JSON object with a "
            f"'benchmarks' array (got {type(doc).__name__})"
        )
    times = []
    for b in doc["benchmarks"]:
        if not isinstance(b, dict):
            continue
        if b.get("run_name", b.get("name")) != name:
            continue
        if b.get("run_type", "iteration") == "aggregate":
            continue
        t = b.get("real_time")
        if not isinstance(t, (int, float)):
            raise DataError(
                f"{path}: benchmark '{name}' entry has no numeric "
                f"real_time field"
            )
        times.append(t)
    if not times:
        known = sorted(
            {
                b.get("run_name", b.get("name", "?"))
                for b in doc["benchmarks"]
                if isinstance(b, dict)
            }
        )
        raise DataError(
            f"no '{name}' runs in {path}; file contains: "
            f"{', '.join(known) if known else '(no benchmarks at all)'}"
        )
    return min(times)


def best_counter(path, name, counter):
    """Value of a user counter for series `name` in a benchmark file.

    Counters in this repo are pure functions of simulated data, so
    every repetition carries the same value; the first non-aggregate
    entry is taken. Also accepts an `hnoc-perf-trajectory-v1`
    snapshot, reading the per-series 'counters' map.
    """
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}")
    except ValueError as e:
        raise DataError(f"{path} is not valid JSON: {e}")
    if (
        isinstance(doc, dict)
        and doc.get("schema") == "hnoc-perf-trajectory-v1"
    ):
        entry = doc.get("benchmarks", {}).get(name)
        if not isinstance(entry, dict):
            raise DataError(f"no '{name}' series in trajectory {path}")
        v = entry.get("counters", {}).get(counter)
        if not isinstance(v, (int, float)):
            raise DataError(
                f"trajectory {path}: series '{name}' has no counter "
                f"'{counter}'"
            )
        return v
    if not isinstance(doc, dict) or not isinstance(
        doc.get("benchmarks"), list
    ):
        raise DataError(
            f"{path}: expected a google-benchmark JSON object with a "
            f"'benchmarks' array (got {type(doc).__name__})"
        )
    for b in doc["benchmarks"]:
        if not isinstance(b, dict):
            continue
        if b.get("run_name", b.get("name")) != name:
            continue
        if b.get("run_type", "iteration") == "aggregate":
            continue
        v = b.get(counter)
        if not isinstance(v, (int, float)):
            raise DataError(
                f"{path}: benchmark '{name}' has no numeric counter "
                f"'{counter}'"
            )
        return v
    raise DataError(f"no '{name}' runs in {path}")


def compare(
    baseline,
    candidate,
    benchmark,
    max_regression_pct,
    out=sys.stdout,
    candidate_benchmark=None,
    min_speedup=None,
    counter=None,
    min_reduction_pct=None,
    max_delta_pct=None,
    max_increase_pct=None,
    require_equal=False,
    max_value=None,
):
    """Core comparison; returns the process exit code.

    With `candidate_benchmark`, the candidate file is read at that
    series instead of `benchmark` (cross-benchmark A/B). With
    `min_speedup`, the gate is baseline/candidate >= min_speedup
    instead of the regression-percentage bound. With `counter`, the
    named user counter is compared instead of real_time, under one of
    four gates: `min_reduction_pct` (candidate must be at least that
    much smaller), `max_delta_pct` (absolute relative delta bound),
    `max_increase_pct` (one-sided growth bound: the candidate may
    shrink freely but must not exceed baseline by more than this
    percent — the scaling-curve gate), `require_equal` (exact match),
    or `max_value` (absolute ceiling on the candidate's counter alone;
    the baseline file is not read).
    """
    cand_name = candidate_benchmark or benchmark
    label = (
        benchmark
        if cand_name == benchmark
        else f"{benchmark} -> {cand_name}"
    )
    if counter is not None and max_value is not None:
        cand = best_counter(candidate, cand_name, counter)
        print(
            f"{cand_name} [{counter}]: value {cand:g} "
            f"(ceiling {max_value:g})",
            file=out,
        )
        if cand > max_value:
            print(
                f"FAIL: counter '{counter}' over absolute ceiling",
                file=sys.stderr,
            )
            return 1
        print("OK", file=out)
        return 0
    if counter is not None:
        base = best_counter(baseline, benchmark, counter)
        cand = best_counter(candidate, cand_name, counter)
        if require_equal:
            print(
                f"{label} [{counter}]: baseline {base:g}, candidate "
                f"{cand:g} (required equal)",
                file=out,
            )
            if base != cand:
                print(
                    f"FAIL: counter '{counter}' differs", file=sys.stderr
                )
                return 1
            print("OK", file=out)
            return 0
        if base == 0:
            raise DataError(
                f"counter '{counter}' baseline is 0; relative gates "
                f"are undefined"
            )
        if min_reduction_pct is not None:
            reduction = (base - cand) / base * 100.0
            print(
                f"{label} [{counter}]: baseline {base:g}, candidate "
                f"{cand:g}, reduction {reduction:.2f}% "
                f"(required >= {min_reduction_pct:.2f}%)",
                file=out,
            )
            if reduction < min_reduction_pct:
                print(
                    "FAIL: counter reduction below required minimum",
                    file=sys.stderr,
                )
                return 1
            print("OK", file=out)
            return 0
        if max_delta_pct is not None:
            delta = abs(cand - base) / abs(base) * 100.0
            print(
                f"{label} [{counter}]: baseline {base:g}, candidate "
                f"{cand:g}, |delta| {delta:.3f}% "
                f"(limit {max_delta_pct:.3f}%)",
                file=out,
            )
            if delta > max_delta_pct:
                print(
                    "FAIL: counter delta over threshold", file=sys.stderr
                )
                return 1
            print("OK", file=out)
            return 0
        if max_increase_pct is not None:
            increase = (cand - base) / abs(base) * 100.0
            print(
                f"{label} [{counter}]: baseline {base:g}, candidate "
                f"{cand:g}, increase {increase:+.2f}% "
                f"(limit +{max_increase_pct:.2f}%)",
                file=out,
            )
            if increase > max_increase_pct:
                print(
                    "FAIL: counter growth over threshold",
                    file=sys.stderr,
                )
                return 1
            print("OK", file=out)
            return 0
        raise DataError(
            "--counter needs one of --min-reduction-pct, "
            "--max-delta-pct, --max-increase-pct, --max-value, or "
            "--require-equal"
        )
    base = best_time(baseline, benchmark)
    cand = best_time(candidate, cand_name)
    if min_speedup is not None:
        speedup = base / cand
        print(
            f"{label}: baseline {base:.1f} ns, candidate {cand:.1f} ns, "
            f"speedup {speedup:.2f}x (required >= {min_speedup:.2f}x)",
            file=out,
        )
        if speedup < min_speedup:
            print("FAIL: speedup below required minimum", file=sys.stderr)
            return 1
        print("OK", file=out)
        return 0
    delta_pct = (cand - base) / base * 100.0
    print(
        f"{label}: baseline {base:.1f} ns, "
        f"candidate {cand:.1f} ns, delta {delta_pct:+.2f}% "
        f"(limit +{max_regression_pct:.2f}%)",
        file=out,
    )
    if delta_pct > max_regression_pct:
        print("FAIL: hot-path regression over threshold", file=sys.stderr)
        return 1
    print("OK", file=out)
    return 0


# --------------------------------------------------------- self-test --


def self_test():
    """Pytest-free checks of the parsing and comparison logic."""
    checks = []

    def check(name, got, want):
        checks.append((name, got, want))
        status = "ok" if got == want else "FAIL"
        print(f"  {status}: {name} (got {got!r}, want {want!r})")

    def bench_file(tmpdir, fname, entries):
        path = os.path.join(tmpdir, fname)
        with open(path, "w") as f:
            json.dump({"benchmarks": entries}, f)
        return path

    def expect_data_error(name, fn, needle):
        try:
            fn()
        except DataError as e:
            check(name, needle in str(e), True)
        else:
            check(name, "no DataError raised", DataError)

    entry = lambda name, t, **kw: dict(
        {"name": name, "run_name": name, "real_time": t}, **kw
    )

    with tempfile.TemporaryDirectory() as tmp:
        devnull = open(os.devnull, "w")

        # Minimum across repetitions, aggregates ignored.
        path = bench_file(
            tmp,
            "a.json",
            [
                entry("BM_X", 120.0),
                entry("BM_X", 100.0),
                entry("BM_X", 999.0, run_type="aggregate"),
                entry("BM_Y", 5.0),
            ],
        )
        check("min over repetitions", best_time(path, "BM_X"), 100.0)

        # Within / over threshold.
        base = bench_file(tmp, "base.json", [entry("BM_X", 100.0)])
        ok = bench_file(tmp, "ok.json", [entry("BM_X", 101.0)])
        bad = bench_file(tmp, "bad.json", [entry("BM_X", 110.0)])
        fast = bench_file(tmp, "fast.json", [entry("BM_X", 90.0)])
        check(
            "within threshold passes",
            compare(base, ok, "BM_X", 2.0, out=devnull),
            0,
        )
        check(
            "regression fails",
            compare(base, bad, "BM_X", 2.0, out=devnull),
            1,
        )
        check(
            "improvement passes",
            compare(base, fast, "BM_X", 2.0, out=devnull),
            0,
        )

        # Cross-benchmark A/B within one file: candidate read at a
        # different series name.
        ab = bench_file(
            tmp,
            "ab.json",
            [entry("BM_Slow", 100.0), entry("BM_Fast", 40.0)],
        )
        check(
            "cross-benchmark improvement passes",
            compare(
                ab, ab, "BM_Slow", 2.0,
                out=devnull, candidate_benchmark="BM_Fast",
            ),
            0,
        )
        check(
            "cross-benchmark regression fails",
            compare(
                ab, ab, "BM_Fast", 2.0,
                out=devnull, candidate_benchmark="BM_Slow",
            ),
            1,
        )

        # Speedup gate: 100/40 = 2.5x.
        check(
            "speedup gate met",
            compare(
                ab, ab, "BM_Slow", 2.0,
                out=devnull, candidate_benchmark="BM_Fast",
                min_speedup=2.0,
            ),
            0,
        )
        check(
            "speedup gate missed",
            compare(
                ab, ab, "BM_Slow", 2.0,
                out=devnull, candidate_benchmark="BM_Fast",
                min_speedup=3.0,
            ),
            1,
        )

        # Counter gates: reduction, delta bound, exact match.
        ctr = bench_file(
            tmp,
            "ctr.json",
            [
                entry(
                    "sweep/ref",
                    5.0,
                    simulated_cycles=100000.0,
                    presat_latency_ns=20.0,
                    saturated_points=1.0,
                ),
                entry(
                    "sweep/ada",
                    2.0,
                    simulated_cycles=50000.0,
                    presat_latency_ns=20.1,
                    saturated_points=1.0,
                ),
            ],
        )
        check(
            "counter read from raw JSON",
            best_counter(ctr, "sweep/ref", "simulated_cycles"),
            100000.0,
        )
        check(
            "counter reduction gate met",
            compare(
                ctr, ctr, "sweep/ref", 2.0,
                out=devnull, candidate_benchmark="sweep/ada",
                counter="simulated_cycles", min_reduction_pct=40.0,
            ),
            0,
        )
        check(
            "counter reduction gate missed",
            compare(
                ctr, ctr, "sweep/ref", 2.0,
                out=devnull, candidate_benchmark="sweep/ada",
                counter="simulated_cycles", min_reduction_pct=60.0,
            ),
            1,
        )
        check(
            "counter delta within bound",
            compare(
                ctr, ctr, "sweep/ref", 2.0,
                out=devnull, candidate_benchmark="sweep/ada",
                counter="presat_latency_ns", max_delta_pct=1.0,
            ),
            0,
        )
        check(
            "counter delta over bound",
            compare(
                ctr, ctr, "sweep/ref", 2.0,
                out=devnull, candidate_benchmark="sweep/ada",
                counter="presat_latency_ns", max_delta_pct=0.1,
            ),
            1,
        )
        # One-sided growth gate (the scaling-curve bound): a shrink or
        # small growth passes, growth over the limit fails.
        scale = bench_file(
            tmp,
            "scale.json",
            [
                entry("scaling/mesh_8", 50.0, ns_per_cycle_per_tile=100.0),
                entry("scaling/mesh_16", 60.0, ns_per_cycle_per_tile=140.0),
                entry("scaling/mesh_32", 70.0, ns_per_cycle_per_tile=40.0),
            ],
        )
        check(
            "counter growth within bound",
            compare(
                scale, scale, "scaling/mesh_8", 2.0,
                out=devnull, candidate_benchmark="scaling/mesh_16",
                counter="ns_per_cycle_per_tile", max_increase_pct=50.0,
            ),
            0,
        )
        check(
            "counter growth over bound",
            compare(
                scale, scale, "scaling/mesh_8", 2.0,
                out=devnull, candidate_benchmark="scaling/mesh_16",
                counter="ns_per_cycle_per_tile", max_increase_pct=30.0,
            ),
            1,
        )
        check(
            "counter shrink passes one-sided gate",
            compare(
                scale, scale, "scaling/mesh_8", 2.0,
                out=devnull, candidate_benchmark="scaling/mesh_32",
                counter="ns_per_cycle_per_tile", max_increase_pct=0.0,
            ),
            0,
        )
        # Absolute ceiling: reads only the candidate series, so a
        # percentage counter gates without any baseline file.
        check(
            "counter within absolute ceiling",
            compare(
                ctr, ctr, "sweep/ref", 2.0,
                out=devnull, counter="presat_latency_ns",
                max_value=25.0,
            ),
            0,
        )
        check(
            "counter over absolute ceiling",
            compare(
                ctr, ctr, "sweep/ref", 2.0,
                out=devnull, counter="presat_latency_ns",
                max_value=15.0,
            ),
            1,
        )
        check(
            "absolute ceiling reads candidate series",
            compare(
                ctr, ctr, "sweep/ref", 2.0,
                out=devnull, candidate_benchmark="sweep/ada",
                counter="simulated_cycles", max_value=60000.0,
            ),
            0,
        )
        check(
            "counter equality met",
            compare(
                ctr, ctr, "sweep/ref", 2.0,
                out=devnull, candidate_benchmark="sweep/ada",
                counter="saturated_points", require_equal=True,
            ),
            0,
        )
        check(
            "counter inequality fails",
            compare(
                ctr, ctr, "sweep/ref", 2.0,
                out=devnull, candidate_benchmark="sweep/ada",
                counter="simulated_cycles", require_equal=True,
            ),
            1,
        )
        expect_data_error(
            "missing counter explained",
            lambda: best_counter(ctr, "sweep/ref", "nope"),
            "nope",
        )
        expect_data_error(
            "counter without a gate rejected",
            lambda: compare(
                ctr, ctr, "sweep/ref", 2.0,
                out=devnull, counter="simulated_cycles",
            ),
            "--min-reduction-pct",
        )

        # The telemetry-overhead job shape with blame hooks compiled
        # in: the OFF-vs-ON comparison still reads
        # BM_NetworkStepBaseline (hooks present, nothing attached) and
        # must ride the same <=2% gate, while the attached-collector
        # price is checked cross-benchmark inside the ON file under a
        # generous bound (attachment may cost, never silently explode).
        blame_off = bench_file(
            tmp,
            "blame_off.json",
            [entry("BM_NetworkStepBaseline", 100.0)],
        )
        blame_on = bench_file(
            tmp,
            "blame_on.json",
            [
                entry("BM_NetworkStepBaseline", 101.0),
                entry("BM_NetworkStepBlame", 125.0),
            ],
        )
        check(
            "blame hooks ride the ON-vs-OFF gate",
            compare(
                blame_off, blame_on, "BM_NetworkStepBaseline", 2.0,
                out=devnull,
            ),
            0,
        )
        check(
            "attached blame collector within price bound",
            compare(
                blame_on, blame_on, "BM_NetworkStepBaseline", 30.0,
                out=devnull, candidate_benchmark="BM_NetworkStepBlame",
            ),
            0,
        )
        check(
            "attached blame collector over price bound",
            compare(
                blame_on, blame_on, "BM_NetworkStepBaseline", 10.0,
                out=devnull, candidate_benchmark="BM_NetworkStepBlame",
            ),
            1,
        )

        # Trajectory-v1 snapshots as inputs (recorded baselines).
        traj = os.path.join(tmp, "traj.json")
        with open(traj, "w") as f:
            json.dump(
                {
                    "schema": "hnoc-perf-trajectory-v1",
                    "benchmarks": {
                        "BM_X": {
                            "median_ns": 105.0,
                            "min_ns": 100.0,
                            "repetitions": 7,
                            "counters": {"simulated_cycles": 100000.0},
                        }
                    },
                },
                f,
            )
        check("trajectory min_ns read", best_time(traj, "BM_X"), 100.0)
        check(
            "trajectory counter read",
            best_counter(traj, "BM_X", "simulated_cycles"),
            100000.0,
        )
        expect_data_error(
            "trajectory missing counter explained",
            lambda: best_counter(traj, "BM_X", "nope"),
            "nope",
        )
        check(
            "trajectory baseline vs raw candidate",
            compare(traj, ok, "BM_X", 2.0, out=devnull),
            0,
        )
        expect_data_error(
            "trajectory unknown series lists known ones",
            lambda: best_time(traj, "BM_Missing"),
            "BM_X",
        )

        # Error paths: message must say what is wrong and where.
        missing = os.path.join(tmp, "missing.json")
        expect_data_error(
            "missing file named",
            lambda: best_time(missing, "BM_X"),
            "missing.json",
        )
        trunc = os.path.join(tmp, "trunc.json")
        with open(trunc, "w") as f:
            f.write('{"benchmarks": [')
        expect_data_error(
            "malformed JSON explained",
            lambda: best_time(trunc, "BM_X"),
            "not valid JSON",
        )
        not_bench = os.path.join(tmp, "notbench.json")
        with open(not_bench, "w") as f:
            json.dump([1, 2, 3], f)
        expect_data_error(
            "wrong shape explained",
            lambda: best_time(not_bench, "BM_X"),
            "'benchmarks' array",
        )
        expect_data_error(
            "unknown series lists known ones",
            lambda: best_time(base, "BM_Missing"),
            "BM_X",
        )
        no_time = bench_file(
            tmp, "notime.json", [{"name": "BM_X", "run_name": "BM_X"}]
        )
        expect_data_error(
            "missing real_time explained",
            lambda: best_time(no_time, "BM_X"),
            "real_time",
        )
        devnull.close()

    failed = [c for c in checks if c[1] != c[2]]
    print(f"self-test: {len(checks) - len(failed)}/{len(checks)} passed")
    return 1 if failed else 0


def main():
    if "--self-test" in sys.argv[1:]:
        return self_test()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", help="benchmark JSON of the reference build")
    ap.add_argument("candidate", help="benchmark JSON of the build under test")
    ap.add_argument("--benchmark", default="BM_NetworkStepBaseline")
    ap.add_argument(
        "--candidate-benchmark",
        help="series name to read from the candidate file when it "
        "differs from --benchmark (cross-benchmark A/B)",
    )
    ap.add_argument("--max-regression-pct", type=float, default=2.0)
    ap.add_argument(
        "--min-speedup",
        type=float,
        help="require baseline/candidate >= this factor instead of the "
        "regression bound (e.g. 2.0 for the active-set low-load gate)",
    )
    ap.add_argument(
        "--counter",
        help="compare this user counter instead of real_time; needs "
        "one of --min-reduction-pct / --max-delta-pct / --require-equal",
    )
    ap.add_argument(
        "--min-reduction-pct",
        type=float,
        help="with --counter: candidate must be at least this percent "
        "smaller than baseline (adaptive cycle-savings gate)",
    )
    ap.add_argument(
        "--max-delta-pct",
        type=float,
        help="with --counter: |candidate-baseline|/baseline must stay "
        "within this percent (latency-agreement gate)",
    )
    ap.add_argument(
        "--max-increase-pct",
        type=float,
        help="with --counter: candidate may shrink freely but must not "
        "exceed baseline by more than this percent (one-sided "
        "scaling-curve gate, e.g. 50 for the 16x16 <= 1.5x 8x8 "
        "ns/cycle/tile bound)",
    )
    ap.add_argument(
        "--max-value",
        type=float,
        help="with --counter: absolute ceiling on the candidate's "
        "counter value; no baseline series is read (scan-overhead "
        "share gate, e.g. 15 for pct_scan_overhead <= 15%%)",
    )
    ap.add_argument(
        "--require-equal",
        action="store_true",
        help="with --counter: values must match exactly "
        "(saturation-classification gate)",
    )
    args = ap.parse_args()

    try:
        return compare(
            args.baseline,
            args.candidate,
            args.benchmark,
            args.max_regression_pct,
            candidate_benchmark=args.candidate_benchmark,
            min_speedup=args.min_speedup,
            counter=args.counter,
            min_reduction_pct=args.min_reduction_pct,
            max_delta_pct=args.max_delta_pct,
            max_increase_pct=args.max_increase_pct,
            require_equal=args.require_equal,
            max_value=args.max_value,
        )
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

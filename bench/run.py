"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from a checkout of the repository.  One workload runs in this process,
single-threaded, as a closed loop with one client.  Set-up is the library
import (timed here and in two fresh interpreters) plus the workload's own
set-up (repeated three times); the medians are reported.  Then units of work
run one after another for --seconds seconds and at least the workload's
minimum unit count.  Every unit's outputs are checked.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the run instead times a fixed, seed-derived list of units twice,
untraced and then with every layer wrapped, and reports per-layer metrics.

The line before it, starting with "REPORT ", holds everything else: machine
facts, sample counts, quality metrics, the result fingerprint and any flags.
Spans of a traced run are written to .bench_out/trace-<workload>-seed<N>.json.
`--workload all` runs each workload in its own process and prints every
metric by name and unit.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import layers  # noqa: E402
from stats import fingerprint, percentile, tail_percentile  # noqa: E402
from tracing import Tracer, installed  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("tiny3-ablation", "human-deep", "train-cli")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 900


def parse_args(argv):
    parser = argparse.ArgumentParser(description="hierpose benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def source_hash() -> str:
    """Hash of the library sources, configs and benchmark code of this run."""
    digest = hashlib.sha256()
    files = (sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "configs").glob("*.json"))
             + sorted(Path(__file__).resolve().parent.glob("*.py")))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def import_seconds() -> float:
    """Time a fresh interpreter takes to import the library."""
    code = (
        "import sys, time; start = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
        "import numpy, hierpose, hierpose.cli; print(time.perf_counter() - start)"
    )
    child = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                           capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S)
    return float(child.stdout)


def run_unit(workload, index: int):
    """One unit; an exception is reported and returns None."""
    try:
        return workload.unit(index)
    except Exception:  # a failed unit is counted, the run goes on
        print(f"unit {index} raised:", file=sys.stderr)
        traceback.print_exc()
        return None


@dataclass
class Measurement:
    attempted: list  # every unit run; None for one that raised
    reported: list  # the units whose results and quality are reported
    values: dict  # metric name -> (value, unit)
    details: dict
    flags: list = field(default_factory=list)
    counts: dict | None = None  # deterministic per-layer counts


def set_up(cls, seed: int, workdir: Path, import_s: float):
    """Build the workload three times; return the last and the set-up time."""
    setup_times = []
    workload = None
    for _ in range(SETUP_REPEATS):
        workload = None
        start = time.perf_counter()
        workload = cls(seed, ROOT, workdir)
        setup_times.append(time.perf_counter() - start)
    import_times = [import_s] + [import_seconds() for _ in range(SETUP_REPEATS - 1)]
    setup_s = statistics.median(import_times) + statistics.median(setup_times)
    return workload, setup_s, {"setup_repeats_s": setup_times, "import_repeats_s": import_times}


def measure_end_to_end(workload, seconds: float, setup_s: float) -> Measurement:
    """Untraced units for `seconds` seconds and at least the minimum count."""
    results = []
    start = time.perf_counter()
    while len(results) < workload.min_units or time.perf_counter() - start < seconds:
        results.append(run_unit(workload, len(results)))
    elapsed = time.perf_counter() - start
    completed = [r.seconds for r in results if r is not None]
    tail_p = tail_percentile(len(completed))
    tail_value = percentile(completed, tail_p) if completed else 0.0
    values = {
        "throughput_per_s": (len(completed) / sum(completed) if completed else 0.0, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # The median unit time is reported but not bounded: over 10-25 units it
    # follows the machine's speed changes more than the mean behind
    # throughput_per_s does.
    details = {
        "unit_s_p50": {"value": percentile(completed, 50.0) if completed else 0.0, "unit": "s"},
        "unit_s_tail": {
            "percentile": tail_p,
            "value": tail_value,
            "samples_beyond": sum(1 for s in completed if s > tail_value),
        },
        "units_completed": len(completed),
        "unit_seconds": completed,
        "timed_s": elapsed,
    }
    return Measurement(results, results, values, details)


def measure_layers(workload, seconds: float, spans_path: Path) -> Measurement:
    """A fixed list of units, each run untraced and traced; per-layer metrics.

    The unit count comes from --seconds and the workload's nominal unit
    time, never from measured speed, so every commit traces the same units.
    The two runs of a unit are back to back, in alternating order, so that
    drift in machine speed and warm-up cancel in the tracing overhead.
    """
    units = max(workload.min_units, round(seconds / 2 / workload.nominal_unit_s))
    tracer = Tracer()
    plain, traced = [], []
    for i in range(units):
        for with_trace in (i % 2 == 1, i % 2 == 0):
            if not with_trace:
                plain.append(run_unit(workload, i))
                continue
            with installed(tracer, layers.SPANS) as absent:
                tracer.begin_unit(i)
                traced.append(run_unit(workload, i))
                tracer.end_unit()
    flags = [f"absent: {site} is not traced" for site in absent]
    flags += [f"count hook of {name} failed {n} times" for name, n in tracer.hook_errors.items()]
    pairs = [(p, t) for p, t in zip(plain, traced) if p is not None and t is not None]
    flags += [f"unit {i} result changed when traced"
              for i, (p, t) in enumerate(pairs) if p.fingerprint != t.fingerprint]
    plain_s = sum(p.seconds for p, _ in pairs)
    overhead = sum(t.seconds for _, t in pairs) / plain_s - 1.0 if plain_s else 0.0
    totals = tracer.totals()
    values = layers.layer_metrics(totals, overhead)

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps([
        {
            "unit": unit.unit,
            "spans": {name: vars(stats) for name, stats in sorted(unit.spans.items())},
            "edges": [[parent, child, n] for (parent, child), n in sorted(unit.edges.items())],
            "counts": unit.counts,
        }
        for unit in tracer.units
    ], indent=1) + "\n")
    print(f"spans written to {spans_path.relative_to(ROOT)}", file=sys.stderr)
    details = {
        "trace_units": units,
        "ratio_bases": layers.metric_bases(totals),
        "scoring_share_of_infer": layers.scoring_share(totals),
        "deterministic": list(layers.DETERMINISTIC),
    }
    counts = {name: values[name][0] for name in layers.DETERMINISTIC}
    return Measurement(plain + traced, traced, values, details, flags, counts)


def compare_record(path: Path, fingerprints: list[str], counts: dict | None, key: str):
    """Check this run against an earlier run of the same code and seed.

    Per-unit fingerprints are compared where both runs have the unit, and
    deterministic counts where both runs traced the same units.  Returns the
    flags raised and stores the union of both runs.
    """
    record = json.loads(path.read_text()) if path.exists() else {}
    flags = []
    earlier = record.get("unit_fingerprints", [])
    for i, (old, new) in enumerate(zip(earlier, fingerprints)):
        if old != new:
            flags.append(f"unit {i} result differs from an earlier run of this code and seed")
    if len(fingerprints) > len(earlier):
        record["unit_fingerprints"] = fingerprints
    if counts is not None:
        stored = record.setdefault("counts", {}).setdefault(key, counts)
        for name, value in counts.items():
            if stored.get(name) != value:
                flags.append(
                    f"count {name} = {value!r} differs from {stored.get(name)!r} "
                    "in an earlier run of this code and seed"
                )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return flags


def run_workload(args) -> int:
    if not (ROOT / "src" / "hierpose" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no hierpose sources under {ROOT}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    import_s = time.perf_counter() - STARTED
    cls = WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out"
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        workload, setup_s, setup_details = set_up(cls, args.seed, workdir, import_s)
        if args.trace:
            spans_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            run = measure_layers(workload, args.seconds, spans_path)
        else:
            run = measure_end_to_end(workload, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for i, result in enumerate(run.attempted):
        for problem in result.violations if result is not None else ():
            print(f"unit {i % len(run.reported)}: {problem}", file=sys.stderr)
    unit_prints = [r.fingerprint if r is not None else "raised" for r in run.reported]
    ok = [r for r in run.reported if r is not None]
    source = source_hash()
    flags = run.flags + compare_record(
        out_dir / "records" / f"{args.workload}-seed{args.seed}-{source}.json",
        unit_prints, run.counts, f"trace_units={run.details.get('trace_units')}",
    )
    for flag in flags:
        print(f"FLAG: {flag}", file=sys.stderr)
    attempted = len(run.attempted)
    failed = sum(1 for r in run.attempted if r is None or r.violations)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "source_hash": source,
        "failed_frac": failed / attempted,
        "fingerprint": fingerprint(*unit_prints[: cls.min_units]),
        "fingerprint_units": min(cls.min_units, len(unit_prints)),
        "quality": {k: {"value": v, "unit": u, "better": b}
                    for k, (v, u, b) in (cls.quality(ok) if ok else {}).items()},
        "flags": flags,
        **setup_details,
        **run.details,
    }
    for name, (value, unit) in run.values.items():
        print(f"{name:44s} {value:>14.6g} {unit}")
    print("REPORT " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in run.values.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; print every metric by name and unit."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                               timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("REPORT "):
            print(f"{name}: failed with exit code {child.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        report = json.loads(lines[-2][len("REPORT "):])
        if not result["correct"]:
            status = 1
        print(f"== {name}: {result['attempted']} units attempted, {result['failed']} failed, "
              f"fingerprint {report['fingerprint'][:16]}")
        rows = [(k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
        if "unit_s_p50" in report:
            rows.append(("unit_s_p50", report["unit_s_p50"]["value"], "s"))
        rows.append(("failed_frac", report["failed_frac"], "frac"))
        rows += [(k, v["value"], v["unit"]) for k, v in report["quality"].items()]
        for metric, value, unit in rows:
            print(f"{name:16s} {metric:44s} {value:>14.6g} {unit}")
        for flag in report["flags"]:
            print(f"{name:16s} FLAG {flag}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

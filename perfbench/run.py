"""Benchmark of the planner and the cluster replay.

Run from the root of a checkout::

    python3 perfbench/run.py --workload replay-a100-pairs --seed 1 --seconds 35 --trace 0

Trials run one at a time, each in a fresh process (``trial.py``) with BLAS
threads pinned to 1, until ``--seconds`` have passed and at least
:data:`MIN_TRIALS` trials have finished.  A trial sets up once and then
forks repetitions of the main phase, all doing the same work.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced trials and reports the per-layer metrics plus the
tracing overhead.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record (fingerprint, work counters, per-trial figures and the per-layer
table) is written to ``perfbench/results/``.
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

from stats import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Main-phase host times are fastest-over-repetitions estimates (see
#: :func:`fastest`), set-up time and memory are medians; the rest repeat exactly.
END_TO_END_UNITS = {
    "setup_s": "s",
    "events_per_s": "events/s",
    "decide_ms_p50": "ms",
    "decide_ms_p99": "ms",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
    "sim_turnaround_p95_s": "sim_s",
    "sim_energy_j_per_job": "J/job",
    "rperf_error_mean": "ratio",
}
#: Fewest trials (set-ups) of an end-to-end run, and of each kind in a traced run.
MIN_TRIALS = 3
MIN_TRACED_ROUNDS = 2
#: Threads of every BLAS/OpenMP runtime NumPy may load, pinned in each trial.
_SINGLE_THREADED = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name: ``*_s``, ratios, counts."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_governor")):
        return "ratio"
    return "count"


def _git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _sources_digest() -> str:
    """SHA-256 over the library's and the benchmark's Python sources.

    It stands in for the commit id when the checkout is not a git repository.
    """
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> str:
    import numpy

    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):  # older NumPy: no dict mode
        return "unknown"


def fingerprint() -> dict:
    """Where the figures come from: code, interpreter, libraries, machine."""
    import numpy

    return {
        "commit": _git_commit(),
        "sources_sha256": _sources_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


def run_child(workload: str, seed: int, traced: bool, scale: float, until: float) -> dict:
    """One trial in a fresh, single-threaded process (see ``trial.run_trial``)."""
    env = dict(os.environ, **_SINGLE_THREADED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "trial.py"),
            workload,
            str(seed),
            str(int(traced)),
            str(scale),
            str(until),
        ],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"trial of {workload} (seed {seed}, traced={traced}) exited with "
            f"{done.returncode}:\n{done.stderr[-4000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def counter_mismatches(records: list[dict], previous: dict | None = None) -> list[str]:
    """Work counters that differ between repetitions of one seed.

    Each counter is compared with the first value seen for it: in this
    run's repetitions (traced ones carry extra counts only tracing sees) and,
    when ``previous`` holds the counters of an earlier run of the same
    seed and sources, in that run too.
    """
    reference = dict(previous or {})
    mismatches = set()
    for record in records:
        for key, value in record["counters"].items():
            expected = reference.setdefault(key, value)
            if expected != value:
                mismatches.add(f"{key}: {expected} != {value}")
    return sorted(mismatches)


def fastest(series: list[list[float]]) -> list[float]:
    """Element-wise minimum over repetitions of series that time the same work.

    Every repetition of a run sends the same requests and replays the same
    trace from the same set-up state, so element ``i`` of each series
    times the same work.  Its fastest time over the repetitions is the
    work's own cost: host interference only ever adds time.  Taken element
    by element, the estimate needs each piece of work to meet one quiet
    moment, not a whole repetition.
    """
    if len({len(s) for s in series}) != 1:
        raise ValueError("repetitions timed different amounts of work")
    return [min(values) for values in zip(*series)]


def main_phase(records: list[dict], kind: str) -> dict:
    """Host-time figures of the repetitions' main phase and decide latencies.

    ``events_per_s`` of a replay is its events over the sum of its
    segments' fastest times; the decide mix reports requests per second of
    its fastest latencies.  ``decide_ms_*`` are percentiles of each
    request's fastest latency.
    """
    latencies = fastest([r["latencies_ms"] for r in records])
    if kind == "replay":
        replay_s = sum(fastest([r["segments_s"] for r in records]))
        events_per_s = records[0]["counters"]["events"] / replay_s
    else:
        events_per_s = len(latencies) / (sum(latencies) / 1e3)
    return {
        "events_per_s": events_per_s,
        "decide_ms_p50": percentile(latencies, 50.0),
        "decide_ms_p99": percentile(latencies, 99.0),
    }


def end_to_end(trials: list[dict], records: list[dict], kind: str) -> tuple[dict, dict]:
    """The end-to-end metrics of untraced trials and repetitions, and sample counts.

    ``setup_s`` is the median over the trials, each of which set up once;
    ``peak_rss_mb`` the median over repetitions; the main-phase figures
    come from :func:`main_phase`.
    """
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    counters = records[0]["counters"]
    values = {
        "setup_s": statistics.median(t["setup_s"] for t in trials),
        **main_phase(records, kind),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "success_ratio": 1.0 - failed / attempted,
        "sim_turnaround_p95_s": counters["sim_turnaround_p95_s"],
        "sim_energy_j_per_job": counters["sim_energy_j_per_job"],
        "rperf_error_mean": counters["rperf_error_mean"],
    }
    n_latencies = len(records[0]["latencies_ms"])
    samples = {
        "trials": len(trials),
        "repetitions": len(records),
        "decide_samples": n_latencies,
        "beyond_p99": n_latencies - 1 - int((n_latencies - 1) * 0.99),
        "replay_segments": len(records[0]["segments_s"]),
    }
    return values, samples


def per_layer(untraced: list[dict], traced: list[dict], kind: str) -> dict:
    """Medians of the traced repetitions' layer metrics, plus the tracing overhead.

    The overhead compares the main phase's own figure, as
    :func:`main_phase` estimates it for either kind of trial:
    ``events_per_s`` of a replay (lower when traced) or ``decide_ms_p50``
    of the decide mix.
    """
    names = traced[0]["layers"].keys()
    values = {name: statistics.median(r["layers"][name] for r in traced) for name in names}
    plain, slow = main_phase(untraced, kind), main_phase(traced, kind)
    if kind == "replay":
        values["trace.overhead_ratio"] = plain["events_per_s"] / slow["events_per_s"] - 1.0
    else:
        values["trace.overhead_ratio"] = slow["decide_ms_p50"] / plain["decide_ms_p50"] - 1.0
    return values


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="shrink every input size (smoke runs)"
    )
    parser.add_argument(
        "--results", type=Path, default=HERE / "results", help="where the full record goes"
    )
    return parser.parse_args(argv)


def _run_trials(args: argparse.Namespace) -> list[dict]:
    """Trials until the time is up and the minimum count is reached.

    Trial ``i`` starts repetitions until ``i + 1`` equal shares of
    ``--seconds`` have passed since the run began, so its start-up and set-up
    come out of its own share.  A traced run alternates untraced and traced
    trials, so both see the same stretch of host load.
    """
    modes = (False, True) if args.trace else (False,)
    min_trials = (MIN_TRACED_ROUNDS if args.trace else MIN_TRIALS) * len(modes)
    share_s = args.seconds / min_trials
    trials: list[dict] = []
    began = time.monotonic()
    while len(trials) < min_trials or time.monotonic() < began + args.seconds:
        for traced in modes:
            until = began + share_s * (len(trials) + 1)
            trials.append(run_child(args.workload, args.seed, traced, args.scale, until))
    return trials


def _previous_counters(path: Path, sources_sha256: str) -> dict | None:
    """Counters of an earlier run of this seed on the same sources, if kept."""
    try:
        earlier = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if earlier.get("fingerprint", {}).get("sources_sha256") != sources_sha256:
        return None
    return earlier.get("counters")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    try:
        trials = _run_trials(args)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    records = [r for t in trials for r in t["repetitions"]]
    untraced = [r for t in trials if not t["traced"] for r in t["repetitions"]]
    traced = [r for t in trials if t["traced"] for r in t["repetitions"]]
    try:
        e2e, samples = end_to_end(
            [t for t in trials if not t["traced"]], untraced, workload.kind
        )
        values = per_layer(untraced, traced, workload.kind) if args.trace else e2e
    except ValueError as exc:  # repetitions did different work
        print(f"error: {exc}: {counter_mismatches(records)[:10]}", file=sys.stderr)
        return 1
    units = {name: layer_unit(name) for name in values} if args.trace else END_TO_END_UNITS

    suffix = "" if args.scale == 1.0 else f"-scale{args.scale:g}"
    out = args.results / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json"
    source = fingerprint()
    mismatches = counter_mismatches(records, _previous_counters(out, source["sources_sha256"]))
    violations = sorted({v for r in records for v in r["violations"]})
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "scale": args.scale,
        "fingerprint": source,
        "end_to_end": e2e,
        "samples": samples,
        "counters": (traced or untraced)[0]["counters"],
        "counter_mismatches": mismatches,
        "violations": violations[:50],
        "trials": [
            {
                "traced": t["traced"],
                "setup_s": t["setup_s"],
                "throughputs": [r["throughput"] for r in t["repetitions"]],
                "peak_rss_mb": max(r["peak_rss_mb"] for r in t["repetitions"]),
            }
            for t in trials
        ],
    }
    if args.trace:
        detail["per_layer"] = values
        detail["layer_table"] = traced[0]["layer_table"]
    args.results.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(detail, indent=1) + "\n")

    for line in violations[:10] + mismatches[:10]:
        print(f"check failed: {line}")
    print(
        f"{args.workload} seed={args.seed} "
        + " ".join(f"{k}={v}" for k, v in samples.items())
        + " "
        + " ".join(f"{k}={v:.6g}" for k, v in e2e.items())
    )
    print(
        json.dumps(
            {
                "correct": failed == 0 and not mismatches,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

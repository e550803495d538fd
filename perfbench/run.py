#!/usr/bin/env python3
"""swarmpatrol benchmark: end-to-end and per-layer numbers with output checks.

Usage (from the repository root):

    python3 perfbench/run.py --workload matrix --seed 0 --seconds 20 --trace 0

Each invocation runs one workload in this single process. A "pass" is one
full run of the workload's matrix (fresh map, every cell, and for `matrix`
the CSVs, logs and `analyze_runs`). Passes repeat until `--seconds` have
been measured. Every end-to-end timing is a median, scaled to a reference
interpreter speed by a calibration loop timed next to it (CAL_REF_S).

--trace 0 prints the end-to-end metrics, measured with only one timer
around each `run_one`. --trace 1 alternates untraced and traced passes and
prints the per-layer metrics (see tracer.py) plus the tracing overhead.

Every run's outputs are digested (the RunRecord fields, and for `matrix`
its log and the CSVs) and compared with perfbench/reference_digests.json
when it holds the seed; otherwise with the first pass of this invocation.
A run whose digest differs, that raised, or that breaks an output invariant
counts as failed. The digests and a provenance record go to
.perfbench_out/<workload>-seed<N>-trace<T>.json. The last stdout line is
the JSON result.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = BENCH_DIR / "reference_digests.json"

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60

# End-to-end timings are scaled to a reference interpreter speed: a time t
# measured next to a calibration loop that took c seconds is reported as
# t * CAL_REF_S / c. The shared machine's speed drifts by up to 2x over
# minutes; the scaling cancels most of that drift (see README.md).
CAL_ITERATIONS = 200_000
CAL_REF_S = 0.025

# RunRecord fields covered by a run's digest, in this order.
RECORD_FIELDS = (
    "strategy",
    "noise",
    "seed",
    "avg_graph_idleness",
    "final_error",
    "f_score",
    "lambda2",
    "t_consensus",
    "tp_consensus",
    "fp_consensus_count",
    "rep",
    "misinformed",
    "n_exchanges",
)

END_TO_END = (
    ("wall_s", "s"),
    ("robot_ticks_per_s", "1/s"),
    ("run_s_p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer timings: layer -> suffixes reported. `.calls` is exact.
LAYER_METRICS = (
    ("graph.load_map", ("s",)),
    ("graph.shortest_path", ("calls", "s")),
    ("world.advance", ("calls", "s")),
    ("world.visit", ("calls", "s")),
    ("beliefs.fuse_vectors", ("calls", "s")),
    ("beliefs.digest", ("calls", "s")),
    ("comms.eligible_pairs", ("calls", "s")),
    ("comms.exchange", ("calls", "s", "self_s")),
    ("strategies.decide_next", ("calls", "s")),
    ("strategies.dtap_auction", ("calls", "s")),
    ("strategies.retarget", ("calls", "s", "self_s")),
    ("metrics.scan_run", ("calls", "s")),
    ("metrics.algebraic_connectivity", ("s",)),
    ("metrics.scores", ("s",)),
    ("harness.run_one", ("calls", "s", "self_s")),
    ("harness.write_csv", ("s",)),
    ("harness.analyze_runs", ("s",)),
)

# Deterministic counts besides the `.calls` above, with their units.
EXACT_COUNTS = (
    ("comms.pair_tests", "count"),
    ("metrics.scan_run.events", "count"),
    ("strategies.dtap_auction.awards", "count"),
    ("harness.log_bytes", "bytes"),
)

RATIOS = (
    # name, numerator, denominator
    ("comms.exchange_yield", "comms.exchange.calls", "comms.pair_tests"),
    ("strategies.dtap_auction.award_yield", "strategies.dtap_auction.awards",
     "strategies.dtap_auction.calls"),
)


def per_layer_units() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for layer, suffixes in LAYER_METRICS:
        for suffix in suffixes:
            out.append((f"{layer}.{suffix}", "count" if suffix == "calls" else "s"))
    out.extend(EXACT_COUNTS)
    out.extend((name, "ratio") for name, _, _ in RATIOS)
    out.append(("trace.overhead_s", "s"))
    return out


# ---------------------------------------------------------------------------
# digests and output checks
# ---------------------------------------------------------------------------


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_label(rec) -> str:
    return f"{rec.strategy}|{rec.noise!r}|{rec.rep}"


def log_name(rec) -> str:
    # the per-run log name run_one documents: <strategy>_<noise>_r<rep>.log
    token = repr(float(rec.noise)).replace(".", "p").replace("-", "m")
    return f"{rec.strategy}_{token}_r{rec.rep}.log"


def record_invariants(rec, cfg, cell_seed) -> list[str]:
    """Output properties every run must have, whatever the seed."""
    problems = []
    if rec.seed != cell_seed(cfg.master_seed, rec.strategy, rec.noise, rec.rep):
        problems.append("seed is not the derived cell seed")
    if not 0.0 <= rec.final_error <= 1.0:
        problems.append(f"final_error {rec.final_error} outside [0, 1]")
    if not 0.0 <= rec.f_score <= 1.0:
        problems.append(f"f_score {rec.f_score} outside [0, 1]")
    if not rec.lambda2 >= 0.0:
        problems.append(f"lambda2 {rec.lambda2} negative")
    if rec.t_consensus is not None and not 0.0 < rec.t_consensus <= cfg.duration + cfg.dt:
        problems.append(f"t_consensus {rec.t_consensus} outside the run")
    if rec.fp_consensus_count < 0 or rec.n_exchanges < 0:
        problems.append("negative count")
    return problems


def pass_outputs(records, out_dir, cfg, cell_seed) -> dict:
    """Digest every run (and every output file) of one pass and check it."""
    runs: dict[str, str] = {}
    problems: dict[str, list[str]] = {}
    log_bytes = 0
    for rec in records:
        label = run_label(rec)
        fields = repr(tuple(getattr(rec, f) for f in RECORD_FIELDS)).encode()
        issues = record_invariants(rec, cfg, cell_seed)
        if out_dir is not None:
            path = out_dir / log_name(rec)
            log = path.read_bytes() if path.is_file() else b""
            if not path.is_file():
                issues.append(f"missing log {path.name}")
            log_bytes += len(log)
            comm_lines = sum(
                1 for line in log.splitlines() if line.split(b" ", 2)[1:2] == [b"comm"]
            )
            if comm_lines != rec.n_exchanges:
                issues.append(f"log has {comm_lines} exchanges, record {rec.n_exchanges}")
            fields += b"\0" + log
        runs[label] = sha256(fields)
        if issues:
            problems[label] = issues
    files: dict[str, str] = {}
    shared_problems: list[str] = []
    if out_dir is not None:
        for path in sorted(out_dir.iterdir()):
            if path.is_file() and path.suffix != ".log":
                files[path.name] = sha256(path.read_bytes())
        shared_problems = matrix_file_invariants(out_dir, records)
    return {
        "runs": runs,
        "files": files,
        "problems": problems,
        "shared_problems": shared_problems,
        "log_bytes": log_bytes,
    }


def matrix_file_invariants(out_dir: Path, records) -> list[str]:
    problems = []
    runs_csv = out_dir / "runs.csv"
    if not runs_csv.is_file():
        return ["runs.csv missing"]
    rows = runs_csv.read_text().splitlines()
    if len(rows) != len(records) + 1:
        problems.append(f"runs.csv has {len(rows) - 1} rows for {len(records)} runs")
    social = out_dir / "social_edges.csv"
    if not social.is_file():
        problems.append("social_edges.csv missing")
    else:
        total = sum(int(row.rsplit(",", 1)[1]) for row in social.read_text().splitlines()[1:])
        expected = sum(r.n_exchanges for r in records)
        if total != expected:
            problems.append(f"social_edges.csv counts {total} exchanges, records {expected}")
    return problems


def count_failures(outputs: dict, expected: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) of one pass against the expected digests."""
    labels = list(expected["runs"])
    messages = []
    failed_labels = set(outputs["problems"])
    for label, issues in outputs["problems"].items():
        messages.extend(f"{label}: {msg}" for msg in issues)
    for label in labels:
        if outputs["runs"].get(label) != expected["runs"][label]:
            failed_labels.add(label)
            messages.append(f"{label}: digest differs from the expected one")
    extra = set(outputs["runs"]) - set(labels)
    for label in sorted(extra):
        failed_labels.add(label)
        messages.append(f"{label}: run not expected")
    bad_files = [
        name for name, digest in expected["files"].items() if outputs["files"].get(name) != digest
    ]
    if bad_files or outputs["shared_problems"]:
        # a shared output (runs.csv, summary.csv, analysis CSVs) is every run's
        messages.extend(f"{name}: digest differs from the expected one" for name in bad_files)
        messages.extend(outputs["shared_problems"])
        failed_labels.update(labels)
    attempted = len(set(labels) | extra)
    return attempted, len(failed_labels), messages


def pass_digest(outputs: dict) -> str:
    items = sorted(outputs["runs"].items()) + sorted(outputs["files"].items())
    return sha256(json.dumps(items).encode())


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def calibrate() -> float:
    """Seconds for a fixed loop of interpreter work like the simulator's."""
    xs = [float(i) for i in range(64)]
    counts: dict[int, int] = {}
    acc = 0.0
    start = perf_counter()
    for i in range(CAL_ITERATIONS):
        j = i & 63
        acc += xs[j] * 0.5 - acc * 1e-9
        counts[j] = counts.get(j, 0) + 1
    return perf_counter() - start


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Import, config and load_map in one fresh interpreter.

    Returns (seconds, calibration seconds measured in that interpreter).
    """
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    elapsed, cal = proc.stdout.split()
    return float(elapsed), float(cal)


def run_pass(harness, cfg, write_files: bool, tracer) -> dict:
    """One full workload pass inside `tracer`; returns timings and outputs."""
    out_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=OUT)) if write_files else None
    try:
        with tracer:
            start = perf_counter()
            records, _ = harness.run_matrix(cfg, out_dir=out_dir)
            if out_dir is not None:
                harness.analyze_runs(out_dir)
            wall = perf_counter() - start
        outputs = pass_outputs(records, out_dir, cfg, harness.cell_seed)
    finally:
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)
    ticks = int(round(cfg.duration / cfg.dt))
    return {
        "wall": wall,
        "robot_ticks": len(records) * cfg.n_robots * ticks,
        "run_seconds": tracer.run_seconds(),
        "outputs": outputs,
        "tracer": tracer,
    }


def layer_values(tracer, log_bytes: int) -> dict[str, float]:
    """Per-layer numbers of one traced pass, before ratios and overhead."""
    values: dict[str, float] = {}
    for layer, suffixes in LAYER_METRICS:
        for suffix in suffixes:
            if suffix == "calls":
                values[f"{layer}.calls"] = tracer.calls.get(layer, 0)
            elif suffix == "s":
                values[f"{layer}.s"] = tracer.busy.get(layer, 0.0)
            else:
                values[f"{layer}.self_s"] = tracer.self_time.get(layer, 0.0)
    for name, _ in EXACT_COUNTS:
        values[name] = tracer.counts.get(name, 0)
    values["harness.log_bytes"] = log_bytes
    return values


def exact_counts(values: dict) -> dict[str, int]:
    return {k: v for k, v in values.items() if k.endswith(".calls") or k in dict(EXACT_COUNTS)}


def provenance(swarmpatrol, workload: str, seed: int, cfg, args) -> dict:
    import numpy

    def plain(value):
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [plain(v) for v in value]
        return getattr(value, "value", value)

    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src_hash.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "package_version": getattr(swarmpatrol, "__version__", "unknown"),
        "git_commit": commit,
        "source_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": plain(dataclasses.asdict(cfg)),
    }


def load_reference(workload: str, seed: int):
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "swarmpatrol" / "__init__.py").is_file():
        print(f"error: no swarmpatrol sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import swarmpatrol
    from swarmpatrol import harness
    from tracer import RUN_ONE, Tracer
    from workloads import WORKLOADS, make_config

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    cfg = make_config(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)

    setup: list[float] = []  # scaled set-up samples
    setup_raw: list[float] = []
    reference = load_reference(args.workload, args.seed)
    expected = reference
    min_passes = spec.get("min_passes", 2)

    attempted = failed = 0
    messages: list[str] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    digests: list[str] = []

    def check(result: dict) -> None:
        nonlocal attempted, failed, expected
        outputs = result["outputs"]
        if expected is None:
            expected = {"runs": outputs["runs"], "files": outputs["files"]}
        a, f, msgs = count_failures(outputs, expected)
        attempted += a
        failed += f
        messages.extend(msgs)
        digests.append(pass_digest(outputs))

    def scaled_setup() -> None:
        raw, probe_cal = measure_setup(args.workload, args.seed)
        setup_raw.append(raw)
        setup.append(raw * CAL_REF_S / probe_cal)

    cal = calibrate()
    loop_start = perf_counter()
    n_pairs = 0
    while n_pairs < min_passes or perf_counter() - loop_start < args.seconds:
        n_pairs += 1
        if not args.trace:
            # one set-up probe per pass spreads the probes over the whole run
            scaled_setup()
        kinds = [False, True] if args.trace else [False]
        for traced_pass in kinds:
            tracer = Tracer() if traced_pass else Tracer((RUN_ONE,))
            try:
                result = run_pass(harness, cfg, spec["write_files"], tracer)
            except Exception:
                traceback.print_exc()
                cells = len(cfg.strategies) * len(cfg.noise_levels) * cfg.reps
                attempted += cells
                failed += cells
                messages.append("a pass raised; see the traceback above")
                result = None
            cal_after = calibrate()
            scale = CAL_REF_S / ((cal + cal_after) / 2)
            cal = cal_after
            if result is None:
                continue
            result["scale"] = scale
            check(result)
            (traced if traced_pass else untraced).append(result)

    while not args.trace and len(setup) < SETUP_PROBES:
        scaled_setup()

    result_metrics: dict[str, dict] = {}
    exact_ok = True
    layer_report: dict = {}
    if not args.trace:
        walls = [r["wall"] * r["scale"] for r in untraced]
        run_times = [t * r["scale"] for r in untraced for t in r["run_seconds"]]
        values = {
            "wall_s": statistics.median(walls) if walls else 0.0,
            "robot_ticks_per_s": (
                statistics.median(r["robot_ticks"] / w for r, w in zip(untraced, walls))
                if walls else 0.0
            ),
            "run_s_p50": statistics.median(run_times) if run_times else 0.0,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for name, unit in END_TO_END:
            result_metrics[name] = {"value": values[name], "unit": unit}
        raw = [r["wall"] for r in untraced]
        if raw:
            print(
                f"unscaled: pass wall median {statistics.median(raw):.4f} s over {len(raw)} "
                f"passes, setup median {statistics.median(setup_raw):.4f} s; "
                f"run_s_p50 over {len(run_times)} runs"
            )
    else:
        per_pass = [layer_values(r["tracer"], r["outputs"]["log_bytes"]) for r in traced]
        counts = [exact_counts(v) for v in per_pass]
        for other in counts[1:]:
            if other != counts[0]:
                exact_ok = False
                diff = sorted(k for k in counts[0] if counts[0][k] != other.get(k))
                messages.append(f"exact counts differ between traced passes: {diff}")
        values: dict[str, float] = {}
        if per_pass:
            for key in per_pass[0]:
                if key in counts[0]:
                    values[key] = counts[0][key]
                else:
                    values[key] = statistics.median(v[key] for v in per_pass)
            for name, num, den in RATIOS:
                values[name] = values[num] / values[den] if values[den] else 0.0
            if untraced:
                values["trace.overhead_s"] = statistics.median(
                    r["wall"] for r in traced
                ) - statistics.median(r["wall"] for r in untraced)
        absent = traced[0]["tracer"].absent if traced else []
        for name, unit in per_layer_units():
            result_metrics[name] = {"value": values.get(name, 0.0), "unit": unit}
        layer_report = {"absent_layers": absent, "exact_counts": counts[0] if counts else {}}
        if absent:
            print(f"absent layers (reported as 0): {', '.join(absent)}")

    correct = failed == 0 and exact_ok and attempted > 0
    record = {
        "provenance": provenance(swarmpatrol, args.workload, args.seed, cfg, args),
        "reference": "perfbench/reference_digests.json" if reference else "first pass",
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "setup_s_samples": {"unscaled": setup_raw, "scaled": setup},
        "pass_walls": {
            "untraced": [r["wall"] for r in untraced],
            "traced": [r["wall"] for r in traced],
            "untraced_scale": [r["scale"] for r in untraced],
        },
        "digests": {
            "pass": digests,
            "runs": (untraced or traced)[0]["outputs"]["runs"] if untraced or traced else {},
            "files": (untraced or traced)[0]["outputs"]["files"] if untraced or traced else {},
        },
        "run_one_spans": untraced[0]["tracer"].spans if untraced else [],
        "messages": messages,
        "failed_runs": failed / attempted if attempted else 1.0,
        "metrics": result_metrics,
        **layer_report,
    }
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    for msg in messages[:20]:
        print(f"check: {msg}")
    first = digests[0] if digests else "-"
    print(f"outputs checked against {record['reference']}; pass digest {first}")
    for name, m in result_metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_runs = {record['failed_runs']:.6g} share ({failed}/{attempted})")
    print(f"wrote {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

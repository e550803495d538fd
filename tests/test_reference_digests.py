"""Seed 0 of every benchmark workload, and seed 7 of dense, against the reference digests.

perfbench/run.py digests each run's record and, for `matrix`, its log and
every CSV of the pass, and compares them with perfbench/reference_digests.json.
This test runs the same pass and the same check, with perfbench's own
functions loaded read-only, so a changed output byte fails the test suite
and not only the benchmark.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from swarmpatrol import harness

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    # by path, under a name of its own, so no sys.path entry can shadow it
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load("run")
workloads = _load("workloads")


def _check(tmp_path, workload, seed):
    cfg = workloads.make_config(workload, seed)
    out_dir = tmp_path if workloads.WORKLOADS[workload]["write_files"] else None
    records, _ = harness.run_matrix(cfg, out_dir=out_dir)
    if out_dir is not None:
        harness.analyze_runs(out_dir)
    outputs = bench.pass_outputs(records, out_dir, cfg, harness.cell_seed)
    expected = json.loads((BENCH / "reference_digests.json").read_text())[workload][str(seed)]
    attempted, failed, messages = bench.count_failures(outputs, expected)
    assert attempted == len(cfg.strategies) * len(cfg.noise_levels) * cfg.reps
    assert failed == 0, messages


@pytest.mark.parametrize("workload", ["matrix", "fleet", "dense"])
def test_seed_zero_matches_the_reference_digests(tmp_path, workload):
    _check(tmp_path, workload, 0)


def test_dense_seed_seven_matches_the_reference_digests(tmp_path):
    # on dense, which pairs the radio range-tests does not depend on the
    # seed; another seed's sensing draws give other beliefs to fuse
    _check(tmp_path, "dense", 7)

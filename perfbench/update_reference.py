#!/usr/bin/env python3
"""Fold the digests of finished benchmark runs into reference_digests.json.

Usage (from the repository root, after running perfbench/run.py):

    python3 perfbench/update_reference.py [.perfbench_out/<workload>-seed<N>-trace0.json ...]

With no arguments every untraced result under .perfbench_out/ is read. Only
results whose runs all passed and that were checked against their own first
pass (not already against a reference) are added; an existing entry for the
same workload and seed is never replaced. Run it on the commit whose outputs
are the reference, never on a change under test.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference_digests.json"
OUT = BENCH_DIR.parent / ".perfbench_out"


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted(OUT.glob("*-trace0.json"))
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    added = 0
    for path in paths:
        result = json.loads(path.read_text())
        prov = result["provenance"]
        if result["failed_runs"] != 0 or result["reference"] != "first pass":
            continue
        entries = reference.setdefault(prov["workload"], {})
        seed = str(prov["seed"])
        if seed in entries:
            continue
        entries[seed] = {
            "source_sha256": prov["source_sha256"],
            "runs": result["digests"]["runs"],
            "files": result["digests"]["files"],
        }
        added += 1
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"added {added} reference entries to {REFERENCE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

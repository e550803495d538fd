"""In-memory per-layer accumulators around swarmpatrol's public call sites.

The tracer replaces module attributes (for example `swarmpatrol.harness.advance`)
with thin wrappers while it is active and puts the originals back when it
exits. Each wrapper counts calls and accumulates busy time; a call stack
splits each layer's busy time into time in traced children and self time.
Only `harness.run_one` keeps one span per call, so per-run times can be read
back. Nothing is written out until the benchmark asks for it.

A wrapped name that the package no longer has is reported as absent rather
than raising, so a refactor that moves or renames a function keeps the traced
run working and shows which layers it lost.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# (layer, module, attribute) triples. The attribute is looked up in the module
# that calls it, so the wrapper sits exactly where the caller resolves the
# name. Several attributes may feed one layer.
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("graph.load_map", "swarmpatrol.harness", "load_map"),
    ("graph.shortest_path", "swarmpatrol.graph", "PatrolGraph.shortest_path"),
    ("world.advance", "swarmpatrol.harness", "advance"),
    ("world.visit", "swarmpatrol.harness", "visit"),
    ("beliefs.fuse_vectors", "swarmpatrol.comms", "fuse_vectors"),
    ("beliefs.digest", "swarmpatrol.harness", "digest"),
    ("comms.eligible_pairs", "swarmpatrol.comms", "eligible_pairs"),
    ("comms.exchange", "swarmpatrol.comms", "exchange"),
    ("strategies.decide_next", "swarmpatrol.harness", "decide_next"),
    ("strategies.dtap_auction", "swarmpatrol.harness", "dtap_auction"),
    ("strategies.retarget", "swarmpatrol.harness", "retarget"),
    ("metrics.scan_run", "swarmpatrol.harness", "scan_run"),
    ("metrics.algebraic_connectivity", "swarmpatrol.harness", "algebraic_connectivity"),
    ("metrics.scores", "swarmpatrol.harness", "system_error"),
    ("metrics.scores", "swarmpatrol.harness", "classify"),
    ("metrics.scores", "swarmpatrol.harness", "f_score"),
    ("harness.run_one", "swarmpatrol.harness", "run_one"),
    ("harness.write_csv", "swarmpatrol.harness", "write_runs_csv"),
    ("harness.write_csv", "swarmpatrol.harness", "write_summary_csv"),
    ("harness.analyze_runs", "swarmpatrol.harness", "analyze_runs"),
)

RUN_ONE = "harness.run_one"


def _pair_tests(args, result):
    n = len(args[0])  # positions
    return "comms.pair_tests", n * (n - 1) // 2


def _history_events(args, result):
    return "metrics.scan_run.events", len(args[3])  # history


def _awards(args, result):
    return "strategies.dtap_auction.awards", len(result)


# Counts taken from a call's arguments or result at the layer boundary.
COUNTERS = {
    "comms.eligible_pairs": _pair_tests,
    "metrics.scan_run": _history_events,
    "strategies.dtap_auction": _awards,
}


def _resolve(module_name: str, attr_path: str):
    """Return (owner, name, original) or None when the name is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, name = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, name, None)
    if not callable(original):
        return None
    return owner, name, original


class Tracer:
    """Wraps the layers named in `layers` for the duration of a `with` block."""

    def __init__(self, layers: tuple[str, ...] | None = None):
        wanted = {layer for layer, _, _ in LAYERS} if layers is None else set(layers)
        self._specs = [spec for spec in LAYERS if spec[0] in wanted]
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[list] = []

    def __enter__(self) -> "Tracer":
        present: set[str] = set()
        missing: set[str] = set()
        for layer, module_name, attr_path in self._specs:
            found = _resolve(module_name, attr_path)
            if found is None:
                missing.add(layer)
                continue
            owner, name, original = found
            setattr(owner, name, self._wrap(layer, original))
            self._patched.append((owner, name, original))
            present.add(layer)
        for layer in present:
            self.calls.setdefault(layer, 0)
            self.busy.setdefault(layer, 0.0)
            self.self_time.setdefault(layer, 0.0)
        self.absent = sorted(missing - present)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _wrap(self, layer: str, fn):
        stack = self._stack
        calls = self.calls
        busy = self.busy
        self_time = self.self_time
        counter = COUNTERS.get(layer)
        counts = self.counts
        spans = self.spans if layer == RUN_ONE else None

        def traced(*args, **kwargs):
            frame = [0.0]  # time spent in traced children
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                calls[layer] += 1
                busy[layer] += elapsed
                self_time[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if counter is not None:
                key, value = counter(args, result)
                counts[key] = counts.get(key, 0) + value
            if spans is not None:
                spans.append(
                    {
                        "name": layer,
                        "start": start,
                        "end": end,
                        "parent": None,
                        "args": [getattr(a, "value", a) for a in args[2:5]],
                    }
                )
            return result

        traced.__wrapped__ = fn
        return traced

    def run_seconds(self) -> list[float]:
        """Duration of every recorded run_one span, in call order."""
        return [s["end"] - s["start"] for s in self.spans]

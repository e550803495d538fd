"""Workload definitions shared by the benchmark and its set-up probe.

Each workload is a set of `ExperimentConfig` keyword arguments; the master
seed comes from the benchmark's `--seed`. All of them use the bundled 40-node
map. Why each one exists is written in README.md next to this file.
"""

from __future__ import annotations

ALL_STRATEGIES = ("CBLS", "CGG", "CR", "DTAG", "DTAP", "GBS", "HCR", "HPCC", "RAND", "SEBS")

WORKLOADS: dict[str, dict] = {
    # every strategy and the only auctions and disk I/O; what the CLI runs
    "matrix": {
        "config": {
            "n_robots": 8,
            "duration": 300.0,
            "comm_range": 5.0,
            "comm_timeout": 30.0,
            "noise_levels": [0.0, 0.2],
            "strategies": list(ALL_STRATEGIES),
            "reps": 1,
        },
        "write_files": True,
    },
    # one cell, a spread-out fleet: comms eligibility dominates
    "fleet": {
        "config": {
            "n_robots": 32,
            "duration": 600.0,
            "noise_levels": [0.05],
            "strategies": ["SEBS"],
            "reps": 1,
        },
        "write_files": False,
    },
    # the radio covers the map (range 70 m > 68.2 m diagonal, no cooldown):
    # every pair fuses on every tick, so fusion and the replay dominate
    "dense": {
        "config": {
            "n_robots": 8,
            "duration": 150.0,
            "comm_range": 70.0,
            "comm_timeout": 0.0,
            "noise_levels": [0.2],
            "strategies": ["SEBS", "CR"],
            "reps": 1,
        },
        "write_files": False,
    },
    # the acceptance fixture's matrix (600 runs at 3600 s), timed once as a
    # reference number; not one of the repeated workloads
    "reference_matrix": {
        "config": {
            "n_robots": 8,
            "duration": 3600.0,
            "noise_levels": [0.0, 0.05, 0.2],
            "strategies": list(ALL_STRATEGIES),
            "reps": 20,
        },
        "write_files": True,
        "min_passes": 1,
    },
}


def make_config(name: str, seed: int):
    """Build the workload's ExperimentConfig with `seed` as the master seed."""
    from swarmpatrol.harness import ExperimentConfig
    from swarmpatrol.strategies import StrategyKind

    kwargs = dict(WORKLOADS[name]["config"])
    kwargs["noise_levels"] = tuple(kwargs["noise_levels"])
    kwargs["strategies"] = tuple(StrategyKind[s] for s in kwargs["strategies"])
    return ExperimentConfig(master_seed=seed, **kwargs)

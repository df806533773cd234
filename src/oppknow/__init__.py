"""Knowledge sharing in opportunistic contact networks, measured in bits.

The package estimates a joint PMF of user activity from traces, computes each
user's knowledge-gain limit (the entropy everyone jointly holds beyond the
user's own), and simulates how close two sharing policies get to that limit
over single-hop and fixed multi-hop topologies.

Public names are imported from their submodules on first use, so importing
the package (or ``oppknow.cli``) does not load numpy.
"""

import importlib

from . import errors

__version__ = "0.1.0"

# Public name -> submodule that defines it.
_SUBMODULES = {
    "Graph": "topology",
    "JointDistribution": "measures",
    "KnowledgeState": "engine",
    "MetricsRecord": "metrics",
    "Policy": "metrics",
    "SampleTable": "traces",
    "SynthConfig": "traces",
    "apply_encounter": "engine",
    "encounter_overhead": "engine",
    "focal_schedule": "engine",
    "full_mesh": "topology",
    "init_state": "engine",
    "inject_unique_tips": "traces",
    "nonnegative_bits": "measures",
    "parse_activity_csv": "traces",
    "profile_vector": "traces",
    "random_geometric": "topology",
    "read_edge_list": "topology",
    "read_metrics_csv": "metrics",
    "read_sample_table": "traces",
    "round_robin_schedule": "engine",
    "run": "engine",
    "run_rounds": "engine",
    "steps_to_limit": "engine",
    "synthesize_traces": "traces",
    "write_edge_list": "topology",
    "write_metrics_csv": "metrics",
    "write_sample_table": "traces",
}

__all__ = sorted([*_SUBMODULES, "errors"])


def __getattr__(name: str):
    module = _SUBMODULES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

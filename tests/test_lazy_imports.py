"""The package loads its numpy-backed layers only when a caller needs them.

``import oppknow``, ``import oppknow.cli``, ``oppknow report``, ``--help`` and
usage errors must not import numpy: each is checked in a fresh interpreter,
since this test process has loaded numpy long before. ``report`` also loads
neither ``dataclasses`` nor ``inspect``, and every other command loads only
the submodules it uses. The public names still resolve to the
objects their submodules define.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oppknow
from oppknow.metrics import METRICS_HEADER

SOURCE_ROOT = str(Path(oppknow.__file__).resolve().parents[1])

# Public name -> the submodule it is defined in (or re-exported from).
PUBLIC = {
    "Graph": "topology",
    "JointDistribution": "measures",
    "KnowledgeState": "engine",
    "MetricsRecord": "engine",
    "Policy": "engine",
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
    "read_metrics_csv": "engine",
    "read_sample_table": "traces",
    "round_robin_schedule": "engine",
    "run": "engine",
    "run_rounds": "engine",
    "steps_to_limit": "engine",
    "synthesize_traces": "traces",
    "write_edge_list": "topology",
    "write_metrics_csv": "engine",
    "write_sample_table": "traces",
}

ALL = [
    "Graph", "JointDistribution", "KnowledgeState", "MetricsRecord", "Policy",
    "SampleTable", "SynthConfig", "apply_encounter", "encounter_overhead",
    "errors", "focal_schedule", "full_mesh",
    "init_state", "inject_unique_tips", "nonnegative_bits",
    "parse_activity_csv", "profile_vector", "random_geometric", "read_edge_list",
    "read_metrics_csv", "read_sample_table", "round_robin_schedule", "run",
    "run_rounds", "steps_to_limit", "synthesize_traces", "write_edge_list",
    "write_metrics_csv", "write_sample_table",
]

# Runs oppknow.cli as __main__ with the given arguments; the last line of
# stdout reports the exit code, whether numpy was loaded, which of
# dataclasses and inspect the command loaded that were not loaded before, and
# the oppknow submodules loaded by the end.
RUN_CLI = """
import json, runpy, sys
slow = [name for name in ("dataclasses", "inspect") if name not in sys.modules]
sys.argv = ["oppknow", *json.loads(sys.argv[1])]
try:
    runpy.run_module("oppknow.cli", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules,
                  "loaded": [name for name in slow if name in sys.modules],
                  "oppknow": sorted(name.removeprefix("oppknow.") for name in sys.modules
                                    if name.startswith("oppknow."))}))
"""


def _python(code, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SOURCE_ROOT, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    return json.loads(done.stdout.splitlines()[-1]), done


def test_importing_the_package_and_the_cli_loads_no_numpy(tmp_path):
    loaded, done = _python(
        "import json, sys, oppknow, oppknow.cli; "
        "print(json.dumps('numpy' in sys.modules))",
        cwd=tmp_path,
    )
    assert loaded is False, done.stderr


@pytest.mark.parametrize("argv, code", [
    (["report", "--metrics", "metrics.csv", "--nodes", "0,1", "--output", "wide.csv"], 0),
    (["--help"], 0),
    (["report", "--metrics", "metrics.csv", "--nodes", "x", "--output", "wide.csv"], 2),
    (["simulate"], 2),
], ids=["report", "help", "report-usage-error", "simulate-usage-error"])
def test_cheap_commands_load_no_numpy(tmp_path, argv, code):
    (tmp_path / "metrics.csv").write_text(
        METRICS_HEADER + "\n"
        "0,0,smo,0,1.5,0,0,false\n0,1,smo,0,2,0,0,false\n"
        "1,0,smo,1.5,1.5,0.25,0.25,true\n1,1,smo,1,2,0.5,0.5,false\n",
        newline="\n",
    )
    result, done = _python(RUN_CLI, json.dumps(argv), cwd=tmp_path)
    assert (result["code"], result["numpy"]) == (code, False), done.stderr
    if argv[0] == "report" and code == 0:
        # A metrics record is a named tuple, not a dataclass.
        assert result["loaded"] == []
        assert result["oppknow"] == ["errors", "metrics"]
        assert (tmp_path / "wide.csv").read_text() == (
            "round,node_0_kg,node_0_kl,node_1_kg,node_1_kl\n0,0,1.5,0,2\n1,1.5,1.5,1,2\n"
        )


@pytest.mark.parametrize("argv, layers", [
    (["synth", "--users", "3", "--categories", "2", "--rows", "20", "--rho", "0.5",
      "--seed", "1", "--output", "synth.csv"], ["measures", "traces"]),
    (["ingest", "--input", "activity.csv", "--users", "2", "--categories", "2",
      "--output", "ingested.csv"], ["traces"]),
    (["limits", "--trace", "trace.csv", "--output", "limits.csv"], ["measures", "traces"]),
    (["simulate", "--trace", "trace.csv", "--mesh", "--policy", "fmpo", "--round-robin",
      "2", "--metrics", "m.csv", "--summary", "s.csv"],
     ["engine", "measures", "topology", "traces"]),
], ids=["synth", "ingest", "limits", "simulate"])
def test_each_command_loads_only_the_layers_it_uses(tmp_path, argv, layers):
    # A fresh interpreter, so no layer name is bound before main runs.
    (tmp_path / "activity.csv").write_text(
        "timestamp,user,category\n0,0,1\n0,1,0\n1,0,1\n1,1,1\n", newline="\n")
    (tmp_path / "trace.csv").write_text("3,2,4\n0,0,1\n1,0,1\n0,1,0\n1,1,1\n", newline="\n")
    result, done = _python(RUN_CLI, json.dumps(argv), cwd=tmp_path)
    assert result["code"] == 0, done.stderr
    assert result["oppknow"] == sorted(["errors", "metrics", *layers])


def test_all_is_unchanged():
    assert oppknow.__all__ == ALL
    assert oppknow.__version__ == "0.1.0"


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_public_name_is_its_submodule_attribute(name):
    module = importlib.import_module(f"oppknow.{PUBLIC[name]}")
    assert getattr(oppknow, name) is getattr(module, name)


def test_metrics_names_are_one_object_across_modules():
    from oppknow import engine, metrics
    from oppknow.engine import METRICS_HEADER as engine_header
    from oppknow.engine import MetricsRecord, Policy

    assert engine_header == METRICS_HEADER
    assert MetricsRecord is metrics.MetricsRecord
    assert Policy is metrics.Policy
    for name in ("read_metrics_csv", "write_metrics_csv"):
        assert getattr(engine, name) is getattr(metrics, name) is getattr(oppknow, name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from oppknow import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ALL)
    assert namespace["errors"] is oppknow.errors


def test_dir_lists_every_public_name(tmp_path):
    # In a fresh interpreter, where no public name has been looked up yet.
    listed, done = _python(
        "import json, sys, oppknow; "
        "print(json.dumps([dir(oppknow), 'numpy' in sys.modules]))",
        cwd=tmp_path,
    )
    assert listed[1] is False, done.stderr
    assert set(ALL) <= set(listed[0])


def test_unknown_names_raise_attribute_error():
    import oppknow.cli

    with pytest.raises(AttributeError, match="no_such_name"):
        oppknow.no_such_name
    with pytest.raises(ImportError):
        exec("from oppknow import no_such_name", {})
    with pytest.raises(AttributeError, match="no_such_name"):
        oppknow.cli.no_such_name


def test_cli_layer_names_resolve_as_module_attributes():
    import oppknow.cli
    from oppknow import engine, measures, topology, traces

    assert oppknow.cli.run_rounds is engine.run_rounds
    assert oppknow.cli.round_robin_schedule is engine.round_robin_schedule
    assert oppknow.cli.JointDistribution is measures.JointDistribution
    assert oppknow.cli.random_geometric is topology.random_geometric
    assert oppknow.cli.read_sample_table is traces.read_sample_table


def test_main_keeps_a_layer_function_replaced_before_it_runs(tmp_path, monkeypatch, capsys):
    from oppknow import cli, engine

    calls = []

    def schedule(*args):
        calls.append(args)
        return engine.round_robin_schedule(*args)

    monkeypatch.setattr(cli, "round_robin_schedule", schedule)
    trace = tmp_path / "trace.csv"
    assert cli.main(["synth", "--users", "4", "--categories", "3", "--rows", "50",
                     "--rho", "0.5", "--seed", "2", "--output", str(trace)]) == 0
    assert cli.main(["simulate", "--trace", str(trace), "--mesh", "--policy", "smo",
                     "--round-robin", "2", "--metrics", str(tmp_path / "m.csv"),
                     "--summary", str(tmp_path / "s.csv")]) == 0
    capsys.readouterr()
    assert len(calls) == 1
    assert cli.round_robin_schedule is schedule

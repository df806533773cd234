"""`simulate` writes each round's records as the engine yields them.

The streamed metrics file must equal, byte for byte, what writing `run`'s
full list gives, and each summary row must equal `run`'s last record of the
node plus `steps_to_limit`. Peak memory must not grow with the number of
rounds beyond the schedule.
"""

import contextlib
import io
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oppknow import (
    Graph,
    JointDistribution,
    Policy,
    SampleTable,
    SynthConfig,
    focal_schedule,
    full_mesh,
    inject_unique_tips,
    random_geometric,
    read_edge_list,
    read_sample_table,
    round_robin_schedule,
    run,
    steps_to_limit,
    synthesize_traces,
    write_edge_list,
    write_metrics_csv,
    write_sample_table,
)
from oppknow.cli import main
from oppknow.errors import CouldNotConnect
from oppknow.metrics import _fmt


def previous_steps_to_limit(records, node, schedule, tol=1e-9):
    """``steps_to_limit`` before it shared its definition with the streamed
    summary, kept verbatim as a reference."""
    own = [r for r in records if r.node == node]
    if own[0].kl_bits <= tol:
        return 0
    reached = [r.round_index for r in own if r.kl_bits - r.kg_bits <= tol]
    if not reached:
        return None
    return sum(
        any(node in pair for pair in round_pairs)
        for round_pairs in schedule[: min(reached) + 1]
    )


def simulate_both_ways(directory, table, graph, policy, schedule_flags):
    """Run `simulate` on files holding ``table`` and ``graph``, and check its
    outputs against the list-building path. Returns each node's steps."""
    trace, edges = directory / "trace.csv", directory / "edges.txt"
    metrics, summary = directory / "metrics.csv", directory / "summary.csv"
    write_sample_table(table, trace)
    write_edge_list(graph, edges)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([
            "simulate", "--trace", str(trace), "--edges", str(edges),
            "--policy", policy.value, *schedule_flags,
            "--metrics", str(metrics), "--summary", str(summary),
        ])
    assert code == 0

    dist = JointDistribution.from_samples(read_sample_table(trace))
    graph = read_edge_list(edges)
    if schedule_flags[0] == "--focal":
        schedule = focal_schedule(graph, int(schedule_flags[1]))
    else:
        schedule = round_robin_schedule(graph, int(schedule_flags[1]), int(schedule_flags[3]))
    records = run(dist, graph, schedule, policy)
    expected = directory / "expected.csv"
    write_metrics_csv(records, expected)
    assert metrics.read_bytes() == expected.read_bytes()

    lines = ["node,kl_bits,kg_bits,achieved,steps_to_limit,oh_bits"]
    printed = []
    all_steps = []
    for node, final in enumerate(records[-graph.node_count:]):
        steps = steps_to_limit(records, node, schedule)
        assert steps == previous_steps_to_limit(records, node, schedule)
        all_steps.append(steps)
        steps_text = "" if steps is None else str(steps)
        achieved = "true" if final.achieved else "false"
        lines.append(f"{node},{_fmt(final.kl_bits)},{_fmt(final.kg_bits)},{achieved},"
                     f"{steps_text},{_fmt(final.oh_cum_bits)}")
        printed.append(f"node {node} kl_bits={_fmt(final.kl_bits)} "
                       f"kg_bits={_fmt(final.kg_bits)} achieved={achieved} "
                       f"steps_to_limit={steps_text or 'none'}")
    assert summary.read_text().splitlines() == lines
    assert stdout.getvalue().splitlines() == printed
    return all_steps


@st.composite
def tables(draw, node_count):
    kind = draw(st.sampled_from(["random", "identical", "synth"]))
    if kind == "synth":
        seed = draw(st.integers(0, 2**16))
        return inject_unique_tips(synthesize_traces(SynthConfig(node_count, 3, 40, 0.4, seed)))
    categories = draw(st.integers(1, 4))
    cell = st.integers(0, categories - 1)
    if kind == "identical":
        # Every user holds the same column, so every limit is zero bits.
        column = draw(st.lists(cell, min_size=1, max_size=30))
        return SampleTable(node_count, categories, [[c] * node_count for c in column])
    rows = draw(st.lists(st.lists(cell, min_size=node_count, max_size=node_count),
                         min_size=1, max_size=30))
    return SampleTable(node_count, categories, rows)


@st.composite
def graphs(draw, node_count):
    kind = draw(st.sampled_from(["geometric", "path", "mesh"]))
    if kind == "path":
        return Graph(node_count, [(n, n + 1) for n in range(node_count - 1)])
    if kind == "mesh":
        return full_mesh(node_count)
    try:
        return random_geometric(node_count, draw(st.floats(0.3, 1.0)),
                                draw(st.integers(0, 2**16)))
    except CouldNotConnect:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(
    node_count=st.integers(2, 9),
    policy=st.sampled_from(list(Policy)),
    data=st.data(),
)
def test_streamed_outputs_equal_the_list_path(tmp_path_factory, node_count, policy, data):
    table = data.draw(tables(node_count))
    graph = data.draw(graphs(node_count))
    if data.draw(st.booleans()):
        flags = ["--focal", str(data.draw(st.integers(0, node_count - 1)))]
    else:
        flags = ["--round-robin", str(data.draw(st.integers(1, 12))),
                 "--schedule-seed", str(data.draw(st.integers(0, 2**16)))]
    simulate_both_ways(tmp_path_factory.mktemp("stream"), table, graph, policy, flags)


@pytest.mark.parametrize("policy", list(Policy))
def test_identical_users_reach_the_limit_at_round_0(tmp_path, policy):
    table = SampleTable(4, 3, [[c] * 4 for c in (0, 1, 2, 1, 0)])
    steps = simulate_both_ways(tmp_path, table, full_mesh(4), policy,
                               ["--round-robin", "5", "--schedule-seed", "3"])
    assert steps == [0, 0, 0, 0]


def test_path_under_smo_never_reaches_the_limit(tmp_path):
    table = inject_unique_tips(synthesize_traces(SynthConfig(5, 3, 60, 0.4, 2)))
    path = Graph(5, [(n, n + 1) for n in range(4)])
    steps = simulate_both_ways(tmp_path, table, path, Policy.SEND_MINE_ONLY,
                               ["--round-robin", "12", "--schedule-seed", "1"])
    assert steps == [None] * 5


def test_simulate_peak_memory_is_flat_in_rounds(tmp_path):
    trace = tmp_path / "trace.csv"
    assert main(["synth", "--users", "20", "--categories", "24", "--rows", "1000",
                 "--rho", "0.3", "--seed", "7", "--output", str(trace)]) == 0

    def peak(rounds):
        argv = ["simulate", "--trace", str(trace), "--geometric", "0.5",
                "--topology-seed", "1", "--policy", "fmpo", "--round-robin", str(rounds),
                "--metrics", str(tmp_path / "m.csv"), "--summary", str(tmp_path / "s.csv")]
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(30)  # loads the layers, so neither measured run pays for imports
    assert peak(300) <= 1.25 * peak(30)

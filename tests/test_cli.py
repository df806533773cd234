"""End-to-end tests for the command-line interface."""

import numpy as np
import pytest

from oppknow import (
    JointDistribution,
    Policy,
    focal_schedule,
    full_mesh,
    random_geometric,
    read_sample_table,
    run,
    steps_to_limit,
    write_metrics_csv,
)
from oppknow.cli import main
from oppknow.metrics import METRICS_HEADER, _fmt


def read_csv_dict(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


@pytest.fixture(scope="module")
def trace_m20(tmp_path_factory):
    """Desk-scale trace: 20 users, 24 categories, unique tips injected."""
    path = tmp_path_factory.mktemp("traces") / "m20.csv"
    code = main([
        "synth", "--users", "20", "--categories", "24", "--rows", "1500",
        "--rho", "0.3", "--seed", "7", "--unique-tips", "--output", str(path),
    ])
    assert code == 0
    return path


class TestSynth:
    def test_writes_trace_and_prints_entropies(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main([
            "synth", "--users", "4", "--categories", "6", "--rows", "200",
            "--rho", "0.5", "--seed", "11", "--output", str(out),
        ])
        assert code == 0
        table = read_sample_table(out)
        assert (table.user_count, table.category_count, table.row_count) == (4, 6, 200)
        printed = capsys.readouterr().out.splitlines()
        assert printed[0] == "M=4 v=6 T=200"
        assert sum(1 for line in printed if line.startswith("user ")) == 4

    def test_unique_tips_extend_alphabet(self, tmp_path):
        out = tmp_path / "trace.csv"
        main([
            "synth", "--users", "4", "--categories", "6", "--rows", "50",
            "--rho", "0.5", "--seed", "11", "--unique-tips", "--output", str(out),
        ])
        table = read_sample_table(out)
        assert table.category_count == 10
        assert table.row_count == 54

    def test_same_flags_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        flags = ["synth", "--users", "5", "--categories", "4", "--rows", "100",
                 "--rho", "0.2", "--seed", "9"]
        assert main(flags + ["--output", str(a)]) == 0
        assert main(flags + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("categories", ["9223372036854775808", "4611686018427387904"])
    def test_alphabet_too_wide_for_profiles_exits_3(self, tmp_path, capsys, categories):
        code = main([
            "synth", "--users", "2", "--categories", categories, "--rows", "5",
            "--rho", "0.3", "--seed", "1", "--output", str(tmp_path / "t.csv"),
        ])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: input or requested size too large to hold in memory: "
            f"the (2, {categories}) float64 profile matrix exceeds the address space\n"
        )

    def test_rho_out_of_range_is_usage_error(self, tmp_path, capsys):
        code = main([
            "synth", "--users", "4", "--categories", "6", "--rows", "10",
            "--rho", "1.5", "--seed", "0", "--output", str(tmp_path / "t.csv"),
        ])
        capsys.readouterr()
        assert code == 2


class TestIngest:
    def test_activity_csv_roundtrip(self, tmp_path, capsys):
        src = tmp_path / "activity.csv"
        src.write_text(
            "timestamp,user,category\n0,0,1\n0,1,0\n1,0,0\n1,1,0\n",
            newline="\n",
        )
        out = tmp_path / "trace.csv"
        code = main([
            "ingest", "--input", str(src), "--users", "2", "--categories", "2",
            "--output", str(out),
        ])
        assert code == 0
        assert read_sample_table(out).rows == ((1, 0), (0, 0))
        assert capsys.readouterr().out.splitlines()[0] == "M=2 v=2 T=2"

    def test_idle_policy(self, tmp_path):
        src = tmp_path / "activity.csv"
        src.write_text("timestamp,user,category\n0,0,1\n", newline="\n")
        out = tmp_path / "trace.csv"
        code = main([
            "ingest", "--input", str(src), "--users", "2", "--categories", "2",
            "--missing-policy", "idle-category", "--output", str(out),
        ])
        assert code == 0
        assert read_sample_table(out).rows == ((2, 0),)

    def test_sparse_category_ids(self, tmp_path, capsys):
        src = tmp_path / "activity.csv"
        src.write_text(
            "timestamp,user,category\n0,0,3000000\n0,1,5\n1,0,7\n1,1,0\n",
            newline="\n",
        )
        out = tmp_path / "trace.csv"
        code = main([
            "ingest", "--input", str(src), "--users", "2", "--categories", "3000001",
            "--output", str(out),
        ])
        assert code == 0
        assert capsys.readouterr().out == "M=2 v=3000001 T=2\n"
        assert out.read_bytes() == b"2,3000001,2\n3000000,5\n7,0\n"

    @pytest.mark.parametrize("policy", ["drop-row", "idle-category"])
    def test_shuffled_log_gives_the_same_trace(self, tmp_path, capsys, policy):
        # The in-order log is parsed row by row as it is read, its shuffled
        # copy from columns sorted by stamp; about a tenth of the stamps lack
        # a user.
        rng = np.random.default_rng(3)
        categories = rng.integers(0, 5, size=(430, 6))
        observed = rng.random((430, 6)) > 0.02
        lines = [
            f"{7 * t},{u},{c}\n"
            for t, (row, seen) in enumerate(zip(categories.tolist(), observed.tolist()))
            for u, c in enumerate(row) if seen[u]
        ]
        ordered, shuffled = tmp_path / "ordered.csv", tmp_path / "shuffled.csv"
        ordered.write_text("timestamp,user,category\n" + "".join(lines), newline="\n")
        rng.shuffle(lines)
        shuffled.write_text("timestamp,user,category\n" + "".join(lines), newline="\n")
        traces = []
        for src in (ordered, shuffled):
            out = tmp_path / f"trace-{src.name}"
            code = main([
                "ingest", "--input", str(src), "--users", "6", "--categories", "5",
                "--missing-policy", policy, "--output", str(out),
            ])
            assert code == 0
            traces.append(out.read_bytes())
        assert traces[0] == traces[1]
        kept = observed.any(axis=1) if policy == "idle-category" else observed.all(axis=1)
        assert read_sample_table(tmp_path / "trace-ordered.csv").row_count == kept.sum()
        assert not observed.all(axis=1).all()
        capsys.readouterr()

    def test_parse_error_exits_3(self, tmp_path, capsys):
        src = tmp_path / "activity.csv"
        src.write_text("timestamp,user,category\nnot,a,row\n", newline="\n")
        code = main([
            "ingest", "--input", str(src), "--users", "2", "--categories", "2",
            "--output", str(tmp_path / "t.csv"),
        ])
        capsys.readouterr()
        assert code == 3

    def test_missing_file_exits_3(self, tmp_path, capsys):
        code = main([
            "ingest", "--input", str(tmp_path / "nope.csv"), "--users", "2",
            "--categories", "2", "--output", str(tmp_path / "t.csv"),
        ])
        capsys.readouterr()
        assert code == 3


class TestLimits:
    def test_identical_users_have_zero_limits(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        main([
            "synth", "--users", "3", "--categories", "4", "--rows", "150",
            "--rho", "1.0", "--seed", "2", "--output", str(trace),
        ])
        capsys.readouterr()
        out = tmp_path / "limits.csv"
        assert main(["limits", "--trace", str(trace), "--output", str(out)]) == 0
        for row in read_csv_dict(out):
            assert float(row["kl_bits"]) == 0.0

    def test_worked_three_atom_fixture(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("3,2,4\n0,0,0\n0,0,0\n1,0,1\n1,1,0\n", newline="\n")
        out = tmp_path / "limits.csv"
        assert main(["limits", "--trace", str(trace), "--output", str(out)]) == 0
        rows = read_csv_dict(out)
        assert float(rows[0]["kl_bits"]) == pytest.approx(0.5, abs=1e-12)
        stdout = capsys.readouterr().out
        assert "joint_h_bits=1.5" in stdout

    def test_limits_differ_across_heterogeneous_users(self, trace_m20, tmp_path, capsys):
        out = tmp_path / "limits.csv"
        assert main(["limits", "--trace", str(trace_m20), "--output", str(out)]) == 0
        capsys.readouterr()
        values = {row["kl_bits"] for row in read_csv_dict(out)}
        assert len(values) > 1

    def test_malformed_trace_exits_3(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("not a header\n")
        code = main(["limits", "--trace", str(trace), "--output", str(tmp_path / "o.csv")])
        capsys.readouterr()
        assert code == 3


class TestSimulate:
    def test_mesh_smo_focal_reaches_limit_within_19(self, trace_m20, tmp_path, capsys):
        metrics = tmp_path / "metrics.csv"
        summary = tmp_path / "summary.csv"
        code = main([
            "simulate", "--trace", str(trace_m20), "--mesh", "--policy", "smo",
            "--focal", "0", "--metrics", str(metrics), "--summary", str(summary),
        ])
        capsys.readouterr()
        assert code == 0
        row = read_csv_dict(summary)[0]
        assert row["achieved"] == "true"
        assert int(row["steps_to_limit"]) <= 19

    def test_geometric_smo_leaves_someone_short(self, trace_m20, tmp_path, capsys):
        metrics = tmp_path / "metrics.csv"
        summary = tmp_path / "summary.csv"
        code = main([
            "simulate", "--trace", str(trace_m20), "--geometric", "0.35",
            "--topology-seed", "1", "--policy", "smo", "--round-robin", "80",
            "--schedule-seed", "5", "--metrics", str(metrics), "--summary", str(summary),
        ])
        capsys.readouterr()
        assert code == 0
        rows = read_csv_dict(summary)
        short = [r for r in rows if r["achieved"] == "false"]
        assert short
        for row in short:
            assert float(row["kg_bits"]) < float(row["kl_bits"])
            assert row["steps_to_limit"] == ""

    def test_geometric_fmpo_reaches_limit_everywhere(self, trace_m20, tmp_path, capsys):
        graph = random_geometric(20, 0.35, 1)
        rounds = 20 * graph.diameter()
        metrics = tmp_path / "metrics.csv"
        summary = tmp_path / "summary.csv"
        code = main([
            "simulate", "--trace", str(trace_m20), "--geometric", "0.35",
            "--topology-seed", "1", "--policy", "fmpo", "--round-robin", str(rounds),
            "--schedule-seed", "5", "--metrics", str(metrics), "--summary", str(summary),
        ])
        capsys.readouterr()
        assert code == 0
        assert all(r["achieved"] == "true" for r in read_csv_dict(summary))

    def test_dimension_mismatch_exits_3(self, trace_m20, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text("3\n0 1\n1 2\n", newline="\n")
        metrics, summary = tmp_path / "m.csv", tmp_path / "s.csv"
        code = main([
            "simulate", "--trace", str(trace_m20), "--edges", str(edges),
            "--policy", "smo", "--focal", "0",
            "--metrics", str(metrics), "--summary", str(summary),
        ])
        capsys.readouterr()
        assert code == 3
        assert not metrics.exists()
        assert not summary.exists()

    def test_declared_node_count_far_above_users_exits_3(self, tmp_path, capsys):
        # The graph holds its one edge, not two million adjacency entries.
        trace = tmp_path / "t.csv"
        trace.write_text("3,2,2\n0,1,0\n1,0,1\n", newline="\n")
        edges = tmp_path / "edges.txt"
        edges.write_text("2000000\n0 1\n", newline="\n")
        metrics, summary = tmp_path / "m.csv", tmp_path / "s.csv"
        code = main([
            "simulate", "--trace", str(trace), "--edges", str(edges),
            "--policy", "smo", "--focal", "0",
            "--metrics", str(metrics), "--summary", str(summary),
        ])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: distribution has 3 users but topology has 2000000 nodes\n"
        )
        assert not metrics.exists()
        assert not summary.exists()

    def test_focal_node_without_neighbors_exits_3_writing_nothing(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        trace.write_text("3,2,2\n0,1,0\n1,0,1\n", newline="\n")
        edges = tmp_path / "edges.txt"
        edges.write_text("3\n0 1\n", newline="\n")
        metrics, summary = tmp_path / "m.csv", tmp_path / "s.csv"
        code = main([
            "simulate", "--trace", str(trace), "--edges", str(edges),
            "--policy", "smo", "--focal", "2",
            "--metrics", str(metrics), "--summary", str(summary),
        ])
        assert code == 3
        assert capsys.readouterr().err == "error: focal node 2 has no neighbors\n"
        assert not metrics.exists()
        assert not summary.exists()

    def test_round_count_past_the_address_space_exits_3_writing_nothing(
        self, trace_m20, tmp_path, capsys
    ):
        # A schedule that cannot fit is refused before its first round is
        # drawn, not grown until the process is killed.
        metrics, summary = tmp_path / "m.csv", tmp_path / "s.csv"
        code = main([
            "simulate", "--trace", str(trace_m20), "--mesh", "--policy", "smo",
            "--round-robin", "100000000000000000000", "--schedule-seed", "1",
            "--metrics", str(metrics), "--summary", str(summary),
        ])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: input or requested size too large to hold in memory: "
            "a schedule of 100000000000000000000 rounds exceeds the address space\n"
        )
        assert not metrics.exists()
        assert not summary.exists()

    def test_conflicting_topologies_is_usage_error(self, trace_m20, tmp_path, capsys):
        code = main([
            "simulate", "--trace", str(trace_m20), "--mesh", "--geometric", "0.3",
            "--policy", "smo", "--focal", "0",
            "--metrics", str(tmp_path / "m.csv"), "--summary", str(tmp_path / "s.csv"),
        ])
        capsys.readouterr()
        assert code == 2

    def test_tolerance_reaches_the_run_and_the_summary(self, trace_m20, tmp_path, capsys):
        # Node 0 is within 2 bits of its limit after 2 encounters and within
        # 1e-9 after 19; each run's files must be those of run(..., tol=tol).
        dist = JointDistribution.from_samples(read_sample_table(trace_m20))
        graph = full_mesh(20)
        schedule = focal_schedule(graph, 0)
        summaries = []
        for tol in (2.0, 1e-9):
            metrics, summary = tmp_path / f"m{tol}.csv", tmp_path / f"s{tol}.csv"
            code = main([
                "simulate", "--trace", str(trace_m20), "--mesh", "--policy", "smo",
                "--focal", "0", "--tol", str(tol),
                "--metrics", str(metrics), "--summary", str(summary),
            ])
            capsys.readouterr()
            assert code == 0
            records = run(dist, graph, schedule, Policy.SEND_MINE_ONLY, tol=tol)
            expected = tmp_path / "expected.csv"
            write_metrics_csv(records, expected)
            assert metrics.read_bytes() == expected.read_bytes()
            lines = ["node,kl_bits,kg_bits,achieved,steps_to_limit,oh_bits"]
            for node in range(20):
                final = records[-20 + node]
                steps = steps_to_limit(records, node, schedule, tol)
                lines.append(
                    f"{node},{_fmt(final.kl_bits)},{_fmt(final.kg_bits)},"
                    f"{str(final.achieved).lower()},{'' if steps is None else steps},"
                    f"{_fmt(final.oh_cum_bits)}"
                )
            assert summary.read_text() == "\n".join(lines) + "\n"
            summaries.append(summary.read_text())
        assert summaries[0] != summaries[1]

    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_tolerance_must_be_finite_and_positive(self, trace_m20, tmp_path, capsys, tol):
        summary = tmp_path / "s.csv"
        code = main([
            "simulate", "--trace", str(trace_m20), "--mesh", "--policy", "smo",
            "--focal", "0", "--tol", tol,
            "--metrics", str(tmp_path / "m.csv"), "--summary", str(summary),
        ])
        assert "--tol" in capsys.readouterr().err
        assert code == 2
        assert not summary.exists()


class TestReport:
    @pytest.fixture()
    def metrics_path(self, trace_m20, tmp_path, capsys):
        metrics = tmp_path / "metrics.csv"
        main([
            "simulate", "--trace", str(trace_m20), "--mesh", "--policy", "fmpo",
            "--round-robin", "12", "--schedule-seed", "3",
            "--metrics", str(metrics), "--summary", str(tmp_path / "s.csv"),
        ])
        capsys.readouterr()
        return metrics

    def test_wide_table_shape(self, metrics_path, tmp_path):
        out = tmp_path / "wide.csv"
        code = main([
            "report", "--metrics", str(metrics_path), "--nodes", "0,3,7",
            "--output", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "round,node_0_kg,node_0_kl,node_3_kg,node_3_kl,node_7_kg,node_7_kl"
        assert all(len(line.split(",")) == 7 for line in lines)
        assert len(lines) == 1 + 12

    def test_limit_columns_are_constant(self, metrics_path, tmp_path):
        out = tmp_path / "wide.csv"
        main(["report", "--metrics", str(metrics_path), "--nodes", "0", "--output", str(out)])
        rows = read_csv_dict(out)
        assert len({row["node_0_kl"] for row in rows}) == 1

    def test_unknown_node_exits_3(self, metrics_path, tmp_path, capsys):
        code = main([
            "report", "--metrics", str(metrics_path), "--nodes", "99",
            "--output", str(tmp_path / "wide.csv"),
        ])
        capsys.readouterr()
        assert code == 3

    @pytest.mark.parametrize("achieved", ["maybe", "TRUE", ""])
    def test_achieved_other_than_true_or_false_exits_3(
        self, metrics_path, tmp_path, capsys, achieved
    ):
        lines = metrics_path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + "," + achieved
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n", newline="\n")
        out = tmp_path / "wide.csv"
        code = main(["report", "--metrics", str(bad), "--nodes", "0", "--output", str(out)])
        assert capsys.readouterr().err == f"error: line 3: malformed record {lines[2]!r}\n"
        assert code == 3
        assert not out.exists()

    def test_repeated_round_and_node_exits_3(self, tmp_path, capsys):
        from oppknow.engine import METRICS_HEADER

        metrics = tmp_path / "metrics.csv"
        metrics.write_text(
            METRICS_HEADER + "\n"
            "0,0,smo,1.4958,2,0,0,false\n0,1,smo,0,2,0,0,false\n"
            "0,0,smo,9.5,2,0,0,false\n",
            newline="\n",
        )
        out = tmp_path / "wide.csv"
        code = main(["report", "--metrics", str(metrics), "--nodes", "0,1",
                     "--output", str(out)])
        assert capsys.readouterr().err == "error: metrics file repeats node 0 at round 0\n"
        assert code == 3
        assert not out.exists()

    def test_empty_metrics_exits_3(self, tmp_path, capsys):
        from oppknow.engine import METRICS_HEADER

        empty = tmp_path / "metrics.csv"
        empty.write_text(METRICS_HEADER + "\n", newline="\n")
        code = main([
            "report", "--metrics", str(empty), "--nodes", "0",
            "--output", str(tmp_path / "wide.csv"),
        ])
        capsys.readouterr()
        assert code == 3


class TestCrossCommandConsistency:
    def test_simulate_and_limits_agree_on_kl(self, trace_m20, tmp_path, capsys):
        limits_out = tmp_path / "limits.csv"
        summary = tmp_path / "summary.csv"
        assert main(["limits", "--trace", str(trace_m20), "--output", str(limits_out)]) == 0
        assert main([
            "simulate", "--trace", str(trace_m20), "--mesh", "--policy", "smo",
            "--round-robin", "5", "--schedule-seed", "1",
            "--metrics", str(tmp_path / "m.csv"), "--summary", str(summary),
        ]) == 0
        capsys.readouterr()
        from_limits = {row["user"]: float(row["kl_bits"]) for row in read_csv_dict(limits_out)}
        from_summary = {row["node"]: float(row["kl_bits"]) for row in read_csv_dict(summary)}
        assert from_limits.keys() == from_summary.keys()
        for key, value in from_limits.items():
            assert abs(value - from_summary[key]) <= 1e-12


class TestPipelineDeterminism:
    def test_simulate_twice_identical_bytes(self, trace_m20, tmp_path, capsys):
        outputs = []
        for tag in ("one", "two"):
            metrics = tmp_path / f"metrics_{tag}.csv"
            summary = tmp_path / f"summary_{tag}.csv"
            code = main([
                "simulate", "--trace", str(trace_m20), "--mesh", "--policy", "fmpo",
                "--round-robin", "15", "--schedule-seed", "4",
                "--metrics", str(metrics), "--summary", str(summary),
            ])
            assert code == 0
            outputs.append((metrics.read_bytes(), summary.read_bytes()))
        capsys.readouterr()
        assert outputs[0] == outputs[1]

    def test_usage_error_on_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()


def _synth(users="4", rows="10", seed="1"):
    return ["synth", "--users", users, "--categories", "6", "--rows", rows,
            "--rho", "0.3", "--seed", seed]


def _simulate(*flags):
    return ["simulate", "--trace", "trace.csv", "--policy", "smo", *flags]


@pytest.mark.parametrize("argv, reason", [
    pytest.param(_synth(users="1"), "error: user_count must be >= 2", id="users-1"),
    pytest.param(_synth(seed="-1"), "--seed", id="seed-negative"),
    pytest.param(_synth(seed=str(2**64)), "--seed", id="seed-past-64-bits"),
    pytest.param(_synth(rows="0"), "--rows", id="rows-0"),
    pytest.param(_simulate("--mesh", "--round-robin", "3", "--topology-seed", "-1"),
                 "--topology-seed", id="topology-seed-negative"),
    pytest.param(_simulate("--mesh", "--round-robin", "0"), "--round-robin",
                 id="round-robin-0"),
    pytest.param(_simulate("--mesh", "--focal", "-1"), "--focal", id="focal-negative"),
    pytest.param(_simulate("--geometric", "0", "--round-robin", "3"), "--geometric",
                 id="geometric-0"),
    pytest.param(_simulate("--geometric", "1.5", "--round-robin", "3"), "--geometric",
                 id="geometric-1.5"),
    pytest.param(["report", "--metrics", "metrics.csv", "--nodes", ","],
                 "--nodes: node list is empty", id="nodes-empty"),
])
def test_bad_value_exits_2_creating_no_file(tmp_path, capsys, argv, reason):
    outputs = {
        "synth": ["--output", "out.csv"],
        "simulate": ["--metrics", "metrics.csv", "--summary", "summary.csv"],
        "report": ["--output", "out.csv"],
    }[argv[0]]
    code = main([str(tmp_path / arg) if arg.endswith(".csv") else arg
                 for arg in argv + outputs])
    assert code == 2
    assert reason in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_consistency_failure_mid_run_exits_4_keeping_whole_rounds(
    tmp_path, monkeypatch, capsys
):
    # The kernel answers its 13th and later cold queries with an impossible
    # negative entropy, so the run fails after some rounds were written.
    from oppknow.measures import JointDistribution

    trace, metrics, summary = tmp_path / "t.csv", tmp_path / "m.csv", tmp_path / "s.csv"
    assert main(["synth", "--users", "6", "--categories", "4", "--rows", "200", "--rho",
                 "0.3", "--seed", "1", "--unique-tips", "--output", str(trace)]) == 0
    capsys.readouterr()
    kernel = JointDistribution._projection_entropy
    queries = []

    def failing(self, members):
        queries.append(members)
        return -1.0 if len(queries) >= 13 else kernel(self, members)

    monkeypatch.setattr(JointDistribution, "_projection_entropy", failing)
    code = main(["simulate", "--trace", str(trace), "--mesh", "--policy", "fmpo",
                 "--round-robin", "10", "--metrics", str(metrics), "--summary", str(summary)])
    assert code == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: quantity that must be non-negative ")
    lines = metrics.read_text().splitlines()
    assert lines[0] == METRICS_HEADER
    rows = [line.split(",")[:2] for line in lines[1:]]
    assert 0 < len(rows) < 6 * 10
    assert rows == [[str(r), str(n)] for r in range(len(rows) // 6) for n in range(6)]
    assert not summary.exists()


class TestPathClash:
    """Two path flags of one command naming one file exit 2 before any I/O."""

    @pytest.fixture()
    def files(self, trace_m20, tmp_path, capsys):
        (tmp_path / "activity.csv").write_text(
            "timestamp,user,category\n0,0,1\n0,1,0\n", newline="\n"
        )
        trace = tmp_path / "trace.csv"
        trace.write_bytes(trace_m20.read_bytes())
        (tmp_path / "link.csv").symlink_to(trace)
        (tmp_path / "activity-hard.csv").hardlink_to(tmp_path / "activity.csv")
        code = main([
            "simulate", "--trace", str(trace), "--mesh", "--policy", "fmpo",
            "--round-robin", "2", "--metrics", str(tmp_path / "metrics.csv"),
            "--summary", str(tmp_path / "summary.csv"),
        ])
        assert code == 0
        (tmp_path / "metrics-hard.csv").hardlink_to(tmp_path / "metrics.csv")
        capsys.readouterr()
        return tmp_path

    @pytest.mark.parametrize("argv, flags", [
        pytest.param(
            ["ingest", "--input", "activity.csv", "--users", "2", "--categories", "2",
             "--output", "activity.csv"],
            ("--input", "--output"), id="ingest",
        ),
        pytest.param(
            ["ingest", "--input", "activity.csv", "--users", "2", "--categories", "2",
             "--output", "activity-hard.csv"],
            ("--input", "--output"), id="ingest-hard-link",
        ),
        pytest.param(
            ["limits", "--trace", "trace.csv", "--output", "link.csv"],
            ("--trace", "--output"), id="limits",
        ),
        pytest.param(
            ["simulate", "--trace", "link.csv", "--mesh", "--policy", "smo", "--focal", "0",
             "--metrics", "trace.csv", "--summary", "out.csv"],
            ("--trace", "--metrics"), id="simulate",
        ),
        pytest.param(
            ["simulate", "--trace", "trace.csv", "--mesh", "--policy", "smo", "--focal", "0",
             "--metrics", "out.csv", "--summary", "out.csv"],
            ("--metrics", "--summary"), id="simulate-outputs",
        ),
        pytest.param(
            ["simulate", "--trace", "trace.csv", "--mesh", "--policy", "smo", "--focal", "0",
             "--metrics", "metrics.csv", "--summary", "metrics-hard.csv"],
            ("--metrics", "--summary"), id="simulate-outputs-hard-link",
        ),
        pytest.param(
            ["report", "--metrics", "metrics.csv", "--nodes", "0", "--output", "metrics.csv"],
            ("--metrics", "--output"), id="report",
        ),
    ])
    def test_exits_2_touching_no_file(self, files, argv, flags, capsys):
        before = {path.name: path.read_bytes() for path in files.iterdir()}
        code = main([str(files / arg) if arg.endswith(".csv") else arg for arg in argv])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {flags[0]} and {flags[1]} ")
        assert {path.name: path.read_bytes() for path in files.iterdir()} == before


class TestNonAsciiInput:
    """A non-ASCII byte in any input file is an input error (exit 3)."""

    def _run(self, capsys, argv):
        code = main(argv)
        err = capsys.readouterr().err
        assert "codec can't decode" in err
        return code

    def test_trace(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        trace.write_bytes(b"2,3,1\n0,\xff\n")
        argv = ["limits", "--trace", str(trace), "--output", str(tmp_path / "o.csv")]
        assert self._run(capsys, argv) == 3

    def test_activity_csv(self, tmp_path, capsys):
        src = tmp_path / "activity.csv"
        src.write_bytes(b"timestamp,user,category\n0,0,\xe9\n")
        argv = [
            "ingest", "--input", str(src), "--users", "2", "--categories", "2",
            "--output", str(tmp_path / "t.csv"),
        ]
        assert self._run(capsys, argv) == 3

    def test_metrics_csv(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.csv"
        metrics.write_bytes(
            b"round,node,policy,kg_bits,kl_bits,oh_round_bits,oh_cum_bits,achieved\n"
            b"0,0,smo,0,1,0,0,f\xc3\xa4lse\n"
        )
        argv = [
            "report", "--metrics", str(metrics), "--nodes", "0",
            "--output", str(tmp_path / "w.csv"),
        ]
        assert self._run(capsys, argv) == 3

    def test_edge_list(self, trace_m20, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_bytes(b"20\n0 1\n1 \xff2\n")
        argv = [
            "simulate", "--trace", str(trace_m20), "--edges", str(edges),
            "--policy", "smo", "--focal", "0",
            "--metrics", str(tmp_path / "m.csv"), "--summary", str(tmp_path / "s.csv"),
        ]
        assert self._run(capsys, argv) == 3


class TestWideAlphabets:
    """Ids are int64: alphabets up to 2**63 work, wider ones are input errors."""

    def test_ids_near_two_to_the_63_give_exact_entropies(self, tmp_path, capsys):
        # Three distinct rows, so H(all) = log2 3. Any int64 key packed with
        # radix v from two of these columns would overflow.
        trace = tmp_path / "t.csv"
        trace.write_text("3,9223372036854775807,3\n0,2,0\n1,0,0\n4611686018427387904,4,0\n")
        argv = ["limits", "--trace", str(trace), "--output", str(tmp_path / "o.csv")]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[0] == "joint_h_bits=1.58496250072"

    def test_trace_alphabet_past_int64_exits_3(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        trace.write_text("2,100000000000000000000,1\n0,0\n")
        argv = ["limits", "--trace", str(trace), "--output", str(tmp_path / "o.csv")]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "error: category_count 100000000000000000000 exceeds 2**63: "
            "ids are stored as int64\n"
        )

    def test_synth_alphabet_past_int64_exits_3(self, tmp_path, capsys):
        # The id width is checked before the profile matrix's size.
        argv = ["synth", "--users", "2", "--categories", "100000000000000000000",
                "--rows", "5", "--rho", "0.3", "--seed", "1",
                "--output", str(tmp_path / "t.csv")]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "error: category_count 100000000000000000000 exceeds 2**63: "
            "ids are stored as int64\n"
        )

    @pytest.mark.parametrize("categories, policy, code", [
        ("100000000000000000000", "drop-row", 3),
        ("9223372036854775808", "drop-row", 0),
        ("9223372036854775808", "idle-category", 3),
    ])
    def test_ingest_alphabet_at_and_past_int64(self, tmp_path, capsys, categories, policy, code):
        # idle-category adds one category, which takes 2**63 past the limit.
        src = tmp_path / "activity.csv"
        src.write_text("timestamp,user,category\n0,0,1\n")
        argv = ["ingest", "--input", str(src), "--users", "1", "--categories", categories,
                "--missing-policy", policy, "--output", str(tmp_path / "t.csv")]
        assert main(argv) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: category_count ") and err.count("\n") == 1
        else:
            assert read_sample_table(tmp_path / "t.csv").rows == ((1,),)


class TestSizesAtTwoToThe63:
    """A user or cell count of 2**63 or more, or a synth draw matrix past the
    address space, is an input error: numpy dimensions and sizes stay below
    it. Each is refused before the table is built or anything is drawn."""

    @pytest.mark.parametrize("users, lines, message", [
        ("9223372036854775808", "0,0,1\n",
         "user_count 9223372036854775808 reaches 2**63: users are array columns"),
        ("4611686018427387905", "0,0,1\n1,0,1\n",
         "input or requested size too large to hold in memory: "
         "2 timestamps of 4611686018427387905 users reach 2**63 cells"),
        # CR line ends send the file to the per-line loop, which applies the
        # same limit (under drop-row, so that it never builds a row).
        ("4611686018427387905", "0,0,1\r\n1,0,1\r\n",
         "input or requested size too large to hold in memory: "
         "2 timestamps of 4611686018427387905 users reach 2**63 cells"),
    ], ids=["users", "cells", "cells-per-line"])
    def test_ingest(self, tmp_path, capsys, users, lines, message):
        src = tmp_path / "activity.csv"
        src.write_text("timestamp,user,category\n" + lines)
        out = tmp_path / "t.csv"
        argv = ["ingest", "--input", str(src), "--users", users, "--categories", "3",
                "--output", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_limits(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        trace.write_text("1000000000000000000000000,2,0\n")
        argv = ["limits", "--trace", str(trace), "--output", str(tmp_path / "o.csv")]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "error: user_count 1000000000000000000000000 reaches 2**63: "
            "users are array columns\n"
        )

    def test_synth(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        argv = ["synth", "--users", "2", "--categories", "2", "--rows", "9223372036854775808",
                "--rho", "0.5", "--seed", "1", "--output", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "error: input or requested size too large to hold in memory: "
            "the (9223372036854775808, 2) float64 draw matrix exceeds the address space\n"
        )
        assert not out.exists()


@pytest.mark.parametrize("error, message", [
    (MemoryError("Unable to allocate 72.8 TiB for an array"),
     "error: input or requested size too large to hold in memory: "
     "Unable to allocate 72.8 TiB for an array\n"),
    (MemoryError(), "error: input or requested size too large to hold in memory\n"),
])
def test_allocation_failure_exits_3(tmp_path, monkeypatch, capsys, error, message):
    # The layer raises as numpy would for an allocation the host cannot hold;
    # nothing large is allocated.
    from oppknow import cli

    def synthesize(config):
        raise error

    monkeypatch.setattr(cli, "synthesize_traces", synthesize)
    assert cli.main(["synth", "--users", "2", "--categories", "2", "--rows", "10000000000000",
                     "--rho", "0.5", "--seed", "1", "--output", str(tmp_path / "t.csv")]) == 3
    assert capsys.readouterr().err == message

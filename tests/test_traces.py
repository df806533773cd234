"""Tests for trace ingestion, profiles, synthesis, and table files."""

import numpy as np
import pytest

from oppknow import (
    JointDistribution,
    SampleTable,
    SynthConfig,
    inject_unique_tips,
    parse_activity_csv,
    profile_vector,
    read_sample_table,
    synthesize_traces,
    traces,
    write_sample_table,
)
from oppknow.errors import (
    BadVariableIndex,
    DuplicateObservation,
    EmptyInput,
    MalformedSamples,
    OutOfRange,
    ParseError,
)

HEADER = "timestamp,user,category"


def csv_text(*lines):
    return "\n".join((HEADER,) + lines) + "\n"


class TestParseActivityCsv:
    def test_complete_timestamps_drop_row(self):
        table = parse_activity_csv(
            csv_text("0,0,1", "0,1,0", "1,0,0", "1,1,0"), 2, 2, "drop-row"
        )
        assert table.rows == ((1, 0), (0, 0))
        assert table.category_count == 2

    def test_incomplete_timestamp_dropped(self):
        table = parse_activity_csv(csv_text("0,0,1"), 2, 2, "drop-row")
        assert table.rows == ()
        with pytest.raises(EmptyInput):
            JointDistribution.from_samples(table)

    def test_idle_category_shifts_alphabet(self):
        table = parse_activity_csv(csv_text("0,0,1"), 2, 2, "idle-category")
        assert table.rows == ((2, 0),)
        assert table.category_count == 3

    def test_rows_ordered_by_timestamp(self):
        table = parse_activity_csv(
            csv_text("5,0,1", "5,1,1", "2,0,0", "2,1,0"), 2, 2, "drop-row"
        )
        assert table.rows == ((0, 0), (1, 1))

    def test_missing_header(self):
        with pytest.raises(ParseError) as exc:
            parse_activity_csv("0,0,1\n", 2, 2)
        assert exc.value.line_number == 1

    def test_malformed_line_carries_number(self):
        with pytest.raises(ParseError) as exc:
            parse_activity_csv(csv_text("0,0,1", "0,1"), 2, 2)
        assert exc.value.line_number == 3

    def test_non_integer_field(self):
        with pytest.raises(ParseError):
            parse_activity_csv(csv_text("0,zero,1"), 2, 2)

    def test_user_out_of_range(self):
        with pytest.raises(OutOfRange) as exc:
            parse_activity_csv(csv_text("0,2,1"), 2, 2)
        assert exc.value.line_number == 2

    def test_category_out_of_range(self):
        with pytest.raises(OutOfRange):
            parse_activity_csv(csv_text("0,0,2"), 2, 2)

    def test_duplicate_observation(self):
        with pytest.raises(DuplicateObservation):
            parse_activity_csv(csv_text("0,0,1", "0,0,0"), 2, 2)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_activity_csv("", 2, 2)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            parse_activity_csv(csv_text("0,0,1"), 2, 2, "pad")

    def test_profiles_sum_to_one_after_parse(self):
        table = parse_activity_csv(
            csv_text("0,0,1", "0,1,0", "1,0,0", "1,1,1", "2,0,1", "2,1,1"),
            2,
            2,
            "drop-row",
        )
        for user in range(2):
            assert profile_vector(table, user).sum() == pytest.approx(1.0, abs=1e-9)


class TestSampleTable:
    def test_samples_are_read_only(self):
        own = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        table = SampleTable(2, 2, own)
        with pytest.raises(ValueError):
            table.samples[0, 0] = 1
        assert own.flags.writeable

    def test_dtype_is_the_smallest_that_holds_the_alphabet(self):
        assert SampleTable(1, 256, ((255,),)).samples.dtype == np.uint8
        assert SampleTable(1, 257, ((256,),)).samples.dtype == np.uint16

    def test_equality_compares_sizes_and_values(self):
        table = SampleTable(2, 3, ((0, 1), (2, 0)))
        assert table == SampleTable(2, 3, np.array([[0, 1], [2, 0]], dtype=np.int64))
        assert table != SampleTable(2, 4, ((0, 1), (2, 0)))
        assert table != SampleTable(2, 3, ((0, 1),))
        assert table != SampleTable(2, 3, ((0, 1), (2, 1)))
        assert SampleTable(2, 3, ()) != SampleTable(3, 3, ())
        assert table != table.rows

    def test_rows_are_tuples_of_python_ints(self):
        rows = SampleTable(2, 3, np.array([[0, 1], [2, 2]])).rows
        assert rows == ((0, 1), (2, 2))
        assert type(rows[0][0]) is int

    @pytest.mark.parametrize(
        "samples", [((0, 0), (0, 1, 1)), ((0, 0, 0),), ((0, 2),), ((0, -1),), ((0.0, 1.0),)]
    )
    def test_malformed_samples_rejected(self, samples):
        with pytest.raises(MalformedSamples):
            SampleTable(2, 2, samples)

    def test_ids_up_to_two_to_the_63_are_int64(self):
        table = SampleTable(1, 2**63, np.array([[2**63 - 1], [5]], dtype=np.uint64))
        assert table.samples.dtype == np.int64
        assert table.rows == ((2**63 - 1,), (5,))

    @pytest.mark.parametrize("samples", [
        np.array([[2**63], [5]], dtype=np.uint64), [[2**63], [5]], [[2**64], [5]], [[0], [1]],
    ], ids=["uint64", "python-int", "past-uint64", "small-ids"])
    def test_alphabet_past_two_to_the_63_rejected(self, samples):
        # Ids are stored as int64, which cannot hold 2**63.
        with pytest.raises(MalformedSamples, match=r"exceeds 2\*\*63"):
            SampleTable(1, 2**64, samples)

    @pytest.mark.parametrize("samples", [[[2**63], [5]], [[5], [2**64]], [[2**63], [-1]]])
    def test_python_ints_past_int64_are_out_of_range(self, samples):
        # numpy reads these rows as float64 or object cells, but they are
        # integers: the error names the row, not a dtype.
        row = next(r for r, (c,) in enumerate(samples) if not 0 <= c < 2**63)
        with pytest.raises(MalformedSamples, match=rf"row {row} has a category outside"):
            SampleTable(1, 2**63, samples)


class TestProfileVector:
    def test_two_equal_counts(self):
        table = SampleTable(2, 2, ((0, 0), (1, 0)))
        assert profile_vector(table, 0) == pytest.approx([0.5, 0.5])

    def test_deterministic_user_is_one_hot(self):
        table = SampleTable(1, 5, ((3,), (3,), (3,)))
        assert profile_vector(table, 0) == pytest.approx([0, 0, 0, 1, 0])

    def test_counting(self):
        table = SampleTable(2, 3, ((0, 0), (0, 1), (1, 2), (2, 0)))
        assert profile_vector(table, 0) == pytest.approx([0.5, 0.25, 0.25])

    def test_bad_user(self):
        table = SampleTable(2, 2, ((0, 0),))
        with pytest.raises(BadVariableIndex):
            profile_vector(table, 2)

    def test_empty_table(self):
        with pytest.raises(EmptyInput):
            profile_vector(SampleTable(2, 2, ()), 0)


class TestSynthesizeTraces:
    def test_full_correlation_makes_identical_users(self):
        table = synthesize_traces(SynthConfig(4, 3, 200, 1.0, 9))
        for row in table.rows:
            assert len(set(row)) == 1
        dist = JointDistribution.from_samples(table)
        for outcome in dist.atoms:
            assert len(set(outcome)) == 1
        assert dist.knowledge_limit(0) == pytest.approx(0.0, abs=1e-12)

    def test_zero_correlation_has_negligible_pairwise_mi(self):
        # Statistical check against independence; 0.02 bits absorbs the
        # finite-sample bias at this row count.
        table = synthesize_traces(SynthConfig(3, 4, 100_000, 0.0, 123))
        dist = JointDistribution.from_samples(table)
        for i in range(3):
            for j in range(i + 1, 3):
                assert dist.mutual_information([i], [j]) <= 0.02

    def test_fixed_seed_reproduces_exactly(self, tmp_path):
        a = synthesize_traces(SynthConfig(5, 6, 300, 0.4, 42))
        b = synthesize_traces(SynthConfig(5, 6, 300, 0.4, 42))
        assert a == b
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sample_table(a, pa)
        write_sample_table(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    @pytest.mark.parametrize("category_count", [2**63, 2**62])
    def test_profile_matrix_past_address_space_raises_memory_error(self, category_count):
        # Raised before any draw: numpy would refuse the (2, v) float64
        # matrix with a ValueError or its own MemoryError.
        with pytest.raises(MemoryError, match=rf"\(2, {category_count}\) float64 profile matrix"):
            synthesize_traces(SynthConfig(2, category_count, 5, 0.3, 1))

    def test_different_seeds_differ(self):
        a = synthesize_traces(SynthConfig(5, 6, 300, 0.4, 1))
        b = synthesize_traces(SynthConfig(5, 6, 300, 0.4, 2))
        assert a != b

    def test_marginal_entropy_bounded_by_alphabet(self):
        table = synthesize_traces(SynthConfig(4, 5, 500, 0.2, 8))
        dist = JointDistribution.from_samples(table)
        for user in range(4):
            assert dist.subset_entropy([user]) <= np.log2(5) + 1e-12

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(user_count=1),
            dict(category_count=1),
            dict(row_count=0),
            dict(correlation=1.5),
            dict(correlation=-0.1),
            dict(seed=-1),
            dict(seed=2**64),
        ],
    )
    def test_config_validation(self, kwargs):
        base = dict(user_count=3, category_count=3, row_count=10, correlation=0.5, seed=0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            SynthConfig(**base)


class TestInjectUniqueTips:
    def test_identical_users_gain_private_knowledge(self):
        table = synthesize_traces(SynthConfig(3, 3, 100, 1.0, 4))
        injected = inject_unique_tips(table)
        dist = JointDistribution.from_samples(injected)
        for i in range(3):
            rest = [j for j in range(3) if j != i]
            assert dist.conditional_entropy([i], rest) > 0.0

    def test_applied_twice_preserves_uniqueness(self):
        table = synthesize_traces(SynthConfig(3, 3, 100, 1.0, 4))
        twice = inject_unique_tips(inject_unique_tips(table))
        dist = JointDistribution.from_samples(twice)
        for i in range(3):
            rest = [j for j in range(3) if j != i]
            assert dist.conditional_entropy([i], rest) > 0.0

    def test_minimal_pair_gets_positive_limit(self):
        table = SampleTable(2, 2, ((0, 0), (1, 1)))
        injected = inject_unique_tips(table)
        dist = JointDistribution.from_samples(injected)
        assert dist.knowledge_limit(0) > 0.0

    def test_alphabet_and_rows_extended(self):
        table = SampleTable(2, 3, ((0, 0), (1, 2)))
        injected = inject_unique_tips(table)
        assert injected.category_count == 5
        assert injected.row_count == 4

    def test_deterministic(self):
        table = synthesize_traces(SynthConfig(4, 3, 50, 0.5, 17))
        assert inject_unique_tips(table) == inject_unique_tips(table)

    def test_empty_table_rejected(self):
        with pytest.raises(EmptyInput):
            inject_unique_tips(SampleTable(2, 2, ()))


class TestSampleTableFiles:
    def test_round_trip(self, tmp_path):
        table = synthesize_traces(SynthConfig(4, 5, 60, 0.3, 2))
        path = tmp_path / "trace.csv"
        write_sample_table(table, path)
        assert read_sample_table(path) == table

    def test_wide_alphabet_round_trips_byte_identically(self, tmp_path):
        # 300 users make each write block 218 rows, so 500 rows span three.
        samples = np.random.default_rng(3).integers(0, 300, size=(500, 300))
        table = SampleTable(300, 300, samples)
        assert table.samples.dtype == np.uint16
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sample_table(table, first)
        expected = "300,300,500\n" + "".join(
            ",".join(map(str, row)) + "\n" for row in samples.tolist()
        )
        assert first.read_text() == expected
        back = read_sample_table(first)
        assert back == table and back.samples.dtype == np.uint16
        write_sample_table(back, second)
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("extra", [0, 1])
    def test_alphabet_at_the_name_table_bound_round_trips(self, tmp_path, extra):
        # An alphabet of _WRITE_BLOCK_CELLS ids is named once; one id more
        # is named block by block. 2,000 rows of 20 users span three blocks.
        v = traces._WRITE_BLOCK_CELLS + extra
        samples = np.random.default_rng(extra).integers(0, v, size=(2_000, 20))
        samples[0, 0] = v - 1
        table = SampleTable(20, v, samples)
        path = tmp_path / "trace.csv"
        write_sample_table(table, path)
        expected = f"20,{v},2000\n" + "".join(
            ",".join(map(str, row)) + "\n" for row in samples.tolist()
        )
        assert path.read_text() == expected
        assert read_sample_table(path) == table

    def test_sparse_ids_are_named_without_the_id_range(self, tmp_path):
        # Only the four ids present are named; naming range(3_000_001)
        # traces about 200 MB.
        import tracemalloc

        table = SampleTable(2, 3_000_001, [[3_000_000, 5], [7, 0]])
        path = tmp_path / "trace.csv"
        tracemalloc.start()
        try:
            write_sample_table(table, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_bytes() == b"2,3000001,2\n3000000,5\n7,0\n"
        assert peak < 5 << 20

    def test_sparse_ids_round_trip_across_blocks(self, tmp_path):
        # 300 users make each write block 218 rows, so 500 rows span three;
        # the 300 distinct ids run up to 2,990,000.
        rng = np.random.default_rng(5)
        samples = rng.integers(0, 300, size=(500, 300)) * 10_000
        table = SampleTable(300, 3_000_000, samples)
        path = tmp_path / "trace.csv"
        write_sample_table(table, path)
        expected = "300,3000000,500\n" + "".join(
            ",".join(map(str, row)) + "\n" for row in samples.tolist()
        )
        assert path.read_text() == expected
        assert read_sample_table(path) == table

    def test_idle_category_alphabet_round_trips_byte_identically(self, tmp_path):
        table = parse_activity_csv(
            csv_text("0,0,1", "1,1,0", "2,0,1", "2,1,1"), 2, 2, "idle-category"
        )
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sample_table(table, first)
        assert first.read_text() == "2,3,3\n2,0\n0,1\n2,2\n"
        back = read_sample_table(first)
        assert back == table
        write_sample_table(back, second)
        assert second.read_bytes() == first.read_bytes()

    def test_header_shape(self, tmp_path):
        table = SampleTable(2, 3, ((0, 2), (1, 1)))
        path = tmp_path / "trace.csv"
        write_sample_table(table, path)
        assert path.read_text().splitlines()[0] == "2,3,2"

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2,2,3\n0,0\n1,1\n")
        with pytest.raises(ParseError):
            read_sample_table(path)

    def test_non_integer_header_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("3,x,4\n")
        with pytest.raises(ParseError, match="non-integer header field") as exc:
            read_sample_table(path)
        assert exc.value.line_number == 1

    def test_bad_width(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2,2,1\n0,0,1\n")
        with pytest.raises(ParseError):
            read_sample_table(path)

    def test_category_out_of_range(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2,2,1\n0,5\n")
        with pytest.raises(OutOfRange):
            read_sample_table(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            read_sample_table(path)

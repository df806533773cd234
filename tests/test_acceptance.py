"""Acceptance suite: eight numbered criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL line per
criterion as it completes. Every tolerance is pinned here; nothing is left to
later calibration.
"""

import time
from contextlib import contextmanager
from itertools import permutations

import numpy as np
import pytest

from dense_oracle import brute_mutual_information, brute_subset_entropy, densify
from oppknow import (
    Graph,
    JointDistribution,
    Policy,
    SynthConfig,
    encounter_overhead,
    focal_schedule,
    full_mesh,
    inject_unique_tips,
    random_geometric,
    round_robin_schedule,
    run,
    steps_to_limit,
    synthesize_traces,
)
from oppknow.cli import main as cli_main

SMO = Policy.SEND_MINE_ONLY
FMPO = Policy.FORWARD_MINE_PLUS_OTHERS

ORACLE_SEED = 20260808


@contextmanager
def criterion(number, label):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} [{label}]: FAIL "
              f"({time.perf_counter() - started:.2f} s)")
        raise
    print(f"criterion {number} [{label}]: PASS "
          f"({time.perf_counter() - started:.2f} s)")


def oracle_instances():
    """The 100 seeded sparse instances shared by criteria 1 and 2."""
    rng = np.random.default_rng(ORACLE_SEED)
    instances = []
    for _ in range(100):
        m = int(rng.integers(1, 5))
        v = int(rng.integers(1, 4))
        n = int(rng.integers(1, 31))
        rows = [tuple(int(c) for c in rng.integers(0, v, m)) for _ in range(n)]
        atoms = {}
        for row in rows:
            atoms[row] = atoms.get(row, 0) + 1
        instances.append(JointDistribution(m, v, atoms))
    return instances


def all_subsets(m):
    for mask in range(1 << m):
        yield tuple(i for i in range(m) if mask >> i & 1)


def disjoint_pairs(m):
    for assignment in range(3**m):
        a, b = [], []
        rest = assignment
        for i in range(m):
            rest, side = divmod(rest, 3)
            if side == 1:
                a.append(i)
            elif side == 2:
                b.append(i)
        yield tuple(a), tuple(b)


@pytest.fixture(scope="module")
def desk_dist():
    """20 users, 24 base categories, rho 0.3, unique tips, 10000 rows."""
    table = inject_unique_tips(synthesize_traces(SynthConfig(20, 24, 10000, 0.3, 7)))
    return JointDistribution.from_samples(table)


def test_criterion_1_oracle_equivalence():
    with criterion(1, "oracle equivalence"):
        started = time.perf_counter()
        for dist in oracle_instances():
            dense = densify(dist)
            entropies = {
                s: brute_subset_entropy(dense, s) for s in all_subsets(dist.user_count)
            }
            for s, brute in entropies.items():
                assert abs(dist.subset_entropy(s) - brute) <= 1e-10
            for a, b in disjoint_pairs(dist.user_count):
                if a:
                    brute_cond = entropies[tuple(sorted(a + b))] - entropies[b]
                    assert abs(dist.conditional_entropy(a, b) - brute_cond) <= 1e-10
                if a and b:
                    brute_mi = brute_mutual_information(dense, a, b)
                    assert abs(dist.mutual_information(a, b) - brute_mi) <= 1e-10
        assert time.perf_counter() - started < 2.0


def test_criterion_2_entropy_identities():
    with criterion(2, "entropy identity suite"):
        started = time.perf_counter()
        for dist in oracle_instances():
            m = dist.user_count
            subsets = list(all_subsets(m))
            h = {s: dist.subset_entropy(s) for s in subsets}

            # chain rule, every permutation of every subset
            for s in subsets:
                if len(s) < 2:
                    continue
                for order in permutations(s):
                    total = sum(dist.chain_decomposition(order))
                    assert abs(total + h[(order[0],)] - h[s]) <= 1e-9

            # monotonicity
            for s in subsets:
                for t in subsets:
                    if set(s) <= set(t):
                        assert h[s] <= h[t] + 1e-12

            # subadditivity + MI symmetry / non-negativity
            for a, b in disjoint_pairs(m):
                union = tuple(sorted(a + b))
                assert h[union] <= h[a] + h[b] + 1e-12
                if a and b:
                    forward = dist.mutual_information(a, b)
                    assert forward >= 0.0
                    assert abs(forward - dist.mutual_information(b, a)) <= 1e-12

            # conditioning reduces entropy
            for assignment in range(4**m):
                groups = ([], [], [])
                rest = assignment
                for i in range(m):
                    rest, side = divmod(rest, 4)
                    if side < 3:
                        groups[side].append(i)
                a, b, c = groups
                if a and c:
                    assert (
                        dist.conditional_entropy(a, b + c)
                        <= dist.conditional_entropy(a, b) + 1e-12
                    )

            # gain never exceeds limit
            for i in range(m):
                limit = dist.knowledge_limit(i)
                for s in subsets:
                    if i in s:
                        assert dist.knowledge_gain(i, s) <= limit + 1e-12
        assert time.perf_counter() - started < 2.0


def test_criterion_3_single_hop_smo_reaches_limit():
    with criterion(3, "single-hop SMO reaches the limit in M-1 encounters"):
        started = time.perf_counter()
        table = inject_unique_tips(
            synthesize_traces(SynthConfig(20, 24, 10000, 0.3, 7))
        )
        dist = JointDistribution.from_samples(table)
        graph = full_mesh(20)
        schedule = focal_schedule(graph, 0)
        records = run(dist, graph, schedule, SMO, tol=1e-9)

        own = [r for r in records if r.node == 0]
        gains = [r.kg_bits for r in own]
        assert all(a <= b + 1e-12 for a, b in zip(gains, gains[1:]))
        assert abs(own[-1].kl_bits - own[-1].kg_bits) <= 1e-9
        steps = steps_to_limit(records, 0, schedule, tol=1e-9)
        assert steps is not None and steps <= 19
        assert time.perf_counter() - started < 10.0


def test_criterion_4_single_hop_fmpo_never_slower(desk_dist):
    with criterion(4, "single-hop FMPO achieves the limit at least as fast"):
        graph = full_mesh(20)
        schedule = round_robin_schedule(graph, 150, seed=11)
        records_smo = run(desk_dist, graph, schedule, SMO, tol=1e-9)
        records_fmpo = run(desk_dist, graph, schedule, FMPO, tol=1e-9)
        for node in range(20):
            final = [r for r in records_fmpo if r.node == node][-1]
            assert final.achieved
            steps_f = steps_to_limit(records_fmpo, node, schedule, tol=1e-9)
            steps_s = steps_to_limit(records_smo, node, schedule, tol=1e-9)
            assert steps_f is not None
            if steps_s is not None:
                assert steps_f <= steps_s

        # Three-node instance: forwarding hands node 0 the tips of node 2,
        # which node 0 never meets in the schedule.
        table = inject_unique_tips(
            synthesize_traces(SynthConfig(3, 3, 200, 0.5, 13))
        )
        tri = JointDistribution.from_samples(table)
        extra = tri.conditional_entropy([2], [0, 1])
        assert extra > 0.0
        mesh3 = full_mesh(3)
        schedule3 = [[(1, 2)], [(0, 1)]]
        smo_final = [
            r for r in run(tri, mesh3, schedule3, SMO, tol=1e-9) if r.node == 0
        ][-1]
        fmpo_final = [
            r for r in run(tri, mesh3, schedule3, FMPO, tol=1e-9) if r.node == 0
        ][-1]
        assert fmpo_final.kg_bits - smo_final.kg_bits >= extra - 1e-9


def test_criterion_5_forwarding_overhead_dominates():
    with criterion(5, "per-encounter FMPO overhead >= SMO overhead"):
        rng = np.random.default_rng(424242)
        for case in range(1000):
            m = int(rng.integers(2, 6))
            v = int(rng.integers(2, 4))
            n = int(rng.integers(1, 41))
            rows = [tuple(int(c) for c in rng.integers(0, v, m)) for _ in range(n)]
            atoms = {}
            for row in rows:
                atoms[row] = atoms.get(row, 0) + 1
            dist = JointDistribution(m, v, atoms)

            fresh = case % 5 == 0
            if fresh:
                state = tuple(frozenset([node]) for node in range(m))
            else:
                state = tuple(
                    frozenset([node])
                    | {o for o in range(m) if o != node and rng.random() < 0.5}
                    for node in range(m)
                )
            i, j = (int(x) for x in rng.choice(m, size=2, replace=False))

            oh_smo = encounter_overhead(dist, state, i, j, SMO)
            oh_fmpo = encounter_overhead(dist, state, i, j, FMPO)
            assert oh_fmpo[0] >= oh_smo[0] - 1e-12
            assert oh_fmpo[1] >= oh_smo[1] - 1e-12
            if fresh:
                assert abs(oh_fmpo[0] - oh_smo[0]) <= 1e-12
                assert abs(oh_fmpo[1] - oh_smo[1]) <= 1e-12


def test_criterion_6_multi_hop_smo_capped_by_neighborhood():
    with criterion(6, "multi-hop SMO converges strictly below the limit"):
        table = inject_unique_tips(
            synthesize_traces(SynthConfig(4, 3, 400, 0.4, 19))
        )
        dist = JointDistribution.from_samples(table)
        path = Graph(4, [(0, 1), (1, 2), (2, 3)])
        schedule = [[(0, 1)], [(1, 2)], [(2, 3)]] * 4
        records = run(dist, path, schedule, SMO, tol=1e-9)

        everyone = set(range(4))
        min_unique = min(
            dist.conditional_entropy([j], sorted(everyone - {j})) for j in everyone
        )
        assert min_unique > 0.0

        for node in range(4):
            closed = set(path.neighbors(node)) | {node}
            assert closed != everyone
            ceiling = dist.subset_entropy(closed) - dist.subset_entropy([node])
            final = [r for r in records if r.node == node][-1]
            assert abs(final.kg_bits - ceiling) <= 1e-9
            assert final.kl_bits - final.kg_bits >= min_unique - 1e-9
            assert steps_to_limit(records, node, schedule, tol=1e-9) is None


def test_criterion_7_multi_hop_fmpo_achieves_everywhere(desk_dist):
    with criterion(7, "multi-hop FMPO achieves the limit on 20 random topologies"):
        started = time.perf_counter()
        mean_degrees = []
        for seed in range(20):
            graph = random_geometric(20, 0.35, seed)
            mean_degrees.append(graph.mean_degree())
            rounds = 20 * graph.diameter()
            schedule = round_robin_schedule(graph, rounds, seed=seed)
            records = run(desk_dist, graph, schedule, FMPO, tol=1e-9)
            last_round = rounds - 1
            finals = [r for r in records if r.round_index == last_round]
            assert len(finals) == 20
            assert all(r.achieved for r in finals)
        assert 5.0 <= float(np.mean(mean_degrees)) <= 8.0
        assert time.perf_counter() - started < 60.0


def test_criterion_8_cli_pipeline_determinism(tmp_path, capsys):
    with criterion(8, "CLI pipeline is byte-deterministic"):
        outputs = []
        for tag in ("first", "second"):
            workdir = tmp_path / tag
            workdir.mkdir()
            trace = workdir / "trace.csv"
            metrics = workdir / "metrics.csv"
            summary = workdir / "summary.csv"
            assert cli_main([
                "synth", "--users", "12", "--categories", "8", "--rows", "800",
                "--rho", "0.3", "--seed", "5", "--unique-tips",
                "--output", str(trace),
            ]) == 0
            assert cli_main([
                "simulate", "--trace", str(trace), "--mesh", "--policy", "fmpo",
                "--round-robin", "25", "--schedule-seed", "2",
                "--metrics", str(metrics), "--summary", str(summary),
            ]) == 0
            outputs.append(
                (trace.read_bytes(), metrics.read_bytes(), summary.read_bytes())
            )
        capsys.readouterr()
        assert outputs[0] == outputs[1]

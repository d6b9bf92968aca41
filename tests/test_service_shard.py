"""Shard partitioner tests: determinism, disjoint cover, CLI parsing, and
the end-to-end shard → merge → report equivalence of the acceptance
criterion."""

import json

import pytest

from repro.experiments import (
    ResultStore,
    ScenarioSpec,
    Suite,
    SweepRunner,
    build_report,
    get_suite,
    merge_result_files,
)
from repro.experiments.spec import ANALYTIC_GENERATOR
from repro.experiments.shard import ShardSpec, shard_cells

SUITE = Suite(
    name="shard-test",
    description="two measured scenarios and one analytic",
    scenarios=(
        ScenarioSpec(
            name="edge/tree", generator="random-tree",
            algorithm="arb-edge-coloring", sizes=(24, 48), seeds=(1, 2),
        ),
        ScenarioSpec(
            name="forest/tree", generator="random-tree",
            algorithm="baseline-forest-3coloring", sizes=(24, 48), seeds=(1, 2),
        ),
        ScenarioSpec(
            name="shape", generator=ANALYTIC_GENERATOR,
            algorithm="predicted-edge-coloring-log12",
            sizes=(2**64, 2**128, 2**256), seeds=(0,),
        ),
    ),
)


class TestShardSpec:
    def test_parse_roundtrip(self):
        spec = ShardSpec.parse("3/8")
        assert (spec.index, spec.count) == (3, 8)
        assert str(spec) == "3/8"

    @pytest.mark.parametrize("text", ["", "1", "1/2/3", "a/b", "1.5/2"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            ShardSpec.parse(text)

    @pytest.mark.parametrize("index, count", [(-1, 2), (2, 2), (5, 2), (0, 0)])
    def test_out_of_range_rejected(self, index, count):
        with pytest.raises(ValueError):
            ShardSpec(index, count)

    def test_single_shard_owns_everything(self):
        spec = ShardSpec(0, 1)
        assert all(spec.owns(cell.fingerprint) for cell in SUITE.cells())


def shards_of(cells, count):
    """All ``count`` shards of ``cells``."""
    return [shard_cells(cells, ShardSpec(index, count)) for index in range(count)]


class TestPartitioning:
    @pytest.mark.parametrize("count", [2, 3, 5])
    def test_shards_are_disjoint_and_cover(self, count):
        cells = SUITE.cells()
        shards = shards_of(cells, count)
        fingerprints = [c.fingerprint for shard in shards for c in shard]
        assert sorted(fingerprints) == sorted(c.fingerprint for c in cells)
        assert len(set(fingerprints)) == len(fingerprints)

    def test_partition_is_deterministic(self):
        cells = SUITE.cells()
        first = [[c.fingerprint for c in s] for s in shards_of(cells, 4)]
        second = [[c.fingerprint for c in s] for s in shards_of(cells, 4)]
        assert first == second

    def test_shard_cells_none_passthrough(self):
        cells = SUITE.cells()
        assert shard_cells(cells, None) == cells

    def test_builtin_suite_shards_are_nonempty(self):
        # Not guaranteed by hashing in general, but the built-in suites
        # are large enough that an empty residue class would mean a
        # broken fingerprint distribution.
        cells = get_suite("paper-claims").cells()
        for shard in shards_of(cells, 2):
            assert shard


class TestShardedRunner:
    def test_sharded_runs_are_disjoint_and_union_to_full(self, tmp_path):
        full = ResultStore(tmp_path / "full")
        SweepRunner(SUITE, full, jobs=1).run()

        stores = []
        for index in range(2):
            store = ResultStore(tmp_path / f"shard{index}")
            report = SweepRunner(
                SUITE, store, jobs=1, shard=ShardSpec(index, 2)
            ).run()
            assert report.ok
            stores.append(store)

        shard_fps = [
            {record["fingerprint"] for record in store.records()}
            for store in stores
        ]
        assert not (shard_fps[0] & shard_fps[1])
        assert shard_fps[0] | shard_fps[1] == {
            record["fingerprint"] for record in full.records()
        }

    def test_sharded_resume_skips_own_cells_only(self, tmp_path):
        store = ResultStore(tmp_path)
        shard = ShardSpec(0, 2)
        first = SweepRunner(SUITE, store, jobs=1, shard=shard).run()
        again = SweepRunner(SUITE, store, jobs=1, shard=shard).run()
        assert first.executed > 0
        assert again.executed == 0
        assert again.skipped == again.total_cells == first.executed


def _normalized_records(store: ResultStore) -> dict[str, dict]:
    normalized = {}
    for record in store.records():
        record = dict(record)
        record["wall_clock_s"] = 0.0
        record["timings"] = None
        normalized[record["fingerprint"]] = record
    return normalized


class TestShardMergeReportEquivalence:
    """Acceptance: shard 0/2 + shard 1/2, merged, reports identically to
    the unsharded run (modulo nondeterministic wall clock)."""

    def test_end_to_end(self, tmp_path):
        unsharded = ResultStore(tmp_path / "unsharded")
        assert SweepRunner(SUITE, unsharded, jobs=1).run().ok

        for index in range(2):
            report = SweepRunner(
                SUITE,
                ResultStore(tmp_path / f"shard{index}"),
                jobs=1,
                shard=ShardSpec(index, 2),
            ).run()
            assert report.ok

        merged_path = tmp_path / "merged" / "results.jsonl"
        merge_report = merge_result_files(
            [
                tmp_path / "shard0" / "results.jsonl",
                tmp_path / "shard1" / "results.jsonl",
            ],
            merged_path,
        )
        assert merge_report.ok and not merge_report.missing
        merged = ResultStore.from_path(merged_path)

        # Record-level equivalence (modulo wall clock).
        assert _normalized_records(merged) == _normalized_records(unsharded)

        # Report-level equivalence: byte-identical rendered reports once
        # the wall-clock columns are normalised away.
        def rendered(store):
            records = [
                dict(record, wall_clock_s=0.0, timings=None)
                for record in store.records()
            ]
            return build_report(records).render()

        assert rendered(merged) == rendered(unsharded)

    def test_merged_store_is_valid_jsonl(self, tmp_path):
        for index in range(2):
            SweepRunner(
                SUITE,
                ResultStore(tmp_path / f"s{index}"),
                jobs=1,
                shard=ShardSpec(index, 2),
            ).run()
        out = tmp_path / "m.jsonl"
        merge_result_files(
            [tmp_path / "s0" / "results.jsonl", tmp_path / "s1" / "results.jsonl"],
            out,
        )
        for line in out.read_text().splitlines():
            json.loads(line)

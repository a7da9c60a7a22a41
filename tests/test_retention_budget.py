"""Disk-budget primitives: usage probe, watermark latch, policy."""

import pytest

from avipack.errors import InputError
from avipack.retention import DiskBudget, RetentionPolicy, directory_bytes


class TestDirectoryBytes:
    def test_sums_nested_regular_files(self, tmp_path):
        (tmp_path / "a.bin").write_bytes(b"x" * 100)
        nested = tmp_path / "deep" / "deeper"
        nested.mkdir(parents=True)
        (nested / "b.bin").write_bytes(b"y" * 23)
        assert directory_bytes(str(tmp_path)) == 123

    def test_plain_file_counts_as_its_own_size(self, tmp_path):
        (tmp_path / "j000001.journal.jsonl").write_bytes(b"x" * 77)
        assert directory_bytes(str(tmp_path / "j000001.journal.jsonl")) == 77

    def test_missing_directory_is_zero(self, tmp_path):
        assert directory_bytes(str(tmp_path / "absent")) == 0

    def test_empty_directory_is_zero(self, tmp_path):
        assert directory_bytes(str(tmp_path)) == 0

    def test_matches_os_walk_over_a_store_like_tree(self, tmp_path):
        files = {"j000001.journal.jsonl": 512,
                 "j000001.manifest.json": 64,
                 "j000001.results/shard-000000.rows": 2048,
                 "j000001.results/shard-000001.rows": 4096}
        for rel, size in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(b"z" * size)
        assert directory_bytes(str(tmp_path)) == sum(files.values())


class TestDiskBudget:
    def test_validation(self):
        with pytest.raises(InputError):
            DiskBudget(0, 0)
        with pytest.raises(InputError):
            DiskBudget(-5, 0)
        with pytest.raises(InputError):
            DiskBudget(100, 101)  # low above high
        with pytest.raises(InputError):
            DiskBudget(100, -1)

    def test_latches_at_high_releases_at_low(self):
        budget = DiskBudget(high_bytes=100, low_bytes=50)
        assert budget.observe(99) is False
        assert budget.observe(100) is True  # >= high latches
        # Inside the hysteresis band the latch holds: admission must
        # not flap while retention is still reclaiming.
        assert budget.observe(75) is True
        assert budget.observe(51) is True
        assert budget.observe(50) is False  # <= low releases
        assert budget.observe(75) is False  # band entered from below
        assert budget.disk_low is False

    def test_last_usage_tracks_every_sample(self):
        budget = DiskBudget(high_bytes=100, low_bytes=50)
        budget.observe(42)
        assert budget.last_usage == 42
        budget.observe(7)
        assert budget.last_usage == 7

    def test_degenerate_equal_watermarks(self):
        # high == low is legal: a pure threshold with no band.  At the
        # exact threshold the high test wins — degraded, never flapping.
        budget = DiskBudget(high_bytes=10, low_bytes=10)
        assert budget.observe(10) is True
        assert budget.observe(10) is True
        assert budget.observe(9) is False


class TestRetentionPolicy:
    def test_default_policy_is_unbounded(self):
        policy = RetentionPolicy()
        assert policy.keep_last_n is None
        assert policy.max_age_s is None
        assert policy.max_bytes is None
        assert policy.bounded is False

    @pytest.mark.parametrize("clause", [
        {"keep_last_n": 3},
        {"max_age_s": 60.0},
        {"max_bytes": 10 ** 9},
    ])
    def test_any_clause_makes_it_bounded(self, clause):
        assert RetentionPolicy(**clause).bounded is True

    @pytest.mark.parametrize("clause", [
        {"keep_last_n": -1},
        {"max_age_s": -0.5},
        {"max_bytes": -1},
    ])
    def test_negative_clauses_are_rejected(self, clause):
        with pytest.raises(InputError):
            RetentionPolicy(**clause)

    def test_zero_clauses_are_legal(self):
        # keep nothing / evict immediately are valid operator choices.
        policy = RetentionPolicy(keep_last_n=0, max_age_s=0.0, max_bytes=0)
        assert policy.bounded is True

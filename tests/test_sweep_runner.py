"""Sweep execution: failure isolation, parity, caching, reporting."""

import pytest

from avipack.core.levels import run_level1, run_level2, run_pyramid
from avipack.errors import InputError
from avipack.sweep import (
    Candidate,
    CandidateFailure,
    CandidateResult,
    DesignSpace,
    SolverCache,
    SweepRunner,
    SweepTask,
    evaluate_candidate,
    render_sweep_document,
)

SMALL_SPACE = {
    "power_per_module": (10.0, 20.0),
    "tim_name": ("standard_grease", "nanopack_cnt_array"),
}


class TestEvaluateCandidate:
    def test_valid_candidate_yields_result(self):
        outcome = evaluate_candidate(
            SweepTask(3, Candidate(), use_cache=False))
        assert isinstance(outcome, CandidateResult)
        assert outcome.index == 3
        assert outcome.margins["worst_board_c"] == pytest.approx(
            outcome.worst_board_c)
        assert outcome.elapsed_s > 0.0
        assert outcome.cache_hits == 0 and outcome.cache_misses == 0

    def test_invalid_candidate_yields_build_failure(self):
        bad = Candidate(power_per_module=-1.0)
        outcome = evaluate_candidate(SweepTask(0, bad, use_cache=False))
        assert isinstance(outcome, CandidateFailure)
        assert outcome.stage == "build"
        assert outcome.error_type == "InputError"
        assert not outcome.compliant

    def test_unknown_tim_yields_failure_not_raise(self):
        bad = Candidate(tim_name="unobtainium")
        outcome = evaluate_candidate(SweepTask(0, bad, use_cache=False))
        assert isinstance(outcome, CandidateFailure)
        assert "unobtainium" in outcome.message

    def test_explicit_cache_is_used(self):
        cache = SolverCache()
        evaluate_candidate(SweepTask(0, Candidate()), cache)
        assert cache.misses > 0
        again = evaluate_candidate(SweepTask(1, Candidate()), cache)
        assert again.cache_hits > 0


class TestFailureIsolation:
    def test_invalid_candidates_fail_exactly_and_rest_complete(self):
        candidates = [
            Candidate(power_per_module=10.0),            # 0: fine
            Candidate(power_per_module=-4.0),            # 1: bad power
            Candidate(power_per_module=15.0),            # 2: fine
            Candidate(tim_name="not_a_tim"),             # 3: bad TIM
            Candidate(cooling="vortex_tube"),            # 4: bad cooling
            Candidate(power_per_module=20.0),            # 5: fine
        ]
        report = SweepRunner(parallel=False).run(candidates)
        assert report.n_candidates == 6
        assert [f.index for f in report.failures] == [1, 3, 4]
        assert [r.index for r in report.results] == [0, 2, 5]
        assert all(isinstance(f, CandidateFailure) for f in report.failures)
        assert {f.error_type for f in report.failures} == {"InputError",
                                                           "MaterialNotFoundError"}

    def test_failures_survive_the_process_pool(self):
        candidates = [Candidate(), Candidate(n_modules=0),
                      Candidate(n_modules=2)]
        report = SweepRunner(parallel=True, max_workers=2).run(candidates)
        assert [f.index for f in report.failures] == [1]
        assert [r.index for r in report.results] == [0, 2]


class TestSerialParallelParity:
    def test_identical_outcomes_and_ranking(self):
        space = DesignSpace(SMALL_SPACE)
        serial = SweepRunner(parallel=False).run(space)
        par = SweepRunner(parallel=True, max_workers=2).run(space)
        assert [o.fingerprint for o in serial.outcomes] \
            == [o.fingerprint for o in par.outcomes]
        assert [o.compliant for o in serial.outcomes] \
            == [o.compliant for o in par.outcomes]
        assert [r.index for r in serial.ranked()] \
            == [r.index for r in par.ranked()]
        for a, b in zip(serial.results, par.results):
            assert a.worst_board_c == pytest.approx(b.worst_board_c)

    def test_parallel_uses_multiple_workers_when_available(self):
        space = DesignSpace(SMALL_SPACE)
        report = SweepRunner(parallel=True, max_workers=2).run(space)
        assert report.mode == "parallel"
        assert report.workers == 2
        pids = {o.worker_pid for o in report.outcomes}
        assert len(pids) >= 1  # >= 2 on multi-core boxes; never zero

    def test_single_worker_requests_serial_path(self):
        report = SweepRunner(max_workers=1).run(DesignSpace(SMALL_SPACE))
        assert report.mode == "serial"
        assert report.workers == 1


class TestCaching:
    def test_sweep_cache_hit_rate_positive(self):
        report = SweepRunner(parallel=False, use_cache=True).run(
            DesignSpace(SMALL_SPACE))
        assert report.cache.hits > 0
        assert report.cache.hit_rate > 0.0

    def test_cold_sweep_records_no_lookups(self):
        report = SweepRunner(parallel=False, use_cache=False).run(
            DesignSpace(SMALL_SPACE))
        assert report.cache.lookups == 0

    def test_cached_results_match_uncached(self):
        space = DesignSpace(SMALL_SPACE)
        hot = SweepRunner(parallel=False, use_cache=True).run(space)
        cold = SweepRunner(parallel=False, use_cache=False).run(space)
        for a, b in zip(hot.results, cold.results):
            assert a.worst_board_c == pytest.approx(b.worst_board_c)
            assert a.compliant == b.compliant

    def test_levels_share_cache_across_tim_variants(self):
        # Two candidates differing only in TIM share the rack airflow
        # solve (level 2 never reads the TIM).
        cache = SolverCache()
        for tim in ("standard_grease", "nanopack_cnt_array"):
            rack, _ = Candidate(tim_name=tim).build()
            run_level2(rack, cache=cache)
        assert cache.hits == 1
        assert cache.misses == 1


class TestLevelRunnersWithCache:
    def test_run_level1_memoised(self):
        cache = SolverCache()
        first = run_level1(60.0, cache=cache)
        second = run_level1(60.0, cache=cache)
        assert first is second
        assert cache.hits == 1

    def test_run_pyramid_threads_cache(self):
        rack, _ = Candidate().build()
        cache = SolverCache()
        run_pyramid(rack, cache=cache)
        assert cache.misses > 0
        before = cache.misses
        run_pyramid(rack, cache=cache)
        assert cache.misses == before  # fully served from memory


class TestSweepReport:
    @pytest.fixture(scope="class")
    def report(self):
        return SweepRunner(parallel=False).run(DesignSpace(SMALL_SPACE))

    def test_ranked_is_cheapest_first(self, report):
        ranked = report.ranked()
        assert ranked, "expected compliant candidates in the small space"
        costs = [r.cost_rank for r in ranked]
        assert costs == sorted(costs)
        assert report.best() is ranked[0]

    def test_ranking_breaks_ties_by_headroom(self, report):
        ranked = report.ranked()
        for a, b in zip(ranked, ranked[1:]):
            if a.cost_rank == b.cost_rank:
                assert a.thermal_headroom_c >= b.thermal_headroom_c

    def test_observability_fields(self, report):
        assert report.wall_time_s > 0.0
        assert report.total_evaluation_s > 0.0
        assert 0.0 < report.worker_utilisation <= 1.0
        assert len(report.timings()) == report.n_candidates
        busy = report.worker_busy_s()
        assert sum(busy.values()) == pytest.approx(report.total_evaluation_s)

    def test_document_renders_all_sections(self, report):
        text = render_sweep_document(report)
        assert "DESIGN-SPACE SWEEP REPORT" in text
        assert "1. EXECUTION" in text
        assert "2. OUTCOMES" in text
        assert "3. RANKED COMPLIANT CANDIDATES" in text
        assert "hit rate" in text

    def test_document_lists_failures(self):
        report = SweepRunner(parallel=False).run(
            [Candidate(), Candidate(power_per_module=-1.0)])
        text = render_sweep_document(report)
        assert "#1 [build] InputError" in text


class TestRunnerValidation:
    def test_empty_sweep_rejected(self):
        with pytest.raises(InputError):
            SweepRunner().run([])

    def test_negative_workers_rejected(self):
        with pytest.raises(InputError):
            SweepRunner(max_workers=-1)

    @pytest.mark.parametrize("parallel", [False, True],
                             ids=["serial", "pool"])
    def test_repeated_candidate_rejected_before_any_write(self, parallel,
                                                           tmp_path):
        # One candidate twice would rank twice in the report but hold
        # one live row in the store.
        journal, store = tmp_path / "j.jsonl", tmp_path / "store"
        runner = SweepRunner(parallel=parallel, max_workers=2,
                             result_store=str(store))
        with pytest.raises(InputError,
                           match="candidate #2 repeats candidate #0"):
            runner.run([Candidate(), Candidate(n_modules=2), Candidate()],
                       journal_path=str(journal))
        assert not journal.exists() and not store.exists()

    def test_resume_with_repeated_candidate_rejected(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        SweepRunner(parallel=False).run([Candidate()],
                                        journal_path=str(journal))
        before = journal.read_bytes()
        with pytest.raises(InputError,
                           match="candidate #1 repeats candidate #0"):
            SweepRunner(parallel=False).resume(
                str(journal), space=[Candidate(), Candidate()])
        assert journal.read_bytes() == before


class TestProgressCallbacks:
    """The journal-tee progress hook behind the job service."""

    def test_progress_fires_once_per_outcome_in_order(self, tmp_path):
        journal = str(tmp_path / "progress.jsonl")
        seen = []
        report = SweepRunner(parallel=False).run(
            DesignSpace(SMALL_SPACE), journal_path=journal,
            progress=seen.append)
        assert len(seen) == report.n_candidates
        assert [o.index for o in seen] == sorted(o.index for o in seen)
        assert {o.fingerprint for o in seen} == \
            {o.fingerprint for o in report.outcomes}

    def test_progress_without_journal(self):
        seen = []
        report = SweepRunner(parallel=False).run(
            DesignSpace(SMALL_SPACE), progress=seen.append)
        assert len(seen) == report.n_candidates

    def test_progress_exception_leaves_resumable_journal(self, tmp_path):
        from avipack.durability import replay_journal

        journal = str(tmp_path / "cancelled.jsonl")

        class Stop(Exception):
            pass

        seen = []

        def hook(outcome):
            seen.append(outcome)
            if len(seen) == 2:
                raise Stop("enough")

        with pytest.raises(Stop):
            SweepRunner(parallel=False).run(
                DesignSpace(SMALL_SPACE), journal_path=journal,
                progress=hook)
        # The triggering outcome was journalled before the hook ran:
        # nothing acknowledged is lost, and the journal replays clean.
        replay = replay_journal(journal, write_quarantine=False)
        assert replay.n_quarantined == 0
        assert len(replay.outcomes) == 2

        resumed = SweepRunner(parallel=False).resume(journal)
        assert resumed.n_candidates == 4
        assert resumed.durability.n_resumed == 2

    def test_resume_progress_covers_only_recomputed(self, tmp_path):
        journal = str(tmp_path / "partial.jsonl")
        first = []

        def stop_after_two(outcome):
            first.append(outcome)
            if len(first) == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            SweepRunner(parallel=False).run(
                DesignSpace(SMALL_SPACE), journal_path=journal,
                progress=stop_after_two)
        resumed_seen = []
        report = SweepRunner(parallel=False).resume(
            journal, progress=resumed_seen.append)
        # Restored outcomes arrive from the journal, not the hook.
        assert len(resumed_seen) == report.n_candidates - 2

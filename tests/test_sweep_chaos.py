"""Chaos suite: the sweep engine under seeded fault injection.

Every test drives the *production* runner with a deterministic
:class:`~avipack.resilience.FaultPlan`: convergence failures, model-range
errors, worker crashes, hangs and corrupted cache entries are injected at
the instrumented sites, and the runner must classify every candidate
(recovered / degraded / failed) without dying.  That every route ranks
the same survivors is the route matrix's job (``test_route_matrix.py``).
"""

import math
import os
import time

import pytest

from avipack.errors import ConvergenceError
from avipack.resilience import (
    FaultPlan,
    FaultSpec,
    NO_SUPERVISION,
    Supervisor,
    SupervisionPolicy,
)
from avipack.resilience import faults as faults_mod
from avipack.sweep import (
    Candidate,
    CandidateFailure,
    CandidateResult,
    DesignSpace,
    SweepRunner,
    SweepTask,
    evaluate_candidate,
    render_sweep_document,
)
from avipack.thermal.network import ThermalNetwork
from tests.routes import projections

#: >= 100 candidates, kept individually cheap (2 modules, 4 components).
CHAOS_SPACE = DesignSpace(
    {
        "power_per_module": tuple(float(p) for p in range(8, 44, 2)),
        "series_fraction": (0.0, 0.3, 0.6),
        "tim_name": ("standard_grease", "nanopack_cnt_array"),
    },
    base=Candidate(n_modules=2, n_components=4),
)

#: All five fault kinds at once, seeded — decisions are a pure function
#: of (seed, site, kind, candidate index), so serial and parallel runs
#: fault identically.
CHAOS_PLAN = FaultPlan(
    specs=(
        FaultSpec("levels.level2", "convergence", rate=0.15),
        FaultSpec("levels.level3", "model_range", rate=0.12),
        FaultSpec("sweep.worker", "crash", rate=0.04),
        FaultSpec("sweep.worker", "hang", rate=0.04),
        FaultSpec("sweep.cache", "cache_corrupt", rate=0.25),
    ),
    seed=2024,
    hang_seconds=0.2,
)

#: Error types only the injector produces.
_INJECTED_FAILURES = {"WorkerCrashError", "WatchdogTimeout"}


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    faults_mod.uninstall()
    yield
    assert faults_mod.active() is None, \
        "sweep must uninstall its fault plan on exit"


class TestChaosSweep:
    @pytest.fixture(scope="class")
    def serial(self):
        return SweepRunner(parallel=False,
                           faults=CHAOS_PLAN).run(CHAOS_SPACE)

    @pytest.fixture(scope="class")
    def parallel(self):
        return SweepRunner(parallel=True, max_workers=4, timeout_s=10.0,
                           faults=CHAOS_PLAN).run(CHAOS_SPACE)

    def test_space_is_large_enough(self):
        assert CHAOS_SPACE.size >= 100

    def test_runner_survives_and_classifies_everything(self, serial):
        assert serial.n_candidates == CHAOS_SPACE.size
        for outcome in serial.outcomes:
            assert isinstance(outcome, (CandidateResult, CandidateFailure))

    def test_at_least_a_fifth_of_candidates_faulted(self, serial):
        touched = set()
        for outcome in serial.outcomes:
            if isinstance(outcome, CandidateFailure):
                if outcome.error_type in _INJECTED_FAILURES:
                    touched.add(outcome.index)
            else:
                if (outcome.recovered or outcome.degraded
                        or outcome.cache_corrupt):
                    touched.add(outcome.index)
        assert len(touched) >= 0.2 * serial.n_candidates

    def test_all_fault_kinds_observed(self, serial):
        failures = {f.error_type for f in serial.failures}
        assert "WorkerCrashError" in failures          # crash
        assert "WatchdogTimeout" in failures           # hang
        assert serial.n_recovered > 0                  # convergence, retried
        assert serial.n_degraded > 0                   # model_range, degraded
        assert serial.cache.corrupt > 0                # cache_corrupt

    def test_recovered_candidates_carry_trails(self, serial):
        recovered = [r for r in serial.results if r.recovered]
        assert recovered
        for result in recovered:
            assert any(trail.recovered for trail in result.recovery)
            trail = result.recovery[0]
            assert trail.attempts[0].error_type  # the failed first attempt

    def test_degraded_candidates_still_rank(self, serial):
        degraded = [r for r in serial.results if r.degraded]
        assert degraded
        # degraded candidates keep full margin data (level-2 fidelity)
        for result in degraded:
            assert result.worst_board_c > 0.0

    def test_parallel_run_reports_parallel_mode(self, parallel):
        assert parallel.mode.startswith("parallel")

    def test_chaos_report_renders_recovery_section(self, serial):
        text = render_sweep_document(serial)
        assert "4. RECOVERY" in text
        assert "recovered" in text
        assert "degraded" in text

    def test_rerun_is_deterministic(self, serial):
        again = SweepRunner(parallel=False,
                            faults=CHAOS_PLAN).run(CHAOS_SPACE)
        assert projections(again.outcomes) == projections(serial.outcomes)


class TestFaultFreePlanIsInert:
    def test_sweep_without_plan_matches_chaosless_run(self):
        space = DesignSpace({"power_per_module": (10.0, 20.0)},
                            base=Candidate(n_modules=2, n_components=4))
        plain = SweepRunner(parallel=False).run(space)
        assert plain.n_recovered == 0
        assert plain.n_degraded == 0
        assert plain.cache.corrupt == 0
        assert all(isinstance(o, CandidateResult) for o in plain.outcomes)


class TestEnrichedFailures:
    def test_build_failure_carries_traceback(self):
        outcome = evaluate_candidate(
            SweepTask(0, Candidate(power_per_module=-1.0), use_cache=False))
        assert isinstance(outcome, CandidateFailure)
        assert outcome.stage == "build"
        assert "Traceback" in outcome.traceback
        assert "InputError" in outcome.traceback

    def test_unsupervised_convergence_failure_exposes_solver_state(self):
        plan = FaultPlan(specs=(FaultSpec("levels.level2", "convergence"),),
                         seed=7)
        faults_mod.install(plan)
        try:
            outcome = evaluate_candidate(
                SweepTask(0, Candidate(n_modules=2, n_components=4),
                          use_cache=False, policy=NO_SUPERVISION,
                          faults=plan))
        finally:
            faults_mod.uninstall()
        assert isinstance(outcome, CandidateFailure)
        assert outcome.error_type == "ConvergenceError"
        assert outcome.stage == "evaluate"
        assert "iterations" in outcome.details
        assert "residual" in outcome.details

    def test_supervised_run_recovers_the_same_fault(self):
        plan = FaultPlan(specs=(FaultSpec("levels.level2", "convergence"),),
                         seed=7)
        outcome = evaluate_candidate(
            SweepTask(0, Candidate(n_modules=2, n_components=4),
                      use_cache=False, policy=SupervisionPolicy(),
                      faults=plan))
        faults_mod.uninstall()
        assert isinstance(outcome, CandidateResult)
        assert outcome.recovered
        assert outcome.recovery[0].site == "levels.level2"


class TestWatchdog:
    def test_hung_worker_is_abandoned_and_sweep_completes(self):
        plan = FaultPlan(
            specs=(FaultSpec("sweep.worker", "hang", scopes=(2,)),),
            hang_seconds=30.0)
        candidates = [Candidate(n_modules=2, n_components=4,
                                power_per_module=10.0 + i)
                      for i in range(6)]
        report = SweepRunner(parallel=True, max_workers=2, timeout_s=1.0,
                             faults=plan).run(candidates)
        assert report.n_candidates == 6
        assert report.n_timeouts == 1
        timeout = report.failures[0]
        assert timeout.index == 2
        assert timeout.error_type == "WatchdogTimeout"
        assert timeout.stage == "watchdog"
        others = [o for o in report.outcomes if o.index != 2]
        assert all(isinstance(o, CandidateResult) for o in others)

    def test_short_hang_classified_in_process(self):
        # The hang out-waits nothing: the worker's own injected
        # WatchdogTimeout comes back as a structured failure before the
        # parent-side watchdog has to act.
        plan = FaultPlan(
            specs=(FaultSpec("sweep.worker", "hang", scopes=(1,)),),
            hang_seconds=0.05)
        candidates = [Candidate(n_modules=2, n_components=4,
                                power_per_module=10.0 + i)
                      for i in range(3)]
        report = SweepRunner(parallel=True, max_workers=2, timeout_s=10.0,
                             faults=plan).run(candidates)
        assert report.n_timeouts == 1
        assert report.failures[0].index == 1
        assert report.failures[0].stage == "worker"

    def test_timeout_validation(self):
        from avipack.errors import InputError
        with pytest.raises(InputError):
            SweepRunner(timeout_s=0.0)


class TestBrokenPoolRecovery:
    def test_watchdog_path_retries_unfinished_serially(self):
        plan = FaultPlan(
            specs=(FaultSpec("sweep.worker", "crash", scopes=(2,)),))
        candidates = [Candidate(n_modules=2, n_components=4,
                                power_per_module=10.0 + i)
                      for i in range(8)]
        report = SweepRunner(parallel=True, max_workers=2, timeout_s=10.0,
                             faults=plan).run(candidates)
        assert report.n_candidates == 8
        assert [f.index for f in report.failures] == [2]
        assert report.failures[0].error_type == "WorkerCrashError"
        assert "broken pool" in report.mode

    def test_bulk_path_retries_unfinished_serially(self):
        plan = FaultPlan(
            specs=(FaultSpec("sweep.worker", "crash", scopes=(1,)),))
        candidates = [Candidate(n_modules=2, n_components=4,
                                power_per_module=10.0 + i)
                      for i in range(4)]
        report = SweepRunner(parallel=True, max_workers=2,
                             faults=plan).run(candidates)
        assert report.n_candidates == 4
        assert [f.index for f in report.failures] == [1]
        assert report.failures[0].error_type == "WorkerCrashError"
        assert "broken pool" in report.mode

    def test_bulk_crash_records_each_candidate_once(self, tmp_path):
        import json

        from avipack.results import ResultStore

        plan = FaultPlan(
            specs=(FaultSpec("sweep.worker", "crash", scopes=(3,)),))
        candidates = [Candidate(n_modules=2, n_components=4,
                                power_per_module=10.0 + i)
                      for i in range(8)]
        journal = str(tmp_path / "crash.jsonl")
        store = str(tmp_path / "store")
        seen = []
        report = SweepRunner(parallel=True, max_workers=2, faults=plan,
                             result_store=store).run(
            candidates, journal_path=journal, progress=seen.append)
        assert [f.index for f in report.failures] == [3]
        assert sorted(o.index for o in seen) == list(range(8))
        with open(journal, encoding="ascii") as stream:
            kinds = [json.loads(line)["body"]["kind"] for line in stream]
        assert kinds.count("plan") == 1
        assert len(kinds) == 1 + 8
        assert ResultStore.open(store).n_rows == 8


def _ill_conditioned_evaluator(task):
    """Sweep-compatible evaluator: each candidate is a raw supervised
    network solve whose conditioning worsens with the power budget."""
    index, candidate, policy = task.index, task.candidate, task.policy
    k = 0.04 + 0.002 * candidate.power_per_module
    net = ThermalNetwork()
    net.add_node("chip", heat_load=50.0)
    net.add_node("ambient", fixed_temperature=300.0)
    net.add_conductance(
        "chip", "ambient",
        lambda t_hot, t_cold, k=k: math.exp(k * (t_hot - 350.0)))
    supervisor = Supervisor(policy)
    start = time.perf_counter()
    try:
        solution = supervisor.solve_network(net)
    except ConvergenceError as exc:
        return CandidateFailure(
            index=index, candidate=candidate,
            fingerprint=candidate.fingerprint, stage="network",
            error_type=type(exc).__name__, message=str(exc),
            elapsed_s=time.perf_counter() - start, worker_pid=os.getpid(),
            recovery=supervisor.trails)
    chip_c = solution.temperature("chip") - 273.15
    return CandidateResult(
        index=index, candidate=candidate,
        fingerprint=candidate.fingerprint, compliant=chip_c <= 85.0,
        violations=(), margins={"chip_c": chip_c}, worst_board_c=chip_c,
        recommended_cooling=None, declared_cooling_feasible=True,
        cost_rank=float(index), elapsed_s=time.perf_counter() - start,
        worker_pid=os.getpid(), cache_hits=0, cache_misses=0,
        recovery=supervisor.trails)


class TestIllConditionedNetworkInSweep:
    """The acceptance scenario: a network that fails a bare ``solve()``
    is solved automatically by the default escalation policy, and its
    recovery trail is visible in the rendered sweep report."""

    @pytest.fixture(scope="class")
    def report(self):
        candidates = [Candidate(power_per_module=float(p))
                      for p in (10.0, 25.0, 40.0)]
        return SweepRunner(parallel=False,
                           evaluator=_ill_conditioned_evaluator,
                           use_cache=False).run(candidates)

    def test_bare_solve_fails_on_the_hard_candidate(self):
        k = 0.04 + 0.002 * 40.0  # the steepest candidate's conditioning
        net = ThermalNetwork()
        net.add_node("chip", heat_load=50.0)
        net.add_node("ambient", fixed_temperature=300.0)
        net.add_conductance(
            "chip", "ambient",
            lambda t_hot, t_cold: math.exp(k * (t_hot - 350.0)))
        with pytest.raises(ConvergenceError):
            net.solve()

    def test_escalation_solves_every_candidate(self, report):
        assert not report.failures
        for result in report.results:
            assert result.worst_board_c == pytest.approx(350.0 - 273.15,
                                                         abs=0.5)

    def test_hard_candidates_recovered_via_ladder(self, report):
        assert report.n_recovered >= 1
        hard = report.outcomes[2]
        assert hard.recovered
        trail = hard.recovery[0]
        assert trail.site == "thermal.network.solve"
        assert trail.attempts[0].error_type == "ConvergenceError"
        assert trail.attempts[-1].ok

    def test_trail_visible_in_rendered_report(self, report):
        text = render_sweep_document(report)
        assert "4. RECOVERY" in text
        assert "thermal.network.solve" in text
        assert "failed(ConvergenceError)" in text

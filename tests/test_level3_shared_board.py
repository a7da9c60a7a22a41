"""Level 3 on racks whose modules share one board object.

``Candidate.build()`` hands every slot the same :class:`Pcb`, and the
pyramid builds that board's digest and detail model once.  A rack of
distinct-but-equal boards (one object per slot) must give the same
junction temperatures bit for bit and the same supervision trails.
"""

import dataclasses

import pytest

from avipack import perf
from avipack.core.design_flow import run_mechanical_branch
from avipack.core.levels import Level3Board, run_level3, run_pyramid
from avipack.packaging.pcb import Pcb, PcbDetailModel
from avipack.packaging.rack import Rack
from avipack.resilience import FaultPlan, FaultSpec, Supervisor
from avipack.resilience import faults as faults_mod
from avipack.sweep import (
    Candidate,
    CandidateResult,
    SolverCache,
    SweepTask,
    evaluate_candidate,
)

#: Series-fed (every slot at its own boundary) and parallel-fed (every
#: slot at the supply boundary, so a cache answers all but one).
FEEDS = {"series": 1.0, "parallel": 0.0}


@pytest.fixture(autouse=True)
def _clean_installation():
    faults_mod.uninstall()
    yield
    faults_mod.uninstall()


def shared_and_distinct(series_fraction, n_modules=4):
    """The same candidate as a shared-board rack and as one board per
    slot (equal content, distinct objects)."""
    candidate = Candidate(n_modules=n_modules,
                          series_fraction=series_fraction)
    shared, _ = candidate.build()
    distinct = Rack(name=shared.name, series_fraction=series_fraction)
    for module in shared.modules:
        distinct.add_module(dataclasses.replace(module,
                                                pcb=candidate.board()))
    return shared, distinct


def trail_signature(supervisor):
    """Supervision trails without their wall-clock timings."""
    return [(trail.site, trail.recovered, trail.degraded,
             [(a.attempt, a.action, a.outcome, a.error_type, a.message)
              for a in trail.attempts])
            for trail in supervisor.trails]


def supervised_pyramid(rack, fault_kind, use_cache):
    """Run the pyramid with ``fault_kind`` fired at the first level-3
    call of the scope (one slot), returning the result and trails."""
    injector = faults_mod.install(FaultPlan(
        specs=(FaultSpec("levels.level3", fault_kind),)))
    supervisor = Supervisor()
    try:
        with injector.scoped(0):
            result = run_pyramid(
                rack, cache=SolverCache() if use_cache else None,
                supervisor=supervisor)
    finally:
        faults_mod.uninstall()
    return result, trail_signature(supervisor)


@pytest.mark.parametrize("use_cache", (False, True),
                         ids=("uncached", "cached"))
@pytest.mark.parametrize("feed", sorted(FEEDS))
class TestSharedBoardParity:
    def test_level3_results_bit_identical(self, feed, use_cache):
        shared, distinct = shared_and_distinct(FEEDS[feed])
        assert len({id(m.pcb) for m in distinct.modules}) == 4
        got = run_pyramid(shared,
                          cache=SolverCache() if use_cache else None)
        want = run_pyramid(distinct,
                           cache=SolverCache() if use_cache else None)
        assert got.level3 == want.level3 == run_pyramid(distinct).level3
        for name, result in got.level3.items():
            assert result.junction_temperatures \
                == want.level3[name].junction_temperatures
            assert result.max_junction == want.level3[name].max_junction

    @pytest.mark.parametrize("fault_kind, recovered, degraded", [
        ("convergence", True, False),   # retried, clean on retry#1
        ("model_range", False, True),   # not retryable: degrade-to-level2
    ])
    def test_supervision_trails_identical(self, feed, use_cache,
                                          fault_kind, recovered, degraded):
        shared, distinct = shared_and_distinct(FEEDS[feed])
        got, got_trails = supervised_pyramid(shared, fault_kind, use_cache)
        want, want_trails = supervised_pyramid(distinct, fault_kind,
                                               use_cache)
        assert got_trails == want_trails
        assert len(got_trails) == 1
        site, was_recovered, was_degraded, _ = got_trails[0]
        assert site == "levels.level3[m1]"
        assert (was_recovered, was_degraded) == (recovered, degraded)
        assert got.level3 == want.level3
        assert got.level3["m1"].degraded is degraded
        assert not any(got.level3[f"m{k}"].degraded for k in (2, 3, 4))


class TestSharedBoard:
    def test_build_hands_every_slot_one_board(self):
        rack, _ = Candidate(n_modules=5).build()
        board = rack.modules[0].pcb
        assert isinstance(board, Pcb)
        assert all(module.pcb is board for module in rack.modules)

    def test_direct_run_level3_hits_the_pyramid_entry(self):
        rack, _ = Candidate(n_modules=3, series_fraction=1.0).build()
        cache = SolverCache()
        result = run_pyramid(rack, cache=cache)
        slot = result.level2.slots[2]
        boundary = 0.5 * (slot.inlet_temperature + slot.outlet_temperature)
        hits, misses = cache.hits, cache.misses
        direct = run_level3(rack.modules[2].pcb, boundary, cache=cache)
        assert (cache.hits, cache.misses) == (hits + 1, misses)
        assert direct == result.level3["m3"]

    def test_candidate_evaluation_builds_one_detail_model(self):
        before = perf.counter("levels.detail_builds")
        outcome = evaluate_candidate(SweepTask(0, Candidate(n_modules=4)),
                                     cache=SolverCache())
        assert isinstance(outcome, CandidateResult)
        assert perf.counter("levels.detail_builds") - before == 1

    def test_distinct_boards_each_build_a_model(self):
        _, distinct = shared_and_distinct(1.0, n_modules=3)
        before = perf.counter("levels.detail_builds")
        run_pyramid(distinct)
        assert perf.counter("levels.detail_builds") - before == 3

    def test_board_digest_and_model_are_built_once(self):
        board = Level3Board(Candidate().board())
        assert board.digest is board.digest
        assert board.detail_model is board.detail_model

    def test_detail_model_matches_fresh_solves(self):
        pcb = Candidate(n_components=5).board()
        model = PcbDetailModel(pcb)
        for ambient in (300.0, 325.5, 351.0):
            fresh = pcb.solve_detail(15.0, 15.0, ambient)
            reused = model.solve(15.0, 15.0, ambient)
            assert reused.junction_temperatures \
                == fresh.junction_temperatures
            assert (reused.board_field == fresh.board_field).all()

    def test_mechanical_branch_idealises_each_board_once(self, monkeypatch):
        shared, distinct = shared_and_distinct(0.3)
        _, spec = Candidate().build()
        plates = []
        original = Pcb.as_plate

        def counting(self, *args, **kwargs):
            plates.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Pcb, "as_plate", counting)
        assert run_mechanical_branch(shared, spec) \
            == run_mechanical_branch(distinct, spec)
        assert len(plates) == 1 + len(distinct.modules)

"""Level 3 on racks whose modules share one board object.

``Candidate.build()`` hands every slot the same :class:`Pcb`, and the
pyramid builds that board's digest and detail model once.  A rack of
distinct-but-equal boards (one object per slot) must give the same
junction temperatures bit for bit and the same supervision trails.

The board problem is linear, so level 3 solves each distinct board once
per film coefficient for its junction rises and every slot adds its own
boundary.  The property tests check that against a fresh solve at the
slot's ambient, and that the level-3 key and the detail operator key
change exactly when what they stand for changes.  The cache keys of
level 1, level 2 and the mechanical branch are held to the same rule:
any input the solve reads changes its key, and a direct call asks for
the key the design procedure stores.
"""

import dataclasses
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from avipack import perf
from avipack.core.design_flow import (
    FrequencyAllocation,
    PackagingSpecification,
    run_design_procedure,
    run_mechanical_branch,
)
from avipack.core.levels import (
    BOARD_LIMIT,
    Level3Board,
    run_level1,
    run_level2,
    run_level3,
    run_pyramid,
)
from avipack.environments.do160 import curve_names
from avipack.errors import InputError
from avipack.mechanical.fatigue import COMPONENT_CONSTANTS
from avipack.packaging.component import (
    PACKAGE_FAMILIES,
    Component,
    get_package,
)
from avipack.packaging.cooling import ModuleEnvelope
from avipack.packaging.formfactors import ATR_WIDTHS
from avipack.packaging.module import Module
from avipack.packaging.pcb import Pcb, PcbDetailModel, dummy_resistive_pcb
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
from avipack.thermal.conduction import (
    BoundaryCondition,
    ConductionSolver,
    clear_factor_cache,
)

#: Series-fed (every slot at its own boundary) and parallel-fed (every
#: slot at the supply boundary, so a cache answers all but one).
FEEDS = {"series": 1.0, "parallel": 0.0}


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


def conduction_solves(run):
    """Steady conduction solves made by ``run()``."""
    before = perf.stats("conduction.steady").solves
    run()
    return perf.stats("conduction.steady").solves - before


class TestOneSolvePerBoard:
    def test_series_rack_solves_its_board_once(self):
        rack, _ = Candidate(n_modules=6, series_fraction=1.0).build()
        result = run_pyramid(rack)
        assert conduction_solves(lambda: run_pyramid(rack)) == 1
        boundaries = {slot.inlet_temperature for slot in result.level2.slots}
        assert len(boundaries) == 6

    def test_every_slot_and_candidate_hits_one_cache_entry(self):
        cache = SolverCache()
        first, _ = Candidate(n_modules=4, series_fraction=1.0).build()
        other, _ = Candidate(n_modules=3, series_fraction=0.0,
                             tim_name="silicone_pad").build()
        assert conduction_solves(
            lambda: run_pyramid(first, cache=cache)) == 1
        assert conduction_solves(
            lambda: run_pyramid(other, cache=cache)) == 0

    def test_slots_differ_by_their_boundary_only(self):
        rack, _ = Candidate(n_modules=3, series_fraction=1.0).build()
        result = run_pyramid(rack)
        m1, m3 = result.level3["m1"], result.level3["m3"]
        shift = m3.max_junction - m1.max_junction
        assert shift > 0.0
        for name, t_j in m1.junction_temperatures.items():
            assert m3.junction_temperatures[name] - t_j \
                == pytest.approx(shift, abs=1e-10)

    def test_violations_use_each_calls_limit(self):
        board = Level3Board(Candidate(power_per_module=30.0).board())
        hot = run_level3(board, 330.0)
        limit = hot.max_junction - 1e-3
        assert run_level3(board, 330.0, junction_limit=limit).violations
        assert not run_level3(board, 330.0,
                              junction_limit=hot.max_junction).violations

    def test_unpowered_board_sits_at_its_boundary(self):
        board = dummy_resistive_pcb(0.2, 0.12, 0.0, n_resistors=4)
        result = run_level3(board, 310.0)
        assert set(result.junction_temperatures.values()) == {310.0}
        fresh = board.solve_detail(15.0, 15.0, 310.0)
        assert fresh.junction_temperatures == pytest.approx(
            result.junction_temperatures, rel=0.0, abs=1e-10)

    def test_rises_are_memoised_per_film_pair(self):
        model = PcbDetailModel(Candidate().board())
        assert conduction_solves(
            lambda: [model.junction_rises(15.0, 15.0) for _ in range(3)]) \
            == 1
        assert model.junction_rises(15.0, 15.0) \
            is model.junction_rises(15.0, 15.0)
        assert conduction_solves(
            lambda: model.junction_rises(8.0, 15.0)) == 1


candidate_boards = st.builds(
    lambda power, form, long_case, n: Candidate(
        power_per_module=power, form_factor=form, long_case=long_case,
        n_components=n).board(),
    st.floats(1.0, 60.0), st.sampled_from(sorted(ATR_WIDTHS)),
    st.booleans(), st.integers(1, 10))
resistive_boards = st.builds(
    dummy_resistive_pcb, st.floats(0.08, 0.5), st.floats(0.06, 0.3),
    st.floats(0.0, 80.0), st.integers(1, 9))


class TestSuperpositionProperties:
    @settings(max_examples=40, deadline=None)
    @given(board=st.one_of(candidate_boards, resistive_boards),
           boundaries=st.lists(st.floats(220.0, 420.0), min_size=2,
                               max_size=2),
           h_film=st.sampled_from((8.0, 15.0, 40.0)),
           use_cache=st.booleans())
    def test_junctions_match_a_fresh_solve(self, board, boundaries, h_film,
                                           use_cache):
        cache = SolverCache() if use_cache else None
        prepared = Level3Board(board)
        for boundary in boundaries:
            try:
                fresh = board.solve_detail(h_film, h_film, boundary)
            except InputError as exc:
                # A footprint between cell centres fails both ways alike.
                with pytest.raises(InputError, match=re.escape(str(exc))):
                    run_level3(prepared, boundary, h_film, cache=cache)
                continue
            got = run_level3(prepared, boundary, h_film, cache=cache)
            assert list(got.junction_temperatures) \
                == list(fresh.junction_temperatures)
            for name, t_j in fresh.junction_temperatures.items():
                assert got.junction_temperatures[name] \
                    == pytest.approx(t_j, rel=0.0, abs=1e-10)


def base_board():
    return Pcb(0.2, 0.14, components=[
        Component("u1", get_package("bga_23mm"), 4.0, (0.05, 0.04)),
        Component("u2", get_package("qfp_20mm"), 2.5, (0.14, 0.09)),
        Component("u3", get_package("to_220"), 6.0, (0.1, 0.1))])


def changed_component(board, data, name, values):
    """``board`` with one drawn component's ``name`` set to a new value."""
    parts = list(board.components)
    k = data.draw(st.integers(0, len(parts) - 1))
    old = getattr(parts[k], name)
    parts[k] = dataclasses.replace(
        parts[k], **{name: data.draw(values.filter(lambda v: v != old))})
    return dataclasses.replace(board, components=parts)


def changed_field(board, data, name, values):
    """``board`` with its ``name`` set to a new value."""
    old = getattr(board, name)
    return dataclasses.replace(
        board, **{name: data.draw(values.filter(lambda v: v != old))})


BOARD_CHANGES = {
    "power": (changed_component, st.floats(0.0, 20.0)),
    "position": (changed_component,
                 st.tuples(st.floats(0.0, 0.2), st.floats(0.0, 0.14))),
    "package": (changed_component,
                st.sampled_from(sorted(PACKAGE_FAMILIES.values(),
                                       key=lambda p: p.name))),
    "n_copper_layers": (changed_field, st.integers(0, 12)),
    "copper_coverage": (changed_field, st.floats(0.0, 1.0)),
    "copper_layer_thickness": (changed_field, st.floats(5e-6, 1e-4)),
    "length": (changed_field, st.floats(0.15, 0.4)),
    "width": (changed_field, st.floats(0.1, 0.3)),
    "thickness": (changed_field, st.floats(5e-4, 4e-3)),
}


class TestLevel3Key:
    @pytest.mark.parametrize("change", sorted(BOARD_CHANGES))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_any_board_input_changes_the_key(self, change, data):
        board = base_board()
        change_of, values = BOARD_CHANGES[change]
        changed = change_of(board, data, change, values)
        assert Level3Board(changed).level3_key(15.0) \
            != Level3Board(board).level3_key(15.0)

    @settings(max_examples=15, deadline=None)
    @given(h_film=st.floats(0.5, 200.0).filter(lambda h: h != 15.0))
    def test_film_coefficient_changes_the_key(self, h_film):
        board = Level3Board(base_board())
        assert board.level3_key(h_film) != board.level3_key(15.0)

    def test_direct_call_and_pyramid_share_one_key(self):
        rack, _ = Candidate(n_modules=2).build()
        cache = SolverCache()
        run_pyramid(rack, cache=cache)
        assert Level3Board(Candidate().board()).level3_key(15.0) in cache


class KeyProbe:
    """A cache that records the key it is asked for and solves nothing."""

    def __init__(self):
        self.keys = []

    def get_or_compute(self, key, compute):
        self.keys.append(key)


def key_of(run, *args, **kwargs):
    """The one cache key ``run`` asks for on these arguments."""
    probe = KeyProbe()
    run(*args, cache=probe, **kwargs)
    (key,) = probe.keys
    return key


def changed_module(rack, data, name, values):
    """``rack`` with one drawn module's ``name`` set to a new value."""
    modules = list(rack.modules)
    k = data.draw(st.integers(0, len(modules) - 1))
    old = getattr(modules[k], name)
    modules[k] = dataclasses.replace(
        modules[k], **{name: data.draw(values.filter(lambda v: v != old))})
    return dataclasses.replace(rack, modules=modules)


def changed_module_power(rack, data, name, values):
    """``rack`` with one drawn module's power overridden anew."""
    modules = list(rack.modules)
    k = data.draw(st.integers(0, len(modules) - 1))
    old = modules[k].power
    modules[k] = dataclasses.replace(
        modules[k], power_override=data.draw(
            values.filter(lambda v: v != old)))
    return dataclasses.replace(rack, modules=modules)


def changed_channel(rack, data, name, values):
    """``rack`` with its card channel's ``name`` set to a new value."""
    return dataclasses.replace(
        rack, channel=changed_field(rack.channel, data, name, values))


def changed_slot_count(rack, data, name, values):
    """``rack`` with slots added, or the last ones dropped."""
    count = data.draw(values.filter(lambda n: n != len(rack.modules)))
    modules = [rack.modules[i % len(rack.modules)]
               for i in range(count)]
    return dataclasses.replace(rack, modules=modules)


def changed_package_mass(board, data, name, values):
    """``board`` with one component swapped to a package of other mass."""
    parts = list(board.components)
    k = data.draw(st.integers(0, len(parts) - 1))
    mass = parts[k].package.mass
    parts[k] = dataclasses.replace(parts[k], package=data.draw(
        values.filter(lambda p: p.mass != mass)))
    return dataclasses.replace(board, components=parts)


LEVEL1_INPUTS = {"total_power": st.floats(1.0, 500.0),
                 "ambient": st.floats(220.0, 360.0)}
LEVEL1_INPUTS.update(
    (f.name, st.floats(1e-3, 2.0) if f.name != "shell_emissivity"
     else st.floats(0.05, 1.0))
    for f in dataclasses.fields(ModuleEnvelope))

LEVEL2_CHANGES = {
    "module power": (changed_module_power, None, st.floats(0.0, 80.0)),
    "module name": (changed_module, "name", st.text(min_size=1)),
    "slot count": (changed_slot_count, None, st.integers(1, 6)),
    "card_height": (changed_channel, "card_height", st.floats(0.05, 0.4)),
    "card_depth": (changed_channel, "card_depth", st.floats(0.05, 0.5)),
    "channel_gap": (changed_channel, "channel_gap", st.floats(1e-3, 0.02)),
    "supply_temperature": (changed_field, "supply_temperature",
                           st.floats(220.0, 360.0)),
    "series_fraction": (changed_field, "series_fraction",
                        st.floats(0.0, 1.0)),
}

MECHANICAL_BOARD_CHANGES = {
    "length": (changed_field, st.floats(0.15, 0.4)),
    "width": (changed_field, st.floats(0.1, 0.3)),
    "thickness": (changed_field, st.floats(5e-4, 4e-3)),
    "component mass": (changed_package_mass,
                       st.sampled_from(sorted(PACKAGE_FAMILIES.values(),
                                              key=lambda p: p.name))),
}

MECHANICAL_SPEC_CHANGES = {
    "vibration_curve_name": st.sampled_from(curve_names()),
    "frequency_allocation": st.one_of(st.none(), st.builds(
        lambda low, span: FrequencyAllocation(low, low + span),
        st.floats(10.0, 800.0), st.floats(1.0, 500.0))),
    "mission_vibration_hours": st.floats(1.0, 1e5),
}


def board_rack(board):
    """Two slots carrying ``board``, with a specification."""
    rack = Rack(name="keys")
    for slot in range(2):
        rack.add_module(Module(name=f"m{slot + 1}", pcb=board))
    return rack, PackagingSpecification(name="keys")


class TestLevel1Key:
    @pytest.mark.parametrize("change", sorted(LEVEL1_INPUTS))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_any_input_changes_the_key(self, change, data):
        envelope = ModuleEnvelope()
        inputs = {"total_power": 120.0, "ambient": 313.15}
        values = LEVEL1_INPUTS[change]
        if change in inputs:
            old = inputs[change]
            inputs[change] = data.draw(values.filter(lambda v: v != old))
            changed = envelope
        else:
            changed = changed_field(envelope, data, change, values)
        base = key_of(run_level1, 120.0, envelope, 313.15)
        assert key_of(run_level1, inputs["total_power"], changed,
                      inputs["ambient"]) != base


class TestLevel2Key:
    @pytest.mark.parametrize("change", sorted(LEVEL2_CHANGES))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_any_input_changes_the_key(self, change, data):
        rack, _ = Candidate(n_modules=3).build()
        change_of, name, values = LEVEL2_CHANGES[change]
        changed = change_of(rack, data, name, values)
        assert key_of(run_level2, changed) != key_of(run_level2, rack)

    @settings(max_examples=15, deadline=None)
    @given(limit=st.floats(300.0, 420.0))
    def test_board_limit_changes_the_key(self, limit):
        rack, _ = Candidate().build()
        assume(limit != BOARD_LIMIT)
        assert key_of(run_level2, rack, limit) \
            != key_of(run_level2, rack, BOARD_LIMIT)


class TestMechanicalKey:
    @pytest.mark.parametrize("change", sorted(MECHANICAL_BOARD_CHANGES))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_any_board_input_changes_the_key(self, change, data):
        rack, spec = board_rack(base_board())
        change_of, values = MECHANICAL_BOARD_CHANGES[change]
        changed, _ = board_rack(change_of(base_board(), data, change,
                                          values))
        assert key_of(run_mechanical_branch, changed, spec) \
            != key_of(run_mechanical_branch, rack, spec)

    @pytest.mark.parametrize("change", sorted(MECHANICAL_SPEC_CHANGES))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_any_requirement_changes_the_key(self, change, data):
        rack, spec = board_rack(base_board())
        changed = changed_field(spec, data, change,
                                MECHANICAL_SPEC_CHANGES[change])
        assert key_of(run_mechanical_branch, rack, changed) \
            != key_of(run_mechanical_branch, rack, spec)

    @settings(max_examples=15, deadline=None)
    @given(length=st.floats(1e-3, 0.05),
           kind=st.sampled_from(sorted(COMPONENT_CONSTANTS)))
    def test_critical_component_changes_the_key(self, length, kind):
        rack, spec = board_rack(base_board())
        assume((length, kind) != (0.02, "smt_gullwing"))
        assert key_of(run_mechanical_branch, rack, spec, length, kind) \
            != key_of(run_mechanical_branch, rack, spec)


class TestProcedureKeys:
    @settings(max_examples=8, deadline=None)
    @given(candidate=st.builds(
        Candidate, power_per_module=st.floats(5.0, 60.0),
        n_modules=st.integers(1, 4), series_fraction=st.floats(0.0, 1.0),
        form_factor=st.sampled_from(sorted(ATR_WIDTHS))))
    def test_direct_calls_and_the_procedure_share_keys(self, candidate):
        rack, spec = candidate.build()
        cache = SolverCache()
        run_design_procedure(rack, spec, cache=cache)
        assert key_of(run_level1, rack.total_power,
                      rack.modules[0].envelope,
                      spec.category.operating_high) in cache
        assert key_of(run_level2, rack) in cache
        assert key_of(run_mechanical_branch, rack, spec) in cache


def solver_operator_key(model, h_top, h_bottom):
    """The generic conduction solver's key for the model's operator."""
    solver = ConductionSolver(model.grid)
    solver.set_boundary("z_max", BoundaryCondition("convection", h_top))
    solver.set_boundary("z_min", BoundaryCondition("convection", h_bottom))
    return solver.operator_key()


small_layups = st.builds(
    lambda length, width, thickness, layers, coverage, power: Pcb(
        length, width, thickness, layers, coverage, components=[
            Component("u1", get_package("bga_23mm"), power,
                      (length / 2, width / 2))]),
    st.sampled_from((0.15, 0.2)), st.sampled_from((0.1, 0.12)),
    st.sampled_from((1.6e-3, 2.4e-3)), st.sampled_from((2, 4)),
    st.sampled_from((0.3, 0.5)), st.sampled_from((1.0, 3.0)))
film_pairs = st.tuples(st.sampled_from((10.0, 15.0)),
                       st.sampled_from((10.0, 15.0)))


class TestOperatorKey:
    @settings(max_examples=60, deadline=None)
    @given(boards=st.tuples(small_layups, small_layups),
           films=st.tuples(film_pairs, film_pairs))
    def test_scalar_key_agrees_with_the_field_key(self, boards, films):
        models = [PcbDetailModel(board) for board in boards]
        scalar = [model.operator_key(*pair)
                  for model, pair in zip(models, films)]
        fields_ = [solver_operator_key(model, *pair)
                   for model, pair in zip(models, films)]
        assert (scalar[0] == scalar[1]) == (fields_[0] == fields_[1])

    def test_shared_key_shares_one_factorization(self):
        clear_factor_cache()
        boards = [Candidate(power_per_module=p).board() for p in (10.0, 30.0)]
        before = perf.stats("conduction.steady")
        for board in boards:
            PcbDetailModel(board).junction_rises(15.0, 15.0)
        after = perf.stats("conduction.steady")
        assert after.factorizations - before.factorizations == 1
        assert after.factorization_reuses \
            - before.factorization_reuses == 1

"""Supervision: retry/escalation policies, degradation, recovery trails."""

import math

import pytest

from avipack.core.levels import degraded_level3, run_pyramid
from avipack.errors import (
    ConvergenceError,
    InputError,
    ModelRangeError,
)
from avipack.resilience import (
    DEFAULT_NETWORK_ESCALATION,
    NO_SUPERVISION,
    EscalationStep,
    FaultPlan,
    FaultSpec,
    Supervisor,
    SupervisionPolicy,
    solve_network,
)
from avipack.resilience import faults
from avipack.sweep import Candidate
from avipack.thermal.network import ThermalNetwork


def ill_conditioned_network(k=0.12, heat_load=50.0):
    """Two-node network whose fixed-point map is unstable at the default
    relaxation: chip-to-ambient conductance grows exponentially with the
    chip temperature, so the undamped update overshoots harder the
    closer it gets.  Steeper ``k`` needs deeper relaxation to converge
    (k=0.08 recovers on the ladder's first escalation, k=0.12 only on
    the deepest rung)."""
    net = ThermalNetwork()
    net.add_node("chip", heat_load=heat_load)
    net.add_node("ambient", fixed_temperature=300.0)
    net.add_conductance(
        "chip", "ambient",
        lambda t_hot, t_cold, k=k: math.exp(k * (t_hot - 350.0)))
    return net


class TestNonConvergencePath:
    def test_bare_solve_raises_with_diagnostics(self):
        net = ill_conditioned_network()
        with pytest.raises(ConvergenceError) as excinfo:
            net.solve()
        exc = excinfo.value
        assert exc.iterations == 200
        assert exc.residual > 0.0
        assert set(exc.last_iterate) == {"chip", "ambient"}
        assert exc.last_iterate["ambient"] == pytest.approx(300.0)

    def test_oscillating_network_with_no_relaxation_margin(self):
        # relaxation=1.0 applies the full unstable update every pass:
        # the iterate ping-pongs around the root forever.
        net = ill_conditioned_network(k=0.08)
        with pytest.raises(ConvergenceError):
            net.solve(relaxation=1.0)

    def test_starved_iteration_budget(self):
        net = ill_conditioned_network(k=0.08)
        with pytest.raises(ConvergenceError) as excinfo:
            net.solve(relaxation=0.175, max_iterations=3)
        assert excinfo.value.iterations == 3

    def test_invalid_relaxation_is_input_error_not_convergence(self):
        net = ill_conditioned_network()
        with pytest.raises(InputError):
            net.solve(relaxation=0.0)

    def test_warm_start_seeds_named_nodes(self):
        # Warm-started near the root, even one iteration's update is
        # already inside tolerance at deep relaxation.
        net = ill_conditioned_network(k=0.08)
        solution = net.solve(relaxation=0.175,
                             initial_temperatures={"chip": 350.0,
                                                   "ignored_node": 999.0})
        assert solution.temperature("chip") == pytest.approx(350.0, abs=0.1)


class TestNetworkEscalation:
    def test_default_ladder_recovers_mildly_unstable_network(self):
        supervisor = Supervisor()
        solution = solve_network(ill_conditioned_network(k=0.08),
                                 supervisor=supervisor)
        assert solution.temperature("chip") == pytest.approx(350.0, abs=0.5)
        trail, = supervisor.trails
        assert trail.recovered
        assert trail.site == "thermal.network.solve"
        assert trail.attempts[0].error_type == "ConvergenceError"
        assert trail.attempts[-1].ok
        assert "warm-start" in trail.attempts[-1].action

    def test_deep_rung_needed_for_steeper_network(self):
        supervisor = Supervisor()
        solution = solve_network(ill_conditioned_network(k=0.12),
                                 supervisor=supervisor)
        assert solution.temperature("chip") == pytest.approx(350.0, abs=0.5)
        trail = supervisor.trails[0]
        assert trail.n_attempts == 3
        assert trail.attempts[-1].action.startswith("deep_relaxation")
        assert trail.recovered and not trail.degraded

    def test_clean_solve_leaves_no_trail(self):
        net = ThermalNetwork()
        net.add_node("chip", heat_load=10.0)
        net.add_node("ambient", fixed_temperature=300.0)
        net.add_resistance("chip", "ambient", 2.0)
        supervisor = Supervisor()
        solution = solve_network(net, supervisor=supervisor)
        assert solution.temperature("chip") == pytest.approx(320.0)
        assert supervisor.trails == ()

    def test_exhausted_ladder_reraises_and_records_failure(self):
        supervisor = Supervisor()
        ladder = (EscalationStep("baseline"),)
        with pytest.raises(ConvergenceError):
            solve_network(ill_conditioned_network(), escalation=ladder,
                          supervisor=supervisor)
        trail = supervisor.trails[0]
        assert not trail.resolved
        assert trail.n_attempts == 1

    def test_supervisor_method_uses_policy_ladder(self):
        supervisor = Supervisor(SupervisionPolicy(
            network_escalation=DEFAULT_NETWORK_ESCALATION))
        solution = supervisor.solve_network(ill_conditioned_network(k=0.08))
        assert solution.temperature("chip") == pytest.approx(350.0, abs=0.5)

    def test_no_supervision_policy_fails_like_bare_solve(self):
        supervisor = Supervisor(NO_SUPERVISION)
        with pytest.raises(ConvergenceError):
            supervisor.solve_network(ill_conditioned_network(k=0.08))


class TestSupervisorCall:
    def test_transient_failure_retried_and_recorded(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 2:
                raise ConvergenceError("transient", iterations=5)
            return "ok"

        supervisor = Supervisor()
        assert supervisor.call("site", flaky) == "ok"
        assert len(calls) == 2
        trail = supervisor.trails[0]
        assert trail.recovered
        assert [a.outcome for a in trail.attempts] == ["failed", "ok"]

    def test_retry_budget_exhaustion_raises_last_error(self):
        supervisor = Supervisor(SupervisionPolicy(max_retries=1))

        def always_bad():
            raise ConvergenceError("still bad")

        with pytest.raises(ConvergenceError):
            supervisor.call("site", always_bad)
        trail = supervisor.trails[0]
        assert trail.n_attempts == 2  # call + one retry
        assert not trail.resolved

    def test_non_retryable_error_goes_to_fallback_immediately(self):
        calls = []

        def broken():
            calls.append(1)
            raise ModelRangeError("out of range")

        supervisor = Supervisor()
        value = supervisor.call("site", broken,
                                fallback=lambda exc: "degraded-value",
                                fallback_label="degrade")
        assert value == "degraded-value"
        assert len(calls) == 1  # no retries burned on a non-retryable
        trail = supervisor.trails[0]
        assert trail.degraded and not trail.recovered
        assert trail.attempts[-1].action == "degrade"

    def test_foreign_exception_propagates_untouched(self):
        supervisor = Supervisor()
        with pytest.raises(ZeroDivisionError):
            supervisor.call("site", lambda: 1 / 0,
                            fallback=lambda exc: "never")
        assert supervisor.trails == ()  # bugs are not recovery events

    def test_failed_fallback_reraises_fallback_error(self):
        supervisor = Supervisor(SupervisionPolicy(max_retries=0))

        def bad_fallback(exc):
            raise ModelRangeError("fallback broken too")

        with pytest.raises(ModelRangeError):
            supervisor.call("site", lambda: (_ for _ in ()).throw(
                ConvergenceError("x")), fallback=bad_fallback)
        assert not supervisor.trails[0].resolved

    def test_clean_call_records_nothing(self):
        supervisor = Supervisor()
        assert supervisor.call("site", lambda: 7) == 7
        assert supervisor.trails == ()


class TestDegradedLevel3:
    def test_junctions_follow_board_plus_package_rise(self):
        pcb = Candidate().board()
        boundary = 340.0
        result = degraded_level3(pcb, boundary)
        assert result.degraded
        for component in pcb.components:
            expected = component.junction_temperature_from_board(boundary)
            assert result.junction_temperatures[component.name] \
                == pytest.approx(expected)
        assert result.max_junction \
            == pytest.approx(max(result.junction_temperatures.values()))

    def test_violations_against_junction_limit(self):
        pcb = Candidate(power_per_module=40.0).board()
        hot = degraded_level3(pcb, 500.0)
        assert hot.violations  # every junction blows the 125 degC rule
        assert not hot.compliant
        cool = degraded_level3(pcb, 310.0)
        assert cool.compliant

    def test_rejects_bad_boundary(self):
        with pytest.raises(InputError):
            degraded_level3(Candidate().board(), -5.0)


class TestSupervisedPyramid:
    def test_unsupervised_pyramid_unchanged(self):
        rack, _ = Candidate().build()
        result = run_pyramid(rack)
        assert not result.degraded
        assert all(not lv3.degraded for lv3 in result.level3.values())

    def test_supervised_pyramid_matches_unsupervised_when_healthy(self):
        rack, _ = Candidate().build()
        plain = run_pyramid(rack)
        supervisor = Supervisor()
        supervised = run_pyramid(rack, supervisor=supervisor)
        assert supervised.level2.worst_board_temperature \
            == pytest.approx(plain.level2.worst_board_temperature)
        assert supervisor.trails == ()
        assert not supervised.degraded

    def test_unsupervised_pyramid_propagates_level2_failure(self):
        rack, _ = Candidate().build()
        plan = FaultPlan(specs=(FaultSpec("levels.level2", "convergence"),))
        faults.install(plan)
        with pytest.raises(ConvergenceError, match="injected"):
            run_pyramid(rack)

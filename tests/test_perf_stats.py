"""Tests for the solver instrumentation layer (avipack.perf).

Covers the SolveStats arithmetic, the process-global registry, the
factorization-reuse counters the compiled solver core is expected to
hit, compilation invalidation on structural mutation, and the
PERFORMANCE section of the sweep report.
"""

import ast
import pathlib
import pickle

import pytest

from avipack import perf
from avipack.errors import InputError
from avipack.perf import SolveStats, format_stats
from avipack.sweep.cache import CacheStats
from avipack.sweep.report import SweepReport, render_sweep_document
from avipack.thermal.network import ThermalNetwork
from avipack.thermal.transient import TransientNetworkSolver

PACKAGE = pathlib.Path(perf.__file__).resolve().parent


@pytest.fixture(autouse=True)
def clean_registry():
    perf.reset()
    yield
    perf.reset()


def linear_network():
    net = ThermalNetwork()
    net.add_node("sink", fixed_temperature=300.0)
    net.add_node("a", heat_load=3.0, capacitance=30.0)
    net.add_node("b", heat_load=1.0, capacitance=50.0)
    net.add_resistance("a", "sink", 10.0)
    net.add_resistance("b", "a", 4.0)
    return net


class TestSolveStats:
    def test_merged_sums_counters(self):
        a = SolveStats("k", assemblies=2, factorizations=1, wall_s=0.5)
        b = SolveStats("k", assemblies=1, factorization_reuses=3,
                       iterations=7, wall_s=0.25)
        m = a.merged(b)
        assert m.assemblies == 3
        assert m.factorizations == 1
        assert m.factorization_reuses == 3
        assert m.iterations == 7
        assert m.wall_s == pytest.approx(0.75)

    def test_minus_is_inverse_of_merged(self):
        a = SolveStats("k", solves=5, factorizations=2)
        b = SolveStats("k", solves=3, factorizations=2,
                       factorization_reuses=1)
        assert a.merged(b).minus(a) == b

    def test_kernel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SolveStats("a").merged(SolveStats("b"))
        with pytest.raises(ValueError):
            SolveStats("a").minus(SolveStats("b"))

    def test_empty_and_reuse_rate(self):
        assert SolveStats("k").empty
        assert not SolveStats("k", solves=1).empty
        assert SolveStats("k").reuse_rate == 0.0
        s = SolveStats("k", factorizations=1, factorization_reuses=3)
        assert s.reuse_rate == pytest.approx(0.75)

    def test_pickles_cleanly(self):
        s = SolveStats("network.steady", solves=2, wall_s=0.1)
        assert pickle.loads(pickle.dumps(s)) == s


class TestRegistry:
    def test_record_accumulates(self):
        perf.record("network.steady", solves=1, iterations=4)
        perf.record("network.steady", solves=1, iterations=6,
                    factorizations=1)
        s = perf.stats("network.steady")
        assert s.solves == 2
        assert s.iterations == 10
        assert s.factorizations == 1

    def test_unknown_kernel_is_zero(self):
        assert perf.stats("nope").empty

    def test_reset_single_kernel(self):
        perf.record("conduction.steady", solves=1)
        perf.record("network.steady", solves=1)
        perf.reset("conduction.steady")
        assert perf.stats("conduction.steady").empty
        assert perf.stats("network.steady").solves == 1

    def test_delta_since_omits_unchanged(self):
        perf.record("conduction.steady", solves=1)
        before = perf.snapshot()
        perf.record("network.steady", solves=2)
        deltas = perf.delta_since(before)
        assert [d.kernel for d in deltas] == ["network.steady"]
        assert deltas[0].solves == 2

    def test_delta_since_orders_by_kernel(self):
        before = perf.snapshot()
        perf.record("network.steady", solves=1)
        perf.record("conduction.steady", solves=1)
        assert [d.kernel for d in perf.delta_since(before)] \
            == ["conduction.steady", "network.steady"]

    def test_aggregate_merges_by_kernel(self):
        groups = [
            (SolveStats("a", solves=1), SolveStats("b", iterations=5)),
            (SolveStats("a", solves=2, factorization_reuses=1),),
        ]
        merged = perf.aggregate(groups)
        assert [s.kernel for s in merged] == ["a", "b"]
        assert merged[0].solves == 3
        assert merged[0].factorization_reuses == 1

    def test_timed_adds_wall_time(self):
        with perf.timed("service.job"):
            pass
        assert perf.stats("service.job").wall_s >= 0.0
        assert perf.stats("service.job").solves == 0

    def test_undeclared_names_are_rejected(self):
        with pytest.raises(InputError, match="KERNELS"):
            perf.record("k", solves=1)
        ran = []
        with pytest.raises(InputError, match="KERNELS"):
            with perf.timed("k"):
                ran.append(True)
        assert ran == []
        with pytest.raises(InputError, match="COUNTERS"):
            perf.increment("results.ghost")
        assert perf.snapshot() == {} and perf.counters() == {}

    def test_every_declared_name_is_spelled_out_at_a_call_site(self):
        literals = set()
        for path in PACKAGE.rglob("*.py"):
            if path.name == "perf.py" and path.parent == PACKAGE:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Constant) \
                        and isinstance(node.value, str):
                    literals.add(node.value)
        declared = set(perf.KERNELS) | set(perf.COUNTERS)
        assert declared - literals == set()


class TestNetworkCounters:
    def test_linear_network_factorizes_once(self):
        net = linear_network()
        for _ in range(5):
            net.solve()
        s = perf.stats("network.steady")
        assert s.compilations == 1
        assert s.assemblies == 1
        assert s.factorizations == 1
        assert s.factorization_reuses == 4
        assert s.solves == 5
        assert s.iterations == 5

    def test_mutation_invalidates_compilation(self):
        net = linear_network()
        assert net.solve().temperature("a") == pytest.approx(340.0)
        net.add_heat_load("a", 1.0)
        sol = net.solve()
        s = perf.stats("network.steady")
        assert s.compilations == 2
        assert s.factorizations == 2
        # 4 W through 10 K/W to a 300 K sink.
        assert sol.temperature("a") == pytest.approx(340.0 + 10.0)

    def test_nonlinear_network_assembles_per_iteration(self):
        net = ThermalNetwork()
        net.add_node("sink", fixed_temperature=300.0)
        net.add_node("hot", heat_load=5.0)
        net.add_conductance("hot", "sink",
                            lambda a, b: 0.1 + 1e-4 * (a + b))
        sol = net.solve()
        s = perf.stats("network.steady")
        assert sol.iterations > 1
        assert s.assemblies == sol.iterations
        assert s.factorizations == sol.iterations
        assert s.factorization_reuses == 0

    def test_transient_constant_conductance_reuses_lu(self):
        net = linear_network()
        solver = TransientNetworkSolver(net)
        solver.integrate(duration=100.0, time_step=1.0)
        s = perf.stats("network.transient")
        assert s.factorizations == 1
        assert s.factorization_reuses == 99
        # A second run at the same step size reuses the same handle.
        solver.integrate(duration=100.0, time_step=1.0)
        s = perf.stats("network.transient")
        assert s.factorizations == 1
        assert s.factorization_reuses == 199
        # A different step size means a different operator.
        solver.integrate(duration=100.0, time_step=2.0)
        assert perf.stats("network.transient").factorizations == 2


class TestReportRendering:
    def test_performance_section_renders(self):
        records = (SolveStats("network.steady", solves=3, iterations=12,
                              assemblies=1, factorizations=1,
                              factorization_reuses=2, wall_s=0.004),)
        report = SweepReport(outcomes=(), wall_time_s=0.1, mode="serial",
                            workers=1, cache=CacheStats(hits=0, misses=0, entries=0), perf=records)
        doc = render_sweep_document(report)
        assert "4. PERFORMANCE" in doc
        assert "network.steady" in doc
        assert "factorization reuse" in doc

    def test_performance_numbered_after_recovery(self):
        # With recovery content present, RECOVERY stays section 4 (other
        # suites assert that literal) and PERFORMANCE becomes 5.
        from avipack.sweep.runner import CandidateFailure
        from avipack.sweep.space import Candidate
        failure = CandidateFailure(
            index=0, candidate=Candidate(), fingerprint="f",
            stage="watchdog", error_type="WatchdogTimeout",
            message="timed out", elapsed_s=1.0, worker_pid=0)
        report = SweepReport(
            outcomes=(failure,), wall_time_s=0.1, mode="serial",
            workers=1, cache=CacheStats(hits=0, misses=0, entries=0),
            perf=(SolveStats("network.steady", solves=1),))
        doc = render_sweep_document(report)
        assert "4. RECOVERY" in doc
        assert "5. PERFORMANCE" in doc

    def test_no_perf_records_no_section(self):
        report = SweepReport(outcomes=(), wall_time_s=0.1, mode="serial",
                             workers=1, cache=CacheStats(hits=0, misses=0, entries=0))
        assert "PERFORMANCE" not in render_sweep_document(report)

    def test_format_stats_alignment(self):
        lines = format_stats([SolveStats("k", solves=1)])
        assert len(lines) == 1
        assert lines[0].startswith("k")

    def test_format_stats_accepts_snapshot_mapping(self):
        # format_stats(perf.snapshot()) is the natural interactive call;
        # mappings render in kernel-name order.
        lines = format_stats({"z.kernel": SolveStats("z.kernel", solves=2),
                              "a.kernel": SolveStats("a.kernel", solves=1)})
        assert len(lines) == 2
        assert lines[0].startswith("a.kernel")
        assert lines[1].startswith("z.kernel")


class TestSweepCarriesPerf:
    def test_serial_sweep_aggregates_kernel_deltas(self):
        from avipack.sweep import DesignSpace, SweepRunner
        space = DesignSpace({"power_per_module": (10.0, 20.0)})
        report = SweepRunner(parallel=False).run(space)
        assert report.perf, "sweep should surface solver counters"
        kernels = {s.kernel for s in report.perf}
        assert kernels <= {"network.steady", "network.transient",
                           "conduction.steady"}
        assert all(not s.empty for s in report.perf)


class TestCompiledStatePickling:
    def test_network_pickles_after_solve(self):
        net = linear_network()
        net.solve()
        clone = pickle.loads(pickle.dumps(net))
        assert clone.solve().temperature("a") == pytest.approx(340.0)

    def test_transient_solver_pickles_after_integrate(self):
        net = linear_network()
        solver = TransientNetworkSolver(net)
        solver.integrate(duration=10.0, time_step=1.0)
        clone = pickle.loads(pickle.dumps(solver))
        result = clone.integrate(duration=10.0, time_step=1.0)
        assert result.final("b") > 0.0


class TestInvalidInputsUnchanged:
    def test_negative_callable_still_raises(self):
        net = ThermalNetwork()
        net.add_node("sink", fixed_temperature=300.0)
        net.add_node("a", heat_load=1.0)
        net.add_conductance("a", "sink", lambda a, b: -1.0)
        with pytest.raises(InputError, match="negative"):
            net.solve()

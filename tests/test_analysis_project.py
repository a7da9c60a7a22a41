"""Unit tests for the call graph (:mod:`avipack.analysis.project`)
and the path-enumeration primitives (:mod:`avipack.analysis.flow`).
"""

from __future__ import annotations

import ast
import textwrap

from avipack.analysis import FileContext
from avipack.analysis.flow import enumerate_paths, must_precede
from avipack.analysis.project import ProjectGraph, graph_of, summarize


def ctx_of(rel_path, source):
    return FileContext.parse(rel_path, textwrap.dedent(source))


def graph_from(sources):
    """Build a ProjectGraph from {rel_path: source}."""
    return ProjectGraph([summarize(ctx_of(path, src))
                         for path, src in sources.items()])


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

class TestSummarize:
    def test_module_name_and_imports(self):
        summary = summarize(ctx_of("src/avipack/sweep/runner.py", """
            import os
            import numpy as np
            from ..durability import SweepJournal
            from avipack.results import ResultStore
        """))
        assert summary.module == "avipack.sweep.runner"
        assert summary.bindings["os"] == "os"
        assert summary.bindings["SweepJournal"] \
            == "avipack.durability:SweepJournal"  # relative resolved
        assert summary.bindings["ResultStore"] \
            == "avipack.results:ResultStore"
        assert summary.bindings["np"] == "numpy"

    def test_blocking_ops_and_async_flag(self):
        summary = summarize(ctx_of("src/avipack/mod.py", """
            import time

            async def tick():
                time.sleep(0.1)

            def pace():
                time.sleep(0.1)
        """))
        tick = summary.functions["tick"]
        assert tick.is_async
        assert len(tick.blocking) == 1
        assert "time.sleep" in tick.blocking[0].description
        assert not summary.functions["pace"].is_async

    def test_method_calls_resolved_through_attr_types(self):
        summary = summarize(ctx_of("src/avipack/svc.py", """
            from avipack.jobs import JobStore

            class Service:
                def __init__(self, path):
                    self.store = JobStore(path)

                def persist(self, job):
                    self.store.save(job)
        """))
        assert summary.attr_types["Service.store"] == "avipack.jobs:JobStore"
        calls = summary.functions["Service.persist"].calls
        assert [c.ref for c in calls] == ["avipack.jobs:JobStore.save"]
        assert calls[0].display == "self.store.save"

    def test_unresolvable_calls_are_dropped(self):
        summary = summarize(ctx_of("src/avipack/mod.py", """
            def run(thing):
                thing.spin()
                mystery()
        """))
        assert summary.functions["run"].calls == ()

# ---------------------------------------------------------------------------
# Call graph / blocking chains
# ---------------------------------------------------------------------------

class TestBlockingChain:
    def test_cross_module_chain_with_witness(self):
        graph = graph_from({
            "src/avipack/store.py": """
import os

def save(path):
    os.fsync(3)
""",
            "src/avipack/svc.py": """
from avipack.store import save

async def run(path):
    save(path)
""",
        })
        chain = graph.blocking_chain("avipack.store:save")
        assert chain is not None
        assert chain[0] == "avipack.store:save"
        assert "os.fsync" in chain[-1]

    def test_async_callee_breaks_the_chain(self):
        graph = graph_from({
            "src/avipack/mod.py": """
import os

async def inner(path):
    os.fsync(3)

def outer(path):
    return inner(path)
""",
        })
        # outer only creates the coroutine; it never blocks itself.
        assert graph.blocking_chain("avipack.mod:outer") is None

    def test_recursion_terminates(self):
        graph = graph_from({
            "src/avipack/mod.py": """
def ping(n):
    return pong(n)

def pong(n):
    return ping(n)
""",
        })
        assert graph.blocking_chain("avipack.mod:ping") is None

    def test_graph_of_falls_back_to_single_file(self):
        ctx = ctx_of("src/avipack/mod.py", """
            import time

            def pace():
                time.sleep(1)
        """)
        graph, summary = graph_of(ctx)
        assert summary.module == "avipack.mod"
        assert graph.blocking_chain("avipack.mod:pace") is not None

# ---------------------------------------------------------------------------
# Flow primitives
# ---------------------------------------------------------------------------

def paths_of(source):
    tree = ast.parse(textwrap.dedent(source))
    func = tree.body[0]

    def events_of(node):
        for child in ast.walk(node):
            if isinstance(child, ast.Call) \
                    and isinstance(child.func, ast.Name):
                yield child.func.id
    return enumerate_paths(func.body, events_of)


class TestFlow:
    def test_if_explores_both_branches(self):
        paths = paths_of("""
            def f(x):
                if x:
                    a()
                else:
                    b()
                c()
        """)
        assert sorted(paths) == [("a", "c"), ("b", "c")]

    def test_return_terminates_a_path(self):
        paths = paths_of("""
            def f(x):
                if x:
                    return a()
                b()
        """)
        assert sorted(paths) == [("a",), ("b",)]

    def test_try_handler_entered_with_empty_prefix(self):
        paths = paths_of("""
            def f(x):
                try:
                    a()
                except ValueError:
                    b()
                finally:
                    c()
        """)
        assert ("a", "c") in paths
        assert ("b", "c") in paths  # handler path: a() may never run

    def test_loop_runs_zero_and_one_times(self):
        paths = paths_of("""
            def f(xs):
                for x in xs:
                    a()
                b()
        """)
        assert ("b",) in paths
        assert ("a", "b") in paths

    def test_overflow_returns_none(self):
        branches = "\n".join(
            f"    if x{i}:\n        a()\n    else:\n        b()"
            for i in range(12))
        source = "def f(**kw):\n" + branches + "\n    c()\n"
        tree = ast.parse(source)

        def events_of(node):
            return ()
        assert enumerate_paths(tree.body[0].body, events_of,
                               max_paths=16) is None

    def test_must_precede(self):
        paths = (("w", "f", "r"), ("w", "r"))
        violation = must_precede(paths,
                                 lambda e: e == "f", lambda e: e == "r")
        assert violation == "r"
        assert must_precede((("f", "r"),), lambda e: e == "f",
                            lambda e: e == "r") is None

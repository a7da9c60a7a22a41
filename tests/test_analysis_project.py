"""Unit tests for the call graph (:mod:`avipack.analysis.project`)."""

from __future__ import annotations

import ast
import textwrap

from avipack.analysis import FileContext
from avipack.analysis.project import (
    ProjectGraph,
    call_target,
    graph_of,
    summarize,
)


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

    def test_call_target_resolves_through_bindings(self):
        ctx = ctx_of("src/avipack/mod.py", """
            import os as system
            from os import replace as swap

            swap("a", "b")
            system.fsync(3)
            os.rename("a", "b")
            name.replace(".", "_")
            make()()
        """)
        bindings = summarize(ctx).bindings
        calls = [node for node in ctx.tree.body
                 if isinstance(node, ast.Expr)]
        assert [call_target(bindings, call.value) for call in calls] == [
            "os.replace", "os.fsync", "os.rename", "name.replace", None]

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

"""AVI008 — no blocking calls reachable from ``async def``.

The job service (PR 7) runs every heartbeat, deadline check and client
conversation on one asyncio event loop; the sweeps themselves run in a
thread pool.  One synchronous ``time.sleep``, ``fcntl`` lock, file
write or subprocess wait executed *on the loop* stalls every job's
supervision at once — the textbook integration failure the service
tests cannot reliably catch because it only shows up under load.

A syntactic check would stop at the async function's own body.  This
rule resolves calls through the project call graph
(:mod:`avipack.analysis.project`): an ``async def`` that calls a sync
helper which calls ``JobStore.save`` which calls ``os.fsync`` is
flagged at the original call site, with the full witness chain in the
message.  The resolution is conservative, which keeps the exemptions
structural rather than annotated:

* handing a callable to an executor (``loop.run_in_executor(None,
  fn)``, ``asyncio.to_thread(fn)``) passes ``fn`` as an argument — it
  is never a *call site*, so nothing is reported;
* awaiting another coroutine only creates/schedules it — calls whose
  target is itself ``async`` are skipped (the target's own body is
  judged separately);
* unresolvable calls are ignored, never guessed.
"""

from __future__ import annotations

from typing import Iterable

from ..context import FileContext
from ..findings import Finding, Severity
from ..project import ProjectGraph, graph_of
from . import Rule, register

__all__ = ["AVI008BlockingInAsync"]

_SUGGESTION = ("run the blocking work in an executor "
               "(loop.run_in_executor / asyncio.to_thread)")


@register
class AVI008BlockingInAsync(Rule):
    """Flag blocking operations reachable from async functions."""

    rule_id = "AVI008"
    name = "async-blocking-call"
    severity = Severity.ERROR

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        graph, summary = graph_of(ctx)
        if not isinstance(graph, ProjectGraph) or not summary.module:
            return
        for qualname, fn in sorted(summary.functions.items()):
            if not fn.is_async:
                continue
            for op in fn.blocking:
                yield Finding(
                    rule_id=self.rule_id, severity=self.severity,
                    path=ctx.rel_path, line=op.line, column=op.column,
                    message=(f"blocking operation on the event loop: "
                             f"{op.description}"),
                    suggestion=_SUGGESTION, symbol=qualname)
            for call in fn.calls:
                callee = graph.function(call.ref)
                if callee is None or callee.is_async:
                    continue
                chain = graph.blocking_chain(call.ref)
                if chain is None:
                    continue
                witness = " -> ".join(chain[:-1])
                yield Finding(
                    rule_id=self.rule_id, severity=self.severity,
                    path=ctx.rel_path, line=call.line, column=call.column,
                    message=(f"call to blocking sync code from an async "
                             f"function: {call.display}() reaches "
                             f"[{chain[-1]}] via {witness}"),
                    suggestion=_SUGGESTION, symbol=qualname)

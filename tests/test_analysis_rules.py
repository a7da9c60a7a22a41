"""Per-rule fixtures for :mod:`avipack.analysis` (AVI002-AVI008).

Every rule gets at least: one positive fixture proving it fires, one
negative fixture proving it stays quiet on conforming code, and one
suppressed fixture proving ``# avilint: disable=RULE`` silences it.
"""

from __future__ import annotations

import textwrap

import pytest

from avipack.analysis import AnalysisEngine, FileContext

IN_PACKAGE = "src/avipack/somemodule.py"
DURABILITY = "src/avipack/durability/files.py"
OUTSIDE = "scripts/tool.py"


def run_rules(source: str, path: str = IN_PACKAGE):
    """Raw findings of all registered rules over one source snippet."""
    source = textwrap.dedent(source)
    ctx = FileContext.parse(path, source)
    engine = AnalysisEngine()
    findings = []
    for rule in engine.rules:
        findings.extend(rule.check(ctx))
    return findings


def run_engine(source: str, path: str = IN_PACKAGE, tmp_path=None):
    """Full engine pass (suppressions applied) over one snippet on disk."""
    target = tmp_path / "snippet.py"
    target.write_text(textwrap.dedent(source))
    # Re-parse under the declarative path so path-scoped rules apply:
    # analyze the real file but present findings through a parsed context.
    engine = AnalysisEngine()
    ctx = FileContext.parse(path, target.read_text())
    raw = []
    for rule in engine.rules:
        raw.extend(rule.check(ctx))
    active, suppressed = engine._apply_suppressions(target.read_text(), raw)
    return active, suppressed


def rule_ids(findings):
    return sorted({finding.rule_id for finding in findings})


# ---------------------------------------------------------------------------
# AVI002 — error taxonomy
# ---------------------------------------------------------------------------

class TestAVI002:
    def test_fires_on_bare_builtin_raise(self):
        findings = run_rules("""
            def f(x):
                if x < 0:
                    raise ValueError("negative")
        """)
        assert rule_ids(findings) == ["AVI002"]
        assert "InputError" in findings[0].suggestion

    def test_fires_on_unpicklable_exception(self):
        findings = run_rules("""
            class SolverError(Exception):
                def __init__(self, message, iterations, residual):
                    super().__init__(message)
                    self.iterations = iterations
                    self.residual = residual
        """)
        assert rule_ids(findings) == ["AVI002"]
        assert "__reduce__" in findings[0].message

    def test_quiet_on_taxonomy_raise(self):
        findings = run_rules("""
            from avipack.errors import InputError

            def f(x):
                if x < 0:
                    raise InputError("negative")
        """)
        assert findings == []

    def test_quiet_outside_package_for_raises(self):
        findings = run_rules("""
            def f(x):
                raise ValueError("fine outside avipack")
        """, path=OUTSIDE)
        assert findings == []

    def test_quiet_when_reduce_defined(self):
        findings = run_rules("""
            class SolverError(Exception):
                def __init__(self, message, iterations=0):
                    super().__init__(message)
                    self.iterations = iterations

                def __reduce__(self):
                    return (self.__class__, (self.args[0], self.iterations))
        """)
        assert findings == []

    def test_quiet_on_message_only_init(self):
        findings = run_rules("""
            class SimpleError(Exception):
                def __init__(self, message):
                    super().__init__(message)
        """)
        assert findings == []

    def test_suppressed(self, tmp_path):
        active, suppressed = run_engine("""
            def f(x):
                raise ValueError("negative")  # avilint: disable=AVI002
        """, tmp_path=tmp_path)
        assert active == []
        assert rule_ids(suppressed) == ["AVI002"]


# ---------------------------------------------------------------------------
# AVI003 — worker-boundary pickle safety
# ---------------------------------------------------------------------------

class TestAVI003:
    def test_fires_on_lambda_into_pool(self):
        findings = run_rules("""
            def sweep(pool, items):
                return pool.submit(lambda x: x + 1, items)
        """)
        assert rule_ids(findings) == ["AVI003"]
        assert "lambda" in findings[0].message

    def test_fires_on_local_def_into_runner(self):
        findings = run_rules("""
            def sweep(space):
                def evaluate(task):
                    return task

                runner = SweepRunner(evaluator=evaluate)
                return runner.run(space)
        """)
        assert rule_ids(findings) == ["AVI003"]
        assert "evaluate" in findings[0].message

    def test_fires_on_local_class_into_executor_map(self):
        findings = run_rules("""
            def sweep(executor, items):
                class Payload:
                    pass

                return list(executor.map(Payload, items))
        """)
        assert rule_ids(findings) == ["AVI003"]

    def test_quiet_on_module_level_function(self):
        findings = run_rules("""
            def evaluate(task):
                return task

            def sweep(pool, items):
                return [pool.submit(evaluate, item) for item in items]
        """)
        assert findings == []

    def test_quiet_on_plain_map_builtin(self):
        findings = run_rules("""
            def transform(items):
                return list(map(lambda x: x + 1, items))
        """)
        assert findings == []

    def test_suppressed(self, tmp_path):
        active, suppressed = run_engine("""
            def sweep(pool, items):
                return pool.submit(lambda x: x, items)  # avilint: disable=AVI003
        """, tmp_path=tmp_path)
        assert active == []
        assert rule_ids(suppressed) == ["AVI003"]


# ---------------------------------------------------------------------------
# AVI006 — atomic persistence of on-disk documents
# ---------------------------------------------------------------------------

class TestAVI006:
    def test_fires_on_open_w_json_literal(self):
        findings = run_rules("""
            import json

            def save(payload):
                with open("state.json", "w") as stream:
                    json.dump(payload, stream)
        """)
        assert "AVI006" in rule_ids(findings)
        assert "torn" in findings[0].message

    def test_fires_on_json_dump_into_variable_path(self):
        findings = run_rules("""
            import json

            def save(path, payload):
                with open(path, "w", encoding="utf-8") as stream:
                    json.dump(payload, stream)
        """)
        assert rule_ids(findings) == ["AVI006"]

    def test_fires_on_write_text_of_json_dumps(self):
        findings = run_rules("""
            import json

            def save(path, payload):
                path.write_text(json.dumps(payload) + "\\n")
        """)
        assert rule_ids(findings) == ["AVI006"]

    def test_fires_on_jsonl_fstring_destination(self):
        findings = run_rules("""
            def save(stem, lines):
                with open(f"{stem}.records.jsonl", "w") as stream:
                    stream.writelines(lines)
        """)
        assert rule_ids(findings) == ["AVI006"]

    def test_fires_outside_the_package_too(self):
        findings = run_rules("""
            import json

            def save(payload):
                with open("bench.json", "w") as stream:
                    json.dump(payload, stream)
        """, path=OUTSIDE)
        assert rule_ids(findings) == ["AVI006"]

    # A correctly ordered hand-rolled publish: write, flush, fsync,
    # replace.  Only avipack/durability/ may spell it out.
    DURABLE_PUBLISH = """
        import os

        def save(path, payload):
            tmp = f"{path}.tmp.{os.getpid()}"
            with open(tmp, "wb") as stream:
                stream.write(payload)
                stream.flush()
                os.fsync(stream.fileno())
            os.replace(tmp, path)
    """

    def test_tmp_file_plus_os_replace_flagged_outside_durability(self):
        findings = run_rules(self.DURABLE_PUBLISH)
        assert rule_ids(findings) == ["AVI006"]
        assert sorted(f.message.split("()")[0] for f in findings) \
            == ["os.fsync", "os.replace"]
        assert "atomic_write" in findings[0].suggestion

    def test_full_durable_idiom_quiet_under_durability(self):
        assert run_rules(self.DURABLE_PUBLISH, path=DURABILITY) == []

    def test_fires_when_a_branch_skips_the_fsync(self):
        findings = run_rules("""
            import json
            import os

            def publish(path, payload, durable):
                tmp = f"{path}.tmp.{os.getpid()}"
                with open(tmp, "w", encoding="utf-8") as stream:
                    json.dump(payload, stream)
                    stream.flush()
                    if durable:
                        os.fsync(stream.fileno())
                os.replace(tmp, path)
        """)
        assert rule_ids(findings) == ["AVI006"]
        assert any(f.message.startswith("os.replace()") for f in findings)

    def test_fires_on_fsync_without_flush(self):
        findings = run_rules("""
            import json
            import os

            def publish(path, payload):
                tmp = f"{path}.tmp.{os.getpid()}"
                with open(tmp, "w", encoding="utf-8") as stream:
                    json.dump(payload, stream)
                    os.fsync(stream.fileno())
                os.replace(tmp, path)
        """)
        assert rule_ids(findings) == ["AVI006"]
        assert any(f.message.startswith("os.fsync()") for f in findings)

    def test_fires_on_rename_only_use_of_replace(self):
        findings = run_rules("""
            import os

            def quarantine(shard, graveyard):
                os.replace(shard, graveyard)
        """)
        assert rule_ids(findings) == ["AVI006"]
        assert findings[0].symbol == "quarantine"

    def test_fires_on_aliased_from_import(self):
        findings = run_rules("""
            from os import replace as swap

            def rotate(old, new):
                swap(old, new)
        """)
        assert rule_ids(findings) == ["AVI006"]
        assert findings[0].message.startswith("os.replace()")

    @pytest.mark.parametrize("call", [
        "os.rename(a, b)", "fcntl.flock(a, b)", "fcntl.lockf(a, b)",
        "tempfile.mkstemp(dir=a)"])
    def test_fires_on_every_durable_primitive(self, call):
        findings = run_rules(f"""
            import fcntl
            import os
            import tempfile

            def touch(a, b):
                {call}
        """, path=OUTSIDE)
        assert rule_ids(findings) == ["AVI006"]
        assert findings[0].message.startswith(call.split("(")[0] + "()")

    def test_quiet_on_lookalike_replace_and_rename(self):
        findings = run_rules("""
            import os

            def tidy(path, name, frame):
                os.path.join(path, name.replace(".", "_"))
                frame.rename(columns={"a": "b"})
        """)
        assert findings == []

    def test_suppressed_on_os_replace_line(self, tmp_path):
        active, suppressed = run_engine("""
            import os

            def rotate(old, new):
                os.replace(old, new)  # avilint: disable=AVI006
        """, tmp_path=tmp_path)
        assert active == []
        assert rule_ids(suppressed) == ["AVI006"]

    def test_quiet_on_append_mode(self):
        findings = run_rules("""
            def log(path, line):
                with open("events.jsonl", "ab") as stream:
                    stream.write(line)
        """)
        assert findings == []

    def test_quiet_on_read_and_scratch_writes(self):
        findings = run_rules("""
            import json

            def load(path):
                with open(path, "r", encoding="utf-8") as stream:
                    return json.load(stream)

            def scratch(path, text):
                with open(path, "w") as stream:
                    stream.write(text)
        """)
        assert findings == []

    def test_suppressed(self, tmp_path):
        active, suppressed = run_engine("""
            import json

            def save(payload):
                with open("state.json", "w") as stream:  # avilint: disable=AVI006
                    json.dump(payload, stream)
        """, tmp_path=tmp_path)
        assert active == []
        assert rule_ids(suppressed) == ["AVI006"]


# ---------------------------------------------------------------------------
# AVI008 — blocking calls reachable from async code
# ---------------------------------------------------------------------------

class TestAVI008:
    def test_fires_on_direct_blocking_call(self):
        findings = run_rules("""
            import time

            async def tick():
                time.sleep(0.1)
        """)
        assert rule_ids(findings) == ["AVI008"]
        assert "time.sleep" in findings[0].message
        assert findings[0].symbol == "tick"

    def test_fires_on_builtin_open_in_async(self):
        findings = run_rules("""
            async def slurp(path):
                with open(path) as stream:
                    return stream.read()
        """)
        assert rule_ids(findings) == ["AVI008"]
        assert "open()" in findings[0].message

    def test_fires_through_a_sync_helper(self):
        # Under durability/, where AVI006 allows the primitive.
        findings = run_rules("""
            import os

            def _publish(tmp, path):
                os.replace(tmp, path)

            async def persist(tmp, path):
                _publish(tmp, path)
        """, path=DURABILITY)
        assert rule_ids(findings) == ["AVI008"]
        assert "_publish" in findings[0].message
        assert "os.replace" in findings[0].message
        assert findings[0].symbol == "persist"

    def test_fires_through_a_method_chain(self):
        # Under durability/, where AVI006 allows the primitive.
        findings = run_rules("""
            import os

            class Store:
                def save(self, path):
                    os.fsync(3)

            class Service:
                def __init__(self, path):
                    self.store = Store()

                async def run(self, path):
                    self.store.save(path)
        """, path=DURABILITY)
        assert rule_ids(findings) == ["AVI008"]
        assert "self.store.save" in findings[0].message

    def test_quiet_on_executor_handoff(self):
        findings = run_rules("""
            import time

            def _work():
                time.sleep(1.0)

            async def handler(loop):
                await loop.run_in_executor(None, _work)
        """)
        assert findings == []

    def test_quiet_on_sync_caller(self):
        findings = run_rules("""
            import time

            def pace():
                time.sleep(0.1)
        """)
        assert findings == []

    def test_quiet_on_await_of_async_callee(self):
        findings = run_rules("""
            async def _helper():
                return 1

            async def outer():
                return await _helper()
        """)
        assert findings == []

    def test_suppressed(self, tmp_path):
        active, suppressed = run_engine("""
            import time

            async def tick():
                time.sleep(0.1)  # avilint: disable=AVI008
        """, tmp_path=tmp_path)
        assert active == []
        assert rule_ids(suppressed) == ["AVI008"]

"""Call probe: which ``src/avipack`` functions does a user path run?

Runs every user path of the project under a ``sys.setprofile`` hook and
lists the ``src/avipack`` functions, and the whole modules, that none of
them calls.  A user path is:

* each script under ``examples/``;
* the paper-figure and ablation tests under ``benchmarks/`` (every
  ``test_*.py`` except the ``*_performance.py`` timing suites);
* every ``python -m avipack`` command (``serve`` through the
  ``served_jobs`` workload, which drives a job server subprocess);
* the four workloads of the campaign benchmark, ``bench/run.py``;
* the static-analysis gate, ``python -m avipack.analysis src benchmarks
  examples``, and the same gate on a file with a finding.

The hook reaches every Python process those paths start: CLI and job
server subprocesses, and process-pool workers.  It is installed by a
generated ``sitecustomize`` module put on ``PYTHONPATH``; a forked
``multiprocessing`` child writes its calls from a ``multiprocessing``
finalizer, because it leaves through ``os._exit`` and skips ``atexit``.
So functions that run only in pool workers are recorded too.  A process
that is killed (a crash fault, an abandoned watchdog worker) records
nothing.

Usage, from the root of a checkout (stdlib only; the benchmark tests
need pytest and pytest-benchmark, like CI)::

    python benchmarks/call_probe.py   # ~2-4 min

It prints a report and exits 1 when some ``src/avipack`` module with
functions has none of them called.
"""

from __future__ import annotations

import ast
import glob
import os
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "avipack")

#: Run time, in seconds, of each ``bench/run.py`` workload.
BENCH_SECONDS = 2.0

#: Written as ``sitecustomize.py`` into a scratch directory on the
#: children's ``PYTHONPATH``; every Python process started there records
#: the first line of each ``src/avipack`` code object it enters.
_HOOK = '''\
import atexit
import os
import sys
import threading

_OUT = {out!r}
_PREFIX = {prefix!r}
_seen = set()
_files = {{}}


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        name = code.co_filename
        keep = _files.get(name)
        if keep is None:
            keep = _files[name] = name.startswith(_PREFIX)
        if keep:
            _seen.add((name, code.co_firstlineno))


def _dump():
    sys.setprofile(None)
    lines = [f"{{name}}\\t{{line}}\\n" for name, line in _seen]
    with open(os.path.join(_OUT, f"{{os.getpid()}}.calls"), "a") as out:
        out.writelines(lines)


def _after_fork(dump):
    from multiprocessing import util
    util.Finalize(None, dump, exitpriority=100)


atexit.register(_dump)
from multiprocessing import util as _util  # noqa: E402
_util.register_after_fork(_dump, _after_fork)
sys.setprofile(_hook)
threading.setprofile(_hook)
'''


def user_paths(work: str) -> List[Tuple[str, List[str], int]]:
    """``(label, argv, exit code)`` of every user path, run from ``ROOT``."""
    python = sys.executable
    paths = [(f"example {os.path.basename(script)}", [python, script], 0)
             for script in sorted(glob.glob(
                 os.path.join(ROOT, "examples", "*.py")))]
    figures = [path for path in sorted(glob.glob(
        os.path.join(ROOT, "benchmarks", "test_*.py")))
        if not path.endswith("_performance.py")]
    paths.append(("benchmarks: paper figures and ablations",
                  [python, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                   "--benchmark-disable", *figures], 0))
    cli = [python, "-m", "avipack"]
    journal = os.path.join(work, "sweep.jsonl")
    store = os.path.join(work, "sweep.results")
    pool_journal = os.path.join(work, "pool.jsonl")
    pool_store = os.path.join(work, "pool.results")
    report = os.path.join(work, "report.json")
    for command in ([], ["fig10"], ["claims"], ["nanopack"], ["qual"],
                    ["--help"],
                    ["sweep", "--serial", "--sample", "12", "--journal",
                     journal, "--store-dir", store, "--report-json",
                     report],
                    ["sweep", "--serial", "--resume", "--journal", journal,
                     "--store-dir", store],
                    ["sweep", "--sample", "12", "--journal", pool_journal,
                     "--store-dir", pool_store],
                    ["results", "--store", store],
                    ["compact", "--journal", journal, "--store", store]):
        label = " ".join(["avipack", *command]).replace(work, "<work>")
        paths.append((label, cli + command, 0))
    for workload in ("sweep_distinct", "sweep_shared", "served_jobs",
                     "crash_resume"):
        paths.append((f"bench {workload}",
                      [python, os.path.join(ROOT, "bench", "run.py"),
                       "--workload", workload, "--seed", "0",
                       "--seconds", str(BENCH_SECONDS)], 0))
    paths.append(("analysis gate",
                  [python, "-m", "avipack.analysis", "src", "benchmarks",
                   "examples"], 0))
    violation = os.path.join(work, "violation.py")
    with open(violation, "w") as out:
        out.write("import os\n\n\ndef publish(a, b):\n"
                  "    os.replace(a, b)\n")
    paths.append(("analysis gate on a finding",
                  [python, "-m", "avipack.analysis", violation], 1))
    return paths


def run_paths() -> Set[Tuple[str, int]]:
    """Run every user path under the hook; ``(file, first line)`` called."""
    with tempfile.TemporaryDirectory(prefix="call-probe-") as scratch:
        hook_dir = os.path.join(scratch, "hook")
        calls = os.path.join(scratch, "calls")
        work = os.path.join(scratch, "work")
        for directory in (hook_dir, calls, work):
            os.mkdir(directory)
        with open(os.path.join(hook_dir, "sitecustomize.py"), "w") as out:
            out.write(_HOOK.format(out=calls, prefix=PACKAGE + os.sep))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC, hook_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
        failed = []
        for label, argv, expected in user_paths(work):
            start = time.monotonic()
            done = subprocess.run(argv, cwd=ROOT, env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            ok = done.returncode == expected
            print(f"  {'ok' if ok else 'FAILED':6} "
                  f"{time.monotonic() - start:6.1f} s  {label} "
                  f"(exit {done.returncode})", file=sys.stderr)
            if not ok:
                failed.append(label)
                print(done.stderr[-2000:], file=sys.stderr)
        if failed:
            raise SystemExit(f"user paths failed: {', '.join(failed)}")
        called = set()
        for path in glob.glob(os.path.join(calls, "*.calls")):
            with open(path) as stream:
                for line in stream:
                    name, _, first = line.rstrip("\n").partition("\t")
                    called.add((name, int(first)))
        return called


def functions(path: str) -> List[Tuple[str, int, int]]:
    """``(qualified name, first line, line count)`` of each ``def``.

    The first line is the first decorator's, as in ``co_firstlineno``.
    """
    with open(path, encoding="utf-8") as stream:
        tree = ast.parse(stream.read(), path)
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                starts = [child.lineno] + [decorator.lineno for decorator
                                           in child.decorator_list]
                first = min(starts)
                name = prefix + child.name
                found.append((name, first, child.end_lineno - first + 1))
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def report(called: Set[Tuple[str, int]]) -> int:
    """Print uncalled functions per module; the number of dead modules."""
    uncalled: Dict[str, List[Tuple[str, int, int]]] = {}
    dead_modules = []
    n_functions = n_uncalled = uncalled_lines = 0
    for path in sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"),
                                 recursive=True)):
        defs = functions(path)
        missing = [entry for entry in defs if (path, entry[1]) not in called]
        n_functions += len(defs)
        n_uncalled += len(missing)
        uncalled_lines += sum(lines for _, _, lines in missing)
        relative = os.path.relpath(path, SRC)
        if missing:
            uncalled[relative] = missing
        if defs and len(missing) == len(defs):
            dead_modules.append(relative)
    print(f"{n_functions - n_uncalled} of {n_functions} src/avipack "
          f"functions called; {n_uncalled} uncalled ({uncalled_lines} "
          f"lines)")
    print()
    print("Whole modules no user path calls:")
    for relative in dead_modules or ["(none)"]:
        print(f"  {relative}")
    print()
    print("Uncalled functions, by module:")
    for relative, missing in sorted(uncalled.items()):
        lines = sum(count for _, _, count in missing)
        print(f"  {relative}: {len(missing)} uncalled, {lines} lines")
        for name, first, count in missing:
            print(f"    {name} (line {first}, {count} lines)")
    return len(dead_modules)


def main() -> int:
    return 1 if report(run_paths()) else 0


if __name__ == "__main__":
    sys.exit(main())

"""The four seeded campaign workloads the benchmark drives.

Every workload is a closed loop with one caller: the next campaign
starts only after the previous one, its results query and its
correctness check have finished.  Load stays within one process plus at
most two pool workers (and, for ``served_jobs``, one server process and
one client connection), because the reference machine has two cores.

Each workload class offers three steps:

* ``setup()`` — everything before the first timed operation: input
  generation, one untimed warm-up campaign, server start with the first
  ``ping``, crashed-state preparation.  The benchmark repeats it after
  ``teardown()`` to report a median set-up time.
* ``campaign(i, traced)`` — one iteration: the campaign the user starts,
  the results query that follows, and the check of both.  Inputs depend
  only on ``(seed, i)``.
* ``teardown()`` — stop servers and drop prepared state.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from avipack import results, retention
from avipack.packaging.cooling import CoolingTechnique
from avipack.packaging.formfactors import ATR_WIDTHS
from avipack.service.client import ServiceClient
from avipack.sweep import Candidate, DesignSpace, SweepRunner
from avipack.tim.catalog import list_tims

from tracing import Tracer, clock

#: Candidates, grid shape and state counts of each workload, plus how
#: many times set-up is repeated for the median ``setup_s``.
DEFAULT_SIZES: Dict[str, Dict[str, int]] = {
    "sweep_distinct": {"candidates": 250, "setup_repeats": 3},
    "sweep_shared": {"powers": 4, "widths": 3, "setup_repeats": 3},
    "served_jobs": {"candidates": 16, "setup_repeats": 3},
    "crash_resume": {"states": 4, "candidates": 200, "cut": 180,
                     "setup_repeats": 3},
}

_TIMS = list_tims()
_COOLINGS = tuple(technique.value for technique in CoolingTechnique)
_FORMS = tuple(ATR_WIDTHS)

Ranking = List[Tuple[str, float, float]]


@dataclasses.dataclass
class Campaign:
    """Timestamps and outcome of one closed-loop iteration."""

    #: Campaign requested (``run``/``resume`` called, job submitted).
    start: float
    #: Campaign returned (or the job's terminal event arrived).
    campaign_end: float
    #: Results query issued and answered.
    query_start: float
    query_end: float
    #: Correctness check finished; the iteration's measured wall ends.
    end: float
    #: The sweep runner's own ``wall_time_s`` for the campaign.
    runner_wall_s: float
    #: Outcomes durably journalled by this campaign.
    journalled: int
    #: Candidates the campaign covers (its plan).
    candidates: int
    #: Journal plus result-store bytes left by the campaign.
    disk_bytes: int
    #: Client-visible operations attempted (campaign, compactions, query).
    ops: int
    #: One entry per failed operation or correctness mismatch.
    failures: List[str]
    #: ``(fingerprint, cost_rank, round(worst_board_c, 6))`` in rank order.
    ranking: Ranking
    traced: bool = False


@dataclasses.dataclass
class Context:
    """What every workload is built from."""

    #: Working directory of this run (inside the checkout).
    work: str
    #: The checkout's ``src`` directory (``PYTHONPATH`` of servers).
    src: str
    seed: int
    sizes: Dict[str, int]
    tracer: Optional[Tracer] = None

    def child_env(self) -> Dict[str, str]:
        """This environment with the checkout's ``src`` importable."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [self.src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else []))
        return env

    def span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def rng(self, workload: str, index: Union[int, str]) -> random.Random:
        # String seeds hash through SHA-512: stable across processes.
        return random.Random(f"{self.seed}/{workload}/{index}")

    def candidates(self, workload: str, index: int) -> List[Candidate]:
        """The distinct random candidates of campaign ``index``."""
        n = self.sizes["candidates"]
        return distinct_candidates(self.rng(workload, index), n, n * index)


def balanced(rng: random.Random, values: Sequence, n: int) -> list:
    """``n`` shuffled draws of ``values``, each as often as the others (±1)."""
    offset = rng.randrange(len(values))
    draws = [values[(offset + i) % len(values)] for i in range(n)]
    rng.shuffle(draws)
    return draws


def stratified(rng: random.Random, low: float, high: float,
               n: int) -> List[float]:
    """``n`` uniform draws in increasing order, one per ``1/n`` of the range."""
    return [round(low + (high - low) * (k + rng.random()) / n, 3)
            for k in range(n)]


def distinct_candidates(rng: random.Random, n: int,
                        first: int) -> List[Candidate]:
    """``n`` distinct random design points on the full level-3 path.

    Every discrete choice is drawn equally often and the continuous ones
    are stratified, so campaigns (and seeds) differ in which points they
    hold, not in their mix; per-candidate costs then average out within
    a run instead of spreading the run-to-run results.  ``first`` is the
    index of the campaign's first point in one cyclic design that
    consecutive campaigns continue, so that even small campaigns add up
    to the same mix.
    """
    # In order of power, the module count cycles fastest and the cooling
    # next: every power band holds every pairing of the two, which
    # together decide whether (and how far) a stack breaks its limits.
    design = range(first, first + n)
    modules = [2 + k % 5 for k in design]
    coolings = [_COOLINGS[k // 5 % len(_COOLINGS)] for k in design]
    long_case = balanced(rng, (False, True), n)
    n_long = sum(long_case)
    # A long board with fewer than 3 or more than 6 footprints has a
    # component narrower than one level-3 grid cell; the supervisor
    # would degrade it to level-2 fidelity and skip the board solve.
    components = {True: iter(balanced(rng, range(3, 7), n_long)),
                  False: iter(balanced(rng, range(3, 11), n - n_long))}
    chosen: List[Candidate] = []
    seen = set()
    for fields in zip(stratified(rng, 5.0, 40.0, n), modules, coolings,
                      balanced(rng, _TIMS, n), balanced(rng, _FORMS, n),
                      rng.sample(stratified(rng, 0.0, 1.0, n), n),
                      long_case):
        power, modules_, cooling, tim, form, series, long_ = fields
        candidate = Candidate(
            power_per_module=power, n_modules=modules_, cooling=cooling,
            tim_name=tim, form_factor=form, series_fraction=series,
            n_components=next(components[long_]), long_case=long_)
        while candidate in seen:
            candidate = dataclasses.replace(
                candidate, power_per_module=round(rng.uniform(5.0, 40.0), 3))
        seen.add(candidate)
        chosen.append(candidate)
    rng.shuffle(chosen)
    return chosen


def ranking_of(report) -> Ranking:
    """The in-memory ranking triple of a sweep report."""
    return [(o.fingerprint, o.cost_rank, o.worst_board_c)
            for o in report.ranked()]


def rounded(ranking: Ranking) -> Ranking:
    return [(fp, cost, round(worst, 6)) for fp, cost, worst in ranking]


def tree_bytes(path: str) -> int:
    if os.path.isfile(path):
        return os.path.getsize(path)
    return sum(os.path.getsize(os.path.join(base, name))
               for base, _, names in os.walk(path) for name in names)


class _DirectSweep:
    """A sweep campaign run in-process with a journal and a store."""

    name = ""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def candidates(self, index: int) -> List[Candidate]:
        raise NotImplementedError

    def runner(self, store: str) -> SweepRunner:
        raise NotImplementedError

    def setup(self) -> None:
        self.campaign(-1)

    def teardown(self) -> None:
        pass

    def campaign(self, index: int, traced: bool = False) -> Campaign:
        candidates = self.candidates(index)
        directory = os.path.join(self.ctx.work, f"campaign{index}")
        os.makedirs(directory)
        journal = os.path.join(directory, "journal.jsonl")
        store = os.path.join(directory, "store")
        runner = self.runner(store)
        failures: List[str] = []
        start = clock()
        report = runner.run(candidates, journal_path=journal)
        campaign_end = clock()
        signature = results.ranking_signature(
            results.ResultStore.open(store))
        query_end = clock()
        with self.ctx.span("bench.check"):
            expected = ranking_of(report)
            if report.failures:
                failures.append(f"{len(report.failures)} candidates failed")
            if signature != expected:
                failures.append("store ranking differs from the report's")
        end = clock()
        disk = tree_bytes(directory)
        shutil.rmtree(directory)
        return Campaign(start=start, campaign_end=campaign_end,
                        query_start=campaign_end, query_end=query_end,
                        end=end, runner_wall_s=report.wall_time_s,
                        journalled=len(report.outcomes),
                        candidates=len(candidates), disk_bytes=disk,
                        ops=2, failures=failures,
                        ranking=rounded(expected), traced=traced)


class SweepDistinct(_DirectSweep):
    """All-distinct random candidates on the two-worker process pool."""

    name = "sweep_distinct"

    def candidates(self, index: int) -> List[Candidate]:
        return self.ctx.candidates(self.name, index)

    def runner(self, store: str) -> SweepRunner:
        return SweepRunner(max_workers=2, result_store=store)


class SweepShared(_DirectSweep):
    """``standard_tradeoff``-shaped grids on the serial path."""

    name = "sweep_shared"

    def candidates(self, index: int) -> List[Candidate]:
        """One power from each equal share of 5-40 W, in tenths of a watt,
        and the width combinations in turn from a seeded starting point:
        every campaign has the same mix of cheap and costly points."""
        sizes = self.ctx.sizes
        rng = self.ctx.rng(self.name, index)
        cuts = [50 + 351 * k // sizes["powers"]
                for k in range(sizes["powers"] + 1)]
        powers = [rng.randrange(low, high) / 10.0
                  for low, high in zip(cuts, cuts[1:])]
        combos = list(itertools.combinations(_FORMS, sizes["widths"]))
        start = self.ctx.rng(self.name, "widths").randrange(len(combos))
        space = DesignSpace.standard_tradeoff(
            powers=tuple(powers),
            form_factors=combos[(start + index) % len(combos)])
        return list(space.grid())

    def runner(self, store: str) -> SweepRunner:
        return SweepRunner(parallel=False, result_store=store)


class _Server:
    """One ``python -m avipack serve`` subprocess with CLI defaults."""

    def __init__(self, ctx: Context, label: str, traced: bool) -> None:
        self.directory = directory = os.path.join(ctx.work, label)
        os.makedirs(directory)
        self.jobs = os.path.join(directory, "jobs")
        socket = os.path.join(directory, "s.sock")
        # AF_UNIX paths are limited to ~108 bytes; a relative path
        # (the server inherits this working directory) is shorter.
        socket = min(socket, os.path.relpath(socket), key=len)
        command = [sys.executable, "-m", "avipack"]
        if traced:
            command = [sys.executable,
                       os.path.join(os.path.dirname(__file__), "tracing.py"),
                       ctx.tracer.trace_dir]
        command += ["serve", "--socket", socket, "--journal-dir", self.jobs]
        self.log_path = os.path.join(directory, "server.log")
        self._log = open(self.log_path, "wb")
        try:
            self.process = subprocess.Popen(command, env=ctx.child_env(),
                                            stdout=self._log,
                                            stderr=subprocess.STDOUT)
        except OSError:
            self._log.close()
            raise
        self.client = ServiceClient(socket, timeout_s=60.0)
        try:
            self._wait_for_ping(socket)
        except BaseException:
            self.process.kill()
            self.process.wait()
            self._log.close()
            raise

    def _wait_for_ping(self, socket: str) -> None:
        deadline = time.monotonic() + 60.0
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited: {self.log_tail()}")
            if os.path.exists(socket):
                try:
                    self.client.ping()
                    return
                except Exception:
                    if time.monotonic() > deadline:
                        raise
            elif time.monotonic() > deadline:
                raise RuntimeError("server did not create its socket")
            time.sleep(0.01)

    def log_tail(self) -> str:
        with open(self.log_path, "rb") as stream:
            return stream.read()[-2000:].decode("utf-8", "replace")

    def job_files(self, job_id: str) -> Tuple[str, str]:
        return (os.path.join(self.jobs, job_id + ".journal.jsonl"),
                os.path.join(self.jobs, job_id + ".results"))

    def stop(self) -> None:
        try:
            if self.process.poll() is None:
                self.client.shutdown()
            self.process.wait(timeout=60)
        except Exception:
            self.process.kill()
            self.process.wait()
        finally:
            self._log.close()
        shutil.rmtree(self.directory)


class ServedJobs:
    """Small distinct-candidate jobs through the job service."""

    name = "served_jobs"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.servers: Dict[bool, _Server] = {}

    def setup(self) -> None:
        self.servers[False] = _Server(self.ctx, "plain", False)
        self.campaign(-1)
        if self.ctx.tracer is not None:
            self.servers[True] = _Server(self.ctx, "traced", True)
            self.campaign(-2, traced=True)

    def teardown(self) -> None:
        for server in self.servers.values():
            server.stop()
        self.servers.clear()

    def campaign(self, index: int, traced: bool = False) -> Campaign:
        server = self.servers[traced]
        candidates = [dataclasses.asdict(candidate) for candidate
                      in self.ctx.candidates(self.name, index)]
        failures: List[str] = []
        terminal: Dict[str, object] = {}
        start = clock()
        with self.ctx.span("service.submit"):
            job_id = server.client.submit(candidates=candidates,
                                          client="bench")["job_id"]
        with self.ctx.span("service.stream"):
            for event in server.client.stream(job_id):
                if event.get("terminal"):
                    terminal = event
        campaign_end = clock()
        with self.ctx.span("service.results"):
            reply = server.client.results(job_id, k=20)
        query_end = clock()
        journal, store = server.job_files(job_id)
        with self.ctx.span("bench.check"):
            ranking = results.ranking_signature(
                results.ResultStore.open(store))
            top = [(row["fingerprint"], row["cost_rank"],
                    row["worst_board_c"]) for row in reply["top"]]
            if terminal.get("event") != "completed":
                failures.append(f"job {job_id} ended {terminal}")
            elif terminal.get("n_failed"):
                failures.append(f"job {job_id}: {terminal['n_failed']} "
                                "candidates failed")
            if top != ranking[:20]:
                failures.append(f"job {job_id}: results top-k differs "
                                "from the job store's ranking")
        end = clock()
        return Campaign(start=start, campaign_end=campaign_end,
                        query_start=campaign_end, query_end=query_end,
                        end=end,
                        runner_wall_s=float(terminal.get("wall_s", 0.0)),
                        journalled=len(candidates),
                        candidates=len(candidates),
                        disk_bytes=tree_bytes(journal) + tree_bytes(store),
                        ops=3, failures=failures, ranking=rounded(ranking),
                        traced=traced)


@dataclasses.dataclass(frozen=True)
class _CrashedState:
    journal: str
    store: str
    reference: Ranking


def cut_journal(source: str, target: str, outcomes: int) -> None:
    """Copy ``source`` up to and including its ``outcomes``-th outcome."""
    kept = 0
    with open(source, "rb") as inp, open(target, "wb") as out:
        for line in inp:
            if kept == outcomes:
                break
            out.write(line)
            kind = json.loads(line)["body"]["kind"]
            if kind in ("completed", "failed", "timeout"):
                kept += 1


class CrashResume:
    """Resume, compact and query crashed campaigns on fresh copies."""

    name = "crash_resume"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.states: List[_CrashedState] = []

    def setup(self) -> None:
        sizes = self.ctx.sizes
        for k in range(sizes["states"]):
            directory = os.path.join(self.ctx.work, f"state{k}")
            os.makedirs(directory)
            full = os.path.join(directory, "full.jsonl")
            candidates = self.ctx.candidates(self.name, k)
            report = SweepRunner(max_workers=2).run(candidates,
                                                    journal_path=full)
            journal = os.path.join(directory, "journal.jsonl")
            cut_journal(full, journal, sizes["cut"])
            os.remove(full)
            store = os.path.join(directory, "store")
            results.ingest_journal(journal, store)
            self.states.append(_CrashedState(journal, store,
                                             ranking_of(report)))
        self.campaign(-1)

    def teardown(self) -> None:
        for state in self.states:
            shutil.rmtree(os.path.dirname(state.journal))
        self.states.clear()

    def campaign(self, index: int, traced: bool = False) -> Campaign:
        state = self.states[index % len(self.states)]
        directory = os.path.join(self.ctx.work, f"campaign{index}")
        os.makedirs(directory)
        journal = os.path.join(directory, "journal.jsonl")
        store = os.path.join(directory, "store")
        shutil.copyfile(state.journal, journal)
        shutil.copytree(state.store, store)
        failures: List[str] = []
        start = clock()
        report = SweepRunner(max_workers=2,
                             result_store=store).resume(journal)
        campaign_end = clock()
        retention.compact_journal(journal)
        retention.compact_store(store)
        query_start = clock()
        opened = results.ResultStore.open(store)
        signature = results.ranking_signature(opened)
        results.render_store_report(opened)
        query_end = clock()
        with self.ctx.span("bench.check"):
            resumed = ranking_of(report)
            recomputed = report.durability.n_recomputed
            if recomputed != len(report.outcomes) - self.ctx.sizes["cut"]:
                failures.append(f"resume recomputed {recomputed} "
                                "candidates")
            if resumed != state.reference:
                failures.append("resumed ranking differs from the "
                                "uninterrupted run")
            if signature != resumed:
                failures.append("compacted store ranking differs from "
                                "the resumed report's")
        end = clock()
        disk = tree_bytes(journal) + tree_bytes(store)
        shutil.rmtree(directory)
        return Campaign(start=start, campaign_end=campaign_end,
                        query_start=query_start, query_end=query_end,
                        end=end, runner_wall_s=report.wall_time_s,
                        journalled=recomputed,
                        candidates=len(report.outcomes), disk_bytes=disk,
                        ops=4, failures=failures,
                        ranking=rounded(resumed), traced=traced)


WORKLOADS = {cls.name: cls for cls in (SweepDistinct, SweepShared,
                                       ServedJobs, CrashResume)}

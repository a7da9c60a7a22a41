"""The preset zlib dictionary that primes schema-3 to -6 journal payloads.

Every journal line compresses one pickle on its own, so without a
dictionary each line pays again for the same pickle opcodes, module
paths, class names, field names and :class:`~avipack.sweep.Candidate`
layout.  zlib's preset dictionary (``zdict``) lets every payload refer
back to one shared copy of those bytes instead.  The dictionary is
never unpickled; it is only a window of bytes the compressor may match
against.

The bytes are pinned: a payload written with one dictionary cannot be
read with another, so a different dictionary is a new journal
``schema_version``, and the old one stays here as the decoder of the
journals written with it.

Recipe for :data:`SCHEMA3_ZDICT` — the pickles of one failed and one
completed ``DesignSpace.standard_tradeoff()`` outcome, with the per-run
fields zeroed (the traceback holds install paths), run in a fresh
interpreter (the solver counters in ``perf`` see the process's factor
cache).  The completed one is the grid's first non-compliant outcome,
so its violation lines are in the window too::

    grid = list(DesignSpace.standard_tradeoff().grid())
    runner = SweepRunner(parallel=False, use_cache=False)
    completed = next(outcome for outcome in runner.run(grid).results
                     if not outcome.compliant)
    failed = runner.run([dataclasses.replace(
        grid[0], power_per_module=1.0e6)]).failures[0]

    def steady(outcome):
        perf = tuple(dataclasses.replace(stats, wall_s=0.0)
                     for stats in outcome.perf)
        outcome = dataclasses.replace(outcome, elapsed_s=0.0,
                                      worker_pid=0, perf=perf)
        if isinstance(outcome, CandidateFailure):
            outcome = dataclasses.replace(outcome, traceback="")
        return outcome

    SCHEMA3_ZDICT = b"".join(
        pickle.dumps(steady(outcome), protocol=5)
        for outcome in (failed, completed))

The completed outcome comes last because most records are completed
ones, and zlib matches nearer the end of the window more cheaply.
"""

import base64

__all__ = ["SCHEMA3_ZDICT"]

#: Preset dictionary of schema-3 to -6 payloads (2,691 bytes).
SCHEMA3_ZDICT: bytes = base64.b64decode(
    "gAWVrAIAAAAAAACMFGF2aXBhY2suc3dlZXAucnVubmVylIwQQ2FuZGlkYXRlRmFpbHVy"
    "ZZSTlCmBlH2UKIwFaW5kZXiUSwCMCWNhbmRpZGF0ZZSME2F2aXBhY2suc3dlZXAuc3Bh"
    "Y2WUjAlDYW5kaWRhdGWUk5QpgZR9lCiMEHBvd2VyX3Blcl9tb2R1bGWUR0EuhIAAAAAA"
    "jAluX21vZHVsZXOUSwSMB2Nvb2xpbmeUjBlhdmlwYWNrLnBhY2thZ2luZy5jb29saW5n"
    "lIwQQ29vbGluZ1RlY2huaXF1ZZSTlIwPZnJlZV9jb252ZWN0aW9ulIWUUpSMCHRpbV9u"
    "YW1llIwPc3RhbmRhcmRfZ3JlYXNllIwLZm9ybV9mYWN0b3KUjAcxLzJfYXRylIwPc2Vy"
    "aWVzX2ZyYWN0aW9ulEc/0zMzMzMzM4wUdGVtcGVyYXR1cmVfY2F0ZWdvcnmUjAJBMZSM"
    "D3ZpYnJhdGlvbl9jdXJ2ZZSMAkMxlIwMbl9jb21wb25lbnRzlEsGjAlsb25nX2Nhc2WU"
    "iXVijAtmaW5nZXJwcmludJSMKGYyZjI0YjVjNDk0YzQ4NzQyOGIxNzE0NmM1ZWM4N2Mw"
    "NDJmMTEwODWUjAVzdGFnZZSMCGV2YWx1YXRllIwKZXJyb3JfdHlwZZSMD01vZGVsUmFu"
    "Z2VFcnJvcpSMB21lc3NhZ2WUjDVhaXIgY29ycmVsYXRpb24gdmFsaWQgZm9yIDE1MC0x"
    "MDAwIEssIGdvdCAxMzc1OTY0LjQgS5SMCWVsYXBzZWRfc5RHAAAAAAAAAACMCndvcmtl"
    "cl9waWSUSwCMCWNvbXBsaWFudJSJjAl0cmFjZWJhY2uUjACUjAdkZXRhaWxzlH2UjAhy"
    "ZWNvdmVyeZQpjAhkZWdyYWRlZJSJjARwZXJmlCl1Yi6ABZXBBwAAAAAAAIwUYXZpcGFj"
    "ay5zd2VlcC5ydW5uZXKUjA9DYW5kaWRhdGVSZXN1bHSUk5QpgZR9lCiMBWluZGV4lEsw"
    "jAljYW5kaWRhdGWUjBNhdmlwYWNrLnN3ZWVwLnNwYWNllIwJQ2FuZGlkYXRllJOUKYGU"
    "fZQojBBwb3dlcl9wZXJfbW9kdWxllEdAPgAAAAAAAIwJbl9tb2R1bGVzlEsEjAdjb29s"
    "aW5nlIwZYXZpcGFjay5wYWNrYWdpbmcuY29vbGluZ5SMEENvb2xpbmdUZWNobmlxdWWU"
    "k5SMD2ZyZWVfY29udmVjdGlvbpSFlFKUjAh0aW1fbmFtZZSMD3N0YW5kYXJkX2dyZWFz"
    "ZZSMC2Zvcm1fZmFjdG9ylIwHMS8yX2F0cpSMD3Nlcmllc19mcmFjdGlvbpRHP9MzMzMz"
    "MzOMFHRlbXBlcmF0dXJlX2NhdGVnb3J5lIwCQTGUjA92aWJyYXRpb25fY3VydmWUjAJD"
    "MZSMDG5fY29tcG9uZW50c5RLBowJbG9uZ19jYXNllIl1YowLZmluZ2VycHJpbnSUjCgy"
    "OWRjYzU1NDRhY2JjOWIzYzk4ZTdmOTVlNjhhY2YwMTQ3NGYwOTg5lIwJY29tcGxpYW50"
    "lImMCnZpb2xhdGlvbnOUKIwkbGV2ZWwzOiBtMS9SMSBqdW5jdGlvbiBvdmVyIDEyNSBk"
    "ZWdDlIwkbGV2ZWwzOiBtMS9SMiBqdW5jdGlvbiBvdmVyIDEyNSBkZWdDlIwkbGV2ZWwz"
    "OiBtMS9SMyBqdW5jdGlvbiBvdmVyIDEyNSBkZWdDlIwkbGV2ZWwzOiBtMS9SNCBqdW5j"
    "dGlvbiBvdmVyIDEyNSBkZWdDlIwkbGV2ZWwzOiBtMS9SNSBqdW5jdGlvbiBvdmVyIDEy"
    "NSBkZWdDlIwkbGV2ZWwzOiBtMS9SNiBqdW5jdGlvbiBvdmVyIDEyNSBkZWdDlIwkbGV2"
    "ZWwzOiBtMi9SMSBqdW5jdGlvbiBvdmVyIDEyNSBkZWdDlIwkbGV2ZWwzOiBtMi9SMiBq"
    "dW5jdGlvbiBvdmVyIDEyNSBkZWdDlIwkbGV2ZWwzOiBtMi9SMyBqdW5jdGlvbiBvdmVy"
    "IDEyNSBkZWdDlIwkbGV2ZWwzOiBtMi9SNCBqdW5jdGlvbiBvdmVyIDEyNSBkZWdDlIwk"
    "bGV2ZWwzOiBtMi9SNSBqdW5jdGlvbiBvdmVyIDEyNSBkZWdDlIwkbGV2ZWwzOiBtMi9S"
    "NiBqdW5jdGlvbiBvdmVyIDEyNSBkZWdDlIwkbGV2ZWwzOiBtMy9SMSBqdW5jdGlvbiBv"
    "dmVyIDEyNSBkZWdDlIwkbGV2ZWwzOiBtMy9SMiBqdW5jdGlvbiBvdmVyIDEyNSBkZWdD"
    "lIwkbGV2ZWwzOiBtMy9SMyBqdW5jdGlvbiBvdmVyIDEyNSBkZWdDlIwkbGV2ZWwzOiBt"
    "My9SNCBqdW5jdGlvbiBvdmVyIDEyNSBkZWdDlIwkbGV2ZWwzOiBtMy9SNSBqdW5jdGlv"
    "biBvdmVyIDEyNSBkZWdDlIwkbGV2ZWwzOiBtMy9SNiBqdW5jdGlvbiBvdmVyIDEyNSBk"
    "ZWdDlIwkbGV2ZWwzOiBtNC9SMSBqdW5jdGlvbiBvdmVyIDEyNSBkZWdDlIwkbGV2ZWwz"
    "OiBtNC9SMiBqdW5jdGlvbiBvdmVyIDEyNSBkZWdDlIwkbGV2ZWwzOiBtNC9SMyBqdW5j"
    "dGlvbiBvdmVyIDEyNSBkZWdDlIwkbGV2ZWwzOiBtNC9SNCBqdW5jdGlvbiBvdmVyIDEy"
    "NSBkZWdDlIwkbGV2ZWwzOiBtNC9SNSBqdW5jdGlvbiBvdmVyIDEyNSBkZWdDlIwkbGV2"
    "ZWwzOiBtNC9SNiBqdW5jdGlvbiBvdmVyIDEyNSBkZWdDlHSUjAdtYXJnaW5zlH2UKIwO"
    "ZnVuZGFtZW50YWxfaHqUR0BfSxscm/MnjA5mYXRpZ3VlX21hcmdpbpRHQGijGnW3GZCM"
    "EWRlZmxlY3Rpb25fbWFyZ2lulEdAA78TsLIjHYwNd29yc3RfYm9hcmRfY5RHQFN6DWes"
    "ZcSMCm10YmZfaG91cnOUTmgiiYwMbl92aW9sYXRpb25zlEsYdWhCR0BTeg1nrGXEjBNy"
    "ZWNvbW1lbmRlZF9jb29saW5nlIwPZGlyZWN0X2Fpcl9mbG93lIwZZGVjbGFyZWRfY29v"
    "bGluZ19mZWFzaWJsZZSJjAljb3N0X3JhbmuURwAAAAAAAAAAjAllbGFwc2VkX3OURwAA"
    "AAAAAAAAjAp3b3JrZXJfcGlklEsAjApjYWNoZV9oaXRzlEsAjAxjYWNoZV9taXNzZXOU"
    "SwCMCGRlZ3JhZGVklImMCHJlY292ZXJ5lCmMDWNhY2hlX2NvcnJ1cHSUSwCMBHBlcmaU"
    "jAxhdmlwYWNrLnBlcmaUjApTb2x2ZVN0YXRzlJOUKYGUfZQojAZrZXJuZWyUjBFjb25k"
    "dWN0aW9uLnN0ZWFkeZSMDGNvbXBpbGF0aW9uc5RLAIwKYXNzZW1ibGllc5RLAIwOZmFj"
    "dG9yaXphdGlvbnOUSwCMFGZhY3Rvcml6YXRpb25fcmV1c2VzlEsBjAZzb2x2ZXOUSwGM"
    "Cml0ZXJhdGlvbnOUSwCMBndhbGxfc5RHAAAAAAAAAAB1YoWUdWIu")

"""Invariant audit for journal-restored sweep outcomes.

Checksums prove a journal record holds the bytes that were written;
they cannot prove those bytes still *describe physics* — a stale
journal from an older model, or a record rewritten together with its
checksums, would poison the ranked report while passing every integrity
check.  This module is the second gate: every restored
:class:`~avipack.sweep.runner.CandidateResult` is re-validated against
invariants the thermal model guarantees, and any violation degrades
that candidate to recomputation — never to silent trust.

Per-record checks (:func:`audit_result`):

* **fingerprint integrity** — the recorded fingerprint must equal the
  one recomputed from the restored candidate, so a record cannot be
  replayed against a different design point;
* **temperature bounds** — the worst board temperature must be finite,
  above absolute zero, below the sanity ceiling, and (first law: the
  air can only *heat* a dissipating board) not below the rack supply;
* **internal consistency** — the flattened margin summary must agree
  with the record's own ``worst_board_c``, and a compliant record must
  carry no violations and respect the 85 °C board rule;
* **energy balance** — the level-2 rack airflow network is re-solved
  from the restored candidate (cheap: a closed-form slot recurrence,
  none of the level-1/level-3 cost) and the restored board temperature
  must reproduce it within tolerance
  (:func:`energy_balance_residual_c`).

Cross-record check (:func:`audit_headroom_monotonicity`): among
restored results that differ only in the module power budget, thermal
headroom must not *increase* with power — a monotonicity the physical
model guarantees and a corrupted record readily breaks.

:func:`audit_outcomes` bundles all of the above for the resume path in
:meth:`avipack.sweep.SweepRunner.resume`.
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING, Dict, Iterable, List, Tuple

from ..environments.arinc600 import STANDARD_INLET_TEMPERATURE
from ..units import kelvin_to_celsius

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sweep.runner import CandidateOutcome, CandidateResult

__all__ = ["AUDIT_BOARD_LIMIT_C", "audit_headroom_monotonicity",
           "audit_outcomes", "audit_result", "energy_balance_residual_c"]

#: The 85 °C board acceptance rule the headroom checks audit against.
AUDIT_BOARD_LIMIT_C = 85.0

#: Physical sanity ceiling for a board temperature [°C]; anything above
#: is corruption, not packaging.
_BOARD_CEILING_C = 1000.0

#: Agreement tolerance between the restored board temperature and the
#: re-solved level-2 network [K].  The level-2 solve is deterministic,
#: so the tolerance only absorbs float round-trip noise.
_ENERGY_BALANCE_TOL_C = 0.05

#: Tolerance on duplicated in-record values (margins vs fields) [K].
_CONSISTENCY_TOL = 1e-6


def energy_balance_residual_c(result: "CandidateResult") -> float:
    """Re-solve the candidate's level-2 airflow network; residual [K].

    Rebuilds the rack from the restored candidate and runs the slot
    energy balance (supply air picking up each module's dissipation).
    The returned value is the absolute difference between the restored
    ``worst_board_c`` and the recomputed worst board temperature —
    ``0`` for an intact record, large for a tampered or stale one.
    Raises whatever the rebuild raises for an unbuildable candidate
    (callers treat that as an audit failure too).
    """
    rack, _spec = result.candidate.build()
    worst_k = max(slot.board_temperature for slot in rack.solve())
    return abs(kelvin_to_celsius(worst_k) - result.worst_board_c)


def audit_result(result: "CandidateResult",
                 recompute_level2: bool = True) -> Tuple[str, ...]:
    """Invariant violations of one restored result (empty = trusted).

    Runs the whole battery listed in the module docstring: fingerprint
    integrity, temperature bounds including the rack-supply first-law
    floor, margin/record consistency and, with ``recompute_level2``,
    the level-2 energy-balance recheck.  Every restored record gets all
    of them, whichever evaluator produced it.
    """
    issues: List[str] = []
    try:
        expected = result.candidate.fingerprint
    except Exception as exc:
        return (f"candidate cannot be fingerprinted: {exc}",)
    if result.fingerprint != expected:
        issues.append(
            f"fingerprint mismatch: record says {result.fingerprint[:12]}, "
            f"candidate hashes to {expected[:12]}")
    board_c = result.worst_board_c
    supply_c = kelvin_to_celsius(STANDARD_INLET_TEMPERATURE)
    if not math.isfinite(board_c):
        issues.append(f"worst_board_c is not finite ({board_c!r})")
    elif not -273.15 < board_c < _BOARD_CEILING_C:
        issues.append(f"worst_board_c {board_c:g} degC is outside the "
                      f"physical range (-273.15, {_BOARD_CEILING_C:g})")
    elif board_c < supply_c - _CONSISTENCY_TOL:
        issues.append(
            f"worst_board_c {board_c:g} degC is below the rack supply "
            f"{supply_c:g} degC: a dissipating board cannot undercut "
            "its coolant (first-law violation)")
    for name, value in result.margins.items():
        if isinstance(value, float) and math.isnan(value):
            issues.append(f"margin {name!r} is NaN")
    recorded = result.margins.get("worst_board_c")
    if (isinstance(recorded, float) and math.isfinite(board_c)
            and abs(recorded - board_c) > _CONSISTENCY_TOL):
        issues.append(
            f"margin summary disagrees with the record: "
            f"{recorded:g} vs {board_c:g} degC")
    if result.compliant:
        if result.violations:
            issues.append("record is compliant yet carries "
                          f"{len(result.violations)} violations")
        if math.isfinite(board_c) \
                and board_c > AUDIT_BOARD_LIMIT_C + _CONSISTENCY_TOL:
            issues.append(
                f"record is compliant at {board_c:g} degC, above the "
                f"{AUDIT_BOARD_LIMIT_C:g} degC board rule")
    if recompute_level2 and not issues:
        try:
            residual = energy_balance_residual_c(result)
        except Exception as exc:
            issues.append(f"energy-balance recheck failed to build the "
                          f"candidate: {type(exc).__name__}: {exc}")
        else:
            if not residual <= _ENERGY_BALANCE_TOL_C:
                issues.append(
                    f"energy-balance residual {residual:g} K exceeds "
                    f"{_ENERGY_BALANCE_TOL_C:g} K: restored board "
                    "temperature does not reproduce the level-2 network")
    return tuple(issues)


def audit_headroom_monotonicity(
        results: Iterable["CandidateResult"],
        tolerance_c: float = 1e-6) -> Dict[str, Tuple[str, ...]]:
    """Cross-record check: headroom must not rise with power.

    Groups restored results that are identical except for
    ``power_per_module`` and walks each group in increasing power: a
    higher budget on an otherwise identical stack cannot run *cooler*.
    Both members of a violating adjacent pair are flagged (the corrupt
    one is unknowable from the pair alone; recomputing both is cheap
    and safe).  Returns ``fingerprint -> issues``.
    """
    groups: Dict[str, List["CandidateResult"]] = {}
    for result in results:
        stripped = dataclasses.replace(result.candidate,
                                       power_per_module=1.0)
        groups.setdefault(stripped.fingerprint, []).append(result)
    flagged: Dict[str, Tuple[str, ...]] = {}
    for members in groups.values():
        members.sort(key=lambda r: r.candidate.power_per_module)
        for lower, upper in zip(members, members[1:]):
            rise = upper.thermal_headroom_c - lower.thermal_headroom_c
            if rise > tolerance_c:
                issue = (
                    f"headroom rises {rise:g} K from "
                    f"{lower.candidate.power_per_module:g} W to "
                    f"{upper.candidate.power_per_module:g} W on an "
                    "otherwise identical stack (monotonicity violation)")
                for record in (lower, upper):
                    flagged[record.fingerprint] = \
                        flagged.get(record.fingerprint, ()) + (issue,)
    return flagged


def audit_outcomes(outcomes: Iterable["CandidateOutcome"],
                   recompute_level2: bool = True
                   ) -> Dict[str, Tuple[str, ...]]:
    """Audit a restored outcome set; returns ``fingerprint -> issues``.

    Results get the full per-record battery plus the cross-record
    monotonicity check; failures only need fingerprint integrity (their
    payload never enters the ranked table).  Any flagged fingerprint
    should be dropped from the restore set and recomputed.
    """
    outcomes = list(outcomes)
    flagged: Dict[str, Tuple[str, ...]] = {}
    results: List["CandidateResult"] = []
    for outcome in outcomes:
        if hasattr(outcome, "margins"):
            issues = audit_result(outcome,
                                  recompute_level2=recompute_level2)
            if issues:
                flagged[outcome.fingerprint] = issues
            else:
                results.append(outcome)
        else:
            try:
                expected = outcome.candidate.fingerprint
            except Exception as exc:
                flagged[outcome.fingerprint] = (
                    f"candidate cannot be fingerprinted: {exc}",)
                continue
            if outcome.fingerprint != expected:
                flagged[outcome.fingerprint] = (
                    "fingerprint mismatch on restored failure record",)
    for fingerprint, issues in audit_headroom_monotonicity(results).items():
        flagged[fingerprint] = flagged.get(fingerprint, ()) + issues
    return flagged

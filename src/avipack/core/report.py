"""Packaging design document rendering.

The terminal artefact of Fig. 1 is the "PACKAGING DESIGN DOCUMENT".  This
module renders a :class:`~avipack.core.design_flow.DesignReview` (and a
qualification report) into the plain-text document a design review would
circulate: requirement recap, thermal pyramid results, mechanical margins,
reliability figure, and the violation list.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from ..errors import InputError
from ..units import kelvin_to_celsius
from .design_flow import DesignReview

if TYPE_CHECKING:  # annotation only; a sweep never runs qualification
    from .qualification import QualificationReport


def section_header(title: str) -> List[str]:
    """Title banner lines shared by every rendered document.

    Public so sibling report renderers (qualification, design-space
    sweeps) emit documents in one consistent style.
    """
    bar = "=" * max(len(title), 8)
    return [bar, title, bar]


#: Backward-compatible alias for the pre-1.1 private name.
_header = section_header


def render_design_document(review: DesignReview) -> str:
    """Render a design review as a plain-text design document."""
    spec = review.specification
    lines: List[str] = []
    lines += _header(f"PACKAGING DESIGN DOCUMENT - {spec.name}")
    lines.append("")
    lines.append("1. SPECIFICATION ANALYSIS")
    lines.append(f"   environment category : {spec.temperature_category_name}"
                 f" (operating {kelvin_to_celsius(spec.category.operating_low):+.0f}"
                 f" .. {kelvin_to_celsius(spec.category.operating_high):+.0f} degC)")
    lines.append(f"   vibration            : DO-160 curve "
                 f"{spec.vibration_curve_name}")
    if spec.frequency_allocation is not None:
        lines.append(f"   frequency allocation : "
                     f"[{spec.frequency_allocation.minimum_hz:.0f}, "
                     f"{spec.frequency_allocation.maximum_hz:.0f}] Hz")
    lines.append(f"   board / junction     : "
                 f"{kelvin_to_celsius(spec.board_limit):.0f} / "
                 f"{kelvin_to_celsius(spec.junction_limit):.0f} degC")
    lines.append(f"   MTBF target          : {spec.mtbf_target_hours:.0f} h")
    lines.append("")
    lines.append("2. THERMAL DESIGN (levels 1-3)")
    level1 = review.thermal.level1
    recommended = (level1.recommended.value if level1.recommended
                   else "NONE FEASIBLE")
    lines.append(f"   level 1 power        : {level1.total_power:.1f} W,"
                 f" recommended cooling: {recommended}")
    level2 = review.thermal.level2
    lines.append(f"   level 2 worst board  : "
                 f"{kelvin_to_celsius(level2.worst_board_temperature):.1f} "
                 f"degC ({'OK' if level2.compliant else 'VIOLATION'})")
    for module_name, level3 in sorted(review.thermal.level3.items()):
        lines.append(f"   level 3 {module_name:<13}: max junction "
                     f"{kelvin_to_celsius(level3.max_junction):.1f} degC "
                     f"({'OK' if level3.compliant else 'VIOLATION'})")
    lines.append("")
    lines.append("3. MECHANICAL DESIGN")
    mech = review.mechanical
    lines.append(f"   fundamental mode     : {mech.fundamental_hz:.1f} Hz "
                 f"({'in plan' if mech.allocation_respected else 'OUT OF PLAN'})")
    lines.append(f"   random response      : {mech.response_rms_g:.2f} gRMS,"
                 f" {mech.rms_deflection * 1e6:.1f} um RMS deflection")
    lines.append(f"   Steinberg allowable  : "
                 f"{mech.allowable_deflection * 1e6:.1f} um "
                 f"(margin {mech.deflection_margin:+.2f})")
    life = ("unlimited" if mech.fatigue_life_hours == float("inf")
            else f"{mech.fatigue_life_hours:.0f} h")
    lines.append(f"   fatigue life         : {life} "
                 f"(margin {mech.fatigue_margin:+.2f})")
    lines.append("")
    lines.append("4. RELIABILITY")
    if review.mtbf_hours is None:
        lines.append("   MTBF                 : not evaluated (no parts list)")
    else:
        lines.append(f"   MTBF                 : {review.mtbf_hours:.0f} h "
                     f"(target {spec.mtbf_target_hours:.0f} h)")
    lines.append("")
    lines.append("5. VERDICT")
    if review.compliant:
        lines.append("   COMPLIANT - design accepted in one shot")
    else:
        lines.append("   NON-COMPLIANT:")
        for violation in review.violations:
            lines.append(f"   - {violation}")
    return "\n".join(lines)


def render_qualification_report(report: QualificationReport) -> str:
    """Render a virtual qualification campaign report."""
    lines: List[str] = []
    lines += _header(f"QUALIFICATION REPORT - {report.equipment_name}")
    lines.append("")
    for verdict in report.verdicts:
        status = "PASS" if verdict.passed else "FAIL"
        margin = ("inf" if verdict.margin == float("inf")
                  else f"{verdict.margin:+.2f}")
        lines.append(f"  {verdict.test_name:<20} {status}  "
                     f"margin {margin}")
        lines.append(f"      {verdict.detail}")
    lines.append("")
    lines.append("OVERALL: " + ("PASS - no damage"
                                if report.passed else "FAIL"))
    return "\n".join(lines)


def summarize_margins(review: DesignReview) -> dict:
    """Machine-readable margin summary for dashboards and benches."""
    if review is None:
        raise InputError("review must not be None")
    return {
        "fundamental_hz": review.mechanical.fundamental_hz,
        "fatigue_margin": review.mechanical.fatigue_margin,
        "deflection_margin": review.mechanical.deflection_margin,
        "worst_board_c": kelvin_to_celsius(
            review.thermal.level2.worst_board_temperature),
        "mtbf_hours": review.mtbf_hours,
        "compliant": review.compliant,
        "n_violations": len(review.violations),
    }

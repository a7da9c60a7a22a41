"""The paper's core contribution: the packaging design procedure.

* :mod:`~avipack.core.design_flow` — the Fig. 1 parallel thermal +
  mechanical procedure against a specification;
* :mod:`~avipack.core.levels` — the Fig. 4 three-level thermal pyramid;
* :mod:`~avipack.core.selector` — cooling-architecture selection;
* :mod:`~avipack.core.qualification` — the virtual environmental
  campaign;
* :mod:`~avipack.core.report` — design-document rendering.
"""

from .._exports import lazy_exports

_EXPORTS = {
    ".advisor": ("DesignMove", "advise", "advise_cooling_escalation",
                 "junction_drop_for_mtbf"),
    ".design_flow": ("DesignReview", "FrequencyAllocation", "MechanicalReview",
                     "PackagingSpecification", "run_design_procedure",
                     "run_mechanical_branch", "run_thermal_branch"),
    ".levels": ("BOARD_LIMIT", "JUNCTION_LIMIT", "Level1Result",
                "Level2Result", "Level3Board", "Level3Result", "PyramidResult",
                "run_level1", "run_level2", "run_level3", "run_pyramid"),
    ".qualification": ("EquipmentUnderTest", "QualificationReport",
                       "TestVerdict", "run_acceleration_test", "run_campaign",
                       "run_climatic_test", "run_thermal_shock_test",
                       "run_vibration_test"),
    ".report": ("render_design_document", "render_qualification_report",
                "section_header", "summarize_margins"),
    ".selector": ("Architecture", "ArchitectureAssessment",
                  "ThermalRequirement", "assess",
                  "forced_air_no_longer_applicable", "select_architecture"),
    ".sensitivity": ("SensitivityEntry", "SensitivityStudy", "one_at_a_time",
                     "tornado_rows"),
    ".uncertainty": ("Distribution", "UncertaintyResult", "propagate"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)

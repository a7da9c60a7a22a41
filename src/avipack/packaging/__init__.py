"""Equipment models: components, PCBs, modules, racks and the COSEE SEB."""

from .component import (
    PACKAGE_FAMILIES,
    Component,
    PackageFamily,
    get_package,
    make_component,
)
from .cooling import (
    CoolingEvaluation,
    CoolingTechnique,
    ModuleEnvelope,
    compare_techniques,
    evaluate_cooling,
    max_power_for_limit,
)
from .formfactors import ATR_WIDTHS, AtrCase, generation_power_density
from .ife import IfeSystem, compare_cooling_strategies
from .module import Module, module_generation
from .pcb import (
    Pcb,
    PcbDetailModel,
    PcbDetailResult,
    dummy_resistive_pcb,
    optimize_copper_coverage,
)
from .rack import Rack, SlotResult, computer_rack
from .seb import (
    SeatElectronicsBox,
    SeatStructure,
    SebConfiguration,
    SebSolution,
    aluminum_seat_structure,
    carbon_composite_seat_structure,
)
from .wedgelock import WedgeLock, torque_study

__all__ = [
    "Component",
    "ATR_WIDTHS",
    "AtrCase",
    "IfeSystem",
    "WedgeLock",
    "generation_power_density",
    "compare_cooling_strategies",
    "torque_study",
    "CoolingEvaluation",
    "CoolingTechnique",
    "Module",
    "ModuleEnvelope",
    "PACKAGE_FAMILIES",
    "PackageFamily",
    "Pcb",
    "PcbDetailModel",
    "PcbDetailResult",
    "Rack",
    "SeatElectronicsBox",
    "SeatStructure",
    "SebConfiguration",
    "SebSolution",
    "SlotResult",
    "aluminum_seat_structure",
    "carbon_composite_seat_structure",
    "compare_techniques",
    "computer_rack",
    "dummy_resistive_pcb",
    "evaluate_cooling",
    "get_package",
    "make_component",
    "max_power_for_limit",
    "module_generation",
    "optimize_copper_coverage",
]

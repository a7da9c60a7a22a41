"""Equipment models: components, PCBs, modules, racks and the COSEE SEB."""

from .._exports import lazy_exports

_EXPORTS = {
    ".component": ("PACKAGE_FAMILIES", "Component", "PackageFamily",
                   "get_package", "make_component"),
    ".cooling": ("CoolingEvaluation", "CoolingTechnique", "ModuleEnvelope",
                 "compare_techniques", "evaluate_cooling",
                 "max_power_for_limit"),
    ".formfactors": ("ATR_WIDTHS", "AtrCase"),
    ".ife": ("IfeSystem", "compare_cooling_strategies"),
    ".module": ("Module", "module_generation"),
    ".pcb": ("Pcb", "PcbDetailModel", "PcbDetailResult", "dummy_resistive_pcb",
             "optimize_copper_coverage"),
    ".rack": ("Rack", "SlotResult", "computer_rack"),
    ".seb": ("SeatElectronicsBox", "SeatStructure", "SebConfiguration",
             "SebSolution", "aluminum_seat_structure",
             "carbon_composite_seat_structure"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)

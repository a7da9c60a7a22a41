"""Two-phase (phase-change) cooling devices.

The novel cooling technologies the paper investigates through the COSEE
project: heat pipes, loop heat pipes and vapor chambers, plus the wick
structures and working-fluid models they share.
"""

from .._exports import lazy_exports

_EXPORTS = {
    ".heatpipe": ("NUCLEATION_RADIUS", "HeatPipe", "HeatPipeGeometry",
                  "standard_copper_water_heatpipe"),
    ".loopheatpipe": ("LoopHeatPipe", "TransportLine", "cosee_ammonia_lhp"),
    ".vaporchamber": ("VaporChamber", "electronics_vapor_chamber"),
    ".wick": ("Wick", "sintered_necked_wick", "sintered_powder_wick"),
    ".workingfluid": ("WorkingFluid", "select_fluid"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)

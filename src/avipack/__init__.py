"""avipack — avionics packaging thermal/mechanical co-design toolkit.

A from-scratch reproduction of the system described in *"Integration,
cooling and packaging issues for aerospace equipments"* (C. Sarno,
C. Tantolin, Thales Avionics, DATE 2010): the parallel thermal/mechanical
packaging design procedure, the three-level thermal simulation pyramid,
the classical cooling techniques and their limits, the COSEE two-phase
(heat pipe + loop heat pipe) seat-electronics-box cooling chain, and the
NANOPACK thermal-interface-material developments.

Quick start::

    from avipack import SeatElectronicsBox, SebConfiguration

    seb = SeatElectronicsBox()
    passive = seb.solve(40.0, SebConfiguration(cooling="natural"))
    assisted = seb.solve(40.0, SebConfiguration(cooling="hp_lhp"))
    print(passive.delta_t_pcb_air - assisted.delta_t_pcb_air)  # ~32 K

Subpackages
-----------
``import avipack`` loads none of these: each subpackage, and each name
re-exported below, loads on first attribute access, so a process
imports only the modules it runs.

``materials``
    Solid/fluid property database, PCB layup models.
``thermal``
    Resistance networks, finite-volume conduction, convection and
    radiation correlations, transient solvers.
``twophase``
    Heat pipes, loop heat pipes, vapor chambers, wicks, working fluids.
``mechanical``
    Plate modal analysis, random vibration, fatigue, isolation,
    thermomechanical stress.
``tim``
    Thermal-interface-material models, catalogue and virtual testers.
``environments``
    DO-160, ARINC 600 and qualification profiles.
``perf``
    Solver instrumentation: per-kernel :class:`~avipack.perf.SolveStats`
    counters (assemblies, factorizations, reuses, wall time).
``reliability``
    Arrhenius/MIL-HDBK-217 style MTBF prediction.
``packaging``
    Components, PCBs, modules, racks and the COSEE SEB.
``service``
    The resilient sweep job server (asyncio, Unix socket) + client.
``retention``
    Crash-safe space governance: journal/store compaction, disk
    budgets and eviction policies.
``core``
    The design procedure: levels, selection, qualification, reporting.
``experiments``
    Canned builders for every paper figure and claim.
"""

from ._exports import lazy_exports
from .errors import (
    AvipackError,
    CacheCorruptionError,
    ConvergenceError,
    DurabilityError,
    InputError,
    MaterialNotFoundError,
    ModelRangeError,
    OperatingLimitError,
    ServiceError,
    SpecificationError,
    WatchdogTimeout,
    WorkerCrashError,
)

# The most-used entry points, re-exported flat from their defining
# modules; every subpackage loads on first access.
_EXPORTS = {
    ".core.design_flow": ("FrequencyAllocation", "PackagingSpecification",
                          "run_design_procedure"),
    ".core.levels": ("run_pyramid",),
    ".core.qualification": ("run_campaign",),
    ".core.selector": ("select_architecture",),
    ".packaging.module": ("Module",),
    ".packaging.pcb": ("Pcb",),
    ".packaging.rack": ("Rack",),
    ".packaging.seb": ("SeatElectronicsBox", "SebConfiguration"),
    ".resilience.faults": ("FaultPlan", "FaultSpec"),
    ".resilience.policy": ("RecoveryTrail", "SupervisionPolicy"),
    ".resilience.supervisor": ("Supervisor",),
    ".service.client": ("ServiceClient",),
    ".service.server": ("SweepService",),
    ".sweep.cache": ("SolverCache",),
    ".sweep.report": ("SweepReport",),
    ".sweep.runner": ("SweepRunner",),
    ".sweep.space": ("Candidate", "DesignSpace"),
    ".thermal.network": ("ThermalNetwork",),
    ".twophase.heatpipe": ("HeatPipe",),
    ".twophase.loopheatpipe": ("LoopHeatPipe",),
}
__getattr__, __dir__, _ = lazy_exports(__name__, _EXPORTS, submodules=(
    "core", "durability", "environments", "experiments", "fingerprint",
    "materials", "mechanical", "packaging", "perf", "reliability",
    "resilience", "results", "retention", "service", "sweep", "thermal",
    "tim", "twophase", "units"))

__version__ = "1.1.0"

__all__ = [
    "AvipackError",
    "CacheCorruptionError",
    "Candidate",
    "ConvergenceError",
    "DesignSpace",
    "DurabilityError",
    "FaultPlan",
    "FaultSpec",
    "FrequencyAllocation",
    "HeatPipe",
    "InputError",
    "LoopHeatPipe",
    "MaterialNotFoundError",
    "Module",
    "ModelRangeError",
    "OperatingLimitError",
    "PackagingSpecification",
    "Pcb",
    "Rack",
    "RecoveryTrail",
    "SeatElectronicsBox",
    "SebConfiguration",
    "ServiceClient",
    "ServiceError",
    "SolverCache",
    "SpecificationError",
    "Supervisor",
    "SupervisionPolicy",
    "SweepReport",
    "SweepRunner",
    "SweepService",
    "ThermalNetwork",
    "WatchdogTimeout",
    "WorkerCrashError",
    "core",
    "environments",
    "experiments",
    "materials",
    "mechanical",
    "packaging",
    "perf",
    "reliability",
    "resilience",
    "retention",
    "service",
    "sweep",
    "thermal",
    "tim",
    "twophase",
    "units",
    "run_campaign",
    "run_design_procedure",
    "run_pyramid",
    "select_architecture",
]

"""repro — distribution shim re-exporting :mod:`avipack`.

The reproduction workspace mandates the ``repro`` import name; the
library proper lives in :mod:`avipack`.  Both names expose the same
public API::

    import repro
    repro.SeatElectronicsBox  # same object as avipack.SeatElectronicsBox

The shim binds avipack's PEP 562 hooks, so ``import repro`` loads no
more than ``import avipack`` and each name resolves on first access.
"""

from avipack import (  # noqa: F401
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
    __all__,
    __dir__,
    __getattr__,
    __version__,
)

"""Reliability prediction from junction temperatures (level-3 output)."""

from .._exports import lazy_exports

_EXPORTS = {
    ".mission": ("MissionPhase", "MissionPrediction",
                 "degraded_cooling_penalty", "predict_mission_mtbf",
                 "standard_flight_profile"),
    ".mtbf": ("ENVIRONMENT_FACTORS", "MAX_AMBIENT", "MAX_JUNCTION",
              "QUALITY_FACTORS", "REFERENCE_JUNCTION", "PartReliability",
              "ReliabilityPrediction", "fan_reliability_penalty",
              "predict_mtbf"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)

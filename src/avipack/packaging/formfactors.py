"""Standard avionics case form factors (ARINC 404A "ATR" series).

The racks of Fig. 6 are built from standardised boxes: the Air Transport
Rack sizes define the width ladder (1/4 ATR … 1 ATR) at fixed height and
two standard depths.  Encoding them lets equipment models start from a
real case instead of ad-hoc dimensions, and exposes the paper's
miniaturisation squeeze as a first-class quantity (W/litre per
generation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..errors import InputError
from .cooling import ModuleEnvelope

#: ATR case heights and depths [m] (ARINC 404A).
ATR_HEIGHT = 0.194
ATR_DEPTH_SHORT = 0.318
ATR_DEPTH_LONG = 0.497

#: Width ladder [m] per ATR fraction.
ATR_WIDTHS: Dict[str, float] = {
    "1/4_atr": 0.057,
    "3/8_atr": 0.091,
    "1/2_atr": 0.124,
    "3/4_atr": 0.194,
    "1_atr": 0.257,
}


@dataclass(frozen=True)
class AtrCase:
    """One ATR-format equipment case.

    ``size`` is a key of :data:`ATR_WIDTHS`; ``long_case`` selects the
    497 mm depth instead of 318 mm.
    """

    size: str
    long_case: bool = False

    def __post_init__(self) -> None:
        if self.size not in ATR_WIDTHS:
            raise InputError(f"unknown ATR size {self.size!r}; known: "
                             f"{sorted(ATR_WIDTHS)}")

    @property
    def width(self) -> float:
        """Case width [m]."""
        return ATR_WIDTHS[self.size]

    @property
    def height(self) -> float:
        """Case height [m]."""
        return ATR_HEIGHT

    @property
    def depth(self) -> float:
        """Case depth [m]."""
        return ATR_DEPTH_LONG if self.long_case else ATR_DEPTH_SHORT

    @property
    def volume_litres(self) -> float:
        """Internal volume [litres]."""
        return self.width * self.height * self.depth * 1000.0

    @property
    def external_area(self) -> float:
        """External surface area [m²]."""
        w, h, d = self.width, self.height, self.depth
        return 2.0 * (w * h + w * d + h * d)

    def power_density(self, power: float) -> float:
        """Volumetric power density [W/litre].

        The §III squeeze metric: "the module sizes are reduced or at the
        best remain unchanged" while power triples.
        """
        if power < 0.0:
            raise InputError("power must be non-negative")
        return power / self.volume_litres

    def card_count(self, pitch: float = 0.02) -> int:
        """How many cards fit at a given pitch [m]."""
        if pitch <= 0.0:
            raise InputError("pitch must be positive")
        return max(int(self.width / pitch), 1)

    def module_envelope(self, channel_gap: float = 5.0e-3
                        ) -> ModuleEnvelope:
        """A :class:`ModuleEnvelope` for one card of this case."""
        return ModuleEnvelope(
            board_length=self.height * 0.95,
            board_width=self.depth * 0.9,
            shell_area=self.external_area,
            channel_gap=channel_gap,
        )

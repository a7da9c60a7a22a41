"""The one text form of a design point's label.

:attr:`avipack.sweep.space.Candidate.label` formats through
:func:`candidate_label`, and so does the result store, which rebuilds
its ``label`` column from a row's axis columns instead of storing it.
The two therefore agree byte for byte.
"""

from __future__ import annotations

__all__ = ["candidate_label", "cooling_name"]


def cooling_name(cooling: object) -> str:
    """A cooling technique's text: an enum's string value, else ``str``."""
    value = getattr(cooling, "value", None)
    return value if isinstance(value, str) else str(cooling)


def candidate_label(power_per_module: float, n_modules: int,
                    form_factor: str, cooling: str, tim_name: str,
                    series_fraction: float) -> str:
    """Short human-readable identifier for tables and logs.

    ``cooling`` is the technique's text (:func:`cooling_name`).
    """
    return (f"{power_per_module:g}W x{n_modules} {form_factor} {cooling} "
            f"{tim_name} sf{series_fraction:g}")

"""Experiment result container and rendering helpers."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict

from repro.util.serialization import dump_json, to_jsonable


@dataclass
class ExperimentResult:
    """Outcome of one table/figure reproduction.

    Attributes
    ----------
    experiment_id:
        Paper identifier, e.g. ``"table2"`` or ``"fig14"``.
    title:
        Human-readable title matching the paper's caption.
    scale:
        ``"quick"`` or ``"paper"`` — how large the run was.
    data:
        JSON-serialisable dict with the series/rows of the table/figure.
    rendered:
        Pre-formatted plain-text report (what the section CLIs print).
    notes:
        Free-form notes, e.g. scale reductions relative to the paper.
    """

    experiment_id: str
    title: str
    scale: str
    data: Dict[str, Any] = field(default_factory=dict)
    rendered: str = ""
    notes: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable view of the result."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "scale": self.scale,
            "notes": self.notes,
            "data": to_jsonable(self.data),
        }

    def save(self, directory: Path | str) -> Path:
        """Write the result as ``<experiment_id>.json`` under ``directory``."""
        directory = Path(directory)
        return dump_json(self.to_dict(), directory / f"{self.experiment_id}.json")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        header = f"[{self.experiment_id}] {self.title} (scale={self.scale})"
        parts = [header]
        if self.notes:
            parts.append(self.notes)
        if self.rendered:
            parts.append(self.rendered)
        return "\n".join(parts)

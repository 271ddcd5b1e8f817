"""Pipeline configuration: one strict JSON file drives every subcommand.

The file is read as ``PipelineConfig`` by ``jsonfile.from_doc``, each
section through its dataclass. Unknown keys are rejected so a typo cannot
silently fall back to a default. The loaded config is echoed into every
report for provenance.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

from twinforge.errors import ConfigParse, UnknownKey
from twinforge.jsonfile import from_doc, read_json
from twinforge.sequence.service import ServiceEndpoint
from twinforge.tabular.gan import GanConfig
from twinforge.tabular.gate import GateConfig
from twinforge.twin.manifest import DEFAULT_EXCLUSIONS, is_os_path
from twinforge.twin.sandbox import Screen

WORKSPACE_ENV = "TWINFORGE_WORKSPACE"


@dataclass(frozen=True)
class NgramConfig:
    order: int = 3
    delta: float = 0.01

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if not 0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite")


@dataclass(frozen=True)
class PipelineConfig:
    workspace: Path
    seed: int = 0
    gan: GanConfig = field(default_factory=GanConfig)
    gate: GateConfig = field(default_factory=GateConfig)
    ngram: NgramConfig = field(default_factory=NgramConfig)
    service: ServiceEndpoint | None = None
    exclusions: tuple[str, ...] = DEFAULT_EXCLUSIONS
    screen: Screen = field(default_factory=Screen)

    def __post_init__(self) -> None:
        if not is_os_path(str(self.workspace)) or not str(self.workspace):
            raise ValueError("workspace must be a non-empty path with no NUL that encodes as UTF-8")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if not all(self.exclusions):
            raise ValueError("exclusions must be non-empty glob strings")
        object.__setattr__(self, "workspace", Path(self.workspace))

    def snapshot(self) -> dict:
        """JSON-ready view embedded into reports."""
        return {**asdict(self), "workspace": str(self.workspace), "exclusions": list(self.exclusions)}


def default_workspace() -> Path:
    return Path(os.environ.get(WORKSPACE_ENV, "."))


def load_config(path: str | Path) -> PipelineConfig:
    """Strict parse; every unknown key or out-of-range value is an error."""
    return from_doc(PipelineConfig, read_json(path, ConfigParse), ConfigParse, str(path), unknown=UnknownKey)

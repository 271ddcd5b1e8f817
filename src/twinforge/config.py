"""Pipeline configuration: one strict JSON file drives every subcommand.

The file is read as ``PipelineConfig`` by ``jsonfile.from_doc``, each
section through its dataclass. Unknown keys are rejected so a typo cannot
silently fall back to a default. The loaded config is echoed into every
report for provenance.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import asdict, dataclass, field
from pathlib import Path

from twinforge.errors import ConfigParse
from twinforge.jsonfile import from_doc, read_json
from twinforge.twin.manifest import DEFAULT_EXCLUSIONS, is_os_path, is_safe_rel_path
from twinforge.twin.sandbox import Screen

WORKSPACE_ENV = "TWINFORGE_WORKSPACE"


@dataclass(frozen=True)
class GanConfig:
    epochs: int = 300
    batch_size: int = 32
    learning_rate: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.9
    noise_dim: int = 32
    hidden_dim: int = 128
    max_modes: int = 5
    cond_loss_weight: float = 1.0
    pac: int = 8

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if not (0 < self.learning_rate and math.isfinite(self.learning_rate)):
            raise ValueError("learning_rate must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("betas must be in [0, 1)")
        if self.noise_dim < 1 or self.hidden_dim < 1:
            raise ValueError("noise_dim and hidden_dim must be >= 1")
        if not 1 <= self.max_modes:
            raise ValueError("max_modes must be >= 1")
        if not 0 <= self.cond_loss_weight < math.inf:
            raise ValueError("cond_loss_weight must be >= 0 and finite")
        if self.pac < 1 or self.batch_size % self.pac != 0:
            raise ValueError("pac must be >= 1 and divide batch_size")


@dataclass(frozen=True)
class GateConfig:
    tau_continuous: float = 0.1
    tau_discrete: float = 0.1
    max_attempts: int = 20

    def __post_init__(self) -> None:
        # tau == 0 is allowed (it makes the gate reject everything, which the
        # pipeline reports as exhaustion); negative or NaN thresholds are not.
        for name in ("tau_continuous", "tau_discrete"):
            value = getattr(self, name)
            if math.isnan(value) or value < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")


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
class ServiceEndpoint:
    url: str
    auth_token: str | None = None
    timeout_s: float = 10.0

    def __post_init__(self) -> None:
        if not self.url:
            raise ValueError("endpoint url must be non-empty")
        # a longer timeout overflows the socket layer's clock
        if not 0 < self.timeout_s <= threading.TIMEOUT_MAX:
            raise ValueError(f"timeout_s must be positive and at most {threading.TIMEOUT_MAX:.0f}")


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
        if not all(map(is_safe_rel_path, self.exclusions)):
            raise ValueError("exclusions must be globs over relative, normalized paths (no leading or trailing /)")
        object.__setattr__(self, "workspace", Path(self.workspace))

    def snapshot(self) -> dict:
        """JSON-ready view embedded into reports."""
        return {**asdict(self), "workspace": str(self.workspace), "exclusions": list(self.exclusions)}


def default_config() -> PipelineConfig:
    """Every default, with the workspace ``$TWINFORGE_WORKSPACE`` names, else the current directory."""
    try:
        return PipelineConfig(Path(os.environ.get(WORKSPACE_ENV, ".")))
    except ValueError as exc:
        raise ConfigParse(f"{WORKSPACE_ENV}: {exc}") from exc


def load_config(path: str | Path) -> PipelineConfig:
    """Strict parse; every unknown key or out-of-range value is an error."""
    return from_doc(PipelineConfig, read_json(path, ConfigParse), ConfigParse, str(path))

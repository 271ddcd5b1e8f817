"""Pipeline configuration: one strict JSON file drives every subcommand.

Unknown keys are rejected rather than ignored so a typo cannot silently
fall back to a default. Absent optional fields take the documented
defaults. The loaded config is echoed into every report for provenance.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

from twinforge.errors import ConfigParse, UnknownKey
from twinforge.jsonfile import read_json
from twinforge.sequence.service import ServiceEndpoint
from twinforge.tabular.gan import GanConfig
from twinforge.tabular.gate import GateConfig
from twinforge.twin.manifest import DEFAULT_EXCLUSIONS

WORKSPACE_ENV = "TWINFORGE_WORKSPACE"


@dataclass(frozen=True)
class NgramConfig:
    order: int = 3
    delta: float = 0.01

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.delta <= 0:
            raise ValueError("delta must be positive")


@dataclass(frozen=True)
class PipelineConfig:
    workspace: Path
    seed: int = 0
    gan: GanConfig = field(default_factory=GanConfig)
    gate: GateConfig = field(default_factory=GateConfig)
    ngram: NgramConfig = field(default_factory=NgramConfig)
    service: ServiceEndpoint | None = None
    exclusions: tuple[str, ...] = DEFAULT_EXCLUSIONS
    screen_width: int = 1920
    screen_height: int = 1080

    def snapshot(self) -> dict:
        """JSON-ready view embedded into reports."""
        doc = {
            "workspace": str(self.workspace),
            "seed": self.seed,
            "gan": asdict(self.gan),
            "gate": asdict(self.gate),
            "ngram": asdict(self.ngram),
            "service": asdict(self.service) if self.service else None,
            "exclusions": list(self.exclusions),
            "screen": {"width": self.screen_width, "height": self.screen_height},
        }
        return doc


def default_workspace() -> Path:
    return Path(os.environ.get(WORKSPACE_ENV, "."))


def _section(doc: dict, name: str, allowed: dict, path: str) -> dict:
    raw = doc.get(name)
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigParse(path, "expected an object")
    for key in raw:
        if key not in allowed:
            raise UnknownKey(f"{path}.{key}")
    for key, types in allowed.items():
        # JSON true/false are Python ints; no field here takes a boolean
        if key in raw and (isinstance(raw[key], bool) or not isinstance(raw[key], types)):
            raise ConfigParse(f"{path}.{key}", f"expected {types}")
    return raw


_GAN_KEYS = {
    "epochs": int,
    "batch_size": int,
    "learning_rate": (int, float),
    "beta1": (int, float),
    "beta2": (int, float),
    "noise_dim": int,
    "hidden_dim": int,
    "max_modes": int,
    "cond_loss_weight": (int, float),
    "pac": int,
}
_GATE_KEYS = {"tau_continuous": (int, float), "tau_discrete": (int, float), "max_attempts": int}
_NGRAM_KEYS = {"order": int, "delta": (int, float)}
_SERVICE_KEYS = {"url": str, "auth_token": str, "timeout_s": (int, float)}
_SCREEN_KEYS = {"width": int, "height": int}
_TOP_KEYS = ("workspace", "seed", "gan", "gate", "ngram", "service", "exclusions", "screen")


def config_from_doc(doc: object, source: str = "<config>") -> PipelineConfig:
    if not isinstance(doc, dict):
        raise ConfigParse(source, "config root must be a JSON object")
    for key in doc:
        if key not in _TOP_KEYS:
            raise UnknownKey(key)

    workspace = doc.get("workspace")
    if not isinstance(workspace, str) or not workspace:
        raise ConfigParse("workspace", "required string")
    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigParse("seed", "must be a non-negative integer")

    try:
        gan = GanConfig(**_section(doc, "gan", _GAN_KEYS, "gan"))
    except ValueError as exc:
        raise ConfigParse("gan", str(exc)) from exc
    try:
        gate = GateConfig(**_section(doc, "gate", _GATE_KEYS, "gate"))
    except ValueError as exc:
        raise ConfigParse("gate", str(exc)) from exc
    try:
        ngram = NgramConfig(**_section(doc, "ngram", _NGRAM_KEYS, "ngram"))
    except ValueError as exc:
        raise ConfigParse("ngram", str(exc)) from exc

    service = None
    if doc.get("service") is not None:
        raw = _section(doc, "service", _SERVICE_KEYS, "service")
        if "url" not in raw:
            raise ConfigParse("service.url", "required when a service block is present")
        try:
            service = ServiceEndpoint(**raw)
        except ValueError as exc:
            raise ConfigParse("service", str(exc)) from exc

    exclusions = doc.get("exclusions", list(DEFAULT_EXCLUSIONS))
    if not isinstance(exclusions, list) or not all(isinstance(x, str) and x for x in exclusions):
        raise ConfigParse("exclusions", "must be a list of glob strings")

    screen = _section(doc, "screen", _SCREEN_KEYS, "screen")
    width = screen.get("width", 1920)
    height = screen.get("height", 1080)
    if width < 1 or height < 1:
        raise ConfigParse("screen", "dimensions must be positive")

    return PipelineConfig(
        workspace=Path(workspace),
        seed=seed,
        gan=gan,
        gate=gate,
        ngram=ngram,
        service=service,
        exclusions=tuple(exclusions),
        screen_width=width,
        screen_height=height,
    )


def load_config(path: str | Path) -> PipelineConfig:
    """Strict parse; every unknown key or out-of-range value is an error."""
    doc = read_json(path, lambda reason: ConfigParse(str(path), reason))
    return config_from_doc(doc, source=str(path))

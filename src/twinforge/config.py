"""Pipeline configuration: one strict JSON file drives every subcommand.

Each section is read through its dataclass: its keys are the fields, and a
value's JSON type follows the field's annotation. Unknown keys are rejected
so a typo cannot silently fall back to a default. The loaded config is
echoed into every report for provenance.
"""

from __future__ import annotations

import math
import os
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

from twinforge.errors import ConfigParse, UnknownKey
from twinforge.jsonfile import read_json
from twinforge.sequence.service import ServiceEndpoint
from twinforge.tabular.gan import GanConfig
from twinforge.tabular.gate import GateConfig
from twinforge.twin.manifest import DEFAULT_EXCLUSIONS
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

    def snapshot(self) -> dict:
        """JSON-ready view embedded into reports."""
        return {**asdict(self), "workspace": str(self.workspace), "exclusions": list(self.exclusions)}


def default_workspace() -> Path:
    return Path(os.environ.get(WORKSPACE_ENV, "."))


# The JSON types a section field accepts, by annotation. JSON true/false load
# as Python ints, and no section field takes a boolean, so they are refused.
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,), str | None: (str,)}
_SECTIONS = {
    name: (cls, {k: _JSON_TYPES[t] for k, t in get_type_hints(cls).items()})
    for name, cls in (("gan", GanConfig), ("gate", GateConfig), ("ngram", NgramConfig),
                      ("service", ServiceEndpoint), ("screen", Screen))
}


def _section(raw: object, name: str):
    cls, schema = _SECTIONS[name]
    if not isinstance(raw, dict):
        raise ConfigParse(name, "expected an object")
    for key in raw:
        if key not in schema:
            raise UnknownKey(f"{name}.{key}")
    for f in fields(cls):
        if f.name in raw:
            if isinstance(raw[f.name], bool) or not isinstance(raw[f.name], schema[f.name]):
                raise ConfigParse(f"{name}.{f.name}", f"expected {schema[f.name]}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigParse(f"{name}.{f.name}", f"required when a {name} block is present")
    try:
        return cls(**raw)
    except ValueError as exc:
        raise ConfigParse(name, str(exc)) from exc


def config_from_doc(doc: object, source: str = "<config>") -> PipelineConfig:
    if not isinstance(doc, dict):
        raise ConfigParse(source, "config root must be a JSON object")
    top = [f.name for f in fields(PipelineConfig)]
    for key in doc:
        if key not in top:
            raise UnknownKey(key)

    workspace = doc.get("workspace")
    if not isinstance(workspace, str) or not workspace:
        raise ConfigParse("workspace", "required string")
    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigParse("seed", "must be a non-negative integer")

    values: dict = {"workspace": Path(workspace), "seed": seed}
    # read in field order, so of several faults the first field's is reported
    for name in top:
        raw = doc.get(name)
        if name == "exclusions" and name in doc:
            if not isinstance(raw, list) or not all(isinstance(x, str) and x for x in raw):
                raise ConfigParse("exclusions", "must be a list of glob strings")
            values[name] = tuple(raw)
        elif name in _SECTIONS and raw is not None:
            values[name] = _section(raw, name)
    return PipelineConfig(**values)


def load_config(path: str | Path) -> PipelineConfig:
    """Strict parse; every unknown key or out-of-range value is an error."""
    doc = read_json(path, lambda reason: ConfigParse(str(path), reason))
    return config_from_doc(doc, source=str(path))

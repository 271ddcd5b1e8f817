"""Strict config parsing: defaults, rejections, unknown keys."""

from __future__ import annotations

import json
import math
import threading
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import pytest

from twinforge.config import GanConfig, GateConfig, NgramConfig, ServiceEndpoint, load_config
from twinforge.errors import ConfigParse, UnknownKey
from twinforge.jsonfile import dumps
from twinforge.twin.sandbox import Screen

SECTIONS = {"gan": GanConfig, "gate": GateConfig, "ngram": NgramConfig, "service": ServiceEndpoint, "screen": Screen}
SECTION_FIELDS = [(name, f.name) for name, cls in SECTIONS.items() for f in fields(cls)]
NUMERIC_FIELDS = [
    (name, key) for name, key in SECTION_FIELDS if get_type_hints(SECTIONS[name])[key] in (int, float)
]
SERVICE_URL = "http://localhost:1"

# A value for every key, none of them the default; each one is also valid
# with every other key of its section left at its default.
FULL = {
    "workspace": "ws",
    "seed": 11,
    "gan": {"epochs": 40, "batch_size": 24, "learning_rate": 0.001, "beta1": 0.4, "beta2": 0.95,
            "noise_dim": 8, "hidden_dim": 16, "max_modes": 3, "cond_loss_weight": 2, "pac": 4},
    "gate": {"tau_continuous": 0.25, "tau_discrete": 0, "max_attempts": 5},
    "ngram": {"order": 4, "delta": 0.5},
    "service": {"url": "http://localhost:9", "auth_token": "token", "timeout_s": 2.5},
    "exclusions": ["tmp/**", "cache/*"],
    "screen": {"width": 800, "height": 600},
}


def _write(tmp_path: Path, doc: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_minimal_config_gets_all_defaults(tmp_path):
    config = load_config(_write(tmp_path, {"workspace": "ws"}))
    assert config.workspace == Path("ws")
    assert config.seed == 0
    assert config.gan.epochs == 300
    assert config.gan.batch_size == 32
    assert config.gan.learning_rate == 2e-4
    assert (config.gan.beta1, config.gan.beta2) == (0.5, 0.9)
    assert config.gate.tau_continuous == 0.1
    assert config.gate.tau_discrete == 0.1
    assert config.gate.max_attempts == 20
    assert config.ngram.order == 3
    assert config.ngram.delta == 0.01
    assert config.service is None
    assert config.exclusions == ("tmp/**", "proc/**", "sys/**", "dev/**")
    assert (config.screen.width, config.screen.height) == (1920, 1080)


def test_negative_tau_rejected(tmp_path):
    path = _write(tmp_path, {"workspace": "ws", "gate": {"tau_continuous": -1}})
    with pytest.raises(ConfigParse):
        load_config(path)


def test_zero_tau_allowed(tmp_path):
    config = load_config(_write(tmp_path, {"workspace": "ws", "gate": {"tau_continuous": 0}}))
    assert config.gate.tau_continuous == 0


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(UnknownKey):
        load_config(_write(tmp_path, {"workspace": "ws", "surprise": 1}))
    with pytest.raises(UnknownKey):
        load_config(_write(tmp_path, {"workspace": "ws", "gan": {"epoch": 10}}))


def test_missing_workspace_rejected(tmp_path):
    with pytest.raises(ConfigParse):
        load_config(_write(tmp_path, {"seed": 3}))


# A NUL once reached the workspace lock's mkdir as a bare ValueError (exit 1).
@pytest.mark.parametrize("workspace", ["\x00", "ws/a\x00b", "ws/\ud800"])
def test_a_workspace_the_os_cannot_take_is_rejected(tmp_path, workspace):
    with pytest.raises(ConfigParse, match="workspace"):
        load_config(_write(tmp_path, {"workspace": workspace}))


# Each breaks the one path rule, so it can never match a walked path.
@pytest.mark.parametrize("pattern", ["/proc/**", "proc/", "", "a//b", "../x"])
def test_an_exclusion_that_breaks_the_path_rule_is_rejected(tmp_path, pattern):
    with pytest.raises(ConfigParse, match="exclusions"):
        load_config(_write(tmp_path, {"workspace": "ws", "exclusions": ["tmp/**", pattern]}))


def test_bad_json_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{", encoding="utf-8")
    with pytest.raises(ConfigParse):
        load_config(path)


def test_service_block(tmp_path):
    doc = {"workspace": "ws", "service": {"url": "http://localhost:9", "timeout_s": 2}}
    config = load_config(_write(tmp_path, doc))
    assert config.service.url == "http://localhost:9"
    assert config.service.timeout_s == 2
    with pytest.raises(ConfigParse):
        load_config(_write(tmp_path, {"workspace": "ws", "service": {"timeout_s": 2}}))


def test_snapshot_is_json_ready(tmp_path):
    config = load_config(_write(tmp_path, {"workspace": "ws", "seed": 9}))
    snapshot = config.snapshot()
    assert json.loads(json.dumps(snapshot)) == snapshot
    assert snapshot["seed"] == 9
    assert snapshot["gan"]["epochs"] == 300


@pytest.mark.parametrize("section, key", NUMERIC_FIELDS)
def test_boolean_is_not_a_number(tmp_path, section, key):
    doc = {"workspace": "ws", section: {key: True}}
    if section == "service":
        doc[section]["url"] = SERVICE_URL
    with pytest.raises(ConfigParse, match=f"{section}.{key}"):
        load_config(_write(tmp_path, doc))


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("section, key", [("ngram", "delta"), ("service", "timeout_s"), ("gan", "cond_loss_weight")])
def test_non_finite_values_are_refused(tmp_path, section, key, value):
    # each would otherwise fail later: NaN probabilities in generation, an
    # OverflowError from the socket layer, a non-finite loss after the fit
    doc = {"workspace": "ws", section: {key: value}}
    if section == "service":
        doc[section]["url"] = SERVICE_URL
    with pytest.raises(ConfigParse, match=section):
        load_config(_write(tmp_path, doc))


def test_service_timeout_must_fit_the_socket_clock(tmp_path):
    doc = {"workspace": "ws", "service": {"url": SERVICE_URL, "timeout_s": threading.TIMEOUT_MAX}}
    assert load_config(_write(tmp_path, doc)).service.timeout_s == threading.TIMEOUT_MAX
    doc["service"]["timeout_s"] = 1e12
    with pytest.raises(ConfigParse, match="service"):
        load_config(_write(tmp_path, doc))


@pytest.mark.parametrize("section, key", SECTION_FIELDS)
def test_every_section_field_loads_a_non_default_value(tmp_path, section, key):
    value = FULL[section][key]
    doc = {"workspace": "ws", section: {key: value}}
    if section == "service" and key != "url":
        doc[section]["url"] = SERVICE_URL
    loaded = getattr(load_config(_write(tmp_path, doc)), section)
    assert getattr(loaded, key) == value
    assert type(getattr(loaded, key)) is type(value)
    assert value != next(f.default for f in fields(SECTIONS[section]) if f.name == key)


def test_full_config_covers_every_key(tmp_path):
    config = load_config(_write(tmp_path, FULL))
    for name, cls in SECTIONS.items():
        assert set(FULL[name]) == {f.name for f in fields(cls)}
        assert getattr(config, name) == cls(**FULL[name])


def test_service_without_url_names_the_url(tmp_path):
    with pytest.raises(ConfigParse, match="service.url"):
        load_config(_write(tmp_path, {"workspace": "ws", "service": {"auth_token": "t"}}))


@pytest.mark.parametrize("screen", [{"width": 0}, {"height": -1}])
def test_screen_dimensions_must_be_positive(tmp_path, screen):
    with pytest.raises(ConfigParse, match="screen"):
        load_config(_write(tmp_path, {"workspace": "ws", "screen": screen}))


def test_snapshot_documents_are_pinned(tmp_path):
    # Field names become report keys, so renaming a field must fail here.
    minimal = load_config(_write(tmp_path, {"workspace": "ws"})).snapshot()
    assert dumps(minimal) == dumps(
        {
            "workspace": "ws",
            "seed": 0,
            "gan": {"epochs": 300, "batch_size": 32, "learning_rate": 0.0002, "beta1": 0.5,
                    "beta2": 0.9, "noise_dim": 32, "hidden_dim": 128, "max_modes": 5,
                    "cond_loss_weight": 1.0, "pac": 8},
            "gate": {"tau_continuous": 0.1, "tau_discrete": 0.1, "max_attempts": 20},
            "ngram": {"order": 3, "delta": 0.01},
            "service": None,
            "exclusions": ["tmp/**", "proc/**", "sys/**", "dev/**"],
            "screen": {"width": 1920, "height": 1080},
        }
    )
    assert list(minimal) == ["workspace", "seed", "gan", "gate", "ngram", "service", "exclusions", "screen"]
    assert dumps(load_config(_write(tmp_path, FULL)).snapshot()) == dumps(FULL)

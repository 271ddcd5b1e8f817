"""Strict config parsing: defaults, rejections, unknown keys."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from twinforge.config import load_config
from twinforge.errors import ConfigParse, UnknownKey


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
    assert (config.screen_width, config.screen_height) == (1920, 1080)


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


@pytest.mark.parametrize(
    "section, key",
    [("gan", "epochs"), ("gan", "pac"), ("gan", "learning_rate"), ("gate", "max_attempts"),
     ("gate", "tau_discrete"), ("ngram", "order"), ("ngram", "delta"), ("screen", "width"),
     ("service", "timeout_s")],
)
def test_boolean_is_not_a_number(tmp_path, section, key):
    doc = {"workspace": "ws", section: {key: True}}
    if section == "service":
        doc[section]["url"] = "http://localhost:1"
    with pytest.raises(ConfigParse, match=f"{section}.{key}"):
        load_config(_write(tmp_path, doc))

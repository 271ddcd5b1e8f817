"""The shared JSON text form and the typed errors of every artifact loader."""

from __future__ import annotations

import json
from dataclasses import dataclass

import pytest

from twinforge.config import load_config
from twinforge.errors import (
    ConfigParse,
    MalformedArchive,
    MalformedChecks,
    MalformedModel,
    MalformedPatch,
    MalformedReport,
)
from twinforge.jsonfile import dumps
from twinforge.sequence import load_seq_model
from twinforge.tabular import load_model
from twinforge.twin import load_checks, load_delta, load_image, load_manifest, sidecar_path
from twinforge.validate import load_report


@dataclass(frozen=True)
class _Point:
    y: float
    x: tuple[int, ...]


def test_dumps_writes_dataclasses_as_sorted_field_objects():
    assert dumps({"b": _Point(0.5, (1, 2)), "a": None}) == (
        '{\n  "a": null,\n  "b": {\n    "x": [\n      1,\n      2\n    ],\n    "y": 0.5\n  }\n}\n'
    )
    with pytest.raises(TypeError):
        dumps({1, 2})
    with pytest.raises(TypeError):
        dumps(_Point)


def _load_image(sidecar):
    image = sidecar.with_suffix(".twimg")
    image.write_bytes(b"")
    sidecar.replace(sidecar_path(image))
    return load_image(image)


def _versioned(version):
    """A wrong top-level type, a missing key and an unsupported version."""
    return [b"[]", json.dumps({"format_version": version}).encode(), b'{"format_version": 99}']


LOADERS = [
    ("model", load_model, MalformedModel, _versioned(2)),
    ("seq-model", load_seq_model, MalformedModel, _versioned(1)),
    ("report", load_report, MalformedReport, _versioned(1)),
    ("manifest", load_manifest, MalformedArchive, _versioned(1)),
    ("image-sidecar", _load_image, MalformedArchive, _versioned(1)),
    ("delta", load_delta, MalformedPatch, [b"{}", b'[{"op": "delete_file"}]']),
    ("checks", load_checks, MalformedChecks, [b"{}", b'[{"check": "file_exists"}]']),
    ("config", load_config, ConfigParse, [b"[]", b"{}"]),
]


@pytest.mark.parametrize("load, error, docs", [l[1:] for l in LOADERS], ids=[l[0] for l in LOADERS])
def test_every_loader_raises_its_typed_error(tmp_path, load, error, docs):
    for content in [b"\xff\xfe{", b"{not json", *docs]:
        path = tmp_path / "artifact.json"
        path.write_bytes(content)
        with pytest.raises(error):
            load(path)

"""The shared JSON text form and the typed errors of every artifact loader."""

from __future__ import annotations

import copy
import json
import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from twinforge.cli import main
from twinforge.config import GanConfig, load_config
from twinforge.errors import (
    ConfigParse,
    MalformedArchive,
    MalformedChecks,
    MalformedModel,
    MalformedPatch,
    MalformedReport,
)
from twinforge.ingest.macro import BOS, EOS
from twinforge.ingest.tabular import CONTINUOUS, DISCRETE, Column, Schema, TabularDataset, write_dataset_csv
from twinforge.jsonfile import dumps
from twinforge.sequence.ngram import load_seq_model, save_seq_model, train_ngram
from twinforge.tabular.encoding import TableCodec
from twinforge.tabular.gan import GanModel, load_model, model_to_json
from twinforge.tabular.gate import column_distances
from twinforge.tabular.net import RELU, FeedForward
from twinforge.twin.checks import load_checks
from twinforge.twin.image import MAGIC, load_image, sidecar_path
from twinforge.twin.manifest import load_manifest
from twinforge.twin.patch import load_delta
from twinforge.validate.report import build_report, load_report, save_report
from twinforge.validate.stats import compare_stats, summary_stats


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
    image.write_bytes(MAGIC + bytes(4))  # an archive of no entries
    sidecar.replace(sidecar_path(image))
    return load_image(image)


def _versioned(version):
    """A wrong top-level type, a missing key and an unsupported version."""
    return [b"[]", json.dumps({"format_version": version}).encode(), b'{"format_version": 99}']


def _saved(save, artifact):
    """The JSON document ``save`` writes for ``artifact``."""
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "artifact.json"
        save(artifact, path)
        return json.loads(path.read_text(encoding="utf-8"))


# A small valid document of each versioned artifact, as its writer makes it.
TABLE = TabularDataset(Schema((Column("x", CONTINUOUS), Column("u", DISCRETE))), [(1.0, "a"), (2.0, "b")])
REPORT = _saved(
    save_report,
    build_report(
        run_id="r", created_at="t", seeds={"global": 0}, config={},
        real_stats=summary_stats(TABLE), synth_stats=summary_stats(TABLE),
        comparison=compare_stats(TABLE, TABLE), distances=column_distances(TABLE, TABLE),
    ),
)
MODEL = json.loads(
    model_to_json(
        GanModel(
            TableCodec(Schema((Column("u", DISCRETE),)), {}, {"u": ("a",)}, {"u": {"a": 1}}),
            GanConfig(noise_dim=1, hidden_dim=1), 0,
            FeedForward([2, 1, 1, 1], RELU, np.random.default_rng(0)), (0.5,), (0.5,),
        )
    )
)
SEQ_MODEL = _saved(save_seq_model, train_ngram([(BOS, "Sleep, 1", EOS)]))
SIDECAR = {"format_version": 1, "created_at": "t", "exclusions": [], "entries": []}


def _with(doc, value, *keys):
    """``doc``'s bytes with the field at ``keys`` set to ``value``."""
    doc = copy.deepcopy(doc)
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return json.dumps(doc).encode()


# One wrong-typed or wrong-shaped field each. Most of these once loaded (some
# then failing in generation) or crashed the loader with a ValueError or an
# AttributeError instead of its typed error.
WRONG_TYPED = {
    "model": [_with(MODEL, [], "normalizers"), _with(MODEL, [], "categories"), _with(MODEL, [], "frequencies"),
              _with(MODEL, {}, "frequencies"), _with(MODEL, 5, "generator", "weights"),
              _with(MODEL, [["x"], [0.5], [0.5]], "generator", "weights")],
    "seq-model": [_with(SEQ_MODEL, 2.5, "order"), _with(SEQ_MODEL, {"0": []}, "counts"),
                  _with(SEQ_MODEL, 4, "order"), _with(SEQ_MODEL, math.nan, "delta"),
                  _with(SEQ_MODEL, 0, "counts", "0", "", "Sleep, 1"), _with(SEQ_MODEL, 1, "counts", "0", "", "Run, x")],
    "report": [_with(REPORT, "ab", "seeds"), _with(REPORT, "x", "distances", 0, "distance"),
               _with(REPORT, "x", "real_stats", "means", "x"), _with(REPORT, "x", "comparison", "continuous", "x", "real"),
               _with(REPORT, "x", "gate_attempts")],
    "sidecar": [_with(SIDECAR, "abc", "exclusions"), _with(SIDECAR, 5, "created_at")],
}

LOADERS = [
    ("model", load_model, MalformedModel, _versioned(2) + WRONG_TYPED["model"]),
    ("seq-model", load_seq_model, MalformedModel, _versioned(1) + WRONG_TYPED["seq-model"]),
    ("report", load_report, MalformedReport, _versioned(1) + WRONG_TYPED["report"]),
    ("manifest", load_manifest, MalformedArchive, _versioned(1) + WRONG_TYPED["sidecar"]),
    ("image-sidecar", _load_image, MalformedArchive, _versioned(1) + WRONG_TYPED["sidecar"]),
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


@pytest.mark.parametrize(
    "load, doc", [(load_model, MODEL), (load_seq_model, SEQ_MODEL), (load_report, REPORT), (_load_image, SIDECAR)]
)
def test_the_unedited_documents_load(tmp_path, load, doc):
    path = tmp_path / "artifact.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    load(path)


CLI_PROBES = {
    "report": (["report", "--in", "{bad}"], _with(REPORT, "ab", "seeds"), "seeds"),
    "gen-seq": (["gen", "seq", "--model", "{bad}", "--prompt", "Sleep, 1"], _with(SEQ_MODEL, 2.5, "order"), "order"),
    "gen-tabular": (
        ["gen", "tabular", "--model", "{bad}", "--real", "{csv}", "--n", "5"],
        _with(MODEL, [], "normalizers"),
        "normalizers",
    ),
    "validate-meta": (
        ["validate", "--real", "{csv}", "--synth", "{csv}"],
        _with({"gate_attempts": 1, "seed": 1, "n": 2, "model": "m.json"}, "x", "gate_attempts"),
        "gate_attempts",
    ),
}


@pytest.mark.parametrize("command", sorted(CLI_PROBES))
def test_a_wrong_typed_field_exits_2_naming_the_file_and_the_field(tmp_path, capsys, command):
    argv, content, field = CLI_PROBES[command]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"workspace": str(tmp_path / "ws")}), encoding="utf-8")
    csv = tmp_path / "table.csv"
    write_dataset_csv(TABLE, csv)
    bad = tmp_path / "table.csv.meta.json"  # the synthetic CSV's sidecar for validate
    bad.write_bytes(content)
    assert main(["--config", str(config), *(a.format(bad=bad, csv=csv) for a in argv)]) == 2
    assert f"{bad}: {field} must be " in capsys.readouterr().err

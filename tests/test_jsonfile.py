"""The shared JSON text form and the typed errors of every artifact loader."""

from __future__ import annotations

import copy
import json
import math
import tempfile
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, HTTPServer
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
    UndecodableInput,
)
from twinforge.ingest.macro import BOS, EOS
from twinforge.ingest.tabular import CONTINUOUS, DISCRETE, Column, Schema, TabularDataset, write_dataset_csv
from twinforge.jsonfile import dumps, parse_json
from twinforge.sequence.ngram import load_seq_model, save_seq_model, train_ngram
from twinforge.tabular.encoding import TableCodec
from twinforge.tabular.gan import GanModel, load_model, model_to_json
from twinforge.tabular.gate import column_distances
from twinforge.tabular.net import RELU, FeedForward
from twinforge.twin.checks import load_checks
from twinforge.twin.image import TwinImage, load_image, load_manifest, save_image
from twinforge.twin.journal import MARKER, journal_dir
from twinforge.twin.patch import load_delta
from twinforge.validate.report import build_report, load_report, save_report
from twinforge.validate.stats import compare_stats, summary_stats

from conftest import edit_image_manifest


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


def test_a_string_that_is_not_utf8_text_is_neither_written_nor_read():
    """A lone surrogate (``\\udcff`` is how Python gives an argv byte that
    is not UTF-8) is refused by ``dumps`` and, as a key or a value, by the
    reader; a pair of surrogate escapes is one character, and is kept."""
    for doc in ({"name": "a\udcff"}, {"\ud800": 1}, [[["\udfff"]]]):
        with pytest.raises(UndecodableInput, match="a string that is not UTF-8 text"):
            dumps(doc)
        with pytest.raises(MalformedReport, match="x.json: a string that is not UTF-8 text"):
            parse_json(json.dumps(doc).encode(), MalformedReport, "x.json")
    text = dumps({"emoji": "\U0001F600"})
    assert "\\ud83d\\ude00" in text and parse_json(text.encode(), MalformedReport, "x.json") == {"emoji": "\U0001F600"}
    assert parse_json(b'"\\\\ud800"', MalformedReport, "x.json") == "\\ud800"  # an escaped backslash, then text


def _image_headed_by(path):
    """An image of a tree with no file, whose header is the bytes at ``path``."""
    image = path.with_suffix(".twimg")
    save_image(TwinImage((), b"", (), "t"), image)
    edit_image_manifest(image, lambda doc: path.read_bytes())
    return image


def _load_image(path):
    return load_image(_image_headed_by(path))


def _load_manifest(path):
    return load_manifest(_image_headed_by(path))


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
IMAGE_HEADER = {"created_at": "t", "exclusions": [], "entries": []}


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
    # an image header, and an older sidecar's format_version, which no header holds
    "header": [_with(IMAGE_HEADER, "abc", "exclusions"), _with(IMAGE_HEADER, 5, "created_at"),
               _with(IMAGE_HEADER, 1, "format_version")],
}

LOADERS = [
    ("model", load_model, MalformedModel, _versioned(2) + WRONG_TYPED["model"]),
    ("seq-model", load_seq_model, MalformedModel, _versioned(1) + WRONG_TYPED["seq-model"]),
    ("report", load_report, MalformedReport, _versioned(1) + WRONG_TYPED["report"]),
    ("manifest", _load_manifest, MalformedArchive, [b"[]", b"{}"] + WRONG_TYPED["header"]),
    ("image-sidecar", _load_image, MalformedArchive, [b"[]", b"{}"] + WRONG_TYPED["header"]),
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
    "load, doc", [(load_model, MODEL), (load_seq_model, SEQ_MODEL), (load_report, REPORT), (_load_image, IMAGE_HEADER)]
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
        _with({"gate_attempts": 1, "seed": 1, "csv_sha256": "0" * 64, "model": "m.json"}, "x", "gate_attempts"),
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


# A document nested past the parser's depth, an integer literal past the
# int-string digit limit, and a byte that is not UTF-8.
HOSTILE = {"nested": b"[" * 100000, "digits": b"1" * 5000, "not-utf8": b"\xff"}


class _Service(BaseHTTPRequestHandler):
    body = b""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.send_response(200)
        self.send_header("Content-Length", str(len(self.body)))
        self.end_headers()
        self.wfile.write(self.body)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def service():
    server = HTTPServer(("127.0.0.1", 0), _Service)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/generate"
    server.shutdown()
    thread.join(timeout=2)


def _hostile_image(tmp_path, payload):
    image = tmp_path / "image.twimg"
    save_image(TwinImage((), b"", (), "t"), image)
    edit_image_manifest(image, lambda doc: payload)
    return image


def _undo_record(tmp_path, payload):
    """A journal left beside ``box`` whose one undo record is ``payload``."""
    journal = journal_dir(tmp_path / "box")
    journal.mkdir()
    (journal / MARKER).touch()
    (journal / "000000.json").write_bytes(payload)
    return journal / "000000.json"


def _file(tmp_path, payload, name="bad.json"):
    (tmp_path / name).write_bytes(payload)
    return tmp_path / name


# Each JSON input ``main`` reads: how a hostile payload is planted (the file
# it returns is what the message must name; the service's is its URL), and
# the command that reads it.
JSON_INPUTS = {
    "config": (_file, ["--config", "{bad}", "report", "--in", "{csv}"]),
    "delta": (_file, ["twin", "patch", "--sandbox", "{box}", "--delta", "{bad}"]),
    "checks": (_file, ["twin", "check", "--sandbox", "{box}", "--checks", "{bad}"]),
    "image-header": (_hostile_image, ["twin", "create", "--image", "{bad}", "--sandbox", "{new}"]),
    "diff-image": (_hostile_image, ["twin", "diff", "--pre", "{bad}", "--post", "{box}"]),
    "tabular-model": (_file, ["gen", "tabular", "--model", "{bad}", "--real", "{csv}", "--n", "5"]),
    "seq-model": (_file, ["gen", "seq", "--model", "{bad}", "--prompt", "Sleep, 1"]),
    "service": (None, ["gen", "seq", "--model", "{csv}", "--prompt", "Sleep, 1", "--via-service"]),
    "validate-meta": (lambda t, p: _file(t, p, "table.csv.meta.json"), ["validate", "--real", "{csv}", "--synth", "{csv}"]),
    "report": (_file, ["report", "--in", "{bad}"]),
    "undo-record": (_undo_record, ["twin", "patch", "--sandbox", "{box}", "--delta", "{delta}"]),
}


@pytest.mark.parametrize("payload", sorted(HOSTILE))
@pytest.mark.parametrize("reader", sorted(JSON_INPUTS))
def test_every_json_input_refuses_a_hostile_document_with_exit_2_naming_it(tmp_path, capsys, service, reader, payload):
    """A document of 100000 ``[``, a 5000-digit integer or a 0xFF byte, in
    any JSON input, is refused with exit 2 naming the file or URL: the first
    two once escaped ``main`` as a ``RecursionError`` or ``ValueError``."""
    plant, argv = JSON_INPUTS[reader]
    box = tmp_path / "box"
    box.mkdir()
    (box / "f.txt").write_text("x\n", encoding="utf-8")
    csv = tmp_path / "table.csv"
    write_dataset_csv(TABLE, csv)
    delta = tmp_path / "delta.json"
    delta.write_text("[]", encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"workspace": str(tmp_path / "ws"), "service": {"url": service}}), encoding="utf-8")
    if plant is None:
        _Service.body, bad = HOSTILE[payload], service
    else:
        bad = plant(tmp_path, HOSTILE[payload])
    values = {"bad": bad, "csv": csv, "box": box, "new": tmp_path / "new", "delta": delta}
    if reader != "config":
        argv = ["--config", str(config), *argv]
    assert main([a.format(**values) for a in argv]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: " in err and "not valid UTF-8 JSON" in err
    assert not (tmp_path / "new").exists()

"""Byte identity of the tabular artifacts, pinned by sha256.

The CSV writer, the summary statistics and the gate distances feed the
pipeline's artifacts. Three ways to change their bytes without changing any
value a test compares with a tolerance: writing numpy float reprs instead
of Python floats, summing a column in another order, and summing the TV
gaps in another order. These pins catch all three. The mode normalizers and
Adam's updates feed the model file the same way: their pins catch an EM sum
or an Adam operation done in another order. These paths run on numpy's
seeded generator and plain float arithmetic, with no BLAS call, so their
digests do not depend on the host's linear-algebra library. The bulk
synthesis pin is the exception: a 20000-row batch from the suite's trained
model, through the generator's matmuls, written as CSV. It pins the writer
and the synthesis path at the size where their whole-column code runs, on
the linear-algebra library the model was trained with.
"""

from __future__ import annotations

import hashlib

import numpy as np

from twinforge.ingest.tabular import write_dataset_csv
from twinforge.jsonfile import dumps
from twinforge.tabular.encoding import TableCodec
from twinforge.tabular.gan import generate_rows
from twinforge.tabular.gate import column_distances
from twinforge.tabular.net import Adam
from twinforge.validate.report import build_report, save_report
from twinforge.validate.stats import compare_stats, summary_stats

from conftest import make_fixture_dataset

FIXTURE_CSV_SHA256 = "0eca6393d722d791a6142ca4031843d158cdfae9962211e88b40fa27a8db0913"
SMALL_CSV_SHA256 = "f144de16c478090f175b0d160b83b64df04ea0458c129079861c0ff02cab18e7"
BULK_CSV_SHA256 = "51da5625bc1142f1b93525908ab91425f33411d858270428946c73436cb2fe13"
REPORT_SHA256 = "8b1f84689bb75102adc52fb5d9f4ea902cf0c82d62bc4a55a8c695a99c9903ce"
NORMALIZERS_SHA256 = "c26997eff6220a3fe802f311d6aa37a2e20e6d552cca641c7fd86a6ca098b33a"
ADAM_SHA256 = "61c09048ede34d7bae03c4e087b7e8a80b6b63d1f2a2360201ca413d3799ff75"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_fixture_csv_bytes(tmp_path):
    path = tmp_path / "fixture.csv"
    write_dataset_csv(make_fixture_dataset(), path)
    assert _sha256(path.read_bytes()) == FIXTURE_CSV_SHA256


def test_small_csv_bytes(tmp_path):
    path = tmp_path / "small.csv"
    write_dataset_csv(make_fixture_dataset(n_rows=70, seed=1), path)
    assert _sha256(path.read_bytes()) == SMALL_CSV_SHA256


def test_bulk_synthesis_csv_bytes(trained_model, tmp_path):
    path = tmp_path / "bulk.csv"
    write_dataset_csv(generate_rows(trained_model, 20000, np.random.default_rng(20000)), path)
    assert _sha256(path.read_bytes()) == BULK_CSV_SHA256


def test_report_bytes(tmp_path):
    real = make_fixture_dataset()
    synth = make_fixture_dataset(n_rows=70, seed=1)
    report = build_report(
        run_id="golden",
        created_at="1970-01-01T00:00:00Z",
        seeds={"gen_tabular": 1},
        config={},
        real_stats=summary_stats(real),
        synth_stats=summary_stats(synth),
        comparison=compare_stats(real, synth),
        distances=column_distances(real, synth),
        gate_attempts=1,
    )
    path = tmp_path / "report.json"
    save_report(report, path)
    assert _sha256(path.read_bytes()) == REPORT_SHA256


def test_mode_normalizer_bytes():
    normalizers = TableCodec.fit(make_fixture_dataset(), seed=7).normalizers
    assert _sha256(dumps(normalizers).encode("utf-8")) == NORMALIZERS_SHA256


def test_adam_bytes():
    rng = np.random.default_rng(13)
    params = rng.standard_normal(300)
    adam = Adam(params, 2e-4, 0.5, 0.9)
    for _ in range(20):
        adam.step(rng.standard_normal(300))
    assert _sha256(params.tobytes()) == ADAM_SHA256

"""In-memory span tracing around the library's public functions.

``Tracer.install`` rebinds each traced function in every ``twinforge``
module that holds it (and methods on their class), so calls are caught
where the callers look them up: ``scan_tree`` is caught both in
``twin.manifest`` and in ``twin.sandbox``, which imported it.
``uninstall`` puts the originals back. Spans stay in memory until the
run ends; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from twinforge.errors import TwinforgeError
from twinforge.ingest import tabular as ingest_tabular
from twinforge.sequence import ngram
from twinforge.tabular import distance, encoding, gan, gate, mixture, net
from twinforge.twin import checks, image, manifest, patch, sandbox
from twinforge.validate import metrics, replay, report, stats

FILE = manifest.FILE


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    request: int
    counters: dict[str, float] = field(default_factory=dict)


def _rows_arg(index: int) -> Callable:
    return lambda args, kwargs, result: {"rows": len(args[index])}


def _size_arg(args, kwargs, result):
    return {"rows": args[2] if len(args) > 2 else kwargs["size"]}


def _scanned(args, kwargs, result):
    files = [e for e in result if e.kind == FILE]
    return {"files": len(files), "bytes": sum(e.size for e in files)}


def _restored(args, kwargs, result):
    files = [e for e in args[0].manifest if e.kind == FILE]
    return {"files": len(files), "bytes": sum(e.size for e in files)}


# (span name, owner, attribute, counters from (args, kwargs, result))
TARGETS: tuple[tuple[str, object, str, Callable | None], ...] = (
    ("tabular.encoding.sample_conditions_logfreq", encoding.TableCodec, "sample_conditions_logfreq", _size_arg),
    ("tabular.encoding.sample_conditions_empirical", encoding.TableCodec, "sample_conditions_empirical", _size_arg),
    ("tabular.encoding.encode_rows", encoding.TableCodec, "encode_rows", _rows_arg(1)),
    ("tabular.encoding.decode_rows", encoding.TableCodec, "decode_rows", _rows_arg(1)),
    ("tabular.net.forward", net.FeedForward, "forward", None),
    ("tabular.net.backward", net.FeedForward, "backward", None),
    ("tabular.net.adam_step", net.Adam, "step", None),
    ("tabular.mixture.fit_mode_normalizer", mixture, "fit_mode_normalizer", None),
    ("tabular.gan.train_gan", gan, "train_gan", None),
    ("tabular.gan.generate_rows", gan, "generate_rows", None),
    ("tabular.gan.load_model", gan, "load_model", lambda a, k, r: {"bytes": Path(a[0]).stat().st_size}),
    ("tabular.gate.generate_gated", gate, "generate_gated", None),
    ("tabular.gate.column_distances", gate, "column_distances", None),
    ("tabular.distance.emd_1d", distance, "emd_1d", None),
    ("tabular.distance.tv_distance", distance, "tv_distance", None),
    ("ingest.tabular.dataset_validate", ingest_tabular.TabularDataset, "__post_init__", _rows_arg(0)),
    ("ingest.tabular.write_csv", ingest_tabular, "write_dataset_csv", None),
    ("ingest.tabular.read_csv", ingest_tabular, "read_dataset_csv", None),
    ("validate.stats.summary_stats", stats, "summary_stats", None),
    ("validate.stats.compare_stats", stats, "compare_stats", None),
    ("validate.report.build_report", report, "build_report", None),
    ("validate.report.save_report", report, "save_report", None),
    ("validate.replay.replay_validate", replay, "replay_validate", None),
    ("validate.metrics.bleu", metrics, "bleu", None),
    ("validate.metrics.cosine_similarity", metrics, "cosine_similarity", None),
    ("sequence.ngram.generate_sequence", ngram, "generate_sequence", lambda a, k, r: {"tokens": len(r)}),
    ("sequence.ngram.sequence_to_script", ngram, "sequence_to_script", None),
    ("twin.manifest.scan_tree", manifest, "scan_tree", _scanned),
    ("twin.manifest.diff_states", manifest, "diff_states", None),
    ("twin.sandbox.instantiate_twin", sandbox, "instantiate_twin", _restored),
    ("twin.patch.apply_patch", patch, "apply_patch", None),
    ("twin.checks.run_checks", checks, "run_checks", None),
    ("twin.image.capture_image", image, "capture_image", None),
    ("twin.image.save_image", image, "save_image", None),
    ("twin.image.load_image", image, "load_image", None),
)


class Tracer:
    """Records nested spans for one process; not thread-safe by design,
    since the benchmark drives the library from a single thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.request))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn: Callable, counter_fn: Callable | None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            counters = tracer.spans[index].counters
            counters["calls"] = 1
            try:
                result = fn(*args, **kwargs)
            except TwinforgeError:
                counters["rejected"] = 1  # a typed refusal, such as a rejected patch
                raise
            finally:
                tracer._close(index)
            if counter_fn is not None:
                counters.update(counter_fn(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Rebind every target in each ``twinforge`` module that holds it."""
        if self._undo:
            return
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("twinforge") and m]
        for name, owner, attr, counter_fn in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counter_fn)
            if isinstance(owner, type):
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # -- analysis -----------------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def totals(self, requests: set[int] | None = None) -> dict[str, dict[str, float]]:
        """Per span name: summed self time (``self_s``) and summed counters."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s, own in zip(self.spans, self.self_times()):
            if requests is not None and s.request not in requests:
                continue
            row = out[s.name]
            row["self_s"] += own
            for key, value in s.counters.items():
                row[key] += value
        return out

    def child_counter(self, parent_name: str, child_name: str, key: str) -> float:
        """Sum of ``key`` over ``child_name`` spans directly under ``parent_name``."""
        return sum(
            s.counters.get(key, 0.0)
            for s in self.spans
            if s.name == child_name and s.parent >= 0 and self.spans[s.parent].name == parent_name
        )

    def to_records(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "request": s.request, "counters": s.counters}
            for s in self.spans
        ]

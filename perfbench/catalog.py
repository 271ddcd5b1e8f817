"""Which workload and end-to-end metrics each per-layer metric should move.

``BENCHMARK.json`` holds every metric's name, unit and direction; this file
holds only the mapping that it has no room for. In brackets: the per-op
metrics of the run record behind the end-to-end ones. The smoke test checks
that the names here are exactly the per-layer names of ``BENCHMARK.json``.
"""

from __future__ import annotations

TRAIN, SYNTH, TWIN = "gan-train", "gan-synth", "twin-session"

# (workload, end-to-end metrics it should move there, per-layer metrics)
GROUPS = (
    (TRAIN, "throughput_per_s request_ms_iqm (train_steps_per_s)", (
        "tabular.encoding.sample_conditions_logfreq.self_s",
        "tabular.encoding.sample_conditions_logfreq.rows",
        "tabular.encoding.encode_rows.self_s",
        "tabular.encoding.encode_rows.rows",
        "tabular.net.forward.self_s",
        "tabular.net.forward.calls",
        "tabular.net.backward.self_s",
        "tabular.net.adam_step.self_s",
        "tabular.net.adam_step.calls",
        "tabular.gan.train_gan.self_s",
        "tabular.mixture.fit_mode_normalizer.self_s",
    )),
    (SYNTH, "throughput_per_s request_ms_iqm (synth_rows_per_s small_request_ms)", (
        "tabular.encoding.decode_rows.self_s",
        "tabular.encoding.decode_rows.rows",
        "tabular.encoding.sample_conditions_empirical.self_s",
        "tabular.encoding.sample_conditions_empirical.rows",
        "tabular.gan.generate_rows.self_s",
        "ingest.tabular.dataset_validate.self_s",
        "ingest.tabular.dataset_validate.rows",
        "ingest.tabular.write_csv.self_s",
        "ingest.tabular.read_csv.self_s",
        "tabular.gate.column_distances.self_s",
        "tabular.distance.emd_1d.self_s",
        "tabular.distance.tv_distance.self_s",
        "validate.stats.compare_stats.self_s",
        "validate.report.save_report.self_s",
    )),
    (SYNTH, "request_ms_iqm (small_request_ms_p90)", (
        "tabular.gate.small.attempts",
        "tabular.gate.small.accept_ratio",
    )),
    (SYNTH, "throughput_per_s (synth_rows_per_s)", (
        "tabular.gate.bulk.attempts",
        "tabular.gate.bulk.accept_ratio",
    )),
    (SYNTH, "setup_s", (
        "tabular.gan.load_model.self_s",
        "tabular.gan.load_model.bytes",
    )),
    (TWIN, "request_ms_iqm (restore_ms session_s)", (
        "twin.sandbox.instantiate_twin.self_s",
        "twin.sandbox.instantiate_twin.files",
        "twin.sandbox.instantiate_twin.bytes",
    )),
    (TWIN, "throughput_per_s request_ms_iqm (patch_ms)", (
        "twin.patch.apply_patch.self_s",
        "twin.patch.apply_patch.calls",
        "twin.patch.apply_patch.rejected",
        "twin.patch.rescan_bytes_per_changed_byte",
    )),
    (TWIN, "throughput_per_s request_ms_iqm (check_ms script_ms session_s)", (
        "twin.manifest.scan_tree.self_s",
        "twin.manifest.scan_tree.calls",
        "twin.manifest.scan_tree.files",
        "twin.manifest.scan_tree.bytes",
        "twin.manifest.scan_tree.calls_per_session",
    )),
    (TWIN, "throughput_per_s (check_ms)", ("twin.checks.run_checks.self_s",)),
    (TWIN, "request_ms_iqm (diff_ms session_s)", ("twin.manifest.diff_states.self_s",)),
    (TWIN, "request_ms_iqm (script_ms)", (
        "validate.replay.replay_validate.self_s",
        "sequence.ngram.generate_sequence.self_s",
        "sequence.ngram.generate_sequence.tokens",
        "validate.metrics.bleu.self_s",
        "validate.metrics.cosine_similarity.self_s",
    )),
    (TWIN, "setup_s", (
        "twin.image.capture_image.self_s",
        "twin.image.save_image.self_s",
        "twin.image.load_image.self_s",
    )),
    ("all", "none: tracing overhead", ("trace.wall_ratio",)),
)

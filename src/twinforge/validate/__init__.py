"""Validation: summary statistics, script metrics, dry-run replay, reports."""

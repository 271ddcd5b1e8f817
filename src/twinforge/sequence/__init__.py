"""Sequence synthesis: backoff n-gram model plus the external-service client."""

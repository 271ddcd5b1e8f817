"""Sequence synthesis: backoff n-gram model plus the external-service client."""

from twinforge.sequence.ngram import (
    GenRequest,
    generate_sequence,
    load_seq_model,
    next_token_probs,
    save_seq_model,
    seq_model_to_json,
    sequence_to_script,
    train_ngram,
)
from twinforge.sequence.service import ServiceEndpoint, generate_via_service

__all__ = [
    "GenRequest",
    "ServiceEndpoint",
    "generate_sequence",
    "generate_via_service",
    "load_seq_model",
    "next_token_probs",
    "save_seq_model",
    "seq_model_to_json",
    "sequence_to_script",
    "train_ngram",
]

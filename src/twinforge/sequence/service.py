"""Client for an external text-generation service.

The wire contract is one JSON POST per generation::

    request:  {"prompt": [tokens...], "max_tokens": n, "temperature": t}
    response: {"tokens": [strings...]}

The returned tokens go through the same downstream validation as built-in
generation (they must parse into a macro script); nothing about the remote
model is assumed beyond this shape.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

from twinforge.config import ServiceEndpoint
from twinforge.errors import ServiceBadResponse, ServiceTimeout, ServiceUnreachable
from twinforge.jsonfile import parse_json
from twinforge.sequence.ngram import GenRequest


def generate_via_service(endpoint: ServiceEndpoint, request: GenRequest) -> tuple[str, ...]:
    """POST the generation request; returns validated token strings."""
    payload = json.dumps(
        {
            "prompt": list(request.prompt),
            "max_tokens": request.max_len,
            "temperature": request.temperature,
        }
    ).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    if endpoint.auth_token:
        headers["Authorization"] = f"Bearer {endpoint.auth_token}"
    req = urllib.request.Request(endpoint.url, data=payload, headers=headers, method="POST")
    try:
        with urllib.request.urlopen(req, timeout=endpoint.timeout_s) as resp:
            body = resp.read()
    except urllib.error.HTTPError as exc:
        raise ServiceBadResponse(f"HTTP {exc.code} from {endpoint.url}") from exc
    except (urllib.error.URLError, TimeoutError) as exc:  # a timeout while connecting comes as a URLError's reason
        if isinstance(getattr(exc, "reason", exc), TimeoutError):
            raise ServiceTimeout(f"no answer from {endpoint.url} within {endpoint.timeout_s}s") from exc
        raise ServiceUnreachable(f"{endpoint.url}: {exc.reason}") from exc

    doc = parse_json(body, ServiceBadResponse, endpoint.url)
    tokens = doc.get("tokens") if isinstance(doc, dict) else None
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise ServiceBadResponse(f'{endpoint.url}: expected {{"tokens": [strings]}}')
    return tuple(tokens)

"""External generation service client against a local stub server."""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from twinforge.config import ServiceEndpoint
from twinforge.errors import ServiceBadResponse, ServiceTimeout, ServiceUnreachable
from twinforge.sequence.ngram import GenRequest, sequence_to_script
from twinforge.sequence.service import generate_via_service

SCRIPT_TOKENS = ["Run, chrome.exe", "WinWaitActive, chrome", "Send, hello{Enter}", "Sleep, 500"]


class _Handler(BaseHTTPRequestHandler):
    behavior = "echo-script"
    seen: list[dict] = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        request = json.loads(self.rfile.read(length))
        type(self).seen.append({"body": request, "auth": self.headers.get("Authorization")})
        if type(self).behavior == "slow":
            time.sleep(1.0)
        if type(self).behavior == "bad-shape":
            body = json.dumps({"tokens": 5}).encode()
        elif type(self).behavior == "lone-surrogate":
            body = json.dumps({"tokens": ["Send, \ud800"]}).encode()
        else:
            body = json.dumps({"tokens": SCRIPT_TOKENS}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # silence test output
        pass


@pytest.fixture()
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Handler.seen = []
    _Handler.behavior = "echo-script"
    yield f"http://127.0.0.1:{server.server_port}/generate"
    server.shutdown()
    thread.join(timeout=2)


REQUEST = GenRequest(prompt=("Run, chrome.exe",), temperature=0.7, max_len=50, seed=0)


def test_stub_round_trip(stub_server):
    endpoint = ServiceEndpoint(url=stub_server, auth_token="sekrit", timeout_s=5.0)
    tokens = generate_via_service(endpoint, REQUEST)
    assert list(tokens) == SCRIPT_TOKENS
    script = sequence_to_script(tokens, name="remote")
    assert len(script.commands) == 4
    sent = _Handler.seen[0]
    assert sent["body"] == {"prompt": ["Run, chrome.exe"], "max_tokens": 50, "temperature": 0.7}
    assert sent["auth"] == "Bearer sekrit"


def test_bad_shape_response(stub_server):
    _Handler.behavior = "bad-shape"
    with pytest.raises(ServiceBadResponse):
        generate_via_service(ServiceEndpoint(url=stub_server, timeout_s=5.0), REQUEST)


def test_a_token_that_is_not_utf8_text_is_a_bad_response(stub_server):
    # it once reached the script check, so ``gen seq --via-service`` exited 3
    _Handler.behavior = "lone-surrogate"
    with pytest.raises(ServiceBadResponse, match=r"a string that is not UTF-8 text: 'Send, \\ud800'"):
        generate_via_service(ServiceEndpoint(url=stub_server, timeout_s=5.0), REQUEST)


def test_unreachable_host():
    # a bound-then-closed port refuses connections immediately
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    endpoint = ServiceEndpoint(url=f"http://127.0.0.1:{port}/gen", timeout_s=2.0)
    with pytest.raises(ServiceUnreachable):
        generate_via_service(endpoint, REQUEST)


def test_timeout(stub_server):
    _Handler.behavior = "slow"
    endpoint = ServiceEndpoint(url=stub_server, timeout_s=0.2)
    with pytest.raises(ServiceTimeout):
        generate_via_service(endpoint, REQUEST)

from __future__ import annotations

import json
import socket
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from uavnav import vlm as vlm_module
from uavnav.vlm import VlmClient, VlmError, VlmReplyError, size_bucket


def completion(content: str) -> bytes:
    return json.dumps({"choices": [{"message": {"content": content}}]}).encode("utf-8")


class Endpoint:
    """A chat-completion endpoint on 127.0.0.1 that answers each POST with
    the next scripted reply: ``(status, body bytes)``, ``"drop"`` to close
    the connection unanswered, or ``("stall", seconds)`` to stay silent.
    Once the script runs out it answers 200 with ``default``."""

    def __init__(self, port: int) -> None:
        self.url = f"http://127.0.0.1:{port}/v1/chat"
        self.script: list = []
        self.default = completion("ok")
        self.seen: list[tuple[str, dict, bytes]] = []  # path, headers, body
        self.lock = threading.Lock()
        self.released = threading.Event()

    def next_reply(self, path: str, headers: dict, body: bytes):
        with self.lock:
            self.seen.append((path, headers, body))
            return self.script.pop(0) if self.script else (200, self.default)


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        self._answer(self.rfile.read(int(self.headers["Content-Length"])))

    def do_GET(self):  # urllib follows a 302 to a POST with a GET
        self._answer(b"")

    def _answer(self, body: bytes) -> None:
        endpoint = self.server.endpoint
        reply = endpoint.next_reply(self.path, dict(self.headers), body)
        if reply == "drop":
            return
        if reply[0] == "stall":
            endpoint.released.wait(reply[1])
            return
        status, payload, *extra = reply  # extra: a dict of response headers
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (extra[0] if extra else {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@contextmanager
def serving():
    """An Endpoint served on 127.0.0.1 for the duration of the block."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.endpoint = Endpoint(server.server_address[1])
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield server.endpoint
    finally:
        server.endpoint.released.set()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture
def endpoint(monkeypatch):
    monkeypatch.setenv("no_proxy", "127.0.0.1")  # a proxy in the environment must not see these
    with serving() as ep:
        yield ep


@pytest.fixture(autouse=True)
def no_backoff(monkeypatch):
    monkeypatch.setattr(vlm_module, "RETRY_BACKOFF_S", 0.0)


def live(url: str, **kwargs) -> VlmClient:
    return VlmClient(mode="live", endpoint=url, **kwargs)


FUSE = {"task": "fuse", "clauses": ["x"]}


class TestSizeBucket:
    def test_boundaries(self):
        assert size_bucket(0.0) == "small"
        assert size_bucket(199.9) == "small"
        assert size_bucket(200.0) == "medium"
        assert size_bucket(999.9) == "medium"
        assert size_bucket(1000.0) == "large"


class TestMockMode:
    def test_caption_template(self):
        vlm = VlmClient(mode="mock")
        reply = vlm.complete("prompt", {
            "task": "caption", "image_refs": [],
            "hint": {"label": "blue glass tower, 30m", "area_m2": 1500.0}})
        assert reply == "color: blue, feature: glass, size: large, type: tower"

    def test_caption_defaults_without_hint(self):
        vlm = VlmClient(mode="mock")
        reply = vlm.complete("prompt", {"task": "caption", "image_refs": [],
                                        "hint": {"label": None, "area_m2": None}})
        assert "color: gray" in reply
        assert "type: building" in reply

    def test_sub_instruction_forward(self):
        vlm = VlmClient(mode="mock")
        reply = vlm.complete("prompt", {
            "task": "sub_instruction",
            "actions": [{"kind": "forward", "magnitude": 3.0}] * 3,
            "caption": {"color": "gray", "feature": "glass", "size": "large",
                        "type": "tower"},
            "leading_turn": None})
        assert reply == "go straight to the large gray tower"

    def test_sub_instruction_turn_run(self):
        vlm = VlmClient(mode="mock")
        reply = vlm.complete("prompt", {
            "task": "sub_instruction",
            "actions": [{"kind": "turn_left", "magnitude": 30.0}] * 2,
            "caption": {"color": "red", "feature": "brick", "size": "small",
                        "type": "house"},
            "leading_turn": None})
        assert reply.startswith("turn left toward")

    def test_sub_instruction_slight_turn_prefix(self):
        vlm = VlmClient(mode="mock")
        reply = vlm.complete("prompt", {
            "task": "sub_instruction",
            "actions": [{"kind": "turn_right", "magnitude": 30.0},
                        {"kind": "forward", "magnitude": 6.0}],
            "caption": {"color": "beige", "feature": "office", "size": "medium",
                        "type": "building"},
            "leading_turn": "right"})
        assert reply == "slightly turn right and go straight to the medium beige building"

    def test_fuse_single_clause_unchanged(self):
        vlm = VlmClient(mode="mock")
        assert vlm.complete("p", {"task": "fuse", "clauses": ["go up"]}) == "go up"

    def test_fuse_two_clauses(self):
        vlm = VlmClient(mode="mock")
        out = vlm.complete("p", {"task": "fuse", "clauses": ["go up", "go left"]})
        assert out == "go up. Then, go left."

    def test_fuse_many_clauses_ordinal(self):
        vlm = VlmClient(mode="mock")
        out = vlm.complete("p", {"task": "fuse", "clauses": ["a", "b", "c"]})
        assert out == "First, a. Then, b. Finally, c."

    def test_determinism(self):
        vlm = VlmClient(mode="mock")
        payload = {"task": "caption", "image_refs": ["x"],
                   "hint": {"label": "green dome", "area_m2": 300.0}}
        assert vlm.complete("p", payload) == vlm.complete("p", payload)


class TestReplayMode:
    def test_replay_round_trip_via_recording(self, tmp_path, endpoint):
        endpoint.script = [(200, completion("recorded reply"))]
        recorder = live(endpoint.url, cache_dir=tmp_path)
        payload = {"task": "fuse", "clauses": ["hello"]}
        assert recorder.complete("p", payload) == "recorded reply"
        # The reply is written through a temp file that is renamed into place.
        assert [p.suffix for p in tmp_path.iterdir()] == [".json"]

        replay = VlmClient(mode="replay", endpoint=endpoint.url, cache_dir=tmp_path)
        assert replay.complete("p", payload) == "recorded reply"
        assert len(endpoint.seen) == 1  # replay mode must not touch the network

    def test_replay_miss_raises(self, tmp_path):
        replay = VlmClient(mode="replay", cache_dir=tmp_path)
        with pytest.raises(VlmError, match="no recorded reply for request hash "):
            replay.complete("p", {"task": "fuse", "clauses": ["nothing recorded"]})

    @pytest.mark.parametrize("entry", [
        b"{not json", b"\xff", json.dumps({"request": {}}).encode(),
        json.dumps({"reply": 5}).encode(), json.dumps(["reply"]).encode(),
    ], ids=["not_json", "not_utf8", "no_reply", "non_string_reply", "not_an_object"])
    def test_unusable_entry_is_a_reply_error_naming_the_file(self, tmp_path, endpoint,
                                                             entry):
        live(endpoint.url, cache_dir=tmp_path).complete("p", FUSE)
        [path] = tmp_path.iterdir()
        path.write_bytes(entry)
        replay = VlmClient(mode="replay", cache_dir=tmp_path)
        with pytest.raises(VlmReplyError) as info:
            replay.complete("p", FUSE)
        assert str(path) in str(info.value)

    def test_replay_requires_cache_dir(self):
        with pytest.raises(ValueError):
            VlmClient(mode="replay")


class TestLiveMode:
    def test_posts_chat_completion_shape(self, endpoint):
        endpoint.default = completion("fine")
        vlm = live(endpoint.url, model="test-model", api_key="secret")
        payload = {"task": "fuse", "clauses": ["x", "caf\u00e9"]}
        assert vlm.complete("system text", payload) == "fine"
        [(path, headers, body)] = endpoint.seen
        assert path == "/v1/chat"
        sent = json.loads(body)
        assert sent["model"] == "test-model"
        roles = [m["role"] for m in sent["messages"]]
        assert roles == ["system", "user"]
        assert json.loads(sent["messages"][1]["content"])["task"] == "fuse"
        assert headers["Authorization"] == "Bearer secret"
        assert headers["Content-Type"] == "application/json"
        # The bytes a requests.post(json=...) call sent for the same request.
        assert body == json.dumps({"model": "test-model", "messages": [
            {"role": "system", "content": "system text"},
            {"role": "user", "content": json.dumps(payload, sort_keys=True)},
        ]}, allow_nan=False).encode("utf-8")

    def test_no_authorization_header_without_key(self, endpoint):
        live(endpoint.url).complete("p", FUSE)
        assert "Authorization" not in endpoint.seen[0][1]

    def test_redirect_does_not_carry_api_key(self, endpoint):
        with serving() as elsewhere:
            endpoint.script = [(302, b"", {"Location": elsewhere.url})]
            elsewhere.default = completion("moved")
            assert live(endpoint.url, api_key="secret").complete("p", FUSE) == "moved"
            [(_, first, _)] = endpoint.seen
            [(_, second, _)] = elsewhere.seen
        assert first["Authorization"] == "Bearer secret"
        assert "Authorization" not in second

    def test_retries_then_transport_error(self, endpoint):
        endpoint.script = ["drop"] * 3
        vlm = live(endpoint.url)
        with pytest.raises(VlmError, match="request failed after 3 attempts: "):
            vlm.complete("p", FUSE)
        assert len(endpoint.seen) == 3

    def test_bad_status_retried(self, endpoint):
        endpoint.script = [(503, b"busy")]
        endpoint.default = completion("later")
        vlm = live(endpoint.url)
        assert vlm.complete("p", FUSE) == "later"
        assert len(endpoint.seen) == 2

    @pytest.mark.parametrize("status", [503, 201, 307])
    def test_persistent_bad_status_names_it(self, endpoint, monkeypatch, status):
        monkeypatch.setattr(vlm_module, "MAX_RETRIES", 1)
        endpoint.script = [(status, completion("no"))] * 2
        vlm = live(endpoint.url)
        with pytest.raises(VlmError, match=f"after 2 attempts: endpoint returned HTTP {status}"):
            vlm.complete("p", FUSE)
        assert len(endpoint.seen) == 2

    @pytest.mark.parametrize("body", [
        b"{not json", b"\xff\xfe{}", json.dumps({"choices": []}).encode(),
        json.dumps({"choices": [{"text": "old style"}]}).encode(),
    ], ids=["not_json", "not_utf8", "no_choice", "no_message"])
    def test_malformed_body_is_reply_error(self, endpoint, body):
        endpoint.script = [(200, body)]
        with pytest.raises(VlmReplyError) as info:
            live(endpoint.url).complete("p", FUSE)
        assert info.value.raw_reply == body.decode("utf-8", "replace")
        assert len(endpoint.seen) == 1  # a usable status is not retried

    def test_slow_endpoint_times_out(self, endpoint, monkeypatch):
        monkeypatch.setattr(vlm_module, "MAX_RETRIES", 1)
        monkeypatch.setattr(vlm_module, "TIMEOUT_S", 0.2)
        endpoint.script = [("stall", 5.0)] * 2
        vlm = live(endpoint.url)
        start = time.monotonic()
        with pytest.raises(VlmError, match="timed out"):
            vlm.complete("p", FUSE)
        assert time.monotonic() - start < 2.0
        assert len(endpoint.seen) == 2

    def test_refused_port_is_transport_error(self, monkeypatch):
        monkeypatch.setattr(vlm_module, "MAX_RETRIES", 1)
        with socket.socket() as sock:  # a port nothing listens on once closed
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        with pytest.raises(VlmError, match="refused"):
            live(f"http://127.0.0.1:{port}/v1/chat").complete("p", FUSE)

    def test_scheme_less_endpoint_is_transport_error(self):
        vlm = live("example.invalid/v1/chat")
        with pytest.raises(VlmError, match="bad endpoint URL"):
            vlm.complete("p", FUSE)

    def test_live_requires_endpoint(self):
        vlm = VlmClient(mode="live")
        with pytest.raises(VlmError, match="live mode requires an endpoint URL"):
            vlm.complete("p", {"task": "fuse", "clauses": ["x"]})

from __future__ import annotations

import json
import threading

import pytest
import requests

from uavnav.vlm import (VlmClient, VlmReplayMissError, VlmTransportError,
                        size_bucket)


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
    def test_replay_round_trip_via_recording(self, tmp_path, monkeypatch):
        replies = iter(["recorded reply"])

        class FakeResponse:
            status_code = 200
            text = "ok"

            def json(self):
                return {"choices": [{"message": {"content": next(replies)}}]}

        monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse())
        live = VlmClient(mode="live", endpoint="http://example.invalid/v1/chat",
                         cache_dir=tmp_path)
        payload = {"task": "fuse", "clauses": ["hello"]}
        assert live.complete("p", payload) == "recorded reply"
        # The reply is written through a temp file that is renamed into place.
        assert [p.suffix for p in tmp_path.iterdir()] == [".json"]

        def explode(*a, **k):
            raise AssertionError("replay mode must not touch the network")

        monkeypatch.setattr(requests, "post", explode)
        replay = VlmClient(mode="replay", endpoint="http://example.invalid/v1/chat",
                           cache_dir=tmp_path)
        assert replay.complete("p", payload) == "recorded reply"

    def test_replay_miss_raises(self, tmp_path):
        replay = VlmClient(mode="replay", cache_dir=tmp_path)
        with pytest.raises(VlmReplayMissError):
            replay.complete("p", {"task": "fuse", "clauses": ["nothing recorded"]})

    def test_replay_requires_cache_dir(self):
        with pytest.raises(ValueError):
            VlmClient(mode="replay")


class TestLiveMode:
    def test_posts_chat_completion_shape(self, monkeypatch):
        seen = {}

        class FakeResponse:
            status_code = 200
            text = "ok"

            def json(self):
                return {"choices": [{"message": {"content": "fine"}}]}

        def fake_post(url, json=None, headers=None, timeout=None):
            seen["url"] = url
            seen["json"] = json
            seen["headers"] = headers
            return FakeResponse()

        monkeypatch.setattr(requests, "post", fake_post)
        vlm = VlmClient(mode="live", endpoint="http://example.invalid/v1/chat",
                        model="test-model", api_key="secret")
        out = vlm.complete("system text", {"task": "fuse", "clauses": ["x"]})
        assert out == "fine"
        assert seen["url"] == "http://example.invalid/v1/chat"
        assert seen["json"]["model"] == "test-model"
        roles = [m["role"] for m in seen["json"]["messages"]]
        assert roles == ["system", "user"]
        assert json.loads(seen["json"]["messages"][1]["content"])["task"] == "fuse"
        assert seen["headers"]["Authorization"] == "Bearer secret"

    def test_retries_then_transport_error(self, monkeypatch):
        calls = {"n": 0}

        def flaky_post(*a, **k):
            calls["n"] += 1
            raise requests.ConnectionError("down")

        monkeypatch.setattr(requests, "post", flaky_post)
        vlm = VlmClient(mode="live", endpoint="http://example.invalid",
                        max_retries=2, retry_backoff_s=0.0)
        with pytest.raises(VlmTransportError):
            vlm.complete("p", {"task": "fuse", "clauses": ["x"]})
        assert calls["n"] == 3

    def test_bad_status_retried(self, monkeypatch):
        calls = {"n": 0}

        class Resp:
            def __init__(self, code, content="later"):
                self.status_code = code
                self.text = "body"
                self._content = content

            def json(self):
                return {"choices": [{"message": {"content": self._content}}]}

        def post(*a, **k):
            calls["n"] += 1
            return Resp(503) if calls["n"] == 1 else Resp(200)

        monkeypatch.setattr(requests, "post", post)
        vlm = VlmClient(mode="live", endpoint="http://example.invalid",
                        max_retries=2, retry_backoff_s=0.0)
        assert vlm.complete("p", {"task": "fuse", "clauses": ["x"]}) == "later"
        assert calls["n"] == 2

    def test_live_requires_endpoint(self):
        vlm = VlmClient(mode="live")
        with pytest.raises(VlmTransportError):
            vlm.complete("p", {"task": "fuse", "clauses": ["x"]})

    def test_in_flight_bound_respected(self, monkeypatch):
        active = {"now": 0, "peak": 0}
        lock = threading.Lock()

        class Resp:
            status_code = 200
            text = "ok"

            def json(self):
                return {"choices": [{"message": {"content": "done"}}]}

        def slow_post(*a, **k):
            with lock:
                active["now"] += 1
                active["peak"] = max(active["peak"], active["now"])
            import time
            time.sleep(0.02)
            with lock:
                active["now"] -= 1
            return Resp()

        monkeypatch.setattr(requests, "post", slow_post)
        vlm = VlmClient(mode="live", endpoint="http://example.invalid",
                        max_in_flight=2)
        threads = [threading.Thread(target=vlm.complete,
                                    args=("p", {"task": "fuse", "clauses": [str(i)]}))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert active["peak"] <= 2

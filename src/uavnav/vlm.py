"""Chat-completion client for caption and instruction generation.

Three modes:

* ``live``    - POST {model, messages} to an HTTP endpoint and read the
                first choice's text. Optionally records replies to a
                cache directory.
* ``replay``  - serve recorded replies from the cache directory; any
                cache miss is an error, and no network traffic occurs.
* ``mock``    - fully deterministic templated replies derived from the
                structured request payload; no network traffic.

Every request carries a machine-readable JSON payload as the user
message so that mock replies, replay keys, and live prompts all hash
identically for the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

from . import ConfigError, UavnavError, save_json

ENDPOINT_ENV = "UAVNAV_VLM_ENDPOINT"
API_KEY_ENV = "UAVNAV_VLM_API_KEY"
DEFAULT_MODEL = "gpt-4o"
TIMEOUT_S = 30.0  # covers connecting and each read of a live request
MAX_RETRIES = 2  # a live request is sent at most MAX_RETRIES + 1 times
RETRY_BACKOFF_S = 0.5  # times the attempt number, before each retry

COLOR_WORDS = {
    "red", "orange", "yellow", "green", "blue", "purple", "violet", "pink",
    "brown", "beige", "tan", "gray", "grey", "black", "white", "silver",
    "gold", "teal", "cyan", "maroon", "navy",
}

KNOWN_SIZE_BUCKETS = ((200.0, "small"), (1000.0, "medium"))


class VlmError(UavnavError):
    """A request that produced no usable reply: a transport failure, a
    persistent bad status or a replay-cache miss."""


class VlmReplyError(VlmError):
    """Reply received but unusable; carries the raw reply text."""

    def __init__(self, message: str, raw_reply: str) -> None:
        super().__init__(message)
        self.raw_reply = raw_reply


def size_bucket(area_m2: float) -> str:
    """Footprint-area adjective: <200 small, <1000 medium, else large."""
    for limit, name in KNOWN_SIZE_BUCKETS:
        if area_m2 < limit:
            return name
    return "large"


def _mock_caption(payload: dict) -> str:
    hint = payload.get("hint") or {}
    label = str(hint.get("label") or "")
    words = [w.strip().lower() for w in label.split(",")[0].split() if w.strip()]
    color = next((w for w in words if w in COLOR_WORDS), "gray")
    rest = [w for w in words if w != color]
    kind = rest[-1] if rest else "building"
    feature_words = rest[:-1] if len(rest) > 1 else ["concrete"]
    area = hint.get("area_m2")
    size = size_bucket(float(area)) if area is not None else "medium"
    return (f"color: {color}, feature: {' '.join(feature_words)}, "
            f"size: {size}, type: {kind}")


_VERB_PHRASES = {
    "forward": ("go straight to", "go straight"),
    "turn_left": ("turn left toward", "turn left"),
    "turn_right": ("turn right toward", "turn right"),
    "move_up": ("ascend toward", "ascend"),
    "move_down": ("descend toward", "descend"),
    "stop": ("stop at", "stop"),
}


def _run_kind(actions: list[dict]) -> str:
    """Dominant kind of an action run: last non-stop action, else stop."""
    for a in reversed(actions):
        if a.get("kind") != "stop":
            return str(a["kind"])
    return "stop"


def _mock_sub_instruction(payload: dict) -> str:
    actions = payload.get("actions") or []
    kind = _run_kind(actions)
    with_lm, bare = _VERB_PHRASES.get(kind, ("move toward", "move"))
    prefix = ""
    leading = payload.get("leading_turn")
    if leading in ("left", "right") and kind == "forward":
        prefix = f"slightly turn {leading} and "
    caption = payload.get("caption")
    if caption:
        return (f"{prefix}{with_lm} the {caption['size']} {caption['color']} "
                f"{caption['type']}")
    return f"{prefix}{bare}"


def _mock_fuse(payload: dict) -> str:
    clauses = [str(c) for c in payload.get("clauses") or []]
    if not clauses:
        raise VlmReplyError("fuse request with no clauses", "")
    if len(clauses) == 1:
        return clauses[0]
    if len(clauses) == 2:
        return f"{clauses[0]}. Then, {clauses[1]}."
    parts = [f"First, {clauses[0]}."]
    parts += [f"Then, {c}." for c in clauses[1:-1]]
    parts.append(f"Finally, {clauses[-1]}.")
    return " ".join(parts)


_MOCK_HANDLERS = {
    "caption": _mock_caption,
    "sub_instruction": _mock_sub_instruction,
    "fuse": _mock_fuse,
}


@dataclass
class VlmClient:
    """Shared, thread-safe client. It sends each request from the calling
    thread, so the caller's threads bound the live requests in flight."""

    mode: str = "mock"  # live | mock | replay
    endpoint: str = ""
    model: str = DEFAULT_MODEL
    cache_dir: Path | None = None
    api_key: str = ""

    def __post_init__(self) -> None:
        if self.mode not in ("live", "mock", "replay"):
            raise ConfigError(f"unknown VLM mode {self.mode!r}")
        if self.mode == "replay" and self.cache_dir is None:
            raise ConfigError("replay mode requires a cache directory")
        if self.cache_dir is not None:
            self.cache_dir = Path(self.cache_dir)

    def complete(self, system_prompt: str, payload: dict) -> str:
        """Resolve one request to reply text, per the configured mode."""
        if self.mode == "mock":  # needs neither the request nor its encoding
            return self._mock_reply(payload)
        request = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": system_prompt},
                {"role": "user", "content": json.dumps(payload, sort_keys=True)},
            ],
        }
        if self.mode == "replay":
            return self._replayed_reply(request)
        reply = self._live_reply(request)
        if self.cache_dir is not None:
            self._record(request, reply)
        return reply

    # -- mode backends ---------------------------------------------------

    def _mock_reply(self, payload: dict) -> str:
        task = payload.get("task")
        handler = _MOCK_HANDLERS.get(task)
        if handler is None:
            raise VlmReplyError(f"mock cannot serve task {task!r}", "")
        return handler(payload)

    def _request_key(self, request: dict) -> str:
        canonical = json.dumps(request, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def _cache_path(self, request: dict) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{self._request_key(request)}.json"

    def _replayed_reply(self, request: dict) -> str:
        path = self._cache_path(request)
        if not path.exists():
            raise VlmError(f"no recorded reply for request hash {path.stem}")
        try:
            reply = json.loads(path.read_text(encoding="utf-8"))["reply"]
        except (ValueError, KeyError, TypeError) as exc:
            raise VlmReplyError(f"{path}: unusable recorded reply ({exc!r})", "") from exc
        if not isinstance(reply, str):
            raise VlmReplyError(f"{path}: recorded reply is not a string", "")
        return reply

    def _record(self, request: dict, reply: str) -> None:
        assert self.cache_dir is not None
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        save_json(self._cache_path(request), {"request": request, "reply": reply})

    def _live_reply(self, request: dict) -> str:
        # Imported here: they pull in ssl and email, which only live mode needs.
        import http.client
        import urllib.error
        import urllib.request

        if not self.endpoint:
            raise VlmError("live mode requires an endpoint URL")
        body = json.dumps(request, allow_nan=False).encode("utf-8")
        try:
            post = urllib.request.Request(self.endpoint, data=body, method="POST",
                                          headers={"Content-Type": "application/json"})
        except ValueError as exc:  # no scheme, so not a URL urllib can open
            raise VlmError(f"bad endpoint URL: {exc}") from exc
        if self.api_key:  # unredirected: a redirect must not carry the key elsewhere
            post.add_unredirected_header("Authorization", f"Bearer {self.api_key}")
        last_error: Exception | None = None
        for attempt in range(MAX_RETRIES + 1):
            if attempt:
                time.sleep(RETRY_BACKOFF_S * attempt)
            try:
                with urllib.request.urlopen(post, timeout=TIMEOUT_S) as resp:
                    status, raw = resp.status, resp.read()
            except urllib.error.HTTPError as exc:  # a status urllib treats as failure
                exc.close()
                last_error = VlmError(f"endpoint returned HTTP {exc.code}")
                continue
            except (OSError, ValueError, http.client.HTTPException) as exc:
                # URLError and timeouts are OSErrors; a bad header value is a ValueError
                last_error = exc
                continue
            if status != 200:
                last_error = VlmError(f"endpoint returned HTTP {status}")
                continue
            try:
                return json.loads(raw.decode("utf-8"))["choices"][0]["message"]["content"]
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                raise VlmReplyError(f"malformed completion body: {exc}",
                                    raw.decode("utf-8", "replace")) from exc
        raise VlmError(f"request failed after {MAX_RETRIES + 1} attempts: {last_error}")

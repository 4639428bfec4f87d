"""One JSON POST with bounded retries, shared by the embedding and chat clients."""

from __future__ import annotations

import time
from typing import Any, Callable

import requests

from .errors import RagmarkError


def post_with_retries(
    post: Callable[..., requests.Response], url: str, body: dict, parse: Callable[[Any], Any], *,
    api_key: str | None, timeout: float, retries: int, unavailable: type[RagmarkError], what: str,
) -> Any:
    """POST `body` as JSON to `url` and return `parse` of the reply's JSON.

    Transport errors, error statuses and replies `parse` cannot read (KeyError, IndexError,
    TypeError, ValueError) are retried `retries` times with capped exponential backoff, then
    raise `unavailable` saying `what` failed. A `RagmarkError` from `parse` (`EmptyReply`)
    is an answer, not a fault: it propagates at once.
    """
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    last_error: Exception | None = None
    for attempt in range(retries + 1):
        try:
            resp = post(url, json=body, headers=headers, timeout=timeout)
            resp.raise_for_status()
            return parse(resp.json())
        except (requests.RequestException, KeyError, IndexError, TypeError, ValueError) as exc:
            last_error = exc
            if attempt < retries:
                time.sleep(min(2.0**attempt * 0.1, 2.0))
    raise unavailable(f"{what} failed after {retries + 1} attempts: {last_error}")

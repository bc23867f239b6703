"""Thin stdlib client for the live optimization service.

:class:`ServiceClient` speaks the JSON API of :mod:`repro.core.server`
over ``urllib.request`` — no third-party HTTP stack::

    from repro.core.client import ServiceClient

    client = ServiceClient("http://127.0.0.1:8765")
    study_id = client.submit(scenario, tenant="alice", priority=5)
    for event in client.events(study_id):      # streamed NDJSON
        print(event)
    print(client.report(study_id))

Failures surface as :class:`ServiceHTTPError` carrying the HTTP status,
the decoded error body, and the service's CLI-equivalent ``exit_code``
(2 = the input was unusable, 1 = the work/state conflicted or failed).
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Iterator, List, Mapping, Optional

from repro.core.service import TERMINAL_STATUSES


class ServiceHTTPError(RuntimeError):
    """A non-2xx response from the service."""

    def __init__(self, status: int, payload: Any, url: str) -> None:
        self.status = status
        self.payload = payload if isinstance(payload, dict) else {}
        error = self.payload.get("error") or {}
        self.message = error.get("message") or str(payload)
        #: JSON-pointer path for 422 validation errors, else None.
        self.path = error.get("path")
        #: The CLI-equivalent exit code the service attached (1 or 2).
        self.exit_code = self.payload.get("exit_code")
        where = f" at {self.path}" if self.path else ""
        super().__init__(f"HTTP {status} from {url}: {self.message}{where}")


class ServiceClient:
    """A connection-per-request client for one service base URL."""

    def __init__(self, base_url: str, *, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- plumbing --------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Mapping[str, Any]] = None,
        *,
        timeout: Optional[float] = None,
    ) -> Any:
        url = self.base_url + path
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data, headers=headers, method=method)
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout if timeout is None else timeout
            ) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            try:
                payload = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                payload = {"error": {"message": raw.decode("utf-8", "replace")}}
            raise ServiceHTTPError(exc.code, payload, url) from None

    # -- API -------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def plugins(self) -> Dict[str, List[str]]:
        return self._request("GET", "/v1/plugins")

    def list_studies(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/v1/studies")["studies"]

    def submit(
        self,
        scenario: Mapping[str, Any],
        *,
        tenant: str = "default",
        priority: int = 0,
    ) -> str:
        """Submit a scenario document; returns the study id."""
        envelope = {"scenario": dict(scenario), "tenant": tenant, "priority": priority}
        return self._request("POST", "/v1/studies", envelope)["id"]

    def status(self, study_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/studies/{study_id}")

    def report(self, study_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/studies/{study_id}/report")

    def cancel(self, study_id: str) -> Dict[str, Any]:
        return self._request("DELETE", f"/v1/studies/{study_id}")

    def events(
        self,
        study_id: str,
        *,
        follow: bool = True,
        timeout: Optional[float] = None,
    ) -> Iterator[Dict[str, Any]]:
        """Yield the study's NDJSON progress events as dicts.

        With ``follow`` (default) the stream runs until the study is
        terminal (ending with an ``{"event": "end", ...}`` record);
        ``follow=False`` stops after the current backlog.
        """
        query = "" if follow else "?follow=0"
        url = f"{self.base_url}/v1/studies/{study_id}/events{query}"
        request = urllib.request.Request(url, headers={"Accept": "application/x-ndjson"})
        try:
            # No read timeout while following: the stream idles between
            # evaluations.  (Connect problems still raise URLError.)
            response = urllib.request.urlopen(
                request, timeout=timeout if timeout is not None else (None if follow else self.timeout)
            )
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            try:
                payload = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                payload = {}
            raise ServiceHTTPError(exc.code, payload, url) from None
        with response:
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))

    def wait(
        self,
        study_id: str,
        *,
        timeout: Optional[float] = None,
        poll_s: float = 0.25,
    ) -> Dict[str, Any]:
        """Poll until the study is terminal; returns the final snapshot."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            snapshot = self.status(study_id)
            if snapshot["status"] in TERMINAL_STATUSES:
                return snapshot
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"study {study_id} still {snapshot['status']} after {timeout}s"
                )
            time.sleep(poll_s)

    def wait_healthy(self, *, timeout: float = 30.0, poll_s: float = 0.1) -> Dict[str, Any]:
        """Block until the server answers ``/healthz`` (startup handshake)."""
        deadline = time.monotonic() + timeout
        last: Optional[Exception] = None
        while time.monotonic() < deadline:
            try:
                return self.health()
            except (urllib.error.URLError, ConnectionError, OSError) as exc:
                last = exc
                time.sleep(poll_s)
        raise TimeoutError(f"service at {self.base_url} not healthy after {timeout}s: {last}")


__all__ = ["ServiceClient", "ServiceHTTPError"]

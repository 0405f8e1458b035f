"""JSON wire contract for the serving layer.

A submission is a JSON object describing one cloudlet batch.  Two shapes
are accepted:

* explicit — ``{"cloudlets": [{"length": 1200.0}, 800.0, ...]}`` where
  each entry is either an object with a ``length`` field (``file_size``
  / ``output_size`` optional, default 0) or a bare number used as the
  length;
* constant shorthand — ``{"count": 64, "length": 1000.0}``, equivalent
  to 64 identical explicit entries.  The load generator uses this form
  so 50k-request traces stay cheap to encode.

Every client-side fault — undecodable JSON, an empty batch, a
non-positive or non-finite number (an integer past float range counts
as infinite), an oversized batch, a multi-PE cloudlet — raises
:class:`ServeError` carrying an HTTP 4xx status and a stable machine
``code``.  The HTTP layer converts the error into a JSON response and
keeps the connection loop alive; nothing a client sends can crash the
server (pinned in ``tests/serve/test_http.py``).

Example::

    >>> from repro.serve.protocol import parse_submission
    >>> batch = parse_submission({"cloudlets": [1000.0, {"length": 500.0}]})
    >>> batch.cloudlet_length.tolist()
    [1000.0, 500.0]
    >>> parse_submission({"count": 3, "length": 250.0}).cloudlet_length.tolist()
    [250.0, 250.0, 250.0]
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import inf, isfinite
from typing import Any, Mapping

import numpy as np

#: Largest cloudlet batch one submission may carry.  Mirrors the default
#: streaming chunk width: the service folds each submission as one chunk,
#: so this bound keeps per-request memory O(chunk) like the offline path.
MAX_BATCH = 65_536

#: Largest request body the HTTP layer will read, in bytes.
MAX_BODY_BYTES = 8 * 2**20


class ServeError(Exception):
    """A client-side fault mapped to a 4xx-style JSON response.

    ``status`` is the HTTP status code, ``code`` a stable machine-readable
    identifier (``bad-json``, ``bad-request``, ``unknown-fleet``, ...).
    """

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message

    def to_payload(self) -> dict[str, Any]:
        return {"error": self.code, "detail": self.message}


@dataclass(frozen=True)
class SubmissionBatch:
    """A validated cloudlet batch, as index-aligned numpy columns."""

    cloudlet_length: np.ndarray
    cloudlet_pes: np.ndarray
    cloudlet_file_size: np.ndarray
    cloudlet_output_size: np.ndarray

    @property
    def size(self) -> int:
        return int(self.cloudlet_length.shape[0])


def decode_json(body: bytes) -> Any:
    """Decode a request body, mapping decode failures to a 400."""
    try:
        return json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers undecodable UTF-8, malformed JSON and integer
        # literals past Python's int-conversion digit limit; RecursionError
        # covers arrays or objects nested too deeply to decode.
        raise ServeError(400, "bad-json", f"request body is not valid JSON: {exc}")


def _number(value: Any, key: str, where: str) -> float:
    """``value`` as a float; an integer past float range reads as inf."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ServeError(400, "bad-request", f"{where}: {key} must be a number")
    try:
        return float(value)
    except OverflowError:
        return inf


def _field(item: Mapping[str, Any], key: str, default: float, where: str) -> float:
    value = _number(item.get(key, default), key, where)
    if not isfinite(value) or value < 0:
        raise ServeError(
            400, "bad-request", f"{where}: {key} must be finite and >= 0"
        )
    return value


def _length(value: Any, where: str) -> float:
    value = _number(value, "length", where)
    if not isfinite(value) or value <= 0:
        raise ServeError(400, "bad-request", f"{where}: length must be finite and > 0")
    return value


def parse_submission(payload: Any, max_batch: int = MAX_BATCH) -> SubmissionBatch:
    """Validate a decoded submission payload into a :class:`SubmissionBatch`.

    Raises :class:`ServeError` (status 400 or 413) on any malformed input;
    the caller converts it into a clean error response.
    """
    if not isinstance(payload, Mapping):
        raise ServeError(400, "bad-request", "submission must be a JSON object")

    if "cloudlets" in payload and "count" in payload:
        raise ServeError(
            400, "bad-request", "submission has both 'cloudlets' and 'count'"
        )

    if "count" in payload:
        count = payload["count"]
        if isinstance(count, bool) or not isinstance(count, int):
            raise ServeError(400, "bad-request", "count must be an integer")
        if count < 1:
            raise ServeError(400, "bad-request", f"count must be >= 1, got {count}")
        if count > max_batch:
            raise ServeError(
                413, "batch-too-large", f"count {count} exceeds the {max_batch} cap"
            )
        length = _length(payload.get("length"), "constant submission")
        file_size = _field(payload, "file_size", 0.0, "constant submission")
        output_size = _field(payload, "output_size", 0.0, "constant submission")
        _reject_multi_pe(payload, "constant submission")
        return SubmissionBatch(
            cloudlet_length=np.full(count, length),
            cloudlet_pes=np.ones(count, dtype=np.int64),
            cloudlet_file_size=np.full(count, file_size),
            cloudlet_output_size=np.full(count, output_size),
        )

    cloudlets = payload.get("cloudlets")
    if not isinstance(cloudlets, list):
        raise ServeError(
            400, "bad-request", "submission requires a 'cloudlets' list or 'count'"
        )
    if not cloudlets:
        raise ServeError(400, "empty-batch", "cloudlets list must not be empty")
    if len(cloudlets) > max_batch:
        raise ServeError(
            413,
            "batch-too-large",
            f"batch of {len(cloudlets)} exceeds the {max_batch} cap",
        )

    n = len(cloudlets)
    lengths = np.empty(n)
    file_sizes = np.zeros(n)
    output_sizes = np.zeros(n)
    for i, item in enumerate(cloudlets):
        where = f"cloudlets[{i}]"
        if isinstance(item, Mapping):
            lengths[i] = _length(item.get("length"), where)
            file_sizes[i] = _field(item, "file_size", 0.0, where)
            output_sizes[i] = _field(item, "output_size", 0.0, where)
            _reject_multi_pe(item, where)
        else:
            lengths[i] = _length(item, where)
    return SubmissionBatch(
        cloudlet_length=lengths,
        cloudlet_pes=np.ones(n, dtype=np.int64),
        cloudlet_file_size=file_sizes,
        cloudlet_output_size=output_sizes,
    )


def _reject_multi_pe(item: Mapping[str, Any], where: str) -> None:
    # The streaming execution fold is single-PE only (the paper's setting),
    # so the contract rejects anything else up front instead of placing a
    # cloudlet the execution model cannot account for.
    pes = item.get("pes", 1)
    if isinstance(pes, bool) or not isinstance(pes, int) or pes != 1:
        raise ServeError(
            400, "bad-request", f"{where}: only single-PE cloudlets are servable"
        )


__all__ = [
    "MAX_BATCH",
    "MAX_BODY_BYTES",
    "ServeError",
    "SubmissionBatch",
    "decode_json",
    "parse_submission",
]

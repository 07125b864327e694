"""Transport-independent request routing for the SpMV service.

The front end (:mod:`repro.cluster.aserver`) owns sockets and HTTP
framing, this module owns *what the service does* with a request. A
:class:`Request` is a plain value (method, path, headers, body) and
:class:`Router.handle` maps it to a :class:`Response` — so the same
handlers serve a single-host server (:func:`repro.serve.start_server`),
a cluster node, and the cluster router's JSON fallback path, without
any of them duplicating error mapping or route dispatch.

Routes
------
``POST /v1/matrices``
    Register a matrix. JSON body, either an explicit COO triplet
    ``{"shape": [m, n], "row": [...], "col": [...], "val": [...]}`` or
    a suite generator reference
    ``{"generate": "FEM-Ship", "scale": 0.05, "seed": 0}``.
    Response: fingerprint, plan summary, ``plan_cache_hit``.
``POST /v1/spmv``
    ``{"fingerprint": "...", "x": [...]}`` → ``{"y": [...]}``.
    Concurrent requests for one matrix coalesce into SpMM batches.
``GET /healthz``
    Service/registry summary (status, matrices, queue depth).
``GET /metrics``
    Prometheus text exposition of the process metrics registry.
``GET /v1/debug/trace/{trace_id}``
    Span tree for one sampled request (held by the hub).
    ``?format=chrome``
    returns Chrome trace-event JSON instead of the nested tree.
``GET /v1/debug/spans/{trace_id}``
    The same spans as a *flat* JSON event list (the
    :meth:`~repro.observe.trace.SpanEvent.to_json` schema) — the
    cross-node export a cluster router pulls from each node to stitch
    one tree spanning router→node processes.
``GET /v1/debug/slow``
    Recent SLO outliers with phase breakdowns and trace ids.
``GET /v1/debug/perf``
    Roofline observability: measured-ceilings envelope, per-matrix
    roofline fractions, watchdog baselines and regression events.

Trace propagation: a ``POST /v1/spmv`` carrying an ``X-Repro-Trace``
header (``<trace_id>-<span_id>-<01|00>``) executes under that context —
a sampled one records the full server-side span tree, retrievable at
``/v1/debug/trace/{trace_id}``. The response echoes the header back.

Admission control: when the scheduler's bounded queue is full the
router answers ``429 Too Many Requests`` with a ``Retry-After`` hint.
A body that is not a JSON object, or a value that does not convert,
answers ``400``.

JSON codec: :func:`loads` and :func:`dumps` are the tier's one JSON
format — this router, the cluster router and
:func:`repro.cluster.client.http_fetch` all go through them. Both run
``orjson``. The stdlib re-reads only a body ``orjson`` rejects (one
with ``NaN``/``Infinity`` tokens, or a malformed one, which then gets
the stdlib's error) and writes only a body whose float vector has a
non-finite entry, where ``orjson`` would write ``null``.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field

import numpy as np
import orjson

from ..errors import ReproError, ServeAdmissionError, ServeError
from ..formats.coo import COOMatrix
from ..observe import context as _context
from ..observe import metrics as _metrics
from ..observe.context import TRACE_HEADER
from ..observe.hub import TraceHub
from ..observe.metrics import render_prometheus, sample_process_gauges
from ..observe.trace import encode_chrome
from ..observe.trace import span as _span
from .client import ServeClient

_NULL_CM = contextlib.nullcontext()

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Hard bound on a declared request body. The front end checks it
#: against ``Content-Length`` before any byte of the body is read.
MAX_BODY_BYTES = 256 * 2**20

_ORJSON_OPTIONS = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_NON_STR_KEYS


def loads(data: bytes):
    """Parse one JSON document. ``orjson`` rejects the ``NaN`` /
    ``Infinity`` tokens the stdlib writes (and integers past a double);
    only a document it rejects is re-read by :func:`json.loads`, whose
    error, if any, is the one raised."""
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError:
        return json.loads(data)


def dumps(obj: dict) -> bytes:
    """Encode a JSON object; NumPy arrays and scalars are written
    natively. ``orjson`` writes a non-finite float as ``null``, so a
    body with a top-level float array holding one goes through the
    stdlib, which keeps the ``NaN``/``Infinity`` tokens. Non-finite
    floats anywhere else become ``null``."""
    for v in obj.values():
        if (isinstance(v, np.ndarray) and v.dtype.kind == "f"
                and not np.isfinite(v).all()):
            return json.dumps(obj, default=lambda a: a.tolist()).encode()
    return orjson.dumps(obj, option=_ORJSON_OPTIONS)


@dataclass
class Request:
    """One transport-independent request. Header names are looked up
    case-insensitively through :meth:`header`."""

    method: str
    path: str
    headers: dict = field(default_factory=dict)
    body: bytes = b""

    def header(self, name: str, default: str | None = None) -> str | None:
        lower = name.lower()
        for k, v in self.headers.items():
            if k.lower() == lower:
                return v
        return default

    def json(self) -> dict:
        """The body as a JSON object; anything else is a
        :class:`ServeError` (400)."""
        if not self.body:
            raise ServeError("missing request body")
        try:
            body = loads(self.body)
        except (json.JSONDecodeError, UnicodeDecodeError,
                RecursionError) as exc:
            raise ServeError(f"invalid JSON body: {exc}") from exc
        if not isinstance(body, dict):
            raise ServeError(
                f"JSON body must be an object, got {type(body).__name__}")
        return body


@dataclass
class Response:
    """One transport-independent response."""

    status: int
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict = field(default_factory=dict)

    @classmethod
    def json(cls, status: int, obj: dict,
             headers: dict | None = None) -> "Response":
        return cls(status, dumps(obj), "application/json",
                   dict(headers or {}))

    @classmethod
    def error(cls, status: int, message: str,
              headers: dict | None = None) -> "Response":
        return cls.json(status, {"error": message}, headers)


def error_response(exc: ReproError) -> Response:
    """The service-wide exception→status mapping (shared by every
    path: HTTP responses and binary error frames)."""
    if isinstance(exc, ServeAdmissionError):
        return Response.error(429, str(exc), {"Retry-After": "1"})
    if isinstance(exc, ServeError):
        code = 404 if "unknown matrix fingerprint" in str(exc) else 400
        return Response.error(code, str(exc))
    status = getattr(exc, "status", 400)
    return Response.error(status, str(exc))


def trace_response(hub: TraceHub, path: str) -> Response:
    """``GET /v1/debug/{trace,spans}/{id}`` from ``hub``, shared by
    this router and the cluster router: the nested tree, its Chrome
    trace events (``?format=chrome``), or the flat event list."""
    kind, _, rest = path[len("/v1/debug/"):].partition("/")
    trace_id, _, query = rest.partition("?")
    if not trace_id:
        return Response.error(400, "missing trace id")
    events = hub.get(trace_id)
    if not events:
        return Response.error(404, f"unknown trace {trace_id!r}")
    if kind == "spans":
        return Response.json(200, {
            "trace_id": trace_id,
            "events": [e.to_json() for e in events]})
    if query == "format=chrome":
        return Response.json(200, encode_chrome(events))
    return Response.json(200, {"trace_id": trace_id,
                               "spans": hub.tree(trace_id)})


class Router:
    """Maps :class:`Request` values onto one :class:`ServeClient`."""

    def __init__(self, client: ServeClient):
        self.client = client

    # ------------------------------------------------------ entry point
    def handle(self, req: Request) -> Response:
        """Dispatch one request; never raises — every error becomes a
        JSON error response with the shared status mapping."""
        _metrics.inc("serve.http_requests",
                     route=f"{req.method} {req.path}")
        try:
            if req.method == "GET":
                return self._get(req)
            if req.method == "POST":
                with _span("serve.http", route=f"POST {req.path}"):
                    return self._post(req)
            return Response.error(
                405, f"method {req.method} not allowed")
        except ReproError as exc:
            return error_response(exc)
        except Exception as exc:  # noqa: BLE001 - the last-resort fence
            return Response.error(500, f"internal error: {exc}")

    # ------------------------------------------------------------- GET
    def _get(self, req: Request) -> Response:
        path = req.path
        if path == "/healthz":
            return Response.json(200, self.client.describe())
        if path == "/metrics":
            # Process gauges are point-in-time: refresh on each scrape.
            sample_process_gauges()
            return Response(200, render_prometheus().encode(),
                            PROMETHEUS_CONTENT_TYPE)
        if path.startswith(("/v1/debug/trace/", "/v1/debug/spans/")):
            return trace_response(self.client.hub, path)
        if path == "/v1/debug/slow":
            return Response.json(
                200, {"slow": self.client.slow_requests()})
        if path == "/v1/debug/perf":
            return Response.json(200, self.client.perf_report())
        return Response.error(404, f"unknown route GET {path}")

    # ------------------------------------------------------------ POST
    def _post(self, req: Request) -> Response:
        if req.path == "/v1/matrices":
            return self._post_matrices(req)
        if req.path == "/v1/spmv":
            return self._post_spmv(req)
        return Response.error(404, f"unknown route POST {req.path}")

    def register_body(self, body: dict) -> Response:
        """Register a matrix described by a JSON body (triplet or
        generator reference) — shared with the cluster router, which
        fans the same body out to every owner node."""
        coo, n_threads = registration_from_body(body)
        entry = self.client.register(coo, n_threads=n_threads)
        return Response.json(200, {
            "fingerprint": entry.fingerprint,
            "shape": list(entry.shape),
            "nnz": entry.nnz,
            "plan_cache_hit": entry.from_plan_cache,
            "plan": entry.plan.describe(),
        })

    def _post_matrices(self, req: Request) -> Response:
        return self.register_body(req.json())

    def spmv(self, fingerprint: str, x: np.ndarray,
             trace_header: str | None = None
             ) -> tuple[np.ndarray, str | None]:
        """The core compute op shared by the JSON and binary paths:
        run ``y = A·x`` under the inbound trace context (malformed
        headers are ignored, never an error) and return the result
        plus the header to echo back."""
        ctx = _context.from_header(trace_header)
        with _context.use(ctx) if ctx is not None else _NULL_CM:
            y = self.client.spmv(fingerprint, x)
        return y, (ctx.to_header() if ctx is not None else None)

    def _post_spmv(self, req: Request) -> Response:
        body = req.json()
        x = vector_from_body(body)
        y, echo = self.spmv(body["fingerprint"], x,
                            req.header(TRACE_HEADER))
        headers = {TRACE_HEADER: echo} if echo is not None else {}
        return spmv_response(body["fingerprint"], y, headers)


def spmv_response(fingerprint: str, y: np.ndarray,
                  headers: dict) -> Response:
    """The ``/v1/spmv`` reply, shared by this router and the cluster
    router's JSON route. ``y`` goes to :func:`dumps` as a contiguous
    float64 array, so a non-finite entry still reads back as its
    ``NaN``/``Infinity`` token."""
    return Response.json(200, {
        "fingerprint": fingerprint,
        "y": np.ascontiguousarray(y, dtype=np.float64),
    }, headers)


def _convert(body: dict, key: str, convert, default=None):
    """``convert(body[key])``, or ``default`` when the key is absent;
    a value that does not convert is a :class:`ServeError` (400)."""
    if key not in body:
        return default
    try:
        return convert(body[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ServeError(f"bad {key!r} in request body: {exc}") from exc


def registration_from_body(body: dict) -> tuple[COOMatrix, int | None]:
    """The COO a registration body describes (explicit triplet or a
    deterministic suite-generator reference) and its ``n_threads``
    (None when absent). Every value is checked here, so the cluster
    router rejects a malformed body before it fans it out."""
    n_threads = _convert(body, "n_threads", int)
    if "generate" in body:
        from ..matrices import generate

        return generate(
            str(body["generate"]),
            scale=_convert(body, "scale", float, 0.05),
            seed=_convert(body, "seed", int, 0),
        ), n_threads
    try:
        coo = COOMatrix(
            tuple(body["shape"]), body["row"], body["col"], body["val"],
        )
    except KeyError as exc:
        raise ServeError(
            f"matrix body needs shape/row/col/val (missing "
            f"{exc.args[0]!r}) or a 'generate' name"
        ) from exc
    except (TypeError, ValueError) as exc:
        raise ServeError(f"bad matrix triplet: {exc}") from exc
    return coo, n_threads


def _numbers(v) -> np.ndarray:
    """``v`` as float64 when NumPy reads it as numbers: ``null``,
    string and all-boolean entries are a :class:`TypeError`."""
    a = np.array(v)
    if a.dtype.kind not in "fiu":
        raise TypeError(f"entries must be numbers, got {a.dtype}")
    return a.astype(np.float64, copy=False)


def vector_from_body(body: dict) -> np.ndarray:
    """The ``x`` of an spmv body as a 1-D float64 vector; a body
    without ``fingerprint`` and ``x``, or an ``x`` that is not a flat
    list of numbers (a ``null``, a string, an integer past a double, or
    only booleans), is a :class:`ServeError` (400). NumPy coerces a
    boolean mixed in with numbers to 0.0 or 1.0."""
    if "fingerprint" not in body or "x" not in body:
        raise ServeError("spmv body needs 'fingerprint' and 'x'")
    x = _convert(body, "x", _numbers)
    if x.ndim != 1:
        raise ServeError(f"'x' must be a flat list of numbers, got "
                         f"{x.ndim} dimension(s)")
    return x


__all__ = [
    "MAX_BODY_BYTES",
    "PROMETHEUS_CONTENT_TYPE",
    "Request",
    "Response",
    "Router",
    "dumps",
    "error_response",
    "loads",
    "registration_from_body",
    "spmv_response",
    "vector_from_body",
]

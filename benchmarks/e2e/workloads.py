"""The six closed-loop workloads and the program stack they drive.

A :class:`Stack` is everything one caller could have built from the
public API for one matrix — a tuned operator, an embedded
:class:`ServeClient`, an HTTP server plus one connection, a cluster
node plus one binary client — each part constructed on first use and
all of them closed, last-built first, by :meth:`Stack.close`. A gated
run touches only the parts its workload needs, so ``lib_fem`` never
starts a thread and ``serve_seq`` never opens a socket.

Program config is what a user gets by default plus ``backend="auto"``:
machine ``"AMD X2"``, ``max_batch=8``, ``flush_deadline_s=0.002``, no
plan cache, tracing off.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from repro import SpmvEngine, get_machine
from repro.cluster.client import ClusterClient
from repro.cluster.node import ClusterNode
from repro.serve.client import ServeClient
from repro.serve.routes import Router
from repro.serve.transport import start_server, stop_server

from .inputs import POOL, Inputs
from .provenance import isa_rungs

MACHINE = "AMD X2"
BACKEND = "auto"
#: Requests per ``serve_burst`` wave — the scheduler's default
#: ``max_batch``, so every wave dispatches the moment it is complete.
WAVE = 8

_JSON_HEADERS = {"Content-Type": "application/json"}


def _describe(plan, matrix) -> dict:
    return {"plan": plan.describe(),
            "isa_rungs": isa_rungs(matrix, plan.backend)}


def http_bodies(inputs: Inputs) -> tuple[bytes, ...]:
    """``POST /v1/spmv`` bodies for the x pool, encoded once per run:
    client-side JSON encoding is generator work, not program work."""
    fingerprint = inputs.coo.content_fingerprint()
    return tuple(
        json.dumps({"fingerprint": fingerprint, "x": x.tolist()}).encode()
        for x in inputs.xs
    )


class Stack:
    """Lazily built program stack for one matrix; see module docstring."""

    def __init__(self, inputs: Inputs, bodies: tuple[bytes, ...] = (),
                 **client_kwargs):
        self.inputs = inputs
        self.bodies = bodies
        self._client_kwargs = client_kwargs
        self._exit = contextlib.ExitStack()

    def close(self) -> None:
        self._exit.close()

    def __enter__(self) -> "Stack":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def describe(self) -> dict:
        """Resolved backend, chosen plan and ISA rungs of whichever
        structures this stack has built — the library's single-thread
        plan, the serve registry's (planned for the machine model's
        core count), or both — and the serve config actually in force."""
        built, out = self.__dict__, {}
        if "tuned" in built:
            out["lib"] = _describe(self.tuned.plan, self.tuned.matrix)
        if "fp" in built:
            out["serve"] = _describe(self.entry.plan, self.entry.matrix)
            scheduler = self.client.scheduler
            out["serve"]["config"] = {
                "max_batch": scheduler.max_batch,
                "flush_deadline_s": scheduler.flush_deadline_s,
                "workers": self.client.pool.n_workers,
                "plan_cache": self.client.registry.plan_cache is not None,
                "trace_sample_rate": self.client.trace_sample_rate,
            }
        return out

    # ---------------------------------------------------------- library
    @cached_property
    def tuned(self):
        engine = SpmvEngine(get_machine(MACHINE))
        return engine.tune(self.inputs.coo, backend=BACKEND)

    # ------------------------------------------------------------ serve
    @cached_property
    def client(self) -> ServeClient:
        client = ServeClient(MACHINE, backend=BACKEND,
                             **self._client_kwargs)
        self._exit.callback(client.close)
        return client

    @cached_property
    def fp(self) -> str:
        return self.client.register(self.inputs.coo).fingerprint

    @cached_property
    def op(self):
        return self.client.operator(self.fp)

    @cached_property
    def entry(self):
        """The registry entry: the plan and structure serve executes."""
        return self.client.registry.get(self.fp)

    @cached_property
    def x_block(self) -> np.ndarray:
        """The pool as the (ncols, 8) block a full wave coalesces to."""
        return np.stack(self.inputs.xs[:WAVE], axis=1)

    @cached_property
    def router(self) -> Router:
        """The HTTP routes with no socket in front of them."""
        self.fp
        return Router(self.client)

    # ------------------------------------------------------------- http
    @cached_property
    def httpd(self):
        self.fp  # the matrix is registered before the door opens
        httpd = start_server(self.client)
        self._exit.callback(stop_server, httpd)
        return httpd

    @cached_property
    def conn(self) -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection("127.0.0.1", self.httpd.port,
                                          timeout=60.0)
        self._exit.callback(conn.close)
        return conn

    # ---------------------------------------------------------- cluster
    @cached_property
    def node(self) -> ClusterNode:
        self.fp  # registered on the node's ServeClient directly
        node = ClusterNode(self.client)
        self._exit.callback(node.close)
        return node.start()

    @cached_property
    def wire(self) -> ClusterClient:
        wire = ClusterClient(self.node.address)
        self._exit.callback(wire.close)
        return wire


# ----------------------------------------------------------------------
# The calls being timed. Each takes the stack and a pool index and
# returns the raw result; ``decode`` turns a raw result into y.
# ----------------------------------------------------------------------
def call_lib(stack: Stack, i: int) -> np.ndarray:
    return stack.tuned(stack.inputs.xs[i])


def call_serve(stack: Stack, i: int) -> np.ndarray:
    return stack.op.spmv(stack.inputs.xs[i])


def call_http(stack: Stack, i: int) -> bytes:
    """One POST on the persistent connection, response read to the
    last byte. A non-200 raises *after* the body is drained, so the
    connection stays usable for the next request."""
    conn = stack.conn
    conn.request("POST", "/v1/spmv", stack.bodies[i], _JSON_HEADERS)
    resp = conn.getresponse()
    data = resp.read()
    if resp.status != 200:
        raise RuntimeError(f"HTTP {resp.status}: {data[:200]!r}")
    return data


def call_wire(stack: Stack, i: int) -> np.ndarray:
    return stack.wire.spmv(stack.fp, stack.inputs.xs[i])


def decode_json(raw: bytes) -> np.ndarray:
    return np.asarray(json.loads(raw)["y"], dtype=np.float64)


#: One completed request: (latency in seconds, pool index, raw result).
Completed = tuple[float, int, object]


def _one(call: Callable[[Stack, int], object]
         ) -> Callable[[Stack, int], list[Completed]]:
    """Closed-loop step issuing one request for pool vector ``i``."""
    def step(stack: Stack, i: int) -> list[Completed]:
        i %= POOL
        t0 = time.perf_counter()
        raw = call(stack, i)
        return [(time.perf_counter() - t0, i, raw)]
    return step


def step_wave(stack: Stack, i: int) -> list[Completed]:
    """Submit the whole pool, then collect: each request's latency runs
    from its own submit to its own result in hand."""
    client, fp, xs = stack.client, stack.fp, stack.inputs.xs
    submitted = []
    for j in range(WAVE):
        t0 = time.perf_counter()
        submitted.append((t0, client.submit(fp, xs[j])))
    out = []
    for j, (t0, fut) in enumerate(submitted):
        y = fut.result()
        out.append((time.perf_counter() - t0, j, y))
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    matrix: str
    why: str
    step: Callable[[Stack, int], list[Completed]]
    decode: Callable[[object], np.ndarray] = np.asarray
    needs_bodies: bool = False
    requests_per_step: int = 1


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "lib_fem", "FEM-Cant",
        "tune once, call tuned(x) in a loop on a 64 nnz/row FEM matrix: "
        "kernels is >=95% of the time, so kernel and format work shows "
        "here and nowhere above it",
        _one(call_lib)),
    Workload(
        "lib_webbase", "Webbase",
        "same call on a 2.7 nnz/row power-law matrix whose plan is "
        "hundreds of cache blocks: per-row, per-block and plan-choice "
        "costs dominate, not bandwidth",
        _one(call_lib)),
    Workload(
        "serve_seq", "FEM-Cant",
        "one sequential caller through ServeClient (the solver "
        "pattern): pays the scheduler's deadline flush and thread "
        "hand-offs, kernel is about a quarter of latency",
        _one(call_serve)),
    Workload(
        "serve_burst", "FEM-Cant",
        "waves of 8 submits then wait: every wave fills max_batch and "
        "runs as one k=8 SpMM, never waiting for the flush deadline",
        step_wave, requests_per_step=WAVE),
    Workload(
        "http_json", "FEM-Cant",
        "POST /v1/spmv on one persistent connection: JSON decode and "
        "encode in serve.routes dominate, so it is the control on "
        "which kernel work must show nothing",
        _one(call_http), decode=decode_json, needs_bodies=True),
    Workload(
        "wire_epidem", "Epidem",
        "binary cluster protocol to an in-process node on a 4 nnz/row "
        "matrix with 1 MB vectors each way: vector bytes rival matrix "
        "bytes, so cluster.wire and aserver cost shows",
        _one(call_wire)),
)

BY_NAME = {w.name: w for w in WORKLOADS}

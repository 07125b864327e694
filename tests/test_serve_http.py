"""HTTP front end: routes, admission control, metrics, drain."""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from concurrent.futures import Future

import numpy as np
import pytest

from repro.cluster import ClusterNode, ClusterRouter
from repro.serve import Request, Router, ServeClient, start_server, \
    stop_server
from tests.conftest import random_coo


def _url(httpd, path):
    return f"http://127.0.0.1:{httpd.port}{path}"


def get(httpd, path):
    with urllib.request.urlopen(_url(httpd, path), timeout=10) as r:
        return r.status, r.read().decode(), dict(r.headers)


def post(httpd, path, obj):
    req = urllib.request.Request(
        _url(httpd, path), data=json.dumps(obj).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=10) as r:
        return r.status, json.loads(r.read())


@pytest.fixture
def served():
    client = ServeClient(machine="AMD X2", n_threads=1, max_batch=4,
                         flush_deadline_s=0.005)
    httpd = start_server(client, port=0)
    yield httpd, client
    stop_server(httpd)
    client.close()


def register_triplet(httpd, coo):
    return post(httpd, "/v1/matrices", {
        "shape": list(coo.shape),
        "row": coo.row.tolist(),
        "col": coo.col.tolist(),
        "val": coo.val.tolist(),
    })


class TestRoutes:
    def test_register_and_spmv(self, served, rng):
        httpd, _ = served
        coo = random_coo(60, 60, 0.1, seed=1)
        status, body = register_triplet(httpd, coo)
        assert status == 200
        assert body["nnz"] == coo.nnz_logical
        assert body["plan_cache_hit"] is False
        x = rng.standard_normal(60)
        status, result = post(httpd, "/v1/spmv", {
            "fingerprint": body["fingerprint"], "x": x.tolist(),
        })
        assert status == 200
        np.testing.assert_allclose(
            np.asarray(result["y"]), coo.toarray() @ x, rtol=1e-10
        )

    def test_register_by_generator_name(self, served):
        httpd, _ = served
        status, body = post(httpd, "/v1/matrices", {
            "generate": "Dense", "scale": 0.02, "seed": 0,
        })
        assert status == 200
        assert body["nnz"] > 0

    def test_healthz(self, served):
        httpd, _ = served
        coo = random_coo(30, 30, 0.1, seed=2)
        register_triplet(httpd, coo)
        status, text, _ = get(httpd, "/healthz")
        doc = json.loads(text)
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["matrices"] == 1

    def test_metrics_exposition(self, served, rng):
        httpd, _ = served
        coo = random_coo(30, 30, 0.1, seed=3)
        _, body = register_triplet(httpd, coo)
        post(httpd, "/v1/spmv", {
            "fingerprint": body["fingerprint"],
            "x": rng.standard_normal(30).tolist(),
        })
        status, text, headers = get(httpd, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "# TYPE repro_serve_batches counter" in text
        assert "repro_serve_matrices_registered" in text
        assert "repro_serve_http_requests" in text


#: ``(id, path, body)``: bodies that are not a JSON object, nest past
#: the parser's limit, or carry a value the service cannot convert. An
#: spmv body gets a registered fingerprint; the full-length ``x`` bodies
#: match its 20 columns.
MALFORMED_IDS = [
    ("spmv-number", "/v1/spmv", b"5"),
    ("spmv-null", "/v1/spmv", b"null"),
    ("matrices-number", "/v1/matrices", b"5"),
    ("matrices-null", "/v1/matrices", b"null"),
    ("spmv-deep", "/v1/spmv", b"[" * 5000),
    ("scale", "/v1/matrices", {"generate": "FEM-Har", "scale": "abc"}),
    ("scale-huge-int", "/v1/matrices",
     {"generate": "FEM-Har", "scale": 10**400}),
    ("seed", "/v1/matrices", {"generate": "FEM-Har", "seed": "s"}),
    ("n_threads", "/v1/matrices",
     {"generate": "FEM-Har", "n_threads": "x"}),
    ("x-strings", "/v1/spmv", {"x": ["a", "b"]}),
    ("x-ragged", "/v1/spmv", {"x": [[1, 2], [3]]}),
    ("x-huge-int", "/v1/spmv", {"x": [1.0] * 19 + [10**400]}),
    ("x-null-entry", "/v1/spmv", {"x": [1.0] * 19 + [None]}),
    ("x-string-entry", "/v1/spmv", {"x": [1.0] * 19 + ["2.5"]}),
    ("x-booleans", "/v1/spmv", {"x": [True] * 20}),
]
MALFORMED = [(path, body) for _, path, body in MALFORMED_IDS]


@pytest.fixture(scope="module")
def fronts():
    """Both JSON front doors, each with one matrix registered:
    ``{name: (handler, fingerprint)}``."""
    coo = random_coo(20, 20, 0.2, seed=8)
    client = ServeClient(machine="AMD X2", n_threads=1)
    node = ClusterNode(machine="AMD X2", n_threads=1).start()
    router = ClusterRouter([node.address], replication=1,
                           health_interval_s=60.0).start()
    try:
        fp = client.register(coo).fingerprint
        node.client.register(coo)
        yield {"router": (Router(client).handle, fp),
               "cluster": (router.handle_request, fp)}
    finally:
        router.close()
        node.close()
        client.close()


class TestErrors:
    def test_unknown_routes(self, served):
        httpd, _ = served
        with pytest.raises(urllib.error.HTTPError) as e:
            get(httpd, "/nope")
        assert e.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as e:
            post(httpd, "/v1/nope", {})
        assert e.value.code == 404

    def test_unknown_fingerprint_404(self, served):
        httpd, _ = served
        with pytest.raises(urllib.error.HTTPError) as e:
            post(httpd, "/v1/spmv",
                 {"fingerprint": "0" * 16, "x": [1.0]})
        assert e.value.code == 404

    def test_bad_body_400(self, served):
        httpd, _ = served
        with pytest.raises(urllib.error.HTTPError) as e:
            post(httpd, "/v1/matrices", {"shape": [2, 2]})
        assert e.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as e:
            post(httpd, "/v1/spmv", {"x": [1.0]})
        assert e.value.code == 400

    def test_invalid_json_400(self, served):
        httpd, _ = served
        req = urllib.request.Request(
            _url(httpd, "/v1/spmv"), data=b"{nope",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as e:
            urllib.request.urlopen(req, timeout=10)
        assert e.value.code == 400

    @pytest.mark.parametrize("front", ["router", "cluster"])
    @pytest.mark.parametrize("path,body", MALFORMED,
                             ids=[i for i, _, _ in MALFORMED_IDS])
    def test_malformed_body_400(self, fronts, front, path, body):
        """A value the service cannot convert is the client's error on
        the single-host router and on the cluster router alike."""
        handler, fingerprint = fronts[front]
        if isinstance(body, dict) and "x" in body:
            body = {"fingerprint": fingerprint, **body}
        raw = body if isinstance(body, bytes) else json.dumps(body).encode()
        resp = handler(Request("POST", path, {}, raw))
        if isinstance(resp, Future):
            resp = resp.result(timeout=30)
        assert resp.status == 400, resp.body
        assert "internal error" not in json.loads(resp.body)["error"]

    def test_backpressure_429(self, rng):
        client = ServeClient(machine="AMD X2", n_threads=1,
                             max_queue=0, flush_deadline_s=30.0)
        httpd = start_server(client, port=0)
        try:
            coo = random_coo(20, 20, 0.2, seed=4)
            _, body = register_triplet(httpd, coo)
            with pytest.raises(urllib.error.HTTPError) as e:
                post(httpd, "/v1/spmv", {
                    "fingerprint": body["fingerprint"],
                    "x": rng.standard_normal(20).tolist(),
                })
            assert e.value.code == 429
            assert e.value.headers["Retry-After"] is not None
        finally:
            stop_server(httpd, drain=False)
            client.close()


class TestLifecycle:
    def test_stop_drains_cleanly(self, rng):
        client = ServeClient(machine="AMD X2", n_threads=1,
                             max_batch=16, flush_deadline_s=30.0)
        httpd = start_server(client, port=0)
        coo = random_coo(40, 40, 0.1, seed=5)
        _, body = register_triplet(httpd, coo)
        fut = client.submit(body["fingerprint"],
                            rng.standard_normal(40))
        assert client.scheduler.queued == 1
        stop_server(httpd)          # drains the pending partial batch
        assert fut.done()
        client.close()
        assert client.describe()["status"] == "closed"

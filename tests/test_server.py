"""Networked service: HTTP endpoints, backpressure, drain, transports."""

import collections
import http.client
import json
import math
import re
import socket
import time

import numpy as np
import pytest

from repro.api import (
    ApiError,
    Client,
    HttpTransport,
    InProcessTransport,
    RunRequest,
    RunResult,
    Transport,
)
from repro.config import SimulationConfig
from repro.obs import PROCESS_METRICS, total
from repro.server import HTTP_FOR_STATUS, SimulationServer, serve_in_thread
from repro.service import SimulationService


def small_config(**kwargs):
    base = dict(n_cells=16, particles_per_cell=10, n_steps=4, vth=0.02)
    base.update(kwargs)
    return SimulationConfig(**base)


def heavy_config(**kwargs):
    """A config slow enough to hold the admission queue open."""
    base = dict(n_cells=128, particles_per_cell=400, n_steps=400, seed=1)
    base.update(kwargs)
    return SimulationConfig(**base)


def raw_request(server, method, path, body=None, headers=None):
    """One HTTP round trip on a fresh connection, returning (status, bytes)."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request(method, path, body=body,
                     headers=headers or ({"Content-Type": "application/json"}
                                         if body is not None else {}))
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


@pytest.fixture(scope="module")
def server():
    with serve_in_thread(max_batch_size=8, max_wait=0.005) as srv:
        yield srv


class TestProtocol:
    def test_unknown_path_404(self, server):
        status, data = raw_request(server, "GET", "/nope")
        assert status == 404
        assert "/v1/run" in json.loads(data)["error"]

    def test_wrong_method_405(self, server):
        status, data = raw_request(server, "GET", "/v1/run")
        assert status == 405
        status, data = raw_request(server, "POST", "/v1/health")
        assert status == 405
        assert "not allowed" in json.loads(data)["error"]

    def test_malformed_json_body_400_error_result(self, server):
        status, data = raw_request(server, "POST", "/v1/run", b"{not json")
        assert status == 400
        result = RunResult.from_dict(json.loads(data))
        assert result.status == "error"
        assert "JSON" in result.error

    def test_wrong_api_version_400_error_result(self, server):
        body = json.dumps({"api_version": "v2", "id": "x",
                           "config": {"v0": 0.2}}).encode()
        status, data = raw_request(server, "POST", "/v1/run", body)
        assert status == 400
        payload = json.loads(data)
        assert payload["status"] == "error"
        assert payload["id"] == "x"
        assert "api_version" in payload["error"]

    def test_bad_config_400_error_result(self, server):
        body = json.dumps({"api_version": "v1", "id": "bad",
                           "config": {"n_particles": 4}}).encode()
        status, data = raw_request(server, "POST", "/v1/run", body)
        assert status == 400
        payload = json.loads(data)
        assert payload["status"] == "error"
        assert "n_particles" in payload["error"]

    def test_malformed_request_line_400(self, server):
        with socket.create_connection((server.host, server.port), timeout=30) as s:
            s.sendall(b"BOGUS\r\n\r\n")
            data = s.recv(65536)
        assert b"400" in data.split(b"\r\n", 1)[0]

    def test_chunked_encoding_rejected_411(self, server):
        with socket.create_connection((server.host, server.port), timeout=30) as s:
            s.sendall(b"POST /v1/run HTTP/1.1\r\n"
                      b"Transfer-Encoding: chunked\r\n\r\n")
            data = s.recv(65536)
        assert b"411" in data.split(b"\r\n", 1)[0]

    def test_keep_alive_serves_many_requests_per_connection(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            for _ in range(3):
                conn.request("GET", "/v1/health")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
        finally:
            conn.close()


class TestHealthAndMetrics:
    def test_health_schema(self, server):
        status, data = raw_request(server, "GET", "/v1/health")
        assert status == 200
        payload = json.loads(data)
        assert payload["status"] == "ok"
        assert payload["api_version"] == "v1"
        assert payload["draining"] is False
        assert isinstance(payload["inflight"], int)
        assert isinstance(payload["connections"], int)

    def test_metrics_schema_and_counts(self, server):
        with Client.connect(server.url) as client:
            client.run(RunRequest(config=small_config(seed=101), id="m-1"))
        status, data = raw_request(server, "GET", "/v1/metrics")
        assert status == 200
        payload = json.loads(data)
        assert total(payload, "repro_requests_total", endpoint="/v1/run",
                     status="ok") >= 1
        # Every terminal status and connection outcome is exported,
        # at 0 until its first event.
        assert {
            sample["labels"]["status"]
            for sample in payload["repro_requests_total"]["samples"]
            if sample["labels"]["endpoint"] == "/v1/run"
        } == {"ok", "error", "shed", "timeout"}
        assert {
            sample["labels"]["outcome"]
            for sample in payload["repro_connections_total"]["samples"]
        } == {"accepted", "rejected"}
        assert total(payload, "repro_queue_max_pending") == server.max_pending
        assert total(payload, "repro_connections_limit") == server.max_connections
        batches = payload["repro_batch_size_total"]["samples"]
        assert sum(s["value"] for s in batches) >= 1 and all(
            int(s["labels"]["size"]) >= 1 for s in batches
        )
        assert total(payload, "repro_stage_duration_seconds", stage="wall") >= 1
        assert total(payload, "repro_http_responses_total", code=200) >= 1
        assert total(payload, "repro_service_workers") == 1
        assert total(payload, "repro_service_runs_by_tier_total") >= 1


class TestRunEndpoint:
    def test_remote_result_bitwise_equals_in_process(self, server):
        request = RunRequest(config=small_config(seed=7), id="parity",
                             phase_space=True)
        with Client.connect(server.url) as remote:
            over_http = remote.run(request)
        with Client(background=False) as local:
            in_process = local.run(request)
        assert over_http.status == "ok"
        assert over_http.key == in_process.key
        assert sorted(over_http.series) == sorted(in_process.series)
        for name in in_process.series:
            a = np.asarray(over_http.series[name])
            b = np.asarray(in_process.series[name])
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(over_http.efield, in_process.efield)
        np.testing.assert_array_equal(over_http.final_x, in_process.final_x)
        np.testing.assert_array_equal(over_http.final_v, in_process.final_v)

    def test_float32_tier_round_trips_exactly(self, server):
        request = RunRequest(
            config=small_config(seed=8, dtype="float32"), id="f32")
        with Client.connect(server.url) as remote:
            over_http = remote.run(request)
        with Client(background=False) as local:
            in_process = local.run(request)
        assert np.asarray(over_http.series["kinetic"]).dtype == np.float32
        for name in in_process.series:
            np.testing.assert_array_equal(
                np.asarray(over_http.series[name]),
                np.asarray(in_process.series[name]),
            )

    def test_execution_failure_travels_as_500_error_result(self, server):
        request = RunRequest(
            config=small_config(solver="dl"), id="no-model")
        with Client.connect(server.url, raise_on_error=False) as client:
            result = client.run(request)
        assert result.status == "error"
        assert "dl_solver" in result.error
        with Client.connect(server.url) as client:
            with pytest.raises(ApiError, match="no-model") as excinfo:
                client.run(request)
            assert excinfo.value.status == "error"

    def test_a_threaded_backend_is_a_counted_400(self, server):
        """``backend`` accepts only ``"numpy"``: anything else is a bad
        request, counted as a parse failure of its endpoint."""
        failures = "repro_parse_failures_total"
        before = json.loads(raw_request(server, "GET", "/v1/metrics")[1])
        body = json.dumps({"api_version": "v1", "config": {"backend": "threaded"}})
        status, data = raw_request(server, "POST", "/v1/run", body.encode())
        after = json.loads(raw_request(server, "GET", "/v1/metrics")[1])
        assert status == 400
        assert "backend" in json.loads(data)["error"]
        assert total(after, failures, endpoint="/v1/run") == total(
            before, failures, endpoint="/v1/run") + 1

    def test_repeat_request_hits_the_store(self, server):
        request = RunRequest(config=small_config(seed=55), id="cache-me")
        with Client.connect(server.url) as client:
            first = client.run(request)
            second = client.run(request)
        assert first.key == second.key
        assert second.cache_hit and second.submit_status == "cached"


class TestTornStoreArchive:
    def test_unreadable_archive_is_served_as_a_miss(self, tmp_path):
        from repro.service import ResultStore

        request = RunRequest(config=small_config(seed=56), id="torn")
        with Client(background=False, store=ResultStore(directory=tmp_path)) as local:
            key = local.run(request).key
        with open(tmp_path / f"{key}.npz", "r+b") as fh:
            fh.truncate(100)
        with serve_in_thread(store=ResultStore(directory=tmp_path)) as srv:
            status, body = raw_request(
                srv, "POST", "/v1/run", json.dumps(request.to_dict()).encode("utf-8")
            )
            assert status == 200
            assert json.loads(body)["status"] == "ok"
            with Client.connect(srv.url) as remote:
                assert remote.run(request).cache_hit
                assert total(remote.stats, "repro_service_store_errors_total") == 1


class TestSubmitTimeFailure:
    """A dl request whose model fails to load answers instead of hanging up."""

    LOST = RunRequest(config=small_config(solver="dl"), id="lost-model")

    def test_run_answers_500_and_keeps_the_connection(self, tmp_path):
        with serve_in_thread(model_dir=str(tmp_path / "missing")) as srv:
            conn = http.client.HTTPConnection(srv.host, srv.port, timeout=30)
            try:
                conn.request("POST", "/v1/run", body=json.dumps(self.LOST.to_dict()),
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                payload = json.loads(response.read())
                assert response.status == 500
                assert payload["status"] == "error"
                assert payload["id"] == "lost-model"
                assert "FileNotFoundError" in payload["error"]
                conn.request("GET", "/v1/health")
                health = conn.getresponse()
                assert health.status == 200
                assert json.loads(health.read())["status"] == "ok"
            finally:
                conn.close()
            status, data = raw_request(srv, "GET", "/v1/metrics")
            assert status == 200
            assert total(json.loads(data), "repro_requests_total",
                         endpoint="/v1/run", status="error") == 1

    def test_batch_answers_200_with_one_error_line(self, tmp_path):
        with serve_in_thread(model_dir=str(tmp_path / "missing")) as srv:
            status, data = raw_request(
                srv, "POST", "/v1/batch", json.dumps(self.LOST.to_dict()).encode()
            )
        assert status == 200
        (line,) = data.decode().splitlines()
        payload = json.loads(line)
        assert (payload["id"], payload["status"]) == ("lost-model", "error")
        assert "FileNotFoundError" in payload["error"]


class TestBatchEndpoint:
    def test_jsonl_round_trip_order_and_per_line_errors(self, server):
        lines = [
            json.dumps(RunRequest(config=small_config(seed=31),
                                  id="b-0").to_dict()),
            "# a comment",
            "",
            "{broken json",
            json.dumps({"api_version": "v1", "id": "b-bad",
                        "config": {"nope": 1}}),
            json.dumps(RunRequest(config=small_config(seed=32),
                                  id="b-1").to_dict()),
        ]
        status, data = raw_request(
            server, "POST", "/v1/batch", "\n".join(lines).encode())
        assert status == 200
        results = [RunResult.from_dict(json.loads(line))
                   for line in data.decode().splitlines()]
        assert [r.id for r in results] == ["b-0", "request-4", "b-bad", "b-1"]
        assert [r.status for r in results] == ["ok", "error", "error", "ok"]
        assert "line 4" in results[1].error
        assert "nope" in results[2].error

    def test_batch_lines_coalesce_into_engine_batches(self):
        with serve_in_thread(max_batch_size=8, max_wait=0.05) as srv:
            lines = [
                json.dumps(RunRequest(config=small_config(seed=40 + i),
                                      id=f"c-{i}").to_dict())
                for i in range(4)
            ]
            status, data = raw_request(
                srv, "POST", "/v1/batch", "\n".join(lines).encode())
            assert status == 200
            assert all(json.loads(line)["status"] == "ok"
                       for line in data.decode().splitlines())
            histogram = srv.service.batch_size_histogram
        # All four structurally-identical requests landed in one batch.
        assert histogram.get(4, 0) >= 1


class TestFamilyKnobValidation:
    """A malformed family knob in ``config.extra`` is rejected on its own
    request (400), and never fails the valid requests batched beside it."""

    @staticmethod
    def _envelope(request_id, **config):
        """A v1 envelope built as raw JSON (a bad one cannot be a RunRequest)."""
        extra = config.pop("extra", {})
        return {"api_version": "v1", "id": request_id,
                "config": {**small_config(**config).to_dict(), "extra": extra}}

    @pytest.mark.parametrize("solver, extra, knob", [
        ("energy", {"picard_max_iterations": "abc"}, "picard_max_iterations"),
        ("energy", {"picard_max_iterations": 2.5}, "picard_max_iterations"),
        ("energy", {"picard_tolerance": -1.0}, "picard_tolerance"),
        ("mpi", {"n_ranks": 32}, "n_ranks"),
        # Numbers no float holds finitely.
        ("mpi", {"n_ranks": float("inf")}, "n_ranks"),
        ("mpi", {"n_ranks": 10**400}, "n_ranks"),
        ("energy", {"picard_tolerance": 10**400}, "picard_tolerance"),
        ("vlasov", {"n_v": 10**400}, "n_v"),
        ("vlasov", {"v_min": -(10**400)}, "velocity window"),
    ])
    def test_malformed_knob_answers_400(self, server, solver, extra, knob):
        body = json.dumps(self._envelope("bad", solver=solver, extra=extra)).encode()
        status, data = raw_request(server, "POST", "/v1/run", body)
        assert status == 400
        payload = json.loads(data)
        assert payload["status"] == "error"
        assert knob in payload["error"]

    @pytest.mark.parametrize("field, value", [
        ("dt", None),
        ("v0", float("inf")),
        ("dt", float("nan")),
        ("n_cells", 8.0),
        ("n_steps", 2.5),
        ("seed", 1.5),
    ])
    def test_malformed_config_field_answers_400(self, server, field, value):
        envelope = self._envelope("bad")
        envelope["config"][field] = value
        status, data = raw_request(server, "POST", "/v1/run", json.dumps(envelope).encode())
        assert status == 400
        payload = json.loads(data)
        assert payload["status"] == "error"
        assert re.search(rf"\b{field}\b", payload["error"])

    def test_valid_requests_beside_rejected_ones_complete(self, server):
        lines = [
            self._envelope("energy-ok", solver="energy", seed=1),
            self._envelope("energy-bad", solver="energy", seed=2,
                           extra={"picard_max_iterations": "abc"}),
            self._envelope("mpi-ok", solver="mpi", seed=3, extra={"n_ranks": 2}),
            self._envelope("mpi-bad", solver="mpi", seed=4, extra={"n_ranks": 32}),
        ]
        status, data = raw_request(
            server, "POST", "/v1/batch",
            "\n".join(json.dumps(line) for line in lines).encode())
        assert status == 200
        results = [RunResult.from_dict(json.loads(line))
                   for line in data.decode().splitlines()]
        assert [(r.id, r.status) for r in results] == [
            ("energy-ok", "ok"), ("energy-bad", "error"),
            ("mpi-ok", "ok"), ("mpi-bad", "error"),
        ]


class TestModeValidation:
    """A ``mode`` observable that is not an integer in ``0..n_cells // 2``
    answers 400, naming the observable."""

    @pytest.mark.parametrize("entry, named", [
        ('"mode40"', "mode40"),
        ('{"name": "mode", "mode": -1}', "'mode'"),
        ('{"name": "mode", "mode": 1.5}', "'mode'"),
        ('{"name": "mode", "mode": true}', "'mode'"),
        ('{"name": "mode", "mode": "3"}', "'mode'"),
    ])
    def test_bad_mode_answers_400(self, server, entry, named):
        config = json.dumps(small_config().to_dict())
        line = f'{{"api_version": "v1", "id": "m", "config": {config}, "observables": [{entry}]}}'
        status, data = raw_request(server, "POST", "/v1/run", line.encode())
        assert status == 400
        payload = json.loads(data)
        assert payload["status"] == "error"
        assert named in payload["error"]


class TestTrainingPairsValidation:
    """Malformed ``training_pairs`` parameters are rejected at submit time
    (400), and never fail the valid requests batched beside them."""

    @staticmethod
    def _line(request_id, params):
        """A raw v1 envelope line; ``params`` is JSON text, so it can hold
        ``NaN`` or ``1e309`` (which parses to inf)."""
        config = json.dumps(small_config().to_dict())
        return (
            f'{{"api_version": "v1", "id": "{request_id}", "config": {config}, '
            f'"observables": [{{"name": "training_pairs", {params}}}, "fields"]}}'
        )

    @pytest.mark.parametrize("params, name", [
        ('"order": "tsc"', "order"),
        ('"v_min": NaN', "v_min"),
        ('"v_max": Infinity', "v_max"),
        ('"box_length": 1e309', "box_length"),
        ('"n_x": 2.5', "n_x"),
        ('"n_x": true', "n_x"),
    ])
    def test_malformed_parameter_answers_400(self, server, params, name):
        status, data = raw_request(
            server, "POST", "/v1/run", self._line("bad", params).encode())
        assert status == 400
        payload = json.loads(data)
        assert payload["status"] == "error"
        assert name in payload["error"]

    def test_valid_line_beside_rejected_one_completes(self, server):
        lines = [
            self._line("pairs-bad", '"box_length": 1e309'),
            self._line("pairs-ok", '"n_x": 8, "n_v": 4, "order": "cic"'),
        ]
        status, data = raw_request(
            server, "POST", "/v1/batch", "\n".join(lines).encode())
        assert status == 200
        results = [RunResult.from_dict(json.loads(line))
                   for line in data.decode().splitlines()]
        assert [(r.id, r.status) for r in results] == [
            ("pairs-bad", "error"), ("pairs-ok", "ok"),
        ]
        assert "box_length" in results[0].error
        assert results[1].series["histograms"].shape == (5, 4, 8)


class TestConcurrentParity:
    def test_many_connections_bitwise_parity(self, server):
        requests = [RunRequest(config=small_config(seed=200 + i), id=f"p-{i}")
                    for i in range(12)]
        with Client.connect(server.url, max_connections=12) as remote:
            over_http = remote.map(requests)
        with Client(background=False) as local:
            in_process = local.map(requests)
        assert [r.id for r in over_http] == [r.id for r in in_process]
        for a, b in zip(over_http, in_process):
            assert a.status == "ok" and a.key == b.key
            for name in b.series:
                np.testing.assert_array_equal(
                    np.asarray(a.series[name]), np.asarray(b.series[name])
                )


class TestBackpressure:
    def test_zero_capacity_sheds_everything(self):
        with serve_in_thread(max_pending=0) as srv:
            with Client.connect(srv.url, raise_on_error=False) as client:
                result = client.run(RunRequest(config=small_config(), id="s-0"))
            assert result.status == "shed"
            assert "retry later" in result.error
            status, data = raw_request(
                srv, "POST", "/v1/run",
                json.dumps(RunRequest(config=small_config(),
                                      id="s-1").to_dict()).encode())
            assert status == HTTP_FOR_STATUS["shed"] == 503
            assert json.loads(data)["status"] == "shed"
            # Health stays serviceable while shedding.
            health, payload = raw_request(srv, "GET", "/v1/health")
            assert health == 200 and json.loads(payload)["status"] == "ok"
            assert total(srv.metrics.snapshot(), "repro_requests_total",
                         status="shed") == 2

    def test_shed_raises_apierror_with_status(self):
        with serve_in_thread(max_pending=0) as srv:
            with Client.connect(srv.url) as client:
                with pytest.raises(ApiError, match="shed") as excinfo:
                    client.run(RunRequest(config=small_config(), id="s-2"))
        assert excinfo.value.status == "shed"
        assert excinfo.value.result.id == "s-2"

    def test_overload_sheds_then_recovers(self):
        with serve_in_thread(max_pending=1, max_wait=0.001) as srv:
            with Client.connect(srv.url, max_connections=4,
                                raise_on_error=False) as client:
                slow = client.submit(RunRequest(config=heavy_config(),
                                                id="slow"))
                deadline = time.time() + 30
                while srv._inflight == 0 and time.time() < deadline:
                    time.sleep(0.001)
                fast = client.map([
                    RunRequest(config=small_config(seed=70 + i), id=f"f-{i}")
                    for i in range(3)
                ])
                slow_result = slow.result(timeout=120)
                assert slow_result.status == "ok"
                statuses = {r.status for r in fast}
                assert "shed" in statuses
                # The queue drained: the next request is served normally.
                after = client.run(RunRequest(config=small_config(seed=99),
                                              id="after"))
                assert after.status == "ok"


class TestTimeout:
    def test_slow_request_times_out_504(self):
        with serve_in_thread(request_timeout=0.02) as srv:
            with Client.connect(srv.url, raise_on_error=False) as client:
                result = client.run(RunRequest(config=heavy_config(seed=2),
                                               id="deadline"))
            assert result.status == "timeout"
            assert "deadline" in result.error
            assert total(srv.metrics.snapshot(), "repro_requests_total",
                         status="timeout") == 1
            status, _ = raw_request(srv, "GET", "/v1/health")
            assert status == 200

    def test_fast_request_beats_generous_deadline(self):
        with serve_in_thread(request_timeout=120.0) as srv:
            with Client.connect(srv.url) as client:
                result = client.run(RunRequest(config=small_config(), id="quick"))
            assert result.status == "ok"


class TestConnectionLimit:
    def test_excess_connection_rejected_503(self):
        with serve_in_thread(max_connections=1) as srv:
            first = http.client.HTTPConnection(srv.host, srv.port, timeout=30)
            try:
                first.request("GET", "/v1/health")
                assert first.getresponse().status == 200
                # keep-alive holds the only slot open
                second = http.client.HTTPConnection(
                    srv.host, srv.port, timeout=30)
                try:
                    second.request("GET", "/v1/health")
                    response = second.getresponse()
                    assert response.status == 503
                    assert "connection limit" in json.loads(
                        response.read())["error"]
                finally:
                    second.close()
            finally:
                first.close()
            assert total(srv.metrics.snapshot(), "repro_connections_total",
                         outcome="rejected") == 1


class TestGracefulDrain:
    def test_inflight_requests_resolve_before_shutdown(self):
        requests = [
            RunRequest(config=small_config(seed=300 + i, n_cells=64,
                                           particles_per_cell=100,
                                           n_steps=120), id=f"d-{i}")
            for i in range(6)
        ]
        with serve_in_thread(max_wait=0.02) as srv:
            transport = HttpTransport(srv.url, max_connections=6)
            try:
                futures = [transport.submit(r) for r in requests]
                # Exit (= drain) only once every request reached the
                # server: admitted (inflight) or already answered (done).
                deadline = time.time() + 60
                while (srv._inflight + sum(f.done() for f in futures) < 6
                       and time.time() < deadline):
                    time.sleep(0.001)
            except BaseException:
                transport.close()
                raise
        # leaving the context drained: every admitted request was answered
        results = [f.result(timeout=30) for f in futures]
        transport.close()
        assert {r.status for r in results} == {"ok"}
        assert [r.id for r in results] == [r.id for r in requests]

    def test_draining_server_reports_and_sheds(self):
        with serve_in_thread() as srv:
            pass  # context exit closed it
        assert srv._draining is True
        result_future = srv._transport.submit(
            RunRequest(config=small_config(), id="late"))
        # The owned service is closed; late submissions fail cleanly.
        assert result_future.result(timeout=5).status == "error"


class TestTransports:
    def test_transport_protocol_runtime_check(self):
        service = SimulationService(start=False)
        try:
            assert isinstance(InProcessTransport(service), Transport)
        finally:
            service.close()
        transport = HttpTransport("http://127.0.0.1:1")
        try:
            assert isinstance(transport, Transport)
        finally:
            transport.close()

    def test_client_rejects_service_and_transport_together(self):
        service = SimulationService(start=False)
        try:
            transport = InProcessTransport(service)
            with pytest.raises(ValueError, match="not both"):
                Client(service, transport=transport)
        finally:
            service.close()

    def test_explicit_in_process_transport_matches_default_client(self):
        request = RunRequest(config=small_config(seed=5), id="same")
        service = SimulationService(start=False)
        with Client(transport=InProcessTransport(service,
                                                 owns_service=True)) as client:
            via_transport = client.run(request)
        with Client(background=False) as client:
            via_default = client.run(request)
        assert via_transport.key == via_default.key
        for name in via_default.series:
            np.testing.assert_array_equal(
                np.asarray(via_transport.series[name]),
                np.asarray(via_default.series[name]),
            )

    def test_http_transport_rejects_bad_urls(self):
        with pytest.raises(ValueError, match="http://"):
            HttpTransport("ftp://example:1")
        with pytest.raises(ValueError, match="path"):
            HttpTransport("http://example:1/v1/run")
        with pytest.raises(ValueError, match="max_connections"):
            HttpTransport("http://example:1", max_connections=0)

    def test_connect_client_has_no_in_process_service(self, server):
        with Client.connect(server.url) as client:
            assert isinstance(client.transport, HttpTransport)
            with pytest.raises(AttributeError, match="no in-process service"):
                client.service

    def test_connection_refused_travels_as_error_result(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        with Client.connect(f"http://127.0.0.1:{free_port}",
                            raise_on_error=False) as client:
            result = client.run(RunRequest(config=small_config(), id="nobody"))
        assert result.status == "error"
        assert result.id == "nobody"

    def test_http_transport_stats_reads_server_metrics(self, server):
        transport = HttpTransport(server.url)
        try:
            stats = transport.stats
        finally:
            transport.close()
        assert total(stats, "repro_api_info", api_version="v1") == 1
        assert stats["repro_requests_total"]["type"] == "counter"
        assert "repro_service_runs_by_tier_total" in stats

    def test_client_stats_expose_the_same_service_families(self, server):
        with Client(background=False) as local:
            local.run(RunRequest(config=small_config(seed=203), id="local"))
            in_process = local.stats
        with Client.connect(server.url) as remote:
            over_http = remote.stats
        # In process: the process-wide families plus the service's own.
        service_families = set(in_process) - set(PROCESS_METRICS.snapshot())
        assert {
            "repro_service_submits_total", "repro_batch_size_total",
            "repro_service_runs_by_tier_total",
        } <= service_families
        assert total(in_process, "repro_service_runs_by_tier_total") == 1
        for name in service_families:
            assert (over_http[name]["type"], over_http[name]["labels"]) == (
                in_process[name]["type"], in_process[name]["labels"]
            ), name


class TestServerValidation:
    def test_constructor_bounds(self):
        with pytest.raises(ValueError, match="max_pending"):
            SimulationServer(max_pending=-1)
        with pytest.raises(ValueError, match="max_connections"):
            SimulationServer(max_connections=0)
        with pytest.raises(ValueError, match="request_timeout"):
            SimulationServer(request_timeout=0.0)


class TestMetricsSchema:
    """Golden schema: every /v1/metrics family, its type and label names.

    A family appearing, disappearing or changing type or labels is an
    API change and must update this test (and the README observability
    table) deliberately.
    """

    FAMILIES = {
        # Process-wide: the campaign stream and the model registry.
        "repro_campaign_shards_total": ("counter", ["status"]),
        "repro_registry_models": ("gauge", []),
        # The service.
        "repro_service_submits_total": ("counter", ["outcome"]),
        "repro_batch_size_total": ("counter", ["size"]),
        "repro_service_runs_by_tier_total": ("counter", ["dtype", "worker"]),
        "repro_service_group_errors_total": ("counter", ["kind"]),
        "repro_service_store_errors_total": ("counter", []),
        "repro_service_pending": ("gauge", []),
        "repro_service_dispatched": ("gauge", []),
        "repro_service_workers": ("gauge", []),
        "repro_pool_restarts_total": ("counter", []),
        # The server.
        "repro_requests_total": ("counter", ["endpoint", "status"]),
        "repro_parse_failures_total": ("counter", ["endpoint"]),
        "repro_http_responses_total": ("counter", ["code"]),
        "repro_connections_total": ("counter", ["outcome"]),
        "repro_stage_duration_seconds": ("histogram", ["stage"]),
        "repro_connections_open": ("gauge", []),
        "repro_connections_limit": ("gauge", []),
        "repro_queue_inflight": ("gauge", []),
        "repro_queue_max_pending": ("gauge", []),
        "repro_api_info": ("gauge", ["api_version"]),
    }

    def test_golden_key_set(self, server):
        with Client.connect(server.url) as client:
            client.run(RunRequest(config=small_config(seed=201), id="g-1"))
        status, data = raw_request(server, "GET", "/v1/metrics")
        assert status == 200
        payload = json.loads(data)
        assert {
            name: (family["type"], family["labels"])
            for name, family in payload.items()
        } == self.FAMILIES
        assert payload["repro_api_info"]["samples"] == [
            {"labels": {"api_version": "v1"}, "value": 1}
        ]
        for family in payload.values():
            assert set(family) == {"type", "help", "labels", "samples"}
            for sample in family["samples"]:
                assert set(sample["labels"]) == set(family["labels"])
        stages = payload["repro_stage_duration_seconds"]["samples"]
        for sample in stages:
            assert set(sample) == {"labels", "count", "sum", "max", "buckets"}
            assert 0.0 <= sample["max"] <= sample["sum"]
        # Executed requests populate the canonical stage histograms.
        assert {"batch_wait", "queue_wait", "exec", "store", "wall"} <= {
            sample["labels"]["stage"] for sample in stages
        }

    def test_prometheus_format_parses(self, server):
        status, data = raw_request(
            server, "GET", "/v1/metrics?format=prometheus")
        assert status == 200
        text = data.decode()
        line_re = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.einf+-]+$"
        )
        for line in text.strip().splitlines():
            if not line.startswith("#"):
                assert line_re.match(line), line
        assert "repro_requests_total" in text
        assert "repro_stage_duration_seconds_bucket" in text
        assert "repro_campaign_shards_total" in text
        assert "repro_registry_models" in text

    def test_prometheus_conformance(self, server):
        with Client.connect(server.url) as client:
            client.run(RunRequest(config=small_config(seed=202), id="g-2"))
        status, data = raw_request(
            server, "GET", "/v1/metrics?format=prometheus")
        assert status == 200
        helps = collections.Counter()
        types: "dict[str, str]" = {}
        samples = []
        for line in data.decode().splitlines():
            if line.startswith("# HELP "):
                helps[line.split()[2]] += 1
            elif line.startswith("# TYPE "):
                _, _, name, kind = line.split()
                assert name not in types, f"second TYPE line for {name}"
                types[name] = kind
            else:
                samples.append(line)
        assert set(helps) == set(types)
        assert set(helps.values()) == {1}, "one HELP line per family"
        for name, kind in types.items():
            if name.endswith("_total"):
                assert kind == "counter", f"{name} is typed {kind}"
        sample_re = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$")
        buckets = collections.defaultdict(list)
        counts = {}
        for line in samples:
            match = sample_re.match(line)
            assert match, line
            name, labels, value = match.groups()
            family, part = name, None
            for suffix in ("_bucket", "_sum", "_count"):
                if (name.endswith(suffix)
                        and types.get(name[: -len(suffix)]) == "histogram"):
                    family, part = name[: -len(suffix)], suffix
            assert family in types, f"sample outside a declared family: {line}"
            if part is None:
                continue
            pairs = dict(re.findall(r'(\w+)="((?:[^"\\]|\\.)*)"', labels or ""))
            le = pairs.pop("le", None)
            key = (family, tuple(sorted(pairs.items())))
            if part == "_bucket":
                buckets[key].append((math.inf if le == "+Inf" else float(le),
                                     float(value)))
            elif part == "_count":
                counts[key] = float(value)
        assert buckets, "the stage histograms carry samples"
        for key, series in buckets.items():
            bounds = [le for le, _ in series]
            cumulative = [count for _, count in series]
            assert bounds == sorted(bounds) and bounds[-1] == math.inf, key
            assert cumulative == sorted(cumulative), key
            assert cumulative[-1] == counts[key], key

    def test_unknown_metrics_format_400(self, server):
        status, data = raw_request(server, "GET", "/v1/metrics?format=xml")
        assert status == 400
        assert "format" in json.loads(data)["error"]

    def test_parse_failures_counted_separately(self, server):
        before = json.loads(raw_request(server, "GET", "/v1/metrics")[1])
        raw_request(server, "POST", "/v1/run", b"{not json")
        after = json.loads(raw_request(server, "GET", "/v1/metrics")[1])
        failures = "repro_parse_failures_total"
        assert total(after, failures) == total(before, failures) + 1
        assert total(after, failures, endpoint="/v1/run") >= 1
        # The garbage request reaches neither the status counters nor
        # the wall-time histogram.
        assert after["repro_requests_total"] == before["repro_requests_total"]
        stages = "repro_stage_duration_seconds"
        assert total(after, stages, stage="wall") == total(before, stages, stage="wall")

    def test_trace_endpoint_404_when_tracing_off(self, server):
        status, data = raw_request(server, "GET", "/v1/trace/deadbeef")
        assert status == 404
        assert "--trace" in json.loads(data)["error"]


class TestTracing:
    @pytest.fixture(scope="class")
    def traced_server(self):
        with serve_in_thread(max_batch_size=8, max_wait=0.005,
                             tracing=True) as srv:
            yield srv

    def test_end_to_end_span_tree(self, traced_server):
        with Client.connect(traced_server.url, tracing=True) as client:
            result = client.run(
                RunRequest(config=small_config(seed=210), id="tr-1"))
        trace_id = result.timings["trace_id"]
        status, data = raw_request(
            traced_server, "GET", f"/v1/trace/{trace_id}")
        assert status == 200
        payload = json.loads(data)
        assert payload["trace_id"] == trace_id
        assert payload["complete"] is True
        names = set()

        def collect(nodes):
            for node in nodes:
                names.add(node["name"])
                collect(node["children"])

        collect(payload["spans"])
        assert {"client.request", "client.http", "server.request",
                "service.submit", "executor.dispatch", "executor.worker_run",
                "engine.run", "engine.steps"} <= names
        # The merged tree nests the server half under the client's
        # HTTP span (clock-aligned via the propagation headers).
        (root,) = payload["spans"]
        assert root["name"] == "client.request"
        (http_span,) = root["children"]
        assert http_span["name"] == "client.http"
        assert http_span["children"][0]["name"] == "server.request"

    def test_stage_timings_in_remote_results(self, traced_server):
        with Client.connect(traced_server.url) as client:
            result = client.run(
                RunRequest(config=small_config(seed=211), id="tr-2"))
        assert {"wall_s", "batch_wait_s", "queue_wait_s", "exec_s",
                "store_s"} <= set(result.timings)
        total_stages = (result.timings["batch_wait_s"]
                        + result.timings["queue_wait_s"]
                        + result.timings["exec_s"])
        assert total_stages <= result.timings["wall_s"] * 1.5 + 0.5

    def test_trace_listing_and_last(self, traced_server):
        with Client.connect(traced_server.url) as client:
            result = client.run(
                RunRequest(config=small_config(seed=212), id="tr-3"))
        status, data = raw_request(traced_server, "GET", "/v1/trace")
        assert status == 200
        listing = json.loads(data)
        assert result.timings["trace_id"] in listing["traces"]
        assert listing["buffer"]["completed"] >= 1
        status, data = raw_request(traced_server, "GET", "/v1/trace/last")
        assert status == 200
        assert json.loads(data)["n_spans"] >= 1

    def test_unknown_trace_404(self, traced_server):
        status, _ = raw_request(traced_server, "GET", f"/v1/trace/{'0' * 8}")
        assert status == 404
        status, _ = raw_request(traced_server, "GET", "/v1/trace/a/b/c")
        assert status == 405

    def test_span_merge_validates_payload(self, traced_server):
        with Client.connect(traced_server.url) as client:
            result = client.run(
                RunRequest(config=small_config(seed=213), id="tr-4"))
        trace_id = result.timings["trace_id"]
        status, data = raw_request(
            traced_server, "POST", f"/v1/trace/{trace_id}/spans",
            json.dumps({"spans": [{"name": "x"}]}).encode())
        assert status == 400
        assert "span_id" in json.loads(data)["error"]
        status, _ = raw_request(
            traced_server, "POST", "/v1/trace/unknown/spans",
            json.dumps({"spans": []}).encode())
        assert status == 404

    def test_tracing_preserves_bitwise_parity(self, server, traced_server):
        request = RunRequest(config=small_config(seed=214), id="parity-tr",
                             phase_space=True)
        with Client.connect(server.url) as plain_client:
            plain = plain_client.run(request)
        with Client.connect(traced_server.url, tracing=True) as traced_client:
            traced = traced_client.run(request)
        assert traced.key == plain.key
        for name, values in plain.series.items():
            a = np.asarray(traced.series[name])
            b = np.asarray(values)
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b, err_msg=f"drift in {name!r}")
        np.testing.assert_array_equal(traced.final_x, plain.final_x)
        np.testing.assert_array_equal(traced.final_v, plain.final_v)

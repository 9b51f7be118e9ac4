"""Unit tests for the transport-agnostic service core.

Covers the verb surface, request validation, batching equivalence (the
batch-boundaries-are-unobservable contract), tenant isolation, and the
config factory threaded through a tenant partition.
"""

import pytest

from repro.core.config import OverhaulConfig
from repro.service.core import PermissionService, RequestError
from repro.service.protocol import (
    PROTOCOL_VERSION,
    E_BAD_REQUEST,
    E_TENANT_LIMIT,
    E_UNSUPPORTED_VERSION,
)
from repro.sim.time import from_seconds


def req(op, **fields):
    envelope = {"v": PROTOCOL_VERSION, "id": fields.pop("id", 1), "op": op}
    envelope.update(fields)
    return envelope


def spawn_pid(service, tenant, name="alpha"):
    response = service.apply(req("spawn", tenant=tenant, name=name))
    assert response["ok"], response
    return response["result"]["pid"]


class TestVerbs:
    def test_ping(self):
        response = PermissionService().apply(req("ping"))
        assert response["result"] == {"pong": True, "version": PROTOCOL_VERSION}

    def test_spawn_is_idempotent(self):
        service = PermissionService()
        first = service.apply(req("spawn", tenant="t0", name="alpha"))["result"]
        second = service.apply(req("spawn", tenant="t0", name="alpha"))["result"]
        assert first["created"] and not second["created"]
        assert first["pid"] == second["pid"]

    def test_query_denied_before_any_interaction(self):
        service = PermissionService()
        pid = spawn_pid(service, "t0")
        result = service.apply(req("query", tenant="t0", pid=pid, operation="paste"))["result"]
        assert result["granted"] is False

    def test_interact_then_query_grants_within_threshold(self):
        service = PermissionService()
        pid = spawn_pid(service, "t0")
        service.apply(req("interact", tenant="t0", pid=pid))
        result = service.apply(req("query", tenant="t0", pid=pid, operation="paste"))["result"]
        assert result["granted"] is True
        assert result["interaction_age"] == 0

    def test_grant_expires_after_advance_past_delta(self):
        service = PermissionService()
        pid = spawn_pid(service, "t0")
        service.apply(req("interact", tenant="t0", pid=pid))
        service.apply(req("advance", tenant="t0", dt=from_seconds(3.0)))
        result = service.apply(req("query", tenant="t0", pid=pid, operation="paste"))["result"]
        assert result["granted"] is False

    def test_digest_is_deterministic(self):
        digests = []
        for _ in range(2):
            service = PermissionService()
            pid = spawn_pid(service, "t0")
            service.apply(req("interact", tenant="t0", pid=pid))
            service.apply(req("query", tenant="t0", pid=pid, operation="copy"))
            digests.append(service.apply(req("digest", tenant="t0"))["result"]["digest"])
        assert digests[0] == digests[1]

    def test_tenant_stats_counts_history(self):
        service = PermissionService()
        pid = spawn_pid(service, "t0")
        service.apply(req("interact", tenant="t0", pid=pid))
        service.apply(req("query", tenant="t0", pid=pid, operation="paste"))
        stats = service.apply(req("stats", tenant="t0"))["result"]
        assert stats["queries"] == 1
        assert stats["grants"] == 1
        assert stats["notifications"] == 1
        assert stats["pids"] == 1

    def test_service_stats_lists_tenants_and_counters(self):
        service = PermissionService()
        spawn_pid(service, "t0")
        result = service.apply(req("stats"))["result"]
        assert result["tenants"] == ["t0"]
        assert result["counters"]["service.tenants_created"] == 1

    def test_reset_discards_partition_history_free(self):
        service = PermissionService()
        pid = spawn_pid(service, "t0")
        service.apply(req("interact", tenant="t0", pid=pid))
        first = service.apply(req("reset", tenant="t0"))["result"]
        second = service.apply(req("reset", tenant="t0"))["result"]
        # Byte-identical whether or not the partition existed.
        assert first == second == {"reset": True}
        assert service.tenant_ids == []


class TestValidation:
    def test_wrong_version_rejected(self):
        response = PermissionService().apply({"v": 99, "id": 3, "op": "ping"})
        assert response["error"] == E_UNSUPPORTED_VERSION
        assert response["id"] == 3

    def test_unknown_op_rejected(self):
        response = PermissionService().apply(req("frobnicate"))
        assert response["error"] == E_BAD_REQUEST

    def test_bad_tenant_token_rejected(self):
        response = PermissionService().apply(req("spawn", tenant="../etc", name="alpha"))
        assert response["error"] == E_BAD_REQUEST

    def test_name_with_a_trailing_newline_rejected(self):
        service = PermissionService()
        response = service.apply(req("spawn", tenant="t0", name="alpha\n"))
        assert response["error"] == E_BAD_REQUEST
        assert service.apply(req("spawn", tenant="t0", name="alpha"))["ok"]

    def test_non_integer_pid_rejected(self):
        response = PermissionService().apply(
            req("query", tenant="t0", pid="12", operation="paste")
        )
        assert response["error"] == E_BAD_REQUEST

    def test_boolean_pid_rejected(self):
        response = PermissionService().apply(
            req("query", tenant="t0", pid=True, operation="paste")
        )
        assert response["error"] == E_BAD_REQUEST

    def test_negative_advance_rejected(self):
        response = PermissionService().apply(req("advance", tenant="t0", dt=-1))
        assert response["error"] == E_BAD_REQUEST

    def test_non_dict_request_rejected(self):
        response = PermissionService().apply_many(["not a dict"])[0]
        assert response["error"] == E_BAD_REQUEST

    def test_tenant_limit_enforced(self):
        service = PermissionService(max_tenants=1)
        spawn_pid(service, "t0")
        response = service.apply(req("spawn", tenant="t1", name="alpha"))
        assert response["error"] == E_TENANT_LIMIT

    def test_errors_do_not_poison_the_batch(self):
        service = PermissionService()
        pid = spawn_pid(service, "t0")
        service.apply(req("interact", tenant="t0", pid=pid))
        responses = service.apply_many(
            [
                req("query", tenant="t0", pid=pid, operation="paste"),
                req("frobnicate"),
                req("query", tenant="t0", pid=pid, operation="copy"),
            ]
        )
        assert responses[0]["ok"] and responses[2]["ok"]
        assert responses[1]["error"] == E_BAD_REQUEST


#: Ids the tenant token refuses: wrong type, empty, too long, a leading
#: separator, a path, whitespace.
BAD_TENANT_IDS = [None, 7, ["t0"], {"t": 0}, "", "x" * 65, "-t0", "../etc", "t 0", "t0/",
                  "t0\n"]


class TestTenantIdValidation:
    """A tenant id is checked once, when its partition is created."""

    @pytest.mark.parametrize("tenant_id", BAD_TENANT_IDS)
    def test_bad_id_refused_by_tenant(self, tenant_id):
        service = PermissionService()
        with pytest.raises(RequestError) as excinfo:
            service.tenant(tenant_id)
        assert excinfo.value.code == E_BAD_REQUEST
        assert service.tenant_ids == []
        assert service.counters.get("service.tenants_created") == 0

    @pytest.mark.parametrize("op", ["spawn", "query", "interact", "advance", "digest",
                                    "stats", "reset"])
    @pytest.mark.parametrize("tenant_id", BAD_TENANT_IDS[1:])
    def test_bad_id_refused_by_apply_beside_known_tenants(self, op, tenant_id):
        service = PermissionService()
        spawn_pid(service, "t0")
        fields = {"name": "alpha", "pid": 1, "operation": "paste", "dt": 1}
        response = service.apply(req(op, tenant=tenant_id, **fields))
        assert response["error"] == E_BAD_REQUEST
        assert service.tenant_ids == ["t0"]

    def test_bad_id_refused_before_the_table_limit(self):
        service = PermissionService(max_tenants=1)
        spawn_pid(service, "t0")
        response = service.apply(req("spawn", tenant="../etc", name="alpha"))
        assert response["error"] == E_BAD_REQUEST
        with pytest.raises(RequestError) as excinfo:
            service.tenant("../etc")
        assert excinfo.value.code == E_BAD_REQUEST

    def test_known_tenant_served_from_the_table(self):
        service = PermissionService()
        state = service.tenant("t0")
        assert service.tenant("t0") is state
        pid = spawn_pid(service, "t0")
        service.apply(req("interact", tenant="t0", pid=pid))
        response = service.apply(req("query", tenant="t0", pid=pid, operation="paste"))
        assert response["ok"] and response["result"]["granted"] is True
        assert service.tenant("t0") is state
        assert state.requests_applied == 3
        assert service.counters.get("service.tenants_created") == 1


class TestBatching:
    def _script(self, pid):
        script = [req("interact", tenant="t0", pid=pid, id=1)]
        for i, operation in enumerate(("paste", "copy", "screen_capture"), start=2):
            script.append(req("query", tenant="t0", pid=pid, operation=operation, id=i))
        script.append(req("advance", tenant="t0", dt=from_seconds(2.5), id=5))
        script.append(req("query", tenant="t0", pid=pid, operation="paste", id=6))
        script.append(req("digest", tenant="t0", id=7))
        return script

    def test_batch_boundaries_are_unobservable(self):
        """One apply_many == a loop of single applies, byte for byte."""
        reference_service = PermissionService()
        pid = spawn_pid(reference_service, "t0")
        reference = [reference_service.apply(r) for r in self._script(pid)]

        batched_service = PermissionService()
        assert spawn_pid(batched_service, "t0") == pid
        batched = batched_service.apply_many(self._script(pid))
        assert batched == reference

    def test_interleaved_tenants_batch_correctly(self):
        """Query runs split at tenant switches without changing results."""
        service = PermissionService()
        pid_a = spawn_pid(service, "a")
        pid_b = spawn_pid(service, "b")
        service.apply(req("interact", tenant="a", pid=pid_a))
        responses = service.apply_many(
            [
                req("query", tenant="a", pid=pid_a, operation="paste", id=1),
                req("query", tenant="a", pid=pid_a, operation="copy", id=2),
                req("query", tenant="b", pid=pid_b, operation="paste", id=3),
                req("query", tenant="a", pid=pid_a, operation="paste", id=4),
            ]
        )
        assert [r["result"]["granted"] for r in responses] == [True, True, False, True]


class TestTenantIsolation:
    def test_interactions_never_cross_tenants(self):
        service = PermissionService()
        pid_a = spawn_pid(service, "a")
        pid_b = spawn_pid(service, "b")
        assert pid_a == pid_b  # partitions boot identically...
        service.apply(req("interact", tenant="a", pid=pid_a))
        granted_a = service.apply(
            req("query", tenant="a", pid=pid_a, operation="paste")
        )["result"]["granted"]
        granted_b = service.apply(
            req("query", tenant="b", pid=pid_b, operation="paste")
        )["result"]["granted"]
        assert granted_a is True
        assert granted_b is False  # ...but A's interaction never unlocks B

    def test_advance_moves_only_one_clock(self):
        service = PermissionService()
        spawn_pid(service, "a")
        spawn_pid(service, "b")
        service.apply(req("advance", tenant="a", dt=1_000_000))
        time_a = service.apply(req("stats", tenant="a"))["result"]["time"]
        time_b = service.apply(req("stats", tenant="b"))["result"]["time"]
        assert time_a >= 1_000_000
        assert time_b < 1_000_000


class TestConfigFactory:
    def test_config_factory_threads_to_monitor(self):
        def reference():
            return OverhaulConfig(fast_paths=False)

        service = PermissionService(config_factory=reference)
        tenant = service.tenant("t0")
        assert not tenant._monitor._fast


class TestServiceCounters:
    @staticmethod
    def _counter_keys(tenants):
        service = PermissionService()
        for index in range(tenants):
            tenant = f"t{index}"
            service.apply(req("query", tenant=tenant, pid=1, operation="paste"))
        return set(service.apply(req("stats"))["result"]["counters"])

    def test_key_set_does_not_grow_with_tenants(self):
        """No service-wide counter is named after a tenant."""
        assert self._counter_keys(500) == self._counter_keys(1)

    def test_tenant_stats_keep_the_per_tenant_total(self):
        service = PermissionService()
        pid = spawn_pid(service, "t0")
        service.apply(req("interact", tenant="t0", pid=pid))
        service.apply(req("query", tenant="t0", pid=pid, operation="paste"))
        assert service.apply(req("stats", tenant="t0"))["result"]["requests"] == 3


def test_spawning_tenants_never_imports_numpy():
    """The service never composes a frame, so it never loads numpy."""
    import os
    import subprocess
    import sys

    import repro

    script = (
        "import sys\n"
        "from repro.service.core import PermissionService\n"
        "from repro.service.protocol import PROTOCOL_VERSION\n"
        "service = PermissionService()\n"
        "for index in range(3):\n"
        "    service.apply({'v': PROTOCOL_VERSION, 'id': index, 'op': 'spawn',\n"
        "                   'tenant': f't{index}', 'name': 'alpha'})\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"

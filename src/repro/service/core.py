"""The transport-agnostic service boundary around the permission monitor.

:class:`PermissionService` is a pure request engine: envelopes in,
envelopes out, no sockets anywhere.  The asyncio daemon feeds it batches;
tests and the in-process determinism reference feed it the same requests
directly.  Whatever the transport, the same bytes come back -- that is the
service-layer determinism contract.

Tenancy
-------

Every stateful request names a *tenant* -- one simulated machine.  Tenants
are partitions: each wraps an independent sim core (its own scheduler,
kernel, X server, permission monitor) built lazily on first touch, so
tenant A's interactions can never unlock tenant B, and a tenant can be
``reset`` without perturbing its neighbours.  The sim clock is decoupled
from wall clock: a tenant's time advances only through explicit ``advance``
requests (and the timestamps its own requests carry), never because the
daemon has been up for a while.

Verbs
-----

========  =====================================================================
``ping``     liveness + version check (no tenant)
``spawn``    create (or look up) a named process in the tenant; returns its pid
``interact`` N_{A,t}: record an interaction notification for a pid
``query``    Q_{A,t}: permission query; returns grant/deny + reason + age
``advance``  advance the tenant's sim clock by ``dt`` microseconds
``digest``   canonical SHA-256 over the tenant's full decision history
``stats``    tenant sim-state counters, or service-wide counters without tenant
``reset``    discard the tenant's partition entirely
========  =====================================================================

Batching
--------

:meth:`PermissionService.apply_many` is the daemon's per-tick coalescing
pass: consecutive ``query`` requests for the same tenant are flushed
through one :meth:`NetlinkChannel.send_many_to_kernel` call, so the channel
checks and handler lookup run once per run of queries instead of once per
query.  Batch boundaries are *not observable*: the netlink batch dispatches
payloads in order with semantics identical to a loop of single sends, so
any partitioning of a request sequence produces the same responses.
"""

from __future__ import annotations

import hashlib
import re
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.config import OverhaulConfig, paper_config
from repro.core.notifications import MSG_INTERACTION, MSG_PERMISSION_QUERY
from repro.core.system import Machine
from repro.obs.counters import Counters
from repro.service.protocol import (
    PROTOCOL_VERSION,
    E_BAD_REQUEST,
    E_INTERNAL,
    E_TENANT_LIMIT,
    E_UNSUPPORTED_VERSION,
    canonical_json,
    error_response,
    ok_response,
)

#: Tenant ids are short path/metric-safe tokens (they appear in counter
#: names and logs).
_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.:-]{0,63}$")
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class RequestError(Exception):
    """A structurally invalid request (becomes a BAD_REQUEST envelope)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def _field_int(request: Dict[str, Any], name: str, minimum: Optional[int] = None) -> int:
    value = request.get(name)
    if not isinstance(value, int) or isinstance(value, bool):
        raise RequestError(E_BAD_REQUEST, f"{name!r} must be an integer")
    if minimum is not None and value < minimum:
        raise RequestError(E_BAD_REQUEST, f"{name!r} must be >= {minimum}")
    return value


def _field_opt_int(request: Dict[str, Any], name: str, minimum: int = 0) -> Optional[int]:
    if name not in request or request[name] is None:
        return None
    return _field_int(request, name, minimum)


class TenantState:
    """One tenant partition: an independent sim core plus its process map."""

    def __init__(
        self,
        tenant_id: str,
        config_factory: Optional[Callable[[], OverhaulConfig]] = None,
        journal: bool = False,
    ) -> None:
        factory = config_factory if config_factory is not None else paper_config
        self.tenant_id = tenant_id
        self.machine = Machine.with_overhaul(factory(), name=f"tenant:{tenant_id}")
        overhaul = self.machine.overhaul
        assert overhaul is not None
        self._channel = overhaul.channel
        self._xtask = self.machine.xserver_task
        self._monitor = overhaul.monitor
        #: name -> pid of processes spawned through the service.
        self._apps: Dict[str, int] = {}
        #: Total requests this tenant has served (all verbs).
        self.requests_applied = 0
        #: When journalling (snapshot support) is on: the normalised
        #: state-mutating request history, in application order.  Replaying
        #: it against a fresh partition reproduces this partition exactly
        #: (the service determinism contract), which is what a snapshot
        #: *is* -- read-only verbs (stats, digest) are never recorded.
        self.journal: Optional[List[Dict[str, Any]]] = [] if journal else None

    # -- verbs ---------------------------------------------------------------

    def spawn(self, name: str) -> Dict[str, Any]:
        """Create (idempotently) a process named *name*; return its pid.

        Idempotence keeps retried spawns harmless: a client that resent a
        ``spawn`` after a RETRY_LATER gets the same pid back.
        """
        existing = self._apps.get(name)
        if existing is not None:
            return {"pid": existing, "name": name, "created": False}
        task, _ = self.machine.launch(f"/usr/bin/{name}", comm=name, connect_x=False)
        self._apps[name] = task.pid
        return {"pid": task.pid, "name": name, "created": True}

    def interact(self, pid: int, at: Optional[int]) -> Dict[str, Any]:
        """Record N_{A,t} through the display manager's netlink channel."""
        timestamp = at if at is not None else self.machine.now
        self._channel.send_to_kernel(
            self._xtask, MSG_INTERACTION, {"pid": pid, "timestamp": timestamp}
        )
        return {"time": timestamp}

    def query_payload(self, pid: int, operation: str, at: Optional[int]) -> Dict[str, Any]:
        """The netlink payload for one Q_{A,t} (shared by single and batch)."""
        timestamp = at if at is not None else self.machine.now
        return {"pid": pid, "operation": operation, "timestamp": timestamp}

    def query_many(self, payloads: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Answer a run of queries in one authenticated netlink flush."""
        replies = self._channel.send_many_to_kernel(
            self._xtask, MSG_PERMISSION_QUERY, payloads
        )
        return [
            {
                "granted": reply["granted"],
                "reason": reply["reason"],
                "interaction_age": reply["interaction_age"],
                "time": payload["timestamp"],
            }
            for payload, reply in zip(payloads, replies)
        ]

    def advance(self, dt: int) -> Dict[str, Any]:
        """Advance this tenant's sim clock by *dt* microseconds."""
        self.machine.run_for(dt)
        return {"time": self.machine.now}

    def digest(self) -> Dict[str, Any]:
        """A canonical SHA-256 over the tenant's entire decision history.

        Two tenants that served the same request sequence -- on any
        transport, any batching, any neighbour load -- produce the same
        digest.  The determinism gates compare exactly this.
        """
        monitor = self._monitor
        payload = canonical_json(
            {
                "decisions": [list(d) for d in monitor.decisions],
                "grants": monitor.grant_count,
                "denies": monitor.deny_count,
                "time": self.machine.now,
            }
        )
        return {
            "digest": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
            "decisions": len(monitor.decisions),
            "time": self.machine.now,
        }

    def stats(self) -> Dict[str, Any]:
        """Sim-state counters only -- deterministic for a given history."""
        monitor = self._monitor
        return {
            "time": self.machine.now,
            "queries": monitor.queries_answered,
            "grants": monitor.grant_count,
            "denies": monitor.deny_count,
            "notifications": monitor.notifications_received,
            "decisions": len(monitor.decisions),
            # Both always 0; kept only because perfbench still reads them.
            "cache_hits": monitor.cache_hits,
            "cache_misses": monitor.cache_misses,
            "pids": len(self._apps),
            "requests": self.requests_applied,
        }


#: Parsed-request shapes produced by ``PermissionService._parse``.
_KIND_RESPONSE = 0  # (response,) -- already final (errors, ping, stats...)
_KIND_QUERY = 1     # (request_id, tenant, pid, operation, at) -- batchable
_KIND_ACTION = 2    # (request_id, thunk) -- run in order, not batchable


class PermissionService:
    """The multi-tenant request engine; see the module docstring."""

    def __init__(
        self,
        config_factory: Optional[Callable[[], OverhaulConfig]] = None,
        counters: Optional[Counters] = None,
        max_tenants: int = 1024,
        journal: bool = False,
    ) -> None:
        self._config_factory = config_factory
        self.counters = counters if counters is not None else Counters()
        self.max_tenants = max_tenants
        #: When true, every tenant records its mutating request history so
        #: :mod:`repro.service.snapshot` can persist and replay it.  Off by
        #: default: a long-lived daemon without snapshots must not grow a
        #: journal without bound.
        self.journal = journal
        self._tenants: Dict[str, TenantState] = {}
        #: Tenants reset inside the batch being parsed: requests parsed
        #: before the reset still run against them, so their machines are
        #: closed only once the batch has run.
        self._retired: List[TenantState] = []

    # -- tenancy -------------------------------------------------------------

    @property
    def tenant_ids(self) -> List[str]:
        return sorted(self._tenants)

    def tenant(self, tenant_id: str) -> TenantState:
        """The tenant's partition, created on first touch."""
        state = self._tenants.get(tenant_id)
        if state is None:
            if len(self._tenants) >= self.max_tenants:
                raise RequestError(
                    E_TENANT_LIMIT,
                    f"tenant table is full ({self.max_tenants} partitions)",
                )
            state = TenantState(tenant_id, self._config_factory, journal=self.journal)
            self._tenants[tenant_id] = state
            self.counters.inc("service.tenants_created")
        return state

    def reset_tenant(self, tenant_id: str) -> bool:
        """Discard a tenant's partition and free its machine; True when one existed."""
        state = self._retire(tenant_id)
        if state is not None:
            state.machine.close()
        return state is not None

    def _retire(self, tenant_id: str) -> Optional[TenantState]:
        state = self._tenants.pop(tenant_id, None)
        if state is not None:
            self.counters.inc("service.tenants_reset")
        return state

    def _tenant_for(self, request: Dict[str, Any]) -> TenantState:
        tenant_id = request.get("tenant")
        if not isinstance(tenant_id, str) or not _TENANT_RE.match(tenant_id):
            raise RequestError(
                E_BAD_REQUEST,
                "'tenant' must be a 1-64 char token of [A-Za-z0-9_.:-]",
            )
        return self.tenant(tenant_id)

    # -- request engine ------------------------------------------------------

    def apply(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Serve one request (the unbatched path)."""
        return self.apply_many([request])[0]

    def apply_many(self, requests: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Serve a batch; responses line up with *requests* by position.

        Consecutive queries for the same tenant collapse into one netlink
        flush.  Every other verb executes in arrival order, so a batch is
        observably identical to a loop of single applies.
        """
        parsed = [self._parse(request) for request in requests]
        responses: List[Optional[Dict[str, Any]]] = [None] * len(parsed)
        index = 0
        count = len(parsed)
        while index < count:
            kind, data = parsed[index]
            if kind == _KIND_RESPONSE:
                responses[index] = data
                index += 1
                continue
            if kind == _KIND_ACTION:
                request_id, thunk = data
                responses[index] = self._run_action(request_id, thunk)
                index += 1
                continue
            # A run of batchable queries against one tenant.
            tenant = data[1]
            end = index
            while end < count and parsed[end][0] == _KIND_QUERY and parsed[end][1][1] is tenant:
                end += 1
            run = parsed[index:end]
            payloads = [
                tenant.query_payload(entry[1][2], entry[1][3], entry[1][4])
                for entry in run
            ]
            try:
                results = tenant.query_many(payloads)
            except Exception as error:  # kernel-side invariant violation
                for offset, entry in enumerate(run):
                    responses[index + offset] = error_response(
                        entry[1][0], E_INTERNAL, f"query failed: {error}"
                    )
            else:
                tenant.requests_applied += len(run)
                if tenant.journal is not None:
                    for entry in run:
                        _, _, pid, operation, at = entry[1]
                        record: Dict[str, Any] = {
                            "op": "query",
                            "tenant": tenant.tenant_id,
                            "pid": pid,
                            "operation": operation,
                        }
                        if at is not None:
                            record["at"] = at
                        tenant.journal.append(record)
                for offset, (entry, result) in enumerate(zip(run, results)):
                    responses[index + offset] = ok_response(entry[1][0], result)
            index = end
        while self._retired:
            self._retired.pop().machine.close()
        self.counters.inc("service.requests", len(requests))
        return responses  # type: ignore[return-value]

    def _run_action(self, request_id: Any, thunk: Callable[[], Dict[str, Any]]) -> Dict[str, Any]:
        try:
            result = thunk()
        except RequestError as error:
            self.counters.inc("service.errors")
            return error_response(request_id, error.code, str(error))
        except Exception as error:
            self.counters.inc("service.errors")
            return error_response(request_id, E_INTERNAL, f"{type(error).__name__}: {error}")
        return ok_response(request_id, result)

    # -- parsing -------------------------------------------------------------

    def _parse(self, request: Any) -> Tuple[int, Any]:
        """Classify one request into a final response, a query, or an action."""
        if not isinstance(request, dict):
            self.counters.inc("service.errors")
            return _KIND_RESPONSE, error_response(
                None, E_BAD_REQUEST, "request must be a JSON object"
            )
        request_id = request.get("id")
        version = request.get("v")
        if version != PROTOCOL_VERSION:
            self.counters.inc("service.errors")
            return _KIND_RESPONSE, error_response(
                request_id,
                E_UNSUPPORTED_VERSION,
                f"protocol version {version!r} not supported (this is v{PROTOCOL_VERSION})",
            )
        op = request.get("op")
        try:
            if op == "query":
                tenant = self._tenant_for(request)
                pid = _field_int(request, "pid")
                operation = request.get("operation")
                if not isinstance(operation, str) or not operation:
                    raise RequestError(E_BAD_REQUEST, "'operation' must be a non-empty string")
                at = _field_opt_int(request, "at")
                self.counters.inc("service.queries")
                # The payload is built at *flush* time, not here: an ``at``
                # of None means "the tenant's clock when this query runs",
                # and an earlier action in the same batch (an ``advance``)
                # may still move that clock.
                return _KIND_QUERY, (request_id, tenant, pid, operation, at)
            if op == "ping":
                return _KIND_RESPONSE, ok_response(
                    request_id, {"pong": True, "version": PROTOCOL_VERSION}
                )
            if op == "spawn":
                tenant = self._tenant_for(request)
                name = request.get("name")
                if not isinstance(name, str) or not _NAME_RE.match(name):
                    raise RequestError(
                        E_BAD_REQUEST, "'name' must be a 1-64 char token of [A-Za-z0-9_.-]"
                    )
                return self._action(
                    request_id, tenant, lambda: tenant.spawn(name),
                    entry={"op": "spawn", "tenant": tenant.tenant_id, "name": name},
                )
            if op == "interact":
                tenant = self._tenant_for(request)
                pid = _field_int(request, "pid")
                at = _field_opt_int(request, "at")
                entry = {"op": "interact", "tenant": tenant.tenant_id, "pid": pid}
                if at is not None:
                    entry["at"] = at
                return self._action(
                    request_id, tenant, lambda: tenant.interact(pid, at), entry=entry
                )
            if op == "advance":
                tenant = self._tenant_for(request)
                dt = _field_int(request, "dt", minimum=0)
                return self._action(
                    request_id, tenant, lambda: tenant.advance(dt),
                    entry={"op": "advance", "tenant": tenant.tenant_id, "dt": dt},
                )
            if op == "digest":
                tenant = self._tenant_for(request)
                return self._action(request_id, tenant, tenant.digest)
            if op == "stats":
                if "tenant" in request and request["tenant"] is not None:
                    tenant = self._tenant_for(request)
                    return self._action(request_id, tenant, tenant.stats)
                return _KIND_RESPONSE, ok_response(
                    request_id,
                    {"tenants": self.tenant_ids, "counters": self.counters.snapshot()},
                )
            if op == "reset":
                tenant_id = request.get("tenant")
                if not isinstance(tenant_id, str) or not _TENANT_RE.match(tenant_id):
                    raise RequestError(
                        E_BAD_REQUEST,
                        "'tenant' must be a 1-64 char token of [A-Za-z0-9_.:-]",
                    )
                # Deliberately history-free: whether a partition already
                # existed depends on what ran before on this daemon, and a
                # reset response must be byte-identical across runs.
                retired = self._retire(tenant_id)
                if retired is not None:
                    self._retired.append(retired)
                return _KIND_RESPONSE, ok_response(request_id, {"reset": True})
            raise RequestError(E_BAD_REQUEST, f"unknown op {op!r}")
        except RequestError as error:
            self.counters.inc("service.errors")
            return _KIND_RESPONSE, error_response(request_id, error.code, str(error))

    def _action(
        self,
        request_id: Any,
        tenant: TenantState,
        thunk: Callable[[], Dict[str, Any]],
        entry: Optional[Dict[str, Any]] = None,
    ) -> Tuple[int, Any]:
        def counted() -> Dict[str, Any]:
            result = thunk()
            tenant.requests_applied += 1
            if entry is not None and tenant.journal is not None:
                tenant.journal.append(entry)
            return result

        return _KIND_ACTION, (request_id, counted)

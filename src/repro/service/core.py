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

A packed ``query`` or ``interact`` (wire v2) arrives as the tuple
:func:`repro.service.protocol.unpack_body` decodes, not as a dict.  It
takes the same checks, batching and :class:`TenantState` calls as its
JSON twin, and its success answer is the verdict tuple the front end
packs (:func:`repro.service.protocol.encode_response_frame`), not an
envelope.  The per-request code uses plain loops, not comprehensions:
on Python 3.11 each comprehension is a function call of its own, and at
the daemon's nominal rate each request runs this code with cold caches.
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
    PK_INTERACT_OK,
    PK_QUERY,
    PK_QUERY_OK,
    canonical_json,
    error_response,
    ok_response,
)

#: Tenant ids are short path/metric-safe tokens (they appear in counter
#: names and logs).
#: Whole-string patterns (``fullmatch``): a ``$`` anchor would also accept a
#: trailing newline.
_TENANT_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.:-]{0,63}")
_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class RequestError(Exception):
    """A structurally invalid request (becomes a BAD_REQUEST envelope)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def _check_tenant_id(tenant_id: Any) -> None:
    if not isinstance(tenant_id, str) or not _TENANT_RE.fullmatch(tenant_id):
        raise RequestError(
            E_BAD_REQUEST,
            "'tenant' must be a 1-64 char token of [A-Za-z0-9_.:-]",
        )


def _checked_int(name: str, value: Any, minimum: Optional[int] = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise RequestError(E_BAD_REQUEST, f"{name!r} must be an integer")
    if minimum is not None and value < minimum:
        raise RequestError(E_BAD_REQUEST, f"{name!r} must be >= {minimum}")
    return value


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
        self._scheduler = self.machine.scheduler
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

    def interact(self, pid: int, at: Optional[int]) -> int:
        """Record N_{A,t} through the display manager's netlink channel; return t."""
        timestamp = at if at is not None else self._scheduler.now
        self._channel.send_to_kernel(
            self._xtask, MSG_INTERACTION, {"pid": pid, "timestamp": timestamp}
        )
        return timestamp

    def query_many(
        self, queries: List[Tuple[int, str, Optional[int]]]
    ) -> List[Tuple[bool, str, Optional[int], int]]:
        """Answer a run of ``(pid, operation, at)`` queries in one netlink flush.

        Each answer is ``(granted, reason, interaction_age, time)``.  An
        ``at`` of None is the tenant's clock now, when the run flushes.
        """
        now = self._scheduler.now
        payloads = []
        for pid, operation, at in queries:
            payloads.append(
                {"pid": pid, "operation": operation, "timestamp": now if at is None else at}
            )
        replies = self._channel.send_many_to_kernel(
            self._xtask, MSG_PERMISSION_QUERY, payloads
        )
        verdicts = []
        for payload, reply in zip(payloads, replies):
            verdicts.append(
                (reply["granted"], reply["reason"], reply["interaction_age"], payload["timestamp"])
            )
        return verdicts

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
_KIND_RESPONSE = 0  # response -- already final (errors, ping, stats...)
_KIND_QUERY = 1     # (request_id, packed, tenant, query) -- batchable
_KIND_INTERACT = 2  # (request_id, packed, tenant, pid, at) -- run in order
_KIND_ACTION = 3    # (request_id, thunk) -- run in order, not batchable


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

    def tenant(self, tenant_id: Any) -> TenantState:
        """The tenant's partition, created on first touch.

        The id is validated here, once, when its partition is created: every
        key of the table is a valid id, so a lookup that finds one needs no
        further check.
        """
        state = self._tenants.get(tenant_id) if isinstance(tenant_id, str) else None
        if state is None:
            _check_tenant_id(tenant_id)
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

    # -- request engine ------------------------------------------------------

    def apply(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Serve one request (the unbatched path)."""
        return self.apply_many([request])[0]

    def apply_many(self, requests: List[Any]) -> List[Any]:
        """Serve a batch; responses line up with *requests* by position.

        A request is an envelope dict, or a packed query or interact as
        :func:`repro.service.protocol.unpack_body` decodes it, whose answer
        is its verdict tuple (or an error envelope) rather than a success
        envelope.  Consecutive queries for the same tenant collapse into
        one netlink flush.  Every other verb executes in arrival order, so
        a batch is observably identical to a loop of single applies.
        """
        parse = self._parse
        parsed = []
        for request in requests:
            parsed.append(parse(request))
        responses: List[Any] = []
        index = 0
        count = len(parsed)
        while index < count:
            kind, data = parsed[index]
            index += 1
            if kind == _KIND_QUERY:
                # A run of batchable queries against one tenant.
                tenant = data[2]
                run = [data]
                queries = [data[3]]
                while index < count:
                    kind, data = parsed[index]
                    if kind != _KIND_QUERY or data[2] is not tenant:
                        break
                    run.append(data)
                    queries.append(data[3])
                    index += 1
                self._answer_queries(tenant, run, queries, responses)
            elif kind == _KIND_RESPONSE:
                responses.append(data)
            elif kind == _KIND_INTERACT:
                responses.append(self._run_interact(*data))
            else:
                responses.append(self._run_action(*data))
        while self._retired:
            self._retired.pop().machine.close()
        self.counters.inc("service.requests", len(requests))
        return responses

    def _answer_queries(
        self,
        tenant: TenantState,
        run: List[Tuple[Any, ...]],
        queries: List[Tuple[int, str, Optional[int]]],
        responses: List[Any],
    ) -> None:
        """Answer one tenant's run of parsed queries through one netlink flush."""
        try:
            verdicts = tenant.query_many(queries)
        except Exception as error:  # kernel-side invariant violation
            for entry in run:
                responses.append(error_response(entry[0], E_INTERNAL, f"query failed: {error}"))
            return
        tenant.requests_applied += len(run)
        journal = tenant.journal
        if journal is not None:
            for pid, operation, at in queries:
                record: Dict[str, Any] = {
                    "op": "query",
                    "tenant": tenant.tenant_id,
                    "pid": pid,
                    "operation": operation,
                }
                if at is not None:
                    record["at"] = at
                journal.append(record)
        for (request_id, packed, _, _), verdict in zip(run, verdicts):
            if packed:
                responses.append((PK_QUERY_OK, request_id) + verdict)
            else:
                granted, reason, age, time = verdict
                responses.append(ok_response(request_id, {
                    "granted": granted, "reason": reason, "interaction_age": age, "time": time,
                }))

    def _run_interact(
        self, request_id: Any, packed: bool, tenant: TenantState, pid: int, at: Optional[int]
    ) -> Any:
        try:
            time = tenant.interact(pid, at)
        except Exception as error:
            self.counters.inc("service.errors")
            return error_response(request_id, E_INTERNAL, f"{type(error).__name__}: {error}")
        tenant.requests_applied += 1
        if tenant.journal is not None:
            entry = {"op": "interact", "tenant": tenant.tenant_id, "pid": pid}
            if at is not None:
                entry["at"] = at
            tenant.journal.append(entry)
        if packed:
            return PK_INTERACT_OK, request_id, time
        return ok_response(request_id, {"time": time})

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
        """Classify one request into a final response, a query, an interaction or an action."""
        if type(request) is tuple:  # a packed query or interact
            tag, request_id, tenant_id, pid, operation, at = request
            try:
                if tag == PK_QUERY:
                    return self._parse_query(request_id, True, tenant_id, pid, operation, at)
                return self._parse_interact(request_id, True, tenant_id, pid, at)
            except RequestError as error:
                return self._refused(request_id, error)
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
                return self._parse_query(
                    request_id, False, request.get("tenant"), request.get("pid"),
                    request.get("operation"), request.get("at"),
                )
            if op == "ping":
                return _KIND_RESPONSE, ok_response(
                    request_id, {"pong": True, "version": PROTOCOL_VERSION}
                )
            if op == "spawn":
                tenant = self.tenant(request.get("tenant"))
                name = request.get("name")
                if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
                    raise RequestError(
                        E_BAD_REQUEST, "'name' must be a 1-64 char token of [A-Za-z0-9_.-]"
                    )
                return self._action(
                    request_id, tenant, lambda: tenant.spawn(name),
                    entry={"op": "spawn", "tenant": tenant.tenant_id, "name": name},
                )
            if op == "interact":
                return self._parse_interact(
                    request_id, False, request.get("tenant"), request.get("pid"),
                    request.get("at"),
                )
            if op == "advance":
                tenant = self.tenant(request.get("tenant"))
                dt = _checked_int("dt", request.get("dt"), 0)
                return self._action(
                    request_id, tenant, lambda: tenant.advance(dt),
                    entry={"op": "advance", "tenant": tenant.tenant_id, "dt": dt},
                )
            if op == "digest":
                tenant = self.tenant(request.get("tenant"))
                return self._action(request_id, tenant, tenant.digest)
            if op == "stats":
                if request.get("tenant") is not None:
                    tenant = self.tenant(request["tenant"])
                    return self._action(request_id, tenant, tenant.stats)
                return _KIND_RESPONSE, ok_response(
                    request_id,
                    {"tenants": self.tenant_ids, "counters": self.counters.snapshot()},
                )
            if op == "reset":
                tenant_id = request.get("tenant")
                _check_tenant_id(tenant_id)
                # Deliberately history-free: whether a partition already
                # existed depends on what ran before on this daemon, and a
                # reset response must be byte-identical across runs.
                retired = self._retire(tenant_id)
                if retired is not None:
                    self._retired.append(retired)
                return _KIND_RESPONSE, ok_response(request_id, {"reset": True})
            raise RequestError(E_BAD_REQUEST, f"unknown op {op!r}")
        except RequestError as error:
            return self._refused(request_id, error)

    # A JSON request and its packed twin reach these with the same values,
    # so both pass the same checks in the same order.

    def _parse_query(
        self, request_id: Any, packed: bool, tenant_id: Any, pid: Any, operation: Any, at: Any
    ) -> Tuple[int, Any]:
        tenant = self.tenant(tenant_id)
        if type(pid) is not int:
            _checked_int("pid", pid)
        if not isinstance(operation, str) or not operation:
            raise RequestError(E_BAD_REQUEST, "'operation' must be a non-empty string")
        if at is not None:
            _checked_int("at", at, 0)
        self.counters.inc("service.queries")
        # The payload is built at *flush* time, not here: an ``at`` of None
        # means "the tenant's clock when this query runs", and an earlier
        # action in the same batch (an ``advance``) may still move that clock.
        return _KIND_QUERY, (request_id, packed, tenant, (pid, operation, at))

    def _parse_interact(
        self, request_id: Any, packed: bool, tenant_id: Any, pid: Any, at: Any
    ) -> Tuple[int, Any]:
        tenant = self.tenant(tenant_id)
        if type(pid) is not int:
            _checked_int("pid", pid)
        if at is not None:
            _checked_int("at", at, 0)
        return _KIND_INTERACT, (request_id, packed, tenant, pid, at)

    def _refused(self, request_id: Any, error: RequestError) -> Tuple[int, Any]:
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

"""Packed frames against their JSON twins, through a real daemon.

A packed ``query`` or ``interact`` never becomes a request or response
dict on its way through the daemon: it decodes to the core's parsed form
and its answer is packed from the verdict.  The oracle is an in-process
twin :class:`PermissionService` that applies each request's JSON dict one
at a time: every answer frame the daemon sends must equal
``encode_response_frame(twin.apply(request), packed)``, and the tenants'
``digest`` and ``stats`` and the service's request, query and error
counters must equal the twin's afterwards.

The stream is seeded and mixes packed and JSON frames, including every
refusal a packed frame can carry (unknown and invalid tenants, an empty
operation, a full tenant table, negative and absent ``at``).  It is
delivered one frame per read, several frames per read and one byte at a
time, to the in-process backend and to a one-worker pool.
"""

import asyncio
import json
import random

import pytest

from repro.service.core import PermissionService
from repro.service.daemon import ServiceDaemon
from repro.service.protocol import (
    HEADER_SIZE,
    PACKED_BIT,
    PROTOCOL_VERSION,
    FrameDecoder,
    encode_request_frame,
    encode_response_frame,
)
from repro.service.shard import WorkerPool

from tests.unit.service.test_daemon import kill_workers

#: Tenant-table bound of the daemon and its twin: ``t0``-``t3`` fit, so
#: ``t4`` is refused with ``TENANT_LIMIT``.
MAX_TENANTS = 4
SPAWNED = ("t0", "t1", "t2")
#: ``t3`` is unknown until the stream first touches it; the rest are not
#: valid tenant ids at all (empty, leading punctuation, a space, too long).
OTHER_TENANTS = ("t3", "t4", "", "-bad", "sp ace", "x" * 70)
OPERATIONS = ("copy", "paste", "screen", "mic0", "")


def request(request_id, op, **fields):
    return {"v": PROTOCOL_VERSION, "id": request_id, "op": op, **fields}


def stream(seed, count):
    """``[(request, packed)]``: spawns, then a seeded packed/JSON mix."""
    spawns = [
        (request(index, "spawn", tenant=tenant, name=f"app{slot}"), False)
        for index, (tenant, slot) in enumerate(
            (tenant, slot) for tenant in SPAWNED for slot in range(2)
        )
    ]
    scratch = PermissionService(max_tenants=MAX_TENANTS)
    pids = {}
    for spawn, _ in spawns:
        pids.setdefault(spawn["tenant"], []).append(scratch.apply(spawn)["result"]["pid"])
    rng = random.Random(seed)
    requests = list(spawns)
    for request_id in range(len(spawns), len(spawns) + count):
        if rng.random() < 0.8:
            tenant = rng.choice(SPAWNED)
            pid = rng.choice(pids[tenant] + [999])  # 999: no such process
        else:
            tenant = rng.choice(OTHER_TENANTS)
            pid = 1
        fields = {"tenant": tenant, "pid": pid}
        roll = rng.random()
        if roll < 0.3:
            fields["at"] = rng.choice([-1, 0, rng.randrange(1, 5_000_000)])
        roll = rng.random()
        if roll < 0.6:
            op = "query"
            fields["operation"] = rng.choice(OPERATIONS)
        elif roll < 0.9:
            op = "interact"
        else:
            op = "advance"
            fields = {"tenant": tenant, "dt": rng.randrange(0, 3_000_000)}
        requests.append((request(request_id, op, **fields), op != "advance" and rng.random() < 0.7))
    return requests


def twin_answers(requests):
    """The twin's answer frames, and the twin itself."""
    twin = PermissionService(max_tenants=MAX_TENANTS)
    return [encode_response_frame(twin.apply(req), packed) for req, packed in requests], twin


def closing_requests(first_id):
    """Read every tenant's digest and stats, then the service counters."""
    requests = []
    for tenant in SPAWNED + ("t3",):
        requests.append(request(first_id + len(requests), "digest", tenant=tenant))
        requests.append(request(first_id + len(requests), "stats", tenant=tenant))
    requests.append(request(first_id + len(requests), "stats"))
    return requests


@pytest.fixture(params=["inprocess", "pool"])
def make_backend(request):
    pools = []

    def make():
        if request.param == "inprocess":
            return PermissionService(max_tenants=MAX_TENANTS)
        pools.append(WorkerPool(1, max_tenants=MAX_TENANTS))
        return pools[-1]

    yield make
    for pool in pools:
        kill_workers(pool)


async def exchange(path, frames, answer_sizes, delivery, seed):
    """Send *frames* as *delivery* says; return every answer byte."""
    reader, writer = await asyncio.open_unix_connection(path)
    received = bytearray()
    total = sum(answer_sizes)
    try:
        if delivery == "frame-per-read":
            for frame, size in zip(frames, answer_sizes):
                writer.write(frame)
                received += await asyncio.wait_for(reader.readexactly(size), timeout=5)
        elif delivery == "frames-per-read":
            rng = random.Random(seed)
            index = 0
            while index < len(frames):
                group = rng.randrange(2, 9)
                writer.write(b"".join(frames[index:index + group]))
                await writer.drain()
                await asyncio.sleep(0)
                index += group
        else:  # byte at a time
            data = b"".join(frames)
            for offset in range(len(data)):
                writer.write(data[offset:offset + 1])
                await writer.drain()
                await asyncio.sleep(0)
        received += await asyncio.wait_for(reader.readexactly(total - len(received)), timeout=10)
    finally:
        writer.close()
    return bytes(received)


@pytest.mark.parametrize("delivery", ["frame-per-read", "frames-per-read", "byte-at-a-time"])
def test_packed_and_json_answers_match_the_twin(tmp_path, make_backend, delivery):
    seed = {"frame-per-read": 11, "frames-per-read": 12, "byte-at-a-time": 13}[delivery]
    requests = stream(seed, 80 if delivery == "byte-at-a-time" else 240)
    frames = [encode_request_frame(req, packed) for req, packed in requests]
    for frame, (req, packed) in zip(frames, requests):
        # Each frame flagged packed really is packed, refusals included.
        assert bool(int.from_bytes(frame[:HEADER_SIZE], "big") & PACKED_BIT) == packed, req
    assert any(packed and req.get("tenant") == "" for req, packed in requests)
    assert any(packed and req.get("operation") == "" for req, packed in requests)
    assert any(packed and req.get("tenant") == "t4" for req, packed in requests)
    assert any(packed and req.get("at", 0) < 0 for req, packed in requests)
    expected, twin = twin_answers(requests)
    refusals = {
        json.loads(answer[HEADER_SIZE:])["error"]
        for answer, (_, packed) in zip(expected, requests)
        if packed and not answer[0] & 0x80
    }
    assert refusals == {"BAD_REQUEST", "TENANT_LIMIT"}
    closing = closing_requests(len(requests))
    twin_closing = [twin.apply(req) for req in closing]

    async def body():
        path = str(tmp_path / "differential.sock")
        daemon = ServiceDaemon(make_backend(), unix_path=path, max_pending=1 << 16)
        await daemon.start()
        try:
            answered = await exchange(
                path, frames, [len(answer) for answer in expected], delivery, seed
            )
            reader, writer = await asyncio.open_unix_connection(path)
            decoder = FrameDecoder()
            closing_answers = []
            for req in closing:
                writer.write(encode_request_frame(req))
                while not (new := decoder.feed(
                    await asyncio.wait_for(reader.read(1 << 16), timeout=5)
                )):
                    pass
                closing_answers += new
            writer.close()
            return answered, closing_answers
        finally:
            daemon.begin_drain()
            await asyncio.wait_for(daemon.wait_stopped(), timeout=10)

    answered, closing_answers = asyncio.run(body())
    # Answer by answer first, so a failure names the first request that differs.
    split = FrameDecoder().feed(answered)
    assert len(split) == len(expected)
    for (req, packed), got, want in zip(requests, split, FrameDecoder().feed(b"".join(expected))):
        assert got == want, (req, packed)
    assert answered == b"".join(expected)
    # Digests and stats per tenant, then the service's counters.
    assert closing_answers[:-1] == twin_closing[:-1]
    counters = closing_answers[-1]["result"]["counters"]
    twin_counters = twin_closing[-1]["result"]["counters"]
    for name in ("service.requests", "service.queries", "service.errors"):
        assert counters.get(name) == twin_counters.get(name), name
    assert twin_counters["service.errors"] > 0


def test_a_verdict_too_large_to_pack_is_answered_in_json_like_its_twin(tmp_path, make_backend):
    """A tenant clock past the signed 64-bit range does not fit a packed answer."""
    spawn = request(1, "spawn", tenant="t0", name="app")
    pid = PermissionService().apply(spawn)["result"]["pid"]
    requests = [
        (spawn, False),
        (request(2, "advance", tenant="t0", dt=2**63), False),
        (request(3, "query", tenant="t0", pid=pid, operation="copy"), True),
        (request(4, "interact", tenant="t0", pid=pid), True),
    ]
    frames = [encode_request_frame(req, packed) for req, packed in requests]
    expected, _ = twin_answers(requests)
    assert all(answer[0] & 0x80 == 0 for answer in expected)  # every answer is JSON

    async def body():
        path = str(tmp_path / "overflow.sock")
        daemon = ServiceDaemon(make_backend(), unix_path=path)
        await daemon.start()
        try:
            return await exchange(
                path, frames, [len(answer) for answer in expected], "frame-per-read", 0
            )
        finally:
            daemon.begin_drain()
            await asyncio.wait_for(daemon.wait_stopped(), timeout=10)

    assert asyncio.run(body()) == b"".join(expected)

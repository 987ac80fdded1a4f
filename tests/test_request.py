"""Unit tests for memory request objects."""

import pytest

from repro.mem import AccessType, MemoryRequest


def test_access_type_classification():
    assert AccessType.NORMAL_WRITE.is_write
    assert not AccessType.NORMAL_READ.is_write
    assert AccessType.OPERAND_READ.is_active
    assert AccessType.ACTIVE_WRITE.is_active and AccessType.ACTIVE_WRITE.is_write
    assert not AccessType.NORMAL_READ.is_active


def test_request_validation():
    with pytest.raises(ValueError):
        MemoryRequest(addr=-1)
    with pytest.raises(ValueError):
        MemoryRequest(addr=0, size=0)


def test_request_completion_callback_and_latency():
    seen = []
    req = MemoryRequest(addr=0x100, issue_time=10.0, on_complete=seen.append)
    req.complete(60.0)
    assert seen == [req]
    assert req.latency == 50.0


def test_request_ids_are_unique():
    ids = {MemoryRequest(addr=0).req_id for _ in range(100)}
    assert len(ids) == 100


def test_request_validation_covers_every_bad_address_and_size():
    for addr in (-1, -64, -(1 << 40)):
        with pytest.raises(ValueError):
            MemoryRequest(addr=addr)
    for size in (0, -1, -64):
        with pytest.raises(ValueError):
            MemoryRequest(addr=0, size=size)
    # The boundary values are accepted.
    assert MemoryRequest(addr=0, size=1).size == 1


def test_request_ids_increase_in_construction_order():
    ids = [MemoryRequest(addr=64 * i).req_id for i in range(50)]
    assert ids == sorted(set(ids))
    assert MemoryRequest(addr=0).req_id > ids[-1]


def test_request_is_write_and_latency_follow_the_access_type():
    for access_type in AccessType:
        request = MemoryRequest(addr=0x40, access_type=access_type, issue_time=3.5)
        assert request.is_write is access_type.is_write
        assert request.complete_time == 0.0
        request.complete(10.0)
        assert request.latency == 6.5
    reads = [t for t in AccessType if not t.is_write]
    assert reads == [AccessType.NORMAL_READ, AccessType.OPERAND_READ]


def test_request_defaults_and_slots():
    request = MemoryRequest(addr=0x80)
    assert (request.size, request.access_type, request.requester, request.core_id,
            request.issue_time, request.on_complete) == \
        (64, AccessType.NORMAL_READ, None, None, 0.0, None)
    with pytest.raises(AttributeError):
        request.unknown_field = 1


def test_access_type_index_is_the_declaration_order():
    assert [t._index for t in AccessType] == list(range(len(AccessType)))

"""Unit tests for FlowKey and Packet."""

import copy
import dataclasses
import pickle

import pytest

from repro.switch.packet import PROTO_TCP, PROTO_UDP, FlowKey, Packet


class TestFlowKey:
    def test_from_strings_roundtrip(self):
        key = FlowKey.from_strings("10.0.0.1", "192.168.1.2", 1234, 80)
        assert key.src_ip == (10 << 24) | 1
        assert key.dst_ip == (192 << 24) | (168 << 16) | (1 << 8) | 2
        assert key.src_port == 1234
        assert key.dst_port == 80
        assert key.proto == PROTO_TCP

    def test_str_formats_dotted_quad(self):
        key = FlowKey.from_strings("10.0.0.1", "10.1.0.1", 5000, 80)
        assert str(key) == "10.0.0.1:5000->10.1.0.1:80/6"

    def test_malformed_address(self):
        with pytest.raises(ValueError):
            FlowKey.from_strings("10.0.0", "10.0.0.1", 1, 2)
        with pytest.raises(ValueError):
            FlowKey.from_strings("10.0.0.256", "10.0.0.1", 1, 2)

    def test_out_of_range_fields(self):
        with pytest.raises(ValueError):
            FlowKey(1 << 32, 0, 0, 0)
        with pytest.raises(ValueError):
            FlowKey(0, 0, 70000, 0)
        with pytest.raises(ValueError):
            FlowKey(0, 0, 0, 0, proto=300)

    def test_flow_id_deterministic(self):
        a = FlowKey.from_strings("10.0.0.1", "10.1.0.1", 5000, 80)
        b = FlowKey.from_strings("10.0.0.1", "10.1.0.1", 5000, 80)
        assert a.flow_id() == b.flow_id()

    def test_flow_id_distinguishes_fields(self):
        base = FlowKey.from_strings("10.0.0.1", "10.1.0.1", 5000, 80)
        variants = [
            FlowKey.from_strings("10.0.0.2", "10.1.0.1", 5000, 80),
            FlowKey.from_strings("10.0.0.1", "10.1.0.2", 5000, 80),
            FlowKey.from_strings("10.0.0.1", "10.1.0.1", 5001, 80),
            FlowKey.from_strings("10.0.0.1", "10.1.0.1", 5000, 81),
            FlowKey.from_strings("10.0.0.1", "10.1.0.1", 5000, 80, PROTO_UDP),
        ]
        for variant in variants:
            assert variant.flow_id() != base.flow_id()

    def test_flow_id_64_bit(self):
        key = FlowKey.from_strings("1.2.3.4", "5.6.7.8", 9, 10)
        assert 0 <= key.flow_id() < (1 << 64)

    def test_hashable_and_equal(self):
        a = FlowKey.from_strings("10.0.0.1", "10.1.0.1", 5000, 80)
        b = FlowKey.from_strings("10.0.0.1", "10.1.0.1", 5000, 80)
        assert a == b
        assert len({a, b}) == 1

    def test_cached_hash_follows_the_five_tuple(self):
        a = FlowKey.from_strings("10.0.0.1", "10.1.0.1", 5000, 80)
        b = FlowKey(a.src_ip, a.dst_ip, a.src_port, a.dst_port, a.proto)
        assert hash(a) == hash(b) == hash(a.sort_key())
        assert hash(a.reversed().reversed()) == hash(a)
        assert hash(dataclasses.replace(a, src_port=5001)) == hash(
            FlowKey.from_strings("10.0.0.1", "10.1.0.1", 5001, 80)
        )
        # The cache is not part of the value: repr and == ignore it.
        assert "_hash" not in repr(a)
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.src_port = 1

    def test_pickle_and_copy_round_trip(self):
        key = FlowKey.from_strings("10.0.0.1", "10.1.0.1", 5000, 80, PROTO_UDP)
        for clone in (
            pickle.loads(pickle.dumps(key)),
            copy.copy(key),
            copy.deepcopy(key),
        ):
            assert clone == key and hash(clone) == hash(key)
            assert {key: 1}[clone] == 1
            assert clone.sort_key() == key.sort_key()
        # The hash is recomputed on load, never shipped.
        assert b"_hash" not in pickle.dumps(key)

    def test_wire_text_is_cached_not_compared_or_shipped(self):
        key = FlowKey.from_strings("10.0.0.1", "10.1.0.1", 5000, 80, PROTO_UDP)
        text = str(key)
        assert text == "10.0.0.1:5000->10.1.0.1:80/17"
        assert str(key) is text  # computed once
        fresh = FlowKey(key.src_ip, key.dst_ip, key.src_port, key.dst_port, key.proto)
        assert fresh == key and "_text" not in repr(key)
        assert b"_text" not in pickle.dumps(key)
        assert str(pickle.loads(pickle.dumps(key))) == text
        moved = dataclasses.replace(key, src_port=5001)
        assert str(moved) == "10.0.0.1:5001->10.1.0.1:80/17"

    def test_reversed(self):
        key = FlowKey.from_strings("10.0.0.1", "10.1.0.1", 5000, 80)
        rev = key.reversed()
        assert rev.src_ip == key.dst_ip
        assert rev.dst_port == key.src_port
        assert rev.reversed() == key

    def test_to_bytes_is_13_bytes(self):
        key = FlowKey.from_strings("10.0.0.1", "10.1.0.1", 5000, 80)
        assert len(key.to_bytes()) == 13


class TestPacket:
    def _flow(self):
        return FlowKey.from_strings("10.0.0.1", "10.1.0.1", 5000, 80)

    def test_basic_construction(self):
        pkt = Packet(self._flow(), 1500, 100)
        assert pkt.size_bytes == 1500
        assert pkt.arrival_ns == 100
        assert not pkt.queued

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            Packet(self._flow(), 0, 100)

    def test_rejects_negative_arrival(self):
        with pytest.raises(ValueError):
            Packet(self._flow(), 100, -1)

    def test_deq_timestamp_requires_queuing(self):
        pkt = Packet(self._flow(), 100, 0)
        with pytest.raises(ValueError):
            _ = pkt.deq_timestamp

    def test_deq_timestamp_sum(self):
        pkt = Packet(self._flow(), 100, 0)
        pkt.enq_timestamp = 50
        pkt.deq_timedelta = 30
        assert pkt.deq_timestamp == 80
        assert pkt.queued

    def test_flow_id_cached(self):
        pkt = Packet(self._flow(), 100, 0)
        assert pkt.flow_id == pkt.flow.flow_id()
        assert pkt._flow_id is not None

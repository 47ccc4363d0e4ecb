"""Tests for packet formats and the traffic-layer packet factory."""

import dataclasses

import pytest

from repro.packets import (
    ACK_WORDS,
    FLIT_BYTES,
    REPLY_NET,
    AckInfo,
    Packet,
    PacketKind,
    make_ack,
)
from repro.traffic import PacketFactory


def make_packet(**kw):
    defaults = dict(src=0, dst=1, kind=PacketKind.SCALAR, size_bytes=32)
    defaults.update(kw)
    return Packet(**defaults)


class TestPacket:
    def test_flit_count_rounds_up(self):
        assert make_packet(size_bytes=32).flits == 8
        assert make_packet(size_bytes=33).flits == 9
        assert make_packet(size_bytes=1).flits == 1

    def test_replace_recomputes_flit_count(self):
        original = make_packet(size_bytes=32)
        bigger = dataclasses.replace(original, size_bytes=9 * FLIT_BYTES + 1)
        assert bigger.flits == 10
        assert original.flits == 8

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            make_packet(size_bytes=0)

    def test_ack_requires_info(self):
        with pytest.raises(ValueError):
            make_packet(kind=PacketKind.ACK)

    def test_make_ack_rides_reply_network(self):
        ack = make_ack(3, 7, AckInfo(for_scalar=True))
        assert ack.kind is PacketKind.ACK
        assert ack.src == 3 and ack.dst == 7
        assert ack.logical_net == REPLY_NET
        assert ack.needs_ack is False
        assert ack.flits == ACK_WORDS

    def test_identity_semantics(self):
        a = make_packet()
        b = make_packet()
        assert a != b
        assert a == a
        assert len({a, b}) == 2

    def test_data_predicate(self):
        assert make_packet().is_data
        assert not make_ack(0, 1, AckInfo()).is_data


class TestPacketFactory:
    def test_message_basic_fields(self):
        factory = PacketFactory(2, packet_words=8, bulk_threshold=4)
        msg = factory.message(5, 3)
        assert len(msg) == 3
        assert all(p.src == 2 and p.dst == 5 for p in msg)
        assert [p.msg_seq for p in msg] == [0, 1, 2]
        assert all(p.msg_len == 3 for p in msg)
        assert all(p.size_bytes == 8 * FLIT_BYTES for p in msg)
        assert not any(p.bulk_request for p in msg)  # below threshold

    def test_bulk_request_set_at_threshold(self):
        factory = PacketFactory(0, bulk_threshold=4)
        assert all(p.bulk_request for p in factory.message(1, 4))
        assert not any(p.bulk_request for p in factory.message(1, 3))

    def test_pair_seq_monotonic_per_destination(self):
        factory = PacketFactory(0)
        seqs_to_1 = [p.pair_seq for p in factory.message(1, 2)]
        factory.message(2, 3)  # interleaved traffic to another node
        seqs_to_1 += [p.pair_seq for p in factory.message(1, 2)]
        assert seqs_to_1 == [0, 1, 2, 3]

    def test_self_send_rejected(self):
        with pytest.raises(ValueError):
            PacketFactory(4).message(4, 1)

    def test_empty_message_rejected(self):
        with pytest.raises(ValueError):
            PacketFactory(0).message(1, 0)

    def test_packets_for_words_without_inorder(self):
        # 6-word packet, 1 header + 1 bookkeeping -> 4 payload words/packet
        factory = PacketFactory(0, packet_words=6, exploit_inorder=False)
        assert factory.packets_for_words(4) == 1
        assert factory.packets_for_words(5) == 2
        assert factory.packets_for_words(16) == 4

    def test_packets_for_words_with_inorder_is_fewer(self):
        plain = PacketFactory(0, packet_words=6, exploit_inorder=False)
        inorder = PacketFactory(0, packet_words=6, exploit_inorder=True)
        # first packet 4 payload words, rest 5
        assert inorder.packets_for_words(4) == 1
        assert inorder.packets_for_words(9) == 2
        assert inorder.packets_for_words(14) == 3
        for words in (1, 8, 20, 100, 1000):
            assert inorder.packets_for_words(words) <= plain.packets_for_words(words)

    def test_zero_words_zero_packets(self):
        assert PacketFactory(0).packets_for_words(0) == 0

import hashlib
import json
import random
import socket
import tempfile
import threading
import time
from itertools import groupby
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twinsync.pcap as pcap_module
import twinsync.transport as transport_module
from twinsync.errors import (
    ChannelClosedError,
    DigestMismatchError,
    ForeignWindowError,
    JsonParseError,
    PcapWriteError,
    SchemaError,
    TruncatedRecordError,
    TwinError,
)
from twinsync.pcap import (
    LINKTYPE_RAW_IP,
    PACK_BLOCK_BYTES,
    VECTOR_MIN_PACKETS,
    CaptureWindow,
    PacketBatch,
    read_pcap,
    segment_stream,
    write_pcap,
)
from twinsync.replay import ReplayEngine, ReplayPlan
from twinsync.transport import (
    ChannelSpec,
    DirectoryExchangeChannel,
    InProcessChannel,
    SyncLog,
    TcpReceiverChannel,
    TcpSenderChannel,
    WindowManifest,
    WindowReceiver,
    MAX_MANIFEST_BYTES,
    pack_window,
    send_windows,
    unpack_window,
    unpack_windows,
)

from conftest import make_packet, packet_lists
from reference import ManualClock, batch_of, lone_window, out_of_order_seqs, records_of

SECOND = 1_000_000


def window_of(seq: int, packets=(), T: int = 10 * SECOND) -> CaptureWindow:
    return lone_window(seq, seq * T, (seq + 1) * T, batch_of(packets))


def manifest_for_payload(seq: int, payload: bytes) -> WindowManifest:
    return WindowManifest(
        seq=seq,
        start_ts_micros=seq * SECOND,
        end_ts_micros=(seq + 1) * SECOND,
        byte_length=len(payload),
        content_digest=hashlib.sha256(payload).hexdigest(),
    )


def _vouched(manifest: WindowManifest, payload: bytes) -> tuple[WindowManifest, bytes]:
    """``payload`` with a manifest whose length and digest match it."""
    return manifest._replace(byte_length=len(payload), content_digest=hashlib.sha256(payload).hexdigest()), payload


def _packed(seq: int, offsets=(1, 2, 3), T: int = 10 * SECOND) -> tuple[WindowManifest, bytes]:
    """Window ``seq`` of length T with 40-byte packets at these offsets from its start."""
    return pack_window(window_of(seq, [make_packet(seq * T + offset, 40) for offset in offsets], T))


def _flipped(seq: int):
    manifest, payload = _packed(seq)
    return manifest, payload[:-1] + bytes([payload[-1] ^ 0xFF])


def _torn(seq: int):
    manifest, payload = _packed(seq)
    return _vouched(manifest, payload[:-10])


def _zero_duration(seq: int):
    return pack_window(lone_window(seq, seq * 10 * SECOND, seq * 10 * SECOND, batch_of([])))


# Per rule a received window must pass: window seq's bad form, and the
# exception and message unpack_window raises for it.
BAD_WINDOWS = {
    "digest": (_flipped, DigestMismatchError, "window {seq}: content digest mismatch"),
    "zero-duration": (_zero_duration, ValueError, "window must have positive duration"),
    # The last of three 56-byte records starts at byte 24 + 2 * 56.
    "torn": (_torn, TruncatedRecordError, "truncated record at byte offset 136"),
    "outside": (lambda seq: _packed(seq, (1, 2, 10 * SECOND)), ValueError,
                "packet ts {end} outside window [{start}, {end})"),
    "disordered": (lambda seq: _packed(seq, (2, 1, 3)), ValueError, "packet timestamps must be non-decreasing"),
}


class TestUnpackWindows:
    @pytest.mark.parametrize("rule", list(BAD_WINDOWS))
    def test_a_bad_window_is_refused_alone_and_anywhere_in_a_group(self, rule):
        bad, error, message = BAD_WINDOWS[rule]
        for at in range(3):
            manifest, payload = bad(at)
            with pytest.raises(error) as alone:
                unpack_window(manifest, payload)
            assert str(alone.value) == message.format(seq=at, start=at * 10 * SECOND, end=(at + 1) * 10 * SECOND)
            manifests, payloads = zip(*[bad(seq) if seq == at else _packed(seq) for seq in range(3)])
            with pytest.raises((TwinError, ValueError)) as in_group:
                unpack_windows(manifests, payloads)
            if rule != "torn":  # joined, a torn window's tail runs into the next window's bytes
                assert (type(in_group.value), str(in_group.value)) == (error, str(alone.value))


class TestInProcessChannel:
    def test_delivery_delay_matches_latency_plus_serialization(self):
        # Oracle: delay = latency + bytes*8/bandwidth
        #       = 100 ms + 8e6 bits / 10 Mbps = 0.1 s + 0.8 s = 0.9 s.
        spec = ChannelSpec(latency_us=100_000, bandwidth_bps=10_000_000)
        channel = InProcessChannel(spec)
        payload = b"\x00" * 1_000_000
        channel.send(manifest_for_payload(0, payload), payload, now_micros=0)
        _, _, arrival = channel.receive()
        assert arrival == 900_000

    def test_back_to_back_sends_queue_on_the_link(self):
        spec = ChannelSpec(latency_us=100_000, bandwidth_bps=10_000_000)
        channel = InProcessChannel(spec)
        payload = b"\x00" * 1_000_000  # 0.8 s of serialization each
        channel.send(manifest_for_payload(0, payload), payload, now_micros=0)
        channel.send(manifest_for_payload(1, payload), payload, now_micros=0)
        arrivals = [channel.receive()[2] for _ in range(2)]
        # Second transmission starts only when the first leaves the link.
        assert arrivals == [900_000, 800_000 + 800_000 + 100_000]

    def test_lossless_channel_delivers_everything_once(self):
        channel = InProcessChannel(ChannelSpec(loss_probability=0.0))
        for seq in range(5):
            payload = bytes([seq])
            channel.send(manifest_for_payload(seq, payload), payload, now_micros=seq)
        channel.close_send()
        seqs = []
        while (item := channel.receive()) is not None:
            seqs.append(item[0].seq)
        assert seqs == [0, 1, 2, 3, 4]

    def test_total_loss_still_produces_receipts(self):
        channel = InProcessChannel(ChannelSpec(loss_probability=1.0))
        receipts = [
            channel.send(manifest_for_payload(seq, b"x"), b"x", now_micros=seq)
            for seq in range(4)
        ]
        channel.close_send()
        assert all(r.dropped for r in receipts)
        assert channel.receive() is None

    def test_seeded_loss_is_reproducible(self):
        def drop_pattern(seed):
            channel = InProcessChannel(ChannelSpec(loss_probability=0.5, seed=seed))
            return [channel.send(manifest_for_payload(s, b"x"), b"x", s).dropped for s in range(32)]

        assert drop_pattern(7) == drop_pattern(7)
        assert drop_pattern(7) != drop_pattern(8)

    def test_send_after_close_raises(self):
        channel = InProcessChannel(ChannelSpec())
        channel.close_send()
        with pytest.raises(ChannelClosedError):
            channel.send(manifest_for_payload(0, b"x"), b"x", 0)


class TestPackUnpack:
    def test_manifest_mirrors_the_window(self):
        window = window_of(3, [make_packet(31 * SECOND, 40)])
        manifest, payload = pack_window(window)
        assert manifest.seq == 3
        assert manifest.start_ts_micros == window.start_ts_micros
        assert manifest.end_ts_micros == window.end_ts_micros
        assert manifest.byte_length == len(payload)
        assert manifest.digest_algorithm == "sha256"

    def test_manifest_json_keys_are_the_documented_set(self):
        manifest, _ = pack_window(window_of(0))
        doc = json.loads(manifest.to_json())
        assert set(doc) == {
            "seq",
            "start_ts_micros",
            "end_ts_micros",
            "byte_length",
            "content_digest",
            "digest_algorithm",
            "source_interface",
        }
        assert WindowManifest.from_json(manifest.to_json()) == manifest

    def test_unpack_window_invariants(self):
        with pytest.raises(ValueError, match="non-negative"):
            unpack_window(*pack_window(lone_window(-1, 0, 10, batch_of([]))))
        with pytest.raises(ValueError, match="positive duration"):
            unpack_window(*pack_window(lone_window(0, 0, 0, batch_of([]))))
        with pytest.raises(ValueError, match="outside window"):
            unpack_window(*pack_window(lone_window(0, 0, 10, batch_of([make_packet(10)]))))
        packets = unpack_window(*pack_window(lone_window(0, 0, 10, batch_of([make_packet(3)]))))
        assert records_of(packets) == [make_packet(3)]

    @pytest.mark.parametrize("field, value", [
        ("seq", "7"),
        ("seq", True),
        ("seq", -1),
        ("start_ts_micros", 1.5),
        ("end_ts_micros", None),
        ("byte_length", "10"),
        ("byte_length", -1),
        ("seq", 2**70),
        ("start_ts_micros", -1),
        ("end_ts_micros", 2**63),
        ("byte_length", 2**63),
        ("content_digest", 123),
        ("digest_algorithm", "md5"),
        ("source_interface", None),
    ])
    def test_manifest_field_of_the_wrong_type_or_range_is_named(self, field, value):
        doc = json.loads(pack_window(window_of(0))[0].to_json())
        doc[field] = value
        with pytest.raises(SchemaError) as err:
            WindowManifest.from_json(json.dumps(doc).encode())
        assert err.value.field == field

    @pytest.mark.parametrize("data", [b"\xff{}", b"{\"seq\": 0,"], ids=["not-utf8", "not-json"])
    def test_manifest_that_is_not_utf8_json_is_a_parse_error(self, data):
        with pytest.raises(JsonParseError):
            WindowManifest.from_json(data)

    def test_corrupted_payload_fails_the_digest(self):
        window = window_of(1, [make_packet(10 * SECOND, 10)])
        manifest, payload = pack_window(window)
        corrupted = payload[:-1] + bytes([payload[-1] ^ 0xFF])
        with pytest.raises(DigestMismatchError):
            unpack_window(manifest, corrupted)

    @given(packet_lists(max_len=8))
    def test_transferred_packets_are_byte_identical(self, packets):
        window = lone_window(0, 0, 5 * SECOND, batch_of(packets))
        manifest, payload = pack_window(window)
        assert records_of(unpack_window(manifest, payload)) == packets


WINDOW = 250_000


@st.composite
def block_traces(draw):
    """(batch, packets per window): windows on both sides of
    VECTOR_MIN_PACKETS, empty ones included, with captured lengths of 0 to
    40 bytes in payload slots that may be longer than that."""
    counts = draw(st.lists(st.sampled_from([0, 1, 2, 5, VECTOR_MIN_PACKETS - 1, VECTOR_MIN_PACKETS, 40]),
                           min_size=1, max_size=12))
    rng = random.Random(draw(st.integers(0, 2**32)))
    times = [ts for k, count in enumerate(counts) for ts in sorted(k * WINDOW + rng.randrange(WINDOW)
                                                                    for _ in range(count))]
    records = [make_packet(ts, rng.randrange(41), fill=bytes([rng.randrange(256)])) for ts in times]
    slots = [r.captured_len + draw(st.sampled_from([0, 3])) for r in records]
    payload = b"".join(r.payload + b"\xee" * (slot - r.captured_len) for r, slot in zip(records, slots))
    offsets = np.concatenate(([0], np.cumsum(slots, dtype=np.int64)))
    batch = PacketBatch(np.array([r.ts_micros for r in records], dtype=np.int64),
                        np.array([r.captured_len for r in records], dtype=np.uint32),
                        np.array([r.original_len for r in records], dtype=np.uint32),
                        np.frombuffer(payload, dtype=np.uint8), offsets)
    return batch, counts


class TestBlockPacking:
    @settings(deadline=None)
    @given(block_traces(), st.sampled_from([0, 1, 300, 2_000, PACK_BLOCK_BYTES]))
    def test_every_payload_is_the_windows_own_pcap(self, trace, budget):
        batch, counts = trace
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pcap_module, "PACK_BLOCK_BYTES", budget)
            windows = list(segment_stream(batch, WINDOW, 0, span_end_micros=len(counts) * WINDOW))
        assert [len(w.packets) for w in windows] == counts
        for window in windows:
            manifest, payload = pack_window(window)
            assert payload == write_pcap(LINKTYPE_RAW_IP, window.packets)
            assert manifest.byte_length == len(payload)
        blocks = [(block, list(members)) for block, members in groupby(windows, attrgetter("block"))]
        # A block's windows come one after another, all of them.
        assert len({id(block) for block, _ in blocks}) == len(blocks)
        for block, members in blocks:
            # A window's packets are its range of its block's.
            assert [window.index for window in members] == list(range(len(block.cuts) - 1))
            for window in members:
                own = block.packets[block.cuts[window.index]:block.cuts[window.index + 1]]
                for column in ("ts_micros", "captured_len", "original_len", "offsets"):
                    assert np.array_equal(getattr(window.packets, column), getattr(own, column))
                assert window.packets.payload is block.packets.payload
            if len(members) == 1:
                # A window alone is its block, and its payload is the block's pcap.
                assert pack_window(members[0])[1] is block.pcap
                continue
            assert all(len(window.packets) < VECTOR_MIN_PACKETS for window in members)
            # The block was below its budget before its last window joined.
            assert len(block.pcap) - len(pack_window(members[-1])[1]) < budget
        # Only a block's budget, or a window of VECTOR_MIN_PACKETS or more, ends a block.
        for (before, _), (after, _) in zip(blocks, blocks[1:]):
            if len(before.cuts) - 1 == 1 == len(after.cuts) - 1:
                continue
            assert (len(after.packets) >= VECTOR_MIN_PACKETS or len(before.packets) >= VECTOR_MIN_PACKETS
                    or len(write_pcap(LINKTYPE_RAW_IP, before.packets)) - 24 >= budget - 100_000_000)

    @pytest.mark.parametrize("fault, index, message", [
        ("timestamp", 0, "timestamp beyond 32-bit seconds"),
        ("snaplen", 1, "captured_len 70000 exceeds snaplen 65535"),
    ])
    def test_a_write_error_in_a_block_surfaces_at_its_window(self, fault, index, message):
        """Window 2 of a run of small windows cannot be written: it is a
        block of its own, so windows 0 and 1 go out and are replayed, then
        window 2 raises with its own index."""
        origin = (2**32 - 2) * SECOND if fault == "timestamp" else 0
        packets = [make_packet(origin + k * SECOND + i, 70_000 if (k, i) == (2, 1) and fault == "snaplen" else 40)
                   for k in range(4) for i in range(3)]
        log, channel = SyncLog(), InProcessChannel(ChannelSpec())
        receiver, engine = WindowReceiver(channel, log), ReplayEngine(ReplayPlan(), log)
        windows = segment_stream(batch_of(packets), SECOND, origin, span_end_micros=origin + 4 * SECOND)
        replayed = []
        with pytest.raises(PcapWriteError) as err:
            for _, members in groupby(windows, attrgetter("block")):
                members = list(members)
                send_windows(members, channel, log, [w.end_ts_micros for w in members])
                while (block := receiver.receive_block()) is not None:
                    engine.replay_block(block)
                    replayed += block.seqs.tolist()
        assert replayed == [0, 1]
        assert (err.value.index, str(err.value)) == (index, str(PcapWriteError(index, message)))
        assert [e.seq for e in log.entries()] == [0, 1]

    def test_a_window_write_pcap_refuses_is_a_block_of_its_own(self):
        """Whichever small window holds an unwritable packet, it is alone in
        its block, and the windows around it still group."""
        packets = [make_packet(k * SECOND + i, 70_000 if k in (3, 7) and i == 2 else 40)
                   for k in range(10) for i in range(3)]
        windows = list(segment_stream(batch_of(packets), SECOND, 0, span_end_micros=10 * SECOND))
        sizes = [len(block.cuts) - 1 for block, _ in groupby(windows, attrgetter("block"))]
        assert sizes == [3, 1, 3, 1, 2]


def test_window_objects_are_immutable_tuples():
    window = lone_window(0, 0, 10, batch_of([make_packet(3)]))
    manifest, payload = pack_window(window)
    receipt = InProcessChannel(ChannelSpec()).send(manifest, payload, now_micros=10)
    block = WindowReceiver(_ended(manifest, payload), _sent_log(window)).receive_block()
    for value, field in ((window, "seq"), (manifest, "content_digest"), (receipt, "dropped"),
                         (block, "packets")):
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            value.extra = 1


def _ended(manifest: WindowManifest, payload: bytes) -> InProcessChannel:
    """An in-process channel that holds one window and then ends."""
    channel = InProcessChannel(ChannelSpec())
    channel.send(manifest, payload, now_micros=0)
    channel.close_send()
    return channel


def _sent_log(window: CaptureWindow) -> SyncLog:
    log = SyncLog()
    log.record_sent(window.seq, window.start_ts_micros, window.end_ts_micros, window.end_ts_micros)
    return log


class TestWindowReceiver:
    def _pump(self, channel, log, windows, skip=()):
        for w in windows:
            if w.seq in skip:
                log.record_sent(w.seq, w.start_ts_micros, w.end_ts_micros, w.end_ts_micros)
                continue
            send_windows([w], channel, log, now_micros=w.end_ts_micros)
        channel.close_send()

    def test_in_order_delivery(self):
        log = SyncLog()
        channel = InProcessChannel(ChannelSpec())
        self._pump(channel, log, [window_of(s) for s in range(3)])
        receiver = WindowReceiver(channel, log)
        seqs = []
        while (item := receiver.receive()) is not None:
            seqs.append(item[1].seq)
        assert seqs == [0, 1, 2]
        assert not any(e.lost for e in log.entries())
        assert out_of_order_seqs(log.entries()) == []

    def test_hole_is_declared_lost_and_delivery_continues(self):
        log = SyncLog()
        channel = InProcessChannel(ChannelSpec())
        self._pump(channel, log, [window_of(s) for s in range(3)], skip={1})
        receiver = WindowReceiver(channel, log)
        seqs = []
        while (item := receiver.receive()) is not None:
            seqs.append(item[1].seq)
        assert seqs == [0, 2]
        assert log.entries()[1].lost
        assert log.entries()[1].t_received is None

    def test_trailing_hole_not_seen_by_receiver(self):
        log = SyncLog()
        channel = InProcessChannel(ChannelSpec())
        self._pump(channel, log, [window_of(s) for s in range(3)], skip={2})
        receiver = WindowReceiver(channel, log)
        seqs = []
        while (item := receiver.receive()) is not None:
            seqs.append(item[1].seq)
        assert seqs == [0, 1]

    def test_digest_mismatch_counts_as_lost(self):
        log = SyncLog()
        channel = InProcessChannel(ChannelSpec())
        window = window_of(0, [make_packet(SECOND, 20)])
        manifest, payload = pack_window(window)
        log.record_sent(0, window.start_ts_micros, window.end_ts_micros, window.end_ts_micros)
        channel.send(manifest, payload[:-1] + bytes([payload[-1] ^ 0xFF]), window.end_ts_micros)
        channel.close_send()
        receiver = WindowReceiver(channel, log)
        assert receiver.receive() is None
        assert receiver.digest_failures == 1
        assert log.entries()[0].lost

    def test_poll_never_waits(self):
        # A blocking receive would wait forever on the open, empty channel.
        log = SyncLog()
        channel = InProcessChannel(ChannelSpec())
        receiver = WindowReceiver(channel, log)
        start = time.monotonic()
        assert receiver.receive(block=False) is None
        send_windows([window_of(0)], channel, log, now_micros=10 * SECOND)
        log.record_sent(1, 10 * SECOND, 20 * SECOND, 20 * SECOND)  # dropped before the channel
        send_windows([window_of(2)], channel, log, now_micros=30 * SECOND)
        assert [receiver.receive(block=False)[1].seq for _ in range(2)] == [0, 2]
        assert receiver.receive(block=False) is None
        assert time.monotonic() - start < 5.0
        assert [e.lost for e in log.entries()] == [False, True, False]

    @pytest.mark.parametrize("foreign", [window_of(7), lone_window(1, 5 * SECOND, 15 * SECOND, batch_of([]))],
                             ids=["unsent-seq", "sent-seq-other-bounds"])
    def test_foreign_window_raises_and_adds_no_entry(self, foreign):
        log = SyncLog()
        channel = InProcessChannel(ChannelSpec())
        send_windows([window_of(0)], channel, log, now_micros=10 * SECOND)
        log.record_sent(1, 10 * SECOND, 20 * SECOND, 20 * SECOND)  # dropped before the channel
        channel.send(*pack_window(foreign), now_micros=20 * SECOND)
        receiver = WindowReceiver(channel, log)
        assert receiver.receive()[1].seq == 0
        before = log.entries()
        with pytest.raises(ForeignWindowError) as err:
            receiver.receive()
        assert err.value.seq == foreign.seq
        assert log.entries() == before

    @given(
        st.lists(st.one_of(st.integers(0, 7), st.none()), max_size=24),
        st.booleans(),
    )
    def test_any_drop_duplicate_or_permutation_is_delivered_or_lost_once(self, script, block):
        # `script` lists what the channel hands over, in order: a packed
        # window by seq (any drop, duplicate or permutation of 0..7), or
        # None for a poll that finds nothing ready. Then end of stream.
        windows = [window_of(seq) for seq in range(8)]
        packed = [pack_window(window) for window in windows]

        class ScriptedChannel:
            def __init__(self):
                self.items = list(script)
                self.ended = False

            def receive(self, timeout=None):
                assert not self.ended, "receive after end of stream"
                while self.items:
                    seq = self.items.pop(0)
                    if seq is not None:
                        return (*packed[seq], 0)
                    if timeout is not None:
                        raise TimeoutError("nothing ready")
                self.ended = True
                return None

        log = SyncLog()
        for window in windows:
            log.record_sent(window.seq, window.start_ts_micros, window.end_ts_micros, window.end_ts_micros)
        channel = ScriptedChannel()
        receiver = WindowReceiver(channel, log)
        delivered = []
        while not channel.ended:
            if (item := receiver.receive(block)) is not None:
                delivered.append(item[1].seq)
        assert receiver.receive(block) is None
        assert receiver.receive(False) is None

        # A seq is delivered when it tops everything handed over before it.
        seqs = [seq for seq in script if seq is not None]
        assert delivered == [s for i, s in enumerate(seqs) if s > max(seqs[:i], default=-1)]
        assert all(a < b for a, b in zip(delivered, delivered[1:]))
        lost = {e.seq for e in log.entries() if e.lost}
        assert not lost & set(delivered)
        assert set(range(delivered[-1] if delivered else 0)) <= lost | set(delivered)


class TestReceiveBlock:
    @settings(deadline=None, max_examples=50)
    @given(block_traces(), st.sets(st.integers(0, 11)))
    def test_a_block_is_received_as_its_windows_would_be_one_at_a_time(self, trace, dropped):
        batch, counts = trace
        windows = list(segment_stream(batch, WINDOW, 0, span_end_micros=len(counts) * WINDOW))

        def delivered(log):
            channel = InProcessChannel(ChannelSpec(latency_us=7))
            for w in windows:
                if w.seq in dropped:
                    log.record_sent(w.seq, w.start_ts_micros, w.end_ts_micros, w.end_ts_micros)
                else:
                    send_windows([w], channel, log, now_micros=w.end_ts_micros)
            return channel

        log = SyncLog()
        receiver = WindowReceiver(delivered(log), log)
        blocks = list(iter(receiver.receive_block, None))
        log_alone = SyncLog()
        receiver = WindowReceiver(delivered(log_alone), log_alone)
        alone = list(iter(lambda: receiver.receive(block=False), None))

        assert log.entries() == log_alone.entries()
        # Every delivery was ready at once: two or more make one block.
        assert len(blocks) == min(len(alone), 1)
        assert [seq for block in blocks for seq in block.seqs.tolist()] == [manifest.seq for _, manifest, _ in alone]
        assert [t for block in blocks for t in block.t_received.tolist()] == [t for _, _, t in alone]
        assert all(block.cuts[-1] == len(block.packets) for block in blocks)
        parts = [block.packets[first:stop] for block in blocks
                 for first, stop in zip(block.cuts[:-1].tolist(), block.cuts[1:].tolist())]
        assert [records_of(part) for part in parts] == [records_of(packets) for packets, _, _ in alone]

    def test_an_irregular_group_is_held_for_receive(self, monkeypatch):
        log, channel = SyncLog(), InProcessChannel(ChannelSpec())
        windows = [window_of(seq, [make_packet(seq * 10 * SECOND + 5, 40)]) for seq in range(4)]
        for window in windows:
            manifest, payload = pack_window(window)
            if window.seq == 1:
                payload = payload[:-1] + bytes([payload[-1] ^ 0xFF])
            log.record_sent(window.seq, window.start_ts_micros, window.end_ts_micros, window.end_ts_micros)
            channel.send(manifest, payload, window.end_ts_micros)
        joined_tries = []
        unpack = transport_module.unpack_windows

        def counted(manifests, payloads):
            if len(manifests) > 1:
                joined_tries.append(len(manifests))
            return unpack(manifests, payloads)

        monkeypatch.setattr(transport_module, "unpack_windows", counted)
        receiver = WindowReceiver(channel, log)
        assert [block.seqs.tolist() for block in iter(receiver.receive_block, None)] == [[0], [2], [3]]
        # The group was tried joined once, never again for the windows left.
        assert joined_tries == [4]
        assert receiver.digest_failures == 1
        assert [e.lost for e in log.entries()] == [False, True, False, False]

    def test_a_lone_delivery_goes_through_receive(self, monkeypatch):
        log, channel = SyncLog(), InProcessChannel(ChannelSpec())
        window = window_of(0, [make_packet(5, 40)])
        send_windows([window], channel, log, now_micros=window.end_ts_micros)
        unpack = transport_module.unpack_windows

        def lone_only(manifests, payloads):
            assert len(manifests) == 1  # a group would fail the test
            return unpack(manifests, payloads)

        monkeypatch.setattr(transport_module, "unpack_windows", lone_only)
        receiver = WindowReceiver(channel, log)
        (block,) = iter(receiver.receive_block, None)
        assert (block.seqs.tolist(), block.starts.tolist(), block.t_received.tolist(), block.cuts.tolist()) == (
            [0], [0], [10 * SECOND], [0, 1])
        assert records_of(block.packets) == records_of(window.packets)


class TestTwinLag:
    """A window's twin lag, replay completion minus window start, is the
    window length T plus the delay past its end."""

    def _lag(self, T: int, latency: int) -> int:
        log, channel = SyncLog(), InProcessChannel(ChannelSpec(latency_us=latency))
        window = window_of(0, [make_packet(T // 2)], T=T)
        send_windows([window], channel, log, now_micros=window.end_ts_micros)
        ReplayEngine(ReplayPlan(), log).replay_block(WindowReceiver(channel, log).receive_block())
        (entry,) = log.entries()
        return entry.t_replayed - entry.t_window_start

    def test_lag_is_window_length_plus_delay(self):
        # T = 120 s, replayed 2 s after the window end -> 122 s.
        assert self._lag(120 * SECOND, 2 * SECOND) == 122 * SECOND

    def test_zero_delay_lag_is_exactly_t(self):
        assert self._lag(120 * SECOND, 0) == 120 * SECOND

    def test_fractional_delay(self):
        assert self._lag(10 * SECOND, 900_000) == 10_900_000


class TestSyncLog:
    def test_only_record_sent_opens_an_entry(self):
        log = SyncLog()
        for fill_in in (lambda: log.record_received(0, SECOND, 0, SECOND),
                        lambda: log.record_received(np.array([0]), np.array([SECOND]), np.array([0]),
                                                    np.array([SECOND])),
                        lambda: log.record_replayed(0, SECOND),
                        lambda: log.record_replayed(np.array([0]), np.array([SECOND])),
                        lambda: log.mark_lost(0),
                        lambda: log.mark_lost(np.array([0]))):
            with pytest.raises(ForeignWindowError):
                fill_in()
        assert log.entries() == []


class TestSyncLogArrayForms:
    def _log(self):
        log = SyncLog()
        for seq in range(4):
            log.record_sent(seq, seq * SECOND, (seq + 1) * SECOND, (seq + 1) * SECOND)
        return log

    @pytest.mark.parametrize("seqs, starts, message", [
        ([0, 1, 7], [0, SECOND, 7 * SECOND], "window 7: was never sent in this run"),
        ([0, 2], [0, 2 * SECOND + 1], "window 2: arrived as [2000001, 3000001), sent as [2000000, 3000000)"),
        (2, 2 * SECOND + 1, "window 2: arrived as [2000001, 3000001), sent as [2000000, 3000000)"),
    ], ids=["unsent", "other-bounds", "one-seq"])
    def test_a_foreign_window_records_nothing_of_its_call(self, seqs, starts, message):
        log = self._log()
        before = log.entries()
        if isinstance(seqs, list):
            seqs, starts = np.array(seqs), np.array(starts)
        with pytest.raises(ForeignWindowError) as err:
            log.record_received(seqs, starts + 2 * SECOND, starts, starts + SECOND, holes_from=0)
        assert str(err.value) == message
        with pytest.raises(ForeignWindowError):
            log.record_replayed(np.array([0, 9]), np.array([5, 6]))
        assert log.entries() == before

    @pytest.mark.parametrize("seqs, message", [
        (5, "window 5 sent out of order: the next seq to send is 4"),
        (9, "window 9 sent out of order: the next seq to send is 4"),
        (3, "window 3 sent out of order: the next seq to send is 4"),
        (0, "window 0 sent out of order: the next seq to send is 4"),
        (-1, "window -1 sent out of order: the next seq to send is 4"),
        ([4, 5, 7], "window 7 sent out of order: the next seq to send is 6"),
        ([4, 5, 5, 6], "window 5 sent out of order: the next seq to send is 6"),
        ([5, 6], "window 5 sent out of order: the next seq to send is 4"),
    ], ids=["skipped", "far-ahead", "resent", "resent-first", "negative", "gap", "repeat", "wrong-first"])
    def test_windows_are_sent_in_seq_order_from_0(self, seqs, message):
        log = self._log()
        log.record_received(1, 5 * SECOND, SECOND, 2 * SECOND, holes_from=0)
        before = log.entries()
        seqs = np.array(seqs) if isinstance(seqs, list) else seqs
        with pytest.raises(ValueError) as err:
            log.record_sent(seqs, seqs * SECOND, (seqs + 1) * SECOND, (seqs + 1) * SECOND)
        assert str(err.value) == message
        assert log.entries() == before
        log.record_sent(4, 4 * SECOND, 5 * SECOND, 5 * SECOND)
        assert [e.seq for e in log.entries()] == [0, 1, 2, 3, 4]

    def test_a_run_of_seqs_past_the_first_rows_is_sent_at_once(self):
        """One call opens seqs 4-199, across the log's first 64 rows and
        two doublings, as one call per seq does."""
        log = self._log()
        seqs = np.arange(4, 200)
        log.record_sent(seqs, seqs * SECOND, (seqs + 1) * SECOND, 300 * SECOND)
        assert [(e.seq, e.t_window_start, e.t_window_end, e.t_sent, e.lost) for e in log.entries()] == [
            (seq, seq * SECOND, (seq + 1) * SECOND, (seq + 1 if seq < 4 else 300) * SECOND, False)
            for seq in range(200)]

    def test_one_array_call_per_event_records_what_one_call_per_seq_records(self):
        arrays, alone = SyncLog(), SyncLog()
        seqs, lost = np.arange(150), np.array([0, 63, 64, 65, 149])
        arrays.record_sent(seqs, seqs * SECOND, (seqs + 1) * SECOND, (seqs + 2) * SECOND)
        arrays.mark_lost(lost)
        for seq in seqs.tolist():
            alone.record_sent(seq, seq * SECOND, (seq + 1) * SECOND, (seq + 2) * SECOND)
        for seq in lost.tolist():
            alone.mark_lost(seq)
        assert [e.seq for e in alone.entries() if e.lost] == lost.tolist()
        assert arrays.entries() == alone.entries()
        assert arrays.to_csv_bytes() == alone.to_csv_bytes()

    def test_one_array_call_records_what_one_call_per_seq_records(self):
        arrays, alone = self._log(), self._log()
        seqs = np.array([1, 3])
        arrays.record_received(seqs, np.array([5 * SECOND, 6 * SECOND]), seqs * SECOND, (seqs + 1) * SECOND,
                               holes_from=0)
        arrays.record_replayed(seqs, np.array([7 * SECOND, 8 * SECOND]))
        holes_from = 0
        for seq, received, replayed in ((1, 5, 7), (3, 6, 8)):
            alone.record_received(seq, received * SECOND, seq * SECOND, (seq + 1) * SECOND, holes_from=holes_from)
            alone.record_replayed(seq, replayed * SECOND)
            holes_from = seq + 1
        assert [e.lost for e in alone.entries()] == [True, False, True, False]
        assert arrays.entries() == alone.entries()
        assert arrays.to_csv_bytes() == alone.to_csv_bytes()


class TestSyncLogCsv:
    @pytest.mark.parametrize("slice_rows", [1, 3, 4096])
    def test_csv_is_the_entries_row_by_row(self, monkeypatch, slice_rows):
        # Formatted a slice of rows at a time, in any slices, to the same bytes.
        monkeypatch.setattr(transport_module, "_CSV_SLICE_ROWS", slice_rows)
        log = SyncLog()
        for seq in range(4):
            log.record_sent(seq, seq * SECOND, (seq + 1) * SECOND, (seq + 1) * SECOND)
        log.record_received(0, 2 * SECOND, 0, SECOND)
        log.record_replayed(0, 3 * SECOND)
        log.record_received(1, 3 * SECOND, SECOND, 2 * SECOND)
        log.mark_lost(1)
        log.mark_lost(2)

        def cell(value):
            return "" if value is None else str(value)

        rows = [",".join([str(e.seq), str(e.t_window_start), str(e.t_window_end), cell(e.t_sent),
                          cell(e.t_received), cell(e.t_replayed), str(int(e.lost))]) for e in log.entries()]
        header = "seq,t_window_start,t_window_end,t_sent,t_received,t_replayed,lost"
        assert log.to_csv_bytes().decode() == "\n".join([header, *rows]) + "\n"
        assert rows[3] == "3,3000000,4000000,4000000,,,0"

    def test_csv_has_header_and_one_row_per_window(self):
        log = SyncLog()
        log.record_sent(0, 0, SECOND, SECOND)
        log.record_sent(1, SECOND, 2 * SECOND, 2 * SECOND)
        log.mark_lost(1)
        text = log.to_csv_bytes().decode()
        lines = text.strip().split("\n")
        assert lines[0] == "seq,t_window_start,t_window_end,t_sent,t_received,t_replayed,lost"
        assert len(lines) == 3


class TestDirectoryExchange:
    def test_files_and_ordering(self, tmp_path):
        log = SyncLog()
        spec = ChannelSpec(kind="directory-exchange")
        sender = DirectoryExchangeChannel(spec, tmp_path, ManualClock())
        receiver_channel = DirectoryExchangeChannel(spec, tmp_path, ManualClock())
        windows = [window_of(s, [make_packet(s * 10 * SECOND + 5, 33)]) for s in range(3)]
        for w in windows:
            send_windows([w], sender, log, now_micros=w.end_ts_micros)
        sender.close_send()
        assert (tmp_path / "window_0.pcap").exists()
        assert (tmp_path / "window_2.manifest.json").exists()

        receiver = WindowReceiver(receiver_channel, log)
        got = []
        while (item := receiver.receive()) is not None:
            got.append(item)
        assert [manifest.seq for _, manifest, _ in got] == [0, 1, 2]
        assert records_of(got[0][0]) == records_of(windows[0].packets)

    def test_manifest_file_is_valid_json_with_digest(self, tmp_path):
        log = SyncLog()
        sender = DirectoryExchangeChannel(ChannelSpec(kind="directory-exchange"), tmp_path, ManualClock())
        send_windows([window_of(0, [make_packet(4, 10)])], sender, log, now_micros=10 * SECOND)
        doc = json.loads((tmp_path / "window_0.manifest.json").read_text())
        payload = (tmp_path / "window_0.pcap").read_bytes()
        import hashlib

        assert doc["content_digest"] == hashlib.sha256(payload).hexdigest()
        assert doc["byte_length"] == len(payload)

    def test_an_empty_exchange_is_polled_on_the_run_clock(self, tmp_path, monkeypatch):
        """Each poll that finds no window sleeps POLL_MICROS on the channel's
        clock, which a real-time run reads in capture time, and none sleeps
        on the wall clock: at speed s a poll costs 1/s of its wall time."""
        spec = ChannelSpec(kind="directory-exchange")
        sender = DirectoryExchangeChannel(spec, tmp_path, ManualClock())
        sleeps = []

        class PublishingClock(ManualClock):
            """Records each sleep; the sender publishes one window and ends
            the stream during the third."""

            def sleep_micros(self, duration_micros):
                super().sleep_micros(duration_micros)
                sleeps.append(duration_micros)
                if len(sleeps) == 3:
                    sender.send(*pack_window(window_of(0)), now_micros=0)
                    sender.close_send()

        def wall_sleep(seconds):
            raise AssertionError(f"the exchange slept {seconds} s of wall time")

        clock = PublishingClock(start_micros=SECOND)
        receiver = DirectoryExchangeChannel(spec, tmp_path, clock)
        monkeypatch.setattr(transport_module.time, "sleep", wall_sleep)
        manifest, _, arrival = receiver.receive()
        assert receiver.receive() is None
        poll = DirectoryExchangeChannel.POLL_MICROS
        assert sleeps == [poll] * 3
        assert (manifest.seq, arrival) == (0, SECOND + 3 * poll)

    def test_holes_are_skipped_in_order(self, tmp_path):
        sender = DirectoryExchangeChannel(ChannelSpec(kind="directory-exchange"), tmp_path, ManualClock())
        receiver = DirectoryExchangeChannel(ChannelSpec(kind="directory-exchange"), tmp_path, ManualClock())
        for seq in (0, 3, 4, 9):
            sender.send(*pack_window(window_of(seq)), now_micros=0)
        got = [receiver.receive(timeout=0)[0].seq for _ in range(4)]
        with pytest.raises(TimeoutError):
            receiver.receive(timeout=0)
        sender.send(*pack_window(window_of(12)), now_micros=0)
        sender.close_send()
        got.append(receiver.receive(timeout=0)[0].seq)
        assert got == [0, 3, 4, 9, 12]
        assert receiver.receive(timeout=0) is None

    @staticmethod
    def _counted(monkeypatch) -> dict:
        """Counts of directory listings (Path.glob and Path.iterdir) and of
        file lookups (Path.exists and Path.read_bytes) from now on."""
        calls = {"listings": 0, "lookups": 0}
        for name, key in (("glob", "listings"), ("iterdir", "listings"),
                          ("exists", "lookups"), ("read_bytes", "lookups")):
            def counted(path, *args, _method=getattr(Path, name), _key=key, **kwargs):
                calls[_key] += 1
                return _method(path, *args, **kwargs)

            monkeypatch.setattr(Path, name, counted)
        return calls

    def test_receiving_a_run_costs_the_same_per_window_at_any_length(self, tmp_path, monkeypatch):
        """Every fifth window is dropped, so holes are skipped throughout:
        the directory is never listed, and the lookups per window do not
        grow with the run."""
        manifest, payload = pack_window(window_of(0, [make_packet(5, 40)]))
        calls = self._counted(monkeypatch)

        def receive_calls(n: int) -> dict:
            spec, directory = ChannelSpec(kind="directory-exchange"), tmp_path / str(n)
            sender = DirectoryExchangeChannel(spec, directory, ManualClock())
            receiver = DirectoryExchangeChannel(spec, directory, ManualClock())
            for seq in range(n):
                if seq % 5 != 2:
                    sender.send(manifest._replace(seq=seq), payload, now_micros=0)
            sender.close_send()
            before = dict(calls)
            received = 0
            while receiver.receive(timeout=0) is not None:
                received += 1
            assert received == n - n // 5
            return {key: calls[key] - before[key] for key in calls}

        short, long = receive_calls(40), receive_calls(400)
        assert short["listings"] == long["listings"] == 0
        assert 0 < long["lookups"] <= 10 * short["lookups"]

    @pytest.mark.parametrize("name", ["end.marker", "window_3.pcap"])
    def test_a_directory_holding_an_earlier_runs_file_is_refused(self, tmp_path, name):
        (tmp_path / name).write_bytes(b"3")
        with pytest.raises(TwinError, match=f"holds {name} from an earlier run"):
            DirectoryExchangeChannel(ChannelSpec(kind="directory-exchange"), tmp_path, ManualClock())

    def test_a_seq_past_int64_is_a_schema_error(self, tmp_path):
        channel = DirectoryExchangeChannel(ChannelSpec(kind="directory-exchange"), tmp_path, ManualClock())
        receiver = WindowReceiver(channel, SyncLog())
        manifest, payload = pack_window(window_of(0))
        (tmp_path / "window_0.pcap").write_bytes(payload)
        (tmp_path / "window_0.manifest.json").write_bytes(manifest._replace(seq=2**70).to_json())
        with pytest.raises(SchemaError) as err:
            receiver.receive(block=False)
        assert err.value.field == "seq"

    @settings(max_examples=40, deadline=None)
    @given(st.sets(st.integers(0, 39)))
    def test_the_files_are_named_by_publication_order(self, sent):
        """Whatever seqs of 0-39 are sent, the receiver delivers exactly
        those in order, the log marks the others before the last one lost,
        the directory holds one dense pair of files per window sent, and
        nothing lists it after the channels are made."""
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            directory, spec, log = Path(tmp), ChannelSpec(kind="directory-exchange"), SyncLog()
            sender = DirectoryExchangeChannel(spec, directory, ManualClock())
            receiver_channel = DirectoryExchangeChannel(spec, directory, ManualClock())
            calls = self._counted(patch)
            for seq in range(40):
                manifest, payload = _packed(seq)
                log.record_sent(seq, manifest.start_ts_micros, manifest.end_ts_micros, manifest.end_ts_micros)
                if seq in sent:
                    sender.send(manifest, payload, now_micros=manifest.end_ts_micros)
            sender.close_send()
            receiver = WindowReceiver(receiver_channel, log)
            got = []
            while (item := receiver.receive()) is not None:
                got.append(item[1].seq)
            assert calls["listings"] == 0
            names = sorted(path.name for path in directory.iterdir())
        assert got == sorted(sent)
        # Windows after the last one delivered are the sender's to mark.
        assert log.columns().lost.tolist() == [seq not in sent and seq < max(sent, default=-1) for seq in range(40)]
        pairs = [f"window_{n}{suffix}" for n in range(len(sent)) for suffix in (".manifest.json", ".pcap")]
        assert names == sorted(["end.marker", *pairs])

    def test_an_idle_poll_costs_the_same_at_any_length(self, tmp_path, monkeypatch):
        """A receiver that has caught up learns that nothing is new without
        listing the windows published before."""
        manifest, payload = pack_window(window_of(0, [make_packet(5, 40)]))
        calls = self._counted(monkeypatch)

        def idle_poll_calls(n: int) -> dict:
            spec, directory = ChannelSpec(kind="directory-exchange"), tmp_path / str(n)
            sender = DirectoryExchangeChannel(spec, directory, ManualClock())
            receiver = DirectoryExchangeChannel(spec, directory, ManualClock())
            for seq in range(n):
                sender.send(manifest._replace(seq=seq), payload, now_micros=0)
                receiver.receive(timeout=0)
            before = dict(calls)
            with pytest.raises(TimeoutError):
                receiver.receive(timeout=0)
            return {key: calls[key] - before[key] for key in calls}

        short, long = idle_poll_calls(40), idle_poll_calls(400)
        assert long == short and long["listings"] == 0


class TestTcpChannel:
    def test_round_trip_over_localhost(self):
        log = SyncLog()
        receiver_channel = TcpReceiverChannel("127.0.0.1", 0, ManualClock())
        windows = [window_of(s, [make_packet(s * 10 * SECOND + 1, 25)]) for s in range(3)]

        def send_all():
            sender = TcpSenderChannel(ChannelSpec(kind="tcp"), "127.0.0.1", receiver_channel.port)
            for w in windows:
                send_windows([w], sender, log, now_micros=w.end_ts_micros)
            sender.close_send()

        thread = threading.Thread(target=send_all)
        thread.start()
        receiver = WindowReceiver(receiver_channel, log)
        got = []
        while (item := receiver.receive()) is not None:
            got.append(item[1])
        thread.join()
        receiver_channel.close()
        assert [manifest.seq for manifest in got] == [0, 1, 2]

    def test_dropped_window_becomes_a_recorded_hole(self):
        log = SyncLog()
        receiver_channel = TcpReceiverChannel("127.0.0.1", 0, ManualClock())
        windows = [window_of(s) for s in range(3)]

        def send_with_gap():
            sender = TcpSenderChannel(ChannelSpec(kind="tcp"), "127.0.0.1", receiver_channel.port)
            for w in windows:
                if w.seq == 1:
                    log.record_sent(w.seq, w.start_ts_micros, w.end_ts_micros, w.end_ts_micros)
                    continue  # simulated sender-side drop
                send_windows([w], sender, log, now_micros=w.end_ts_micros)
            sender.close_send()

        thread = threading.Thread(target=send_with_gap)
        thread.start()
        receiver = WindowReceiver(receiver_channel, log)
        got = []
        while (item := receiver.receive()) is not None:
            got.append(item[1].seq)
        thread.join()
        receiver_channel.close()
        assert got == [0, 2]
        assert log.entries()[1].lost

    @staticmethod
    def _receive_after_sending(data: bytes) -> TwinError:
        """The error a receiver raises on a peer that sends ``data`` and
        closes; a receive that waits 5 s for more fails the test instead."""
        receiver = TcpReceiverChannel("127.0.0.1", 0, ManualClock())
        try:
            with socket.create_connection(("127.0.0.1", receiver.port), timeout=5) as sock:
                sock.sendall(data)
            start = time.monotonic()
            with pytest.raises(TwinError) as err:
                receiver.receive(timeout=5)
            assert time.monotonic() - start < 5
        finally:
            receiver.close()
        return err.value

    @pytest.mark.parametrize("cut", ["inside-header", "after-header", "inside-manifest", "inside-payload",
                                     "inside-4-GiB-payload"])
    def test_a_torn_frame_is_named(self, cut):
        manifest, payload = pack_window(window_of(0, [make_packet(2, 40)]))
        blob = manifest.to_json()
        head = len(blob).to_bytes(4, "big") + blob
        frame = {
            "inside-header": head[:2],
            "after-header": head[:4],
            "inside-manifest": head[:4 + len(blob) // 2],
            "inside-payload": head + len(payload).to_bytes(4, "big") + payload[:len(payload) // 2],
            # Read in bounded chunks, a garbled length costs only what arrives.
            "inside-4-GiB-payload": head + (2**32 - 1).to_bytes(4, "big") + payload,
        }[cut]
        assert str(self._receive_after_sending(frame)) == "connection closed mid-frame"

    def test_a_timeout_mid_frame_keeps_the_bytes_received(self):
        frames = []
        for seq in (0, 1):
            manifest, payload = pack_window(window_of(seq, [make_packet(seq * 10 * SECOND + 2, 40)]))
            blob = manifest.to_json()
            frames.append(len(blob).to_bytes(4, "big") + blob + len(payload).to_bytes(4, "big") + payload)
        receiver = TcpReceiverChannel("127.0.0.1", 0, ManualClock())
        try:
            with socket.create_connection(("127.0.0.1", receiver.port), timeout=5) as sock:
                sock.sendall(frames[0][:10])
                with pytest.raises(TimeoutError):
                    receiver.receive(timeout=0.2)
                sock.sendall(frames[0][10:] + frames[1])
                got = [receiver.receive(timeout=5)[0].seq for _ in frames]
        finally:
            receiver.close()
        assert got == [0, 1]

    @pytest.mark.parametrize("length", [MAX_MANIFEST_BYTES + 1, 2**32 - 1])
    def test_a_manifest_length_over_the_bound_is_refused(self, length):
        error = self._receive_after_sending(length.to_bytes(4, "big") + b"{")
        assert str(error) == f"manifest length {length} exceeds the {MAX_MANIFEST_BYTES}-byte bound"

    def test_wire_framing_is_length_prefixed(self):
        # Decode the raw frames with a bare socket to pin the wire format:
        # 4-byte big-endian manifest length, manifest JSON, 4-byte
        # big-endian payload length, pcap bytes.
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        window = window_of(0, [make_packet(2, 10)])
        manifest, payload = pack_window(window)

        def send_one():
            sender = TcpSenderChannel(ChannelSpec(kind="tcp"), "127.0.0.1", port)
            sender.send(manifest, payload, 0)
            sender.close_send()

        thread = threading.Thread(target=send_one)
        thread.start()
        conn, _ = listener.accept()
        raw = b""
        while chunk := conn.recv(65536):
            raw += chunk
        thread.join()
        conn.close()
        listener.close()

        mlen = int.from_bytes(raw[0:4], "big")
        manifest_doc = json.loads(raw[4:4 + mlen])
        assert manifest_doc["seq"] == 0
        plen = int.from_bytes(raw[4 + mlen:8 + mlen], "big")
        wire_payload = raw[8 + mlen:8 + mlen + plen]
        assert wire_payload == payload
        assert records_of(read_pcap(wire_payload)[1]) == records_of(window.packets)

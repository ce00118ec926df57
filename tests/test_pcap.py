import struct
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twinsync.errors import BadMagicError, PcapError, PcapWriteError, TimestampRegressionError, TruncatedRecordError
from twinsync.pcap import (
    LINKTYPE_RAW_IP,
    read_pcap,
    segment_stream,
    write_pcap,
)

from conftest import make_packet, packet_lists
from reference import batch_of, records_of

SECOND = 1_000_000


class TestWrite:
    @pytest.mark.parametrize("linktype", [LINKTYPE_RAW_IP, 0x7F000065])
    def test_empty_capture_is_24_bytes_with_linktype(self, linktype):
        # The high byte of the linktype is the capture's last byte.
        data = write_pcap(linktype, batch_of([]))
        assert data == struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, linktype)

    def test_single_packet_record_header(self):
        packet = make_packet(1 * SECOND, size=60)
        data = write_pcap(LINKTYPE_RAW_IP, batch_of([packet]))
        assert struct.unpack_from("<IIII", data, 24) == (1, 0, 60, 60)
        assert data[40:100] == packet.payload

    def test_snaplen_violation_names_the_packet(self):
        packets = [make_packet(0, size=10), make_packet(1, size=65_536)]
        with pytest.raises(PcapWriteError, match="captured_len 65536 exceeds snaplen 65535") as err:
            write_pcap(LINKTYPE_RAW_IP, batch_of(packets))
        assert err.value.index == 1

    def test_writer_is_deterministic(self):
        packets = batch_of([make_packet(5, size=9), make_packet(11, size=44)])
        assert write_pcap(1, packets) == write_pcap(1, packets)

    def test_records_are_written_once_into_the_bytes_returned(self):
        """A capture of a few MB peaks at about its own size: no scratch copy
        of the capture and no copy at the end. numpy and bytes both report
        their buffers to tracemalloc, so the peak is exact."""
        packets = batch_of([make_packet(i, size=1000) for i in range(4000)])
        tracemalloc.start()
        try:
            data = write_pcap(LINKTYPE_RAW_IP, packets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert type(data) is bytes and len(data) > 4_000_000
        assert peak < 1.25 * len(data), (peak, len(data))


class TestRead:
    def test_empty_file_round_trip(self):
        linktype, batch = read_pcap(write_pcap(LINKTYPE_RAW_IP, batch_of([])))
        assert linktype == LINKTYPE_RAW_IP
        assert records_of(batch) == []

    def test_three_packet_round_trip_field_for_field(self):
        packets = [make_packet(10, 30), make_packet(2_000_000, 40), make_packet(2_000_001, 50)]
        linktype, batch = read_pcap(write_pcap(1, batch_of(packets)))
        assert linktype == 1
        assert records_of(batch) == packets

    def test_big_endian_file_parses(self):
        header = struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101)
        record = struct.pack(">IIII", 3, 250, 4, 4) + b"abcd"
        linktype, batch = read_pcap(header + record)
        assert linktype == 101
        assert records_of(batch)[0].ts_micros == 3 * SECOND + 250
        assert records_of(batch)[0].payload == b"abcd"

    def test_nanosecond_magic_truncates_to_micros(self):
        header = struct.pack("<IHHiIII", 0xA1B23C4D, 2, 4, 0, 0, 65535, 1)
        record = struct.pack("<IIII", 1, 1_999, 2, 2) + b"xy"
        _, batch = read_pcap(header + record)
        assert batch.ts_micros.tolist() == [1 * SECOND + 1]  # 1999 ns -> 1 us

    def test_big_endian_nanosecond_file(self):
        header = struct.pack(">IHHiIII", 0xA1B23C4D, 2, 4, 0, 0, 65535, 1)
        record = struct.pack(">IIII", 0, 123_456, 1, 1) + b"z"
        _, batch = read_pcap(header + record)
        assert batch.ts_micros.tolist() == [123]

    def test_bad_magic(self):
        with pytest.raises(BadMagicError):
            read_pcap(b"\x00" * 24)

    def test_truncated_header(self):
        with pytest.raises(TruncatedRecordError) as err:
            read_pcap(b"\xd4\xc3\xb2\xa1")
        assert err.value.offset == 4

    def test_cut_mid_record_reports_offset(self):
        data = write_pcap(1, batch_of([make_packet(0, 50)]))
        with pytest.raises(TruncatedRecordError) as err:
            read_pcap(data[:-10])
        assert err.value.offset == 24

    @pytest.mark.parametrize("order", ["<", ">"], ids=["little-endian", "big-endian"])
    @pytest.mark.parametrize("magic, limit", [(0xA1B2C3D4, 10**6), (0xA1B23C4D, 10**9)], ids=["usec", "nsec"])
    def test_sub_second_field_out_of_range_names_the_record(self, order, magic, limit):
        header = struct.pack(order + "IHHiIII", magic, 2, 4, 0, 0, 65535, 1)
        good = struct.pack(order + "IIII", 1, limit - 1, 1, 1) + b"a"
        bad = struct.pack(order + "IIII", 1, limit, 1, 1) + b"b"
        assert len(read_pcap(header + good)[1]) == 1
        with pytest.raises(PcapError, match="sub-second field .* at byte offset 41$"):
            read_pcap(header + good + bad)

    def test_incl_len_exceeding_orig_len_rejected(self):
        header = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
        record = struct.pack("<IIII", 0, 0, 4, 2) + b"abcd"
        with pytest.raises(PcapError):
            read_pcap(header + record)


@given(packet_lists())
def test_read_write_round_trip_is_identity(packets):
    linktype, batch = read_pcap(write_pcap(LINKTYPE_RAW_IP, batch_of(packets)))
    assert records_of(batch) == packets


@given(packet_lists())
def test_write_read_write_is_byte_exact(packets):
    first = write_pcap(LINKTYPE_RAW_IP, batch_of(packets))
    _, batch = read_pcap(first)
    assert write_pcap(LINKTYPE_RAW_IP, batch) == first


class TestSegmentation:
    def test_spec_window_assignment(self):
        # Interval-membership oracle: window index = (ts - origin) // T.
        packets = [make_packet(t * SECOND) for t in (1, 119, 121)]
        T = 120 * SECOND
        for p in packets:
            assert p.ts_micros // T in (0, 1)
        windows = list(segment_stream(batch_of(packets), T, 0, span_end_micros=2 * T))
        assert [w.seq for w in windows] == [0, 1]
        assert windows[0].packets.ts_micros.tolist() == [1 * SECOND, 119 * SECOND]
        assert windows[1].packets.ts_micros.tolist() == [121 * SECOND]

    def test_silent_span_emits_empty_windows(self):
        windows = list(segment_stream(batch_of([]), 120 * SECOND, 0, span_end_micros=240 * SECOND))
        assert [w.seq for w in windows] == [0, 1]
        assert all(len(w.packets) == 0 for w in windows)
        assert all(w.end_ts_micros - w.start_ts_micros == 120 * SECOND for w in windows)

    def test_boundary_packet_goes_to_the_later_window(self):
        packets = [make_packet(0), make_packet(2 * SECOND)]
        windows = list(segment_stream(batch_of(packets), 2 * SECOND, 0, span_end_micros=4 * SECOND))
        assert len(windows[0].packets) == 1
        assert len(windows[1].packets) == 1
        assert windows[1].packets.ts_micros.tolist() == [2 * SECOND]

    def test_timestamp_regression_reports_index(self):
        packets = [make_packet(10), make_packet(5)]
        with pytest.raises(TimestampRegressionError) as err:
            list(segment_stream(batch_of(packets), SECOND, 0, span_end_micros=SECOND))
        assert err.value.index == 1

    def test_packet_before_origin_rejected(self):
        with pytest.raises(TimestampRegressionError):
            list(segment_stream(batch_of([make_packet(1)]), SECOND, 10, span_end_micros=SECOND))

    def test_final_window_may_be_short(self):
        windows = list(segment_stream(batch_of([make_packet(0)]), 2 * SECOND, 0, span_end_micros=3 * SECOND))
        assert [w.end_ts_micros - w.start_ts_micros for w in windows] == [2 * SECOND, 1 * SECOND]

    def test_packet_beyond_span_rejected(self):
        with pytest.raises(TimestampRegressionError):
            list(segment_stream(batch_of([make_packet(5 * SECOND)]), SECOND, 0, span_end_micros=2 * SECOND))

    @given(packet_lists(), st.integers(min_value=SECOND // 20, max_value=3 * SECOND))
    def test_conservation_and_gapless_seqs(self, packets, window):
        # Every drawn timestamp is at most 4 s.
        windows = list(segment_stream(batch_of(packets), window, 0, span_end_micros=4 * SECOND + 1))
        assert sum(len(w.packets) for w in windows) == len(packets)
        assert [w.seq for w in windows] == list(range(len(windows)))
        for w in windows:
            for ts in w.packets.ts_micros.tolist():
                assert w.start_ts_micros <= ts < w.end_ts_micros

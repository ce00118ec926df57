import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twinsync.errors import DescriptorValidationError, JsonParseError, SchemaError
from twinsync.model import (
    LinkProfile,
    SliceSpec,
    TwinDescriptor,
    descriptor_from_json,
    descriptor_to_json,
    validate_descriptor,
)
from twinsync.pcap import PacketBatch

from reference import PacketRecord, assert_well_formed, batch_of, records_of


def make_descriptor(slices, **overrides) -> TwinDescriptor:
    kwargs = dict(
        network_name="net",
        plmn="00101",
        ue_count=2,
        slices=tuple(slices),
        window_seconds=120.0,
    )
    kwargs.update(overrides)
    return TwinDescriptor(**kwargs)


def slice_spec(dnn="internet", subnet="10.45.0.0/16", gateway="10.45.0.1", qci=9) -> SliceSpec:
    return SliceSpec(dnn, subnet, gateway, 10_000_000, 10_000_000, qci)


class TestValidateDescriptor:
    def test_duplicate_dnn_is_flagged(self):
        d = make_descriptor([
            slice_spec("internet"),
            slice_spec("internet", "10.46.0.0/16", "10.46.0.1"),
        ])
        rules = [v.rule for v in validate_descriptor(d)]
        assert rules == ["duplicate-dnn"]

    def test_wellformed_two_slice_descriptor_has_no_violations(self):
        d = make_descriptor([
            slice_spec("internet", "10.45.0.0/16", "10.45.0.1", qci=9),
            slice_spec("mec", "10.46.0.0/16", "10.46.0.1", qci=7),
        ])
        assert validate_descriptor(d) == []

    def test_qci_out_of_range(self):
        d = make_descriptor([slice_spec(qci=12)])
        violations = validate_descriptor(d)
        assert [v.rule for v in violations] == ["qci-out-of-range"]
        assert violations[0].field == "slices[0].qci"

    def test_overlapping_subnets(self):
        d = make_descriptor([
            slice_spec("a", "10.45.0.0/16", "10.45.0.1"),
            slice_spec("b", "10.45.128.0/17", "10.45.128.1"),
        ])
        assert "subnet-overlap" in {v.rule for v in validate_descriptor(d)}

    def test_gateway_outside_subnet(self):
        d = make_descriptor([slice_spec(gateway="10.99.0.1")])
        assert {v.rule for v in validate_descriptor(d)} == {"gateway-outside-subnet"}

    def test_bad_plmn_and_negative_window(self):
        d = make_descriptor([slice_spec()], plmn="12", window_seconds=-1.0)
        rules = {v.rule for v in validate_descriptor(d)}
        assert {"plmn-format", "window-not-positive"} <= rules

    @pytest.mark.parametrize("seconds", [4e-7, 0.0, float("nan"), float("inf")])
    def test_a_window_the_loop_cannot_count_is_refused(self, seconds):
        """A window shorter than half a microsecond rounds to 0 us."""
        doc = json.loads(descriptor_to_json(make_descriptor([slice_spec()])))
        doc["window_seconds"] = seconds
        d = descriptor_from_json(json.dumps(doc))
        assert [v.rule for v in validate_descriptor(d)] == ["window-not-positive"]

    def test_a_one_microsecond_window_is_valid(self):
        assert validate_descriptor(make_descriptor([slice_spec()], window_seconds=1e-6)) == []

    def test_overlap_detection_is_order_independent(self):
        slices = [
            slice_spec("a", "10.45.0.0/16", "10.45.0.1"),
            slice_spec("b", "10.46.0.0/15", "10.46.0.1"),
            slice_spec("c", "10.47.0.0/16", "10.47.0.1"),
        ]
        baseline = validate_descriptor(make_descriptor(slices))
        flipped = validate_descriptor(make_descriptor(list(reversed(slices))))
        assert len(baseline) == len(flipped)
        assert {v.rule for v in baseline} == {v.rule for v in flipped}


class TestJsonRoundTrip:
    def test_minimal_descriptor_has_schema_keys(self):
        raw = descriptor_to_json(make_descriptor([slice_spec()]))
        doc = json.loads(raw)
        assert {"network_name", "slices", "window_seconds"} <= doc.keys()

    def test_round_trip_identity(self, descriptor):
        assert descriptor_from_json(descriptor_to_json(descriptor)) == descriptor

    def test_missing_slices_names_the_field(self):
        doc = json.loads(descriptor_to_json(make_descriptor([slice_spec()])))
        del doc["slices"]
        with pytest.raises(SchemaError) as err:
            descriptor_from_json(json.dumps(doc))
        assert err.value.field == "slices"

    def test_ill_typed_field_names_the_field(self):
        doc = json.loads(descriptor_to_json(make_descriptor([slice_spec()])))
        doc["ue_count"] = "two"
        with pytest.raises(SchemaError) as err:
            descriptor_from_json(json.dumps(doc))
        assert err.value.field == "ue_count"

    def test_malformed_json_reports_line_and_column(self):
        with pytest.raises(JsonParseError) as err:
            descriptor_from_json(b'{\n  "network_name": }')
        assert err.value.line == 2
        assert err.value.column > 0

    def test_serializing_invalid_descriptor_raises(self):
        with pytest.raises(DescriptorValidationError):
            descriptor_to_json(make_descriptor([slice_spec(qci=0)]))


@st.composite
def descriptors(draw):
    octets = draw(st.lists(st.integers(min_value=0, max_value=250), min_size=0, max_size=5, unique=True))
    slices = tuple(
        SliceSpec(
            dnn=f"dnn{i}",
            subnet=f"10.{o}.0.0/16",
            gateway_ip=f"10.{o}.0.1",
            dl_bandwidth_bps=draw(st.integers(min_value=1, max_value=10**9)),
            ul_bandwidth_bps=draw(st.integers(min_value=1, max_value=10**9)),
            qci=draw(st.integers(min_value=1, max_value=9)),
        )
        for i, o in enumerate(octets)
    )
    return TwinDescriptor(
        network_name=draw(st.text(min_size=1, max_size=20)),
        plmn=draw(st.sampled_from(["00101", "99970", "310260"])),
        ue_count=draw(st.integers(min_value=0, max_value=64)),
        slices=slices,
        window_seconds=draw(st.floats(min_value=0.001, max_value=3600, allow_nan=False)),
        capture_interface=draw(st.sampled_from(["tun2", "tun0", "eth1"])),
        link_profile=LinkProfile(
            bandwidth_bps=draw(st.integers(min_value=1, max_value=10**9)),
            latency_us=draw(st.integers(min_value=0, max_value=10**6)),
            jitter_us=draw(st.integers(min_value=0, max_value=10**5)),
        ),
    )


@given(descriptors())
def test_json_round_trip_is_identity_on_valid_descriptors(d):
    assert validate_descriptor(d) == []
    assert descriptor_from_json(descriptor_to_json(d)) == d


def test_packet_record_invariants():
    with pytest.raises(ValueError):
        PacketRecord(0, 10, 5, b"\x00" * 10)
    with pytest.raises(ValueError):
        PacketRecord(0, 4, 10, b"\x00" * 3)
    record = PacketRecord(5, 3, 10, b"abc")
    assert record.captured_len == 3


class TestPacketBatch:
    RECORDS = [
        PacketRecord(5, 3, 10, b"abc"),
        PacketRecord(5, 0, 0, b""),
        PacketRecord(9, 2, 2, b"xy"),
    ]

    def columns(self, **overrides):
        cols = dict(ts_micros=np.array([5, 5, 9], dtype=np.int64), captured_len=np.array([3, 0, 2], dtype=np.uint32),
                    original_len=np.array([10, 0, 2], dtype=np.uint32),
                    payload=np.frombuffer(b"abcxy", dtype=np.uint8), offsets=np.array([0, 3, 3, 5], dtype=np.int64))
        cols.update(overrides)
        return cols

    def test_columns_and_records_describe_the_same_packets(self):
        batch = PacketBatch(**self.columns())
        assert records_of(batch) == self.RECORDS
        assert records_of(batch_of(self.RECORDS)) == self.RECORDS
        assert_well_formed(batch_of(self.RECORDS))
        assert len(batch) == 3

    def test_slices_are_views_and_equal_the_list_slices(self):
        batch = batch_of(self.RECORDS)
        for cut in (slice(1, None), slice(0, 2), slice(2, 1), slice(-1, None), slice(None, -1)):
            assert records_of(batch[cut]) == self.RECORDS[cut]
        view = batch[1:]
        assert np.shares_memory(view.ts_micros, batch.ts_micros) and view.payload is batch.payload
        for stepped in (slice(None, None, -1), slice(0, 3, 2)):
            with pytest.raises(ValueError, match="step 1 only"):
                batch[stepped]

    # The batch takes its columns as its producers made them; the tests hold
    # every producer to the rules of a batch with assert_well_formed, so
    # each broken rule must fail it.
    @pytest.mark.parametrize("field, value", [
        ("ts_micros", np.array([5, -1, 9], dtype=np.int64)),
        ("original_len", np.array([10, 0, 1], dtype=np.uint32)),
        ("original_len", np.array([10, 0, 2**32], dtype=np.int64)),
        ("captured_len", np.array([-1, 0, 2], dtype=np.int64)),
        ("ts_micros", np.array([5.0, 5.0, 9.0])),
        ("offsets", np.array([0, 2, 3, 5], dtype=np.int64)),
        ("offsets", np.array([0, 3, 3, 6], dtype=np.int64)),
        ("offsets", np.array([0, 3, 5], dtype=np.int64)),
    ], ids=["negative-ts", "captured-past-original", "original-past-32-bit", "negative-captured",
            "float-ts", "slot-short-of-captured", "slot-past-buffer", "offsets-short"])
    def test_a_batch_breaking_a_rule_is_not_well_formed(self, field, value):
        assert_well_formed(PacketBatch(**self.columns()))
        with pytest.raises(AssertionError):
            assert_well_formed(PacketBatch(**self.columns(**{field: value})))

    def test_shift_moves_every_timestamp_and_keeps_payloads(self):
        batch = batch_of(self.RECORDS)
        assert batch.shifted(0) is batch
        moved = records_of(batch.shifted(100))
        assert [r.ts_micros for r in moved] == [105, 105, 109]
        assert [r.payload for r in moved] == [r.payload for r in self.RECORDS]
        with pytest.raises(ValueError, match="packet 0"):
            batch.shifted(-6)

    def test_empty(self):
        assert records_of(PacketBatch.empty()) == []
        assert len(PacketBatch.empty()) == 0

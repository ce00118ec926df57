import pytest

from twinsync.emit import (
    AMF_FILE,
    NSSF_FILE,
    SMF_FILE,
    TOPOLOGY_FILE,
    emit_bundle,
    render_bundle,
)
from twinsync.metrics import state_consistency_index
from twinsync.model import LinkProfile, SliceSpec, TwinDescriptor

from reference import load_bundle


def one_slice_descriptor() -> TwinDescriptor:
    return TwinDescriptor(
        network_name="lab",
        plmn="00101",
        ue_count=2,
        slices=(SliceSpec("internet", "10.45.0.0/16", "10.45.0.1", 10_000_000, 10_000_000, 9),),
        window_seconds=120.0,
    )


class TestEmitBundle:
    def test_one_session_per_slice(self):
        bundle = emit_bundle(one_slice_descriptor())
        sessions = bundle.smf_doc["smf"]["sessions"]
        assert len(sessions) == 1
        assert sessions[0]["subnet"] == "10.45.0.0/16"
        assert sessions[0]["dnn"] == "internet"
        assert sessions[0]["gateway"] == "10.45.0.1"
        assert sessions[0]["qos_index"] == 9

    def test_sequential_sst_assignment(self, descriptor):
        bundle = emit_bundle(descriptor)
        slices = bundle.nssf_doc["nssf"]["slices"]
        assert [s["sst"] for s in slices] == [1, 2]
        assert [s["dnn"] for s in slices] == ["internet", "mec"]

    def test_amf_carries_plmn_and_ue_count(self, descriptor):
        bundle = emit_bundle(descriptor)
        assert bundle.amf_doc["amf"]["plmn"] == descriptor.plmn
        assert bundle.amf_doc["amf"]["ue_count"] == descriptor.ue_count

    def test_topology_has_four_hosts_with_fixed_roles(self, descriptor):
        topology = emit_bundle(descriptor).topology_doc
        assert len(topology["hosts"]) == 4
        assert {h["role"] for h in topology["hosts"]} == {"ran", "mec", "cloud-upf", "cloud-cp"}
        # Connected: every host has its link to the one switch.
        assert topology["switches"] == ["s1"]
        assert {(link["endpoint_a"], link["endpoint_b"]) for link in topology["links"]} == {
            (h["name"], "s1") for h in topology["hosts"]}

    def test_default_links_run_at_ten_megabits(self, descriptor):
        topology = emit_bundle(descriptor).topology_doc
        assert all(link["profile"]["bandwidth_bps"] == 10_000_000 for link in topology["links"])

    def test_link_profile_propagates(self):
        d = one_slice_descriptor()
        from dataclasses import replace

        d = replace(d, link_profile=LinkProfile(bandwidth_bps=50_000_000, latency_us=2000))
        topology = emit_bundle(d).topology_doc
        assert all(link["profile"]["latency_us"] == 2000 for link in topology["links"])

    def test_emit_is_deterministic_and_order_preserving(self, descriptor):
        first = emit_bundle(descriptor)
        second = emit_bundle(descriptor)
        assert first == second
        dnns = [s["dnn"] for s in first.smf_doc["smf"]["sessions"]]
        assert dnns == [s.dnn for s in descriptor.slices]

    def test_fresh_bundle_is_fully_consistent(self, descriptor):
        assert state_consistency_index(descriptor, emit_bundle(descriptor)) == 1.0


class TestRenderBundle:
    def test_writes_the_four_documented_files(self, tmp_path, descriptor):
        written = render_bundle(emit_bundle(descriptor), tmp_path)
        names = {p.name for p in written}
        assert names == {SMF_FILE, NSSF_FILE, AMF_FILE, TOPOLOGY_FILE}
        for p in written:
            assert p.exists()

    def test_round_trip_equality(self, tmp_path, descriptor):
        bundle = emit_bundle(descriptor)
        render_bundle(bundle, tmp_path)
        assert load_bundle(tmp_path) == bundle

    def test_unwritable_directory_raises_with_path(self, tmp_path, descriptor):
        target = tmp_path / "not_a_dir"
        target.write_text("file, not a directory")
        with pytest.raises(OSError) as err:
            render_bundle(emit_bundle(descriptor), target)
        assert "not_a_dir" in str(err.value)

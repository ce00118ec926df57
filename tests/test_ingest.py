import ipaddress
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinsync.errors import ConfigSyntaxError, DescriptorValidationError, ExtractionError
from twinsync.ingest import extract_descriptor, parse_phys_config

from conftest import FIXTURES

AP_FIXTURE = (
    'access_point_list: [ { apn: "internet", ip: 10.45.0.1, cidr: 10.45.0.0/16, '
    "tun_bw: 10000000, qci: 9 } ], ue_count: 2"
)


class TestParse:
    def test_access_point_fixture_parses_to_expected_tree(self):
        # Hand-derived against the grammar: one top-level array holding
        # one object, plus one integer pair.
        assert parse_phys_config(AP_FIXTURE) == {
            "access_point_list": [
                {
                    "apn": "internet",
                    "ip": ipaddress.ip_address("10.45.0.1"),
                    "cidr": ipaddress.ip_network("10.45.0.0/16"),
                    "tun_bw": 10000000,
                    "qci": 9,
                }
            ],
            "ue_count": 2,
        }

    def test_comments_are_discarded(self):
        assert parse_phys_config("/* comment */ ue_count: 0") == {"ue_count": 0}
        assert parse_phys_config("// inline\nue_count: 1 // trailing\n") == {"ue_count": 1}

    def test_unterminated_string_errors_at_the_opening_quote(self):
        with pytest.raises(ConfigSyntaxError) as err:
            parse_phys_config('ue_count: 1\napn: "internet')
        assert err.value.line == 2

    def test_newline_separates_pairs(self):
        assert parse_phys_config("a: 1\nb: 2\nc: { d: true\ne: false }") == {"a": 1, "b": 2, "c": {"d": True, "e": False}}

    def test_missing_separator_is_an_error(self):
        with pytest.raises(ConfigSyntaxError):
            parse_phys_config("a: 1 b: 2")

    def test_every_byte_must_be_consumed(self):
        with pytest.raises(ConfigSyntaxError):
            parse_phys_config("ue_count: 2 }")

    def test_duplicate_field_rejected(self):
        with pytest.raises(ConfigSyntaxError) as err:
            parse_phys_config("a: 1\na: 2")
        assert "duplicate" in str(err.value)

    def test_bad_cidr_literal(self):
        with pytest.raises(ConfigSyntaxError):
            parse_phys_config("net: 10.45.0.1/16")  # host bits set

    @pytest.mark.parametrize("text, message, line, column, expected", [
        ("a: 1\n  /* open", "unterminated block comment", 2, 3, "'*/'"),
        ('ue_count: 1\napn: "internet', "unterminated string", 2, 6, "closing '\"'"),
        ('a: "tab\there\nb: 1', "unterminated string", 1, 4, "closing '\"'"),
        ('a: "ends in a backslash\\', "unterminated string", 1, 4, "closing '\"'"),
        ('a: "x\\q"', "unknown escape '\\q'", 1, 7, ""),
        ('a: "x\\\n"', "unknown escape '\\\n'", 1, 7, ""),
        ('a: "x\\q', "unknown escape '\\q'", 1, 7, ""),
        ("a: 1\nb: @", "unexpected character '@'", 2, 4, ""),
        ("a: 1 / 2", "unexpected character '/'", 1, 6, ""),
        ("ip: 999.1.1.1", "invalid IP address '999.1.1.1'", 1, 5, ""),
        ("net: 10.45.0.1/16", "invalid CIDR '10.45.0.1/16': 10.45.0.1/16 has host bits set", 1, 6, ""),
        ("a: 1.2", "malformed numeric or address literal '1.2'", 1, 4, ""),
        ("a: -", "malformed numeric or address literal '-'", 1, 4, ""),
        ("a: 1.2.3.4.5", "malformed numeric or address literal '1.2.3.4.5'", 1, 4, ""),
        # More digits than int() converts (sys.get_int_max_str_digits(), 4,300 by default).
        pytest.param("a: 1\nue_count: -" + "1" * 5000,
                     f"integer literal of 5000 digits exceeds the {sys.get_int_max_str_digits()}-digit limit",
                     2, 11, "", id="int-of-5000-digits"),
        # The whole input is tokenized first: the '@' wins over the missing ':'.
        ("a b: @", "unexpected character '@'", 1, 6, ""),
    ])
    def test_tokenizer_error_names_message_position_and_expectation(self, text, message, line, column, expected):
        with pytest.raises(ConfigSyntaxError) as err:
            parse_phys_config(text)
        assert (str(err.value).split(" (line ")[0], err.value.line, err.value.column, err.value.expected) == (
            message, line, column, expected)

    def test_non_ascii_digit_is_an_unexpected_character(self):
        # str.isdigit() holds for '²', but a literal is made of [0-9] only.
        with pytest.raises(ConfigSyntaxError) as err:
            parse_phys_config("a: 1²")
        assert (str(err.value), err.value.column) == ("unexpected character '²' (line 1, column 5)", 5)

    def test_error_carries_position_and_expectation(self):
        with pytest.raises(ConfigSyntaxError) as err:
            parse_phys_config("a 1")
        assert err.value.line == 1
        assert err.value.expected

    @settings(max_examples=300)
    @given(st.text(max_size=80))
    def test_parsing_is_total_over_arbitrary_text(self, text):
        try:
            parse_phys_config(text)
        except ConfigSyntaxError:
            pass

    @settings(max_examples=150)
    @given(st.text(alphabet='abc:{}[],"/*\n 0123456789.', max_size=60))
    def test_parsing_is_total_over_adversarial_token_soup(self, text):
        try:
            parse_phys_config(text)
        except ConfigSyntaxError:
            pass


class TestExtract:
    def test_fixture_maps_field_by_field(self):
        doc = parse_phys_config(AP_FIXTURE)
        descriptor, warnings = extract_descriptor(doc)
        assert warnings == []
        assert len(descriptor.slices) == 1
        s = descriptor.slices[0]
        assert s.dnn == "internet"
        assert s.subnet == "10.45.0.0/16"
        assert s.gateway_ip == "10.45.0.1"
        assert s.dl_bandwidth_bps == 10_000_000
        assert s.ul_bandwidth_bps == 10_000_000
        assert s.qci == 9
        assert descriptor.ue_count == 2
        assert descriptor.window_seconds == 120.0
        assert descriptor.capture_interface == "tun2"

    def test_missing_ue_count_everywhere_is_an_error(self):
        doc = parse_phys_config('access_point_list: [ { apn: "a", ip: 10.45.0.1, cidr: 10.45.0.0/16, tun_bw: 1000 } ]')
        with pytest.raises(ExtractionError) as err:
            extract_descriptor(doc)
        assert err.value.path == "ue_count"

    def test_shared_subnet_forwards_validation_error(self):
        doc = parse_phys_config(
            "ue_count: 1, access_point_list: ["
            '{ apn: "a", ip: 10.45.0.1, cidr: 10.45.0.0/16, tun_bw: 1000 },'
            '{ apn: "b", ip: 10.45.0.2, cidr: 10.45.0.0/16, tun_bw: 1000 }]'
        )
        with pytest.raises(DescriptorValidationError) as err:
            extract_descriptor(doc)
        assert any(v.rule == "subnet-overlap" for v in err.value.violations)

    def test_missing_access_point_list(self):
        with pytest.raises(ExtractionError) as err:
            extract_descriptor(parse_phys_config("ue_count: 2"))
        assert err.value.path == "access_point_list"

    def test_directional_bandwidth_overrides(self):
        doc = parse_phys_config(
            "ue_count: 1, access_point_list: ["
            '{ apn: "a", ip: 10.45.0.1, cidr: 10.45.0.0/16, tun_bw: 1000, tun_bw_dl: 2000 }]'
        )
        descriptor, _ = extract_descriptor(doc)
        assert descriptor.slices[0].dl_bandwidth_bps == 2000
        assert descriptor.slices[0].ul_bandwidth_bps == 1000

    def test_unknown_keys_warn_but_do_not_fail(self):
        doc = parse_phys_config(AP_FIXTURE + ", rf_ports: 3")
        descriptor, warnings = extract_descriptor(doc)
        assert len(descriptor.slices) == 1
        assert any("rf_ports" in w for w in warnings)

    def test_extraction_is_pure(self):
        doc = parse_phys_config(AP_FIXTURE)
        first, _ = extract_descriptor(doc)
        second, _ = extract_descriptor(doc)
        assert first == second

    @pytest.mark.parametrize("field, value, path", [
        ("qci", '"x"', "access_point_list[0].qci"),
        ("qci", "true", "access_point_list[0].qci"),
        ("apn", "5", "access_point_list[0].apn"),
        ("tun_bw_dl", '"x"', "access_point_list[0].tun_bw_dl"),
        ("plmn", "101", "plmn"),
        ("ue_count", "true", "ue_count"),
        ("window_seconds", '"abc"', "window_seconds"),
        ("window_seconds", "true", "window_seconds"),
        ("network_name", "5", "network_name"),
        ("capture_interface", "7", "capture_interface"),
    ])
    def test_ill_typed_field_is_refused_with_its_path(self, field, value, path):
        tree = parse_phys_config(AP_FIXTURE)
        target = tree["access_point_list"][0] if path.startswith("access_point_list") else tree
        target[field] = parse_phys_config(f"v: {value}")["v"]
        with pytest.raises(ExtractionError) as err:
            extract_descriptor(tree)
        assert err.value.path == path

    def test_every_slice_traces_to_one_access_point(self):
        text = (FIXTURES / "mme.cfg").read_text()
        doc = parse_phys_config(text)
        descriptor, _ = extract_descriptor(doc)
        aps = doc["access_point_list"]
        assert len(descriptor.slices) == len(aps)
        for s, ap in zip(descriptor.slices, aps):
            assert s.dnn == ap["apn"]
            assert s.subnet == str(ap["cidr"])
            assert s.gateway_ip == str(ap["ip"])

    def test_bundled_fixture_extracts_cleanly(self):
        text = (FIXTURES / "mme.cfg").read_text()
        descriptor, warnings = extract_descriptor(parse_phys_config(text))
        assert descriptor.network_name == "lab-campus-5g"
        assert descriptor.plmn == "00101"
        assert descriptor.window_seconds == 120.0
        assert [s.dnn for s in descriptor.slices] == ["internet", "mec"]
        assert descriptor.slices[1].dl_bandwidth_bps == 20_000_000
        assert descriptor.slices[1].ul_bandwidth_bps == 5_000_000
        assert len(warnings) == 2  # rf_ports, ims_enabled

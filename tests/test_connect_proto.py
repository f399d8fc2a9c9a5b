"""Tests for the Spark Connect wire format and version negotiation."""

import base64
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connect import proto
from repro.errors import ProtocolError, VersionIncompatibleError


class TestEncoding:
    def test_roundtrip_plain(self):
        message = proto.read_table("main.s.t")
        assert proto.decode_message(proto.encode_message(message)) == message

    def test_roundtrip_bytes(self):
        message = proto.python_udf("f", "int", b"\x00\x01\xff", [proto.column("x")])
        decoded = proto.decode_message(proto.encode_message(message))
        assert decoded["func_blob"] == b"\x00\x01\xff"

    def test_roundtrip_nested_plan(self):
        plan = proto.limit(
            proto.filter_relation(
                proto.project(proto.read_table("t"), [proto.column("a")]),
                proto.binary(">", proto.column("a"), proto.literal(5)),
            ),
            10,
        )
        assert proto.decode_message(proto.encode_message(plan)) == plan

    def test_roundtrip_null_and_bool(self):
        message = proto.literal(None)
        assert proto.decode_message(proto.encode_message(message))["value"] is None
        message = proto.literal(True)
        assert proto.decode_message(proto.encode_message(message))["value"] is True

    def test_malformed_bytes(self):
        with pytest.raises(ProtocolError):
            proto.decode_message(b"\xff\xfe not json")

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError):
            proto.decode_message(b"[1, 2, 3]")

    def test_unserializable_rejected(self):
        with pytest.raises(ProtocolError):
            proto.encode_message({"@type": "x", "bad": object()})


class TestForwardCompatibility:
    def test_unknown_fields_survive_decode(self):
        """An old server must tolerate newer optional fields (§6.3)."""
        message = {
            "@type": "relation.read",
            "table": "t",
            "new_fancy_option": {"added_in": "v99"},
        }
        decoded = proto.decode_message(proto.encode_message(message))
        assert decoded["table"] == "t"  # known field intact
        assert "new_fancy_option" in decoded  # unknown field carried, ignored

    def test_message_type(self):
        assert proto.message_type(proto.read_table("t")) == "relation.read"
        with pytest.raises(ProtocolError):
            proto.message_type({"no": "type"})

    def test_command_vs_relation(self):
        assert proto.is_command(proto.sql_command("GRANT ..."))
        assert proto.is_relation(proto.sql_relation("SELECT 1"))
        assert not proto.is_command(proto.read_table("t"))


class TestVersionNegotiation:
    def test_older_client_accepted(self):
        proto.check_client_version(1, server_version=4)

    def test_equal_version_accepted(self):
        proto.check_client_version(4, server_version=4)

    def test_newer_client_rejected(self):
        with pytest.raises(VersionIncompatibleError):
            proto.check_client_version(5, server_version=4)

    def test_prehistoric_client_rejected(self):
        with pytest.raises(VersionIncompatibleError):
            proto.check_client_version(0, server_version=4)


class TestExtensionPoints:
    def test_relation_extension_shape(self):
        ext = proto.relation_extension("delta.time_travel", {"version": 3})
        assert ext["@type"] == "relation.extension"
        decoded = proto.decode_message(proto.encode_message(ext))
        assert decoded["payload"] == {"version": 3}

    def test_command_extension_shape(self):
        ext = proto.command_extension("delta.vacuum", {"retain_hours": 168})
        assert proto.is_command(ext)


class TestBytesWrapper:
    """``decode_message`` accepts only a base64 *string* in ``@bytes``."""

    def test_non_string_wrapper_is_a_protocol_error(self):
        # Regression: this used to escape the decoder as a raw TypeError.
        with pytest.raises(ProtocolError, match="base64 string"):
            proto.decode_message(b'{"@type": "x", "blob": {"@bytes": 5}}')

    def test_invalid_base64_is_a_protocol_error(self):
        # Regression: non-alphabet characters used to be dropped silently,
        # so this decoded to b''.
        with pytest.raises(ProtocolError, match="not valid base64"):
            proto.decode_message(b'{"@type": "x", "blob": {"@bytes": "!"}}')

    def test_wrapper_with_extra_keys_is_an_ordinary_object(self):
        decoded = proto.decode_message(b'{"@type": "x", "o": {"@bytes": "AA==", "k": 1}}')
        assert decoded["o"] == {"@bytes": "AA==", "k": 1}


# ---------------------------------------------------------------------------
# The C-hook codec against the tree-walk codec it replaced
# ---------------------------------------------------------------------------


def _reference_encode(message):
    """The tree-walk encoder the wire used before binary result frames."""

    def walk(value):
        if isinstance(value, (bytes, bytearray)):
            return {"@bytes": base64.b64encode(bytes(value)).decode("ascii")}
        if isinstance(value, dict):
            return {k: walk(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [walk(v) for v in value]
        return value

    try:
        return json.dumps(walk(message)).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(str(exc)) from exc


def _reference_decode(data):
    def walk(value):
        if isinstance(value, dict):
            if set(value.keys()) == {"@bytes"}:
                return base64.b64decode(value["@bytes"])
            return {k: walk(v) for k, v in value.items()}
        if isinstance(value, list):
            return [walk(v) for v in value]
        return value

    return walk(json.loads(data.decode("utf-8")))


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(),  # NaN and ±inf included
    st.text(),
    st.binary(max_size=64),
)
_trees = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
    ),
    max_leaves=40,
)


class TestCodecEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(body=_trees)
    def test_same_bytes_and_same_tree_as_the_tree_walk(self, body):
        message = {"@type": "x", "body": body}
        wire = proto.encode_message(message)
        assert wire == _reference_encode(message)
        # repr compares NaN and -0.0 exactly, which == cannot.
        assert repr(proto.decode_message(wire)) == repr(_reference_decode(wire))

    @pytest.mark.parametrize(
        "bad", [object(), {1, 2}, {(1, 2): "tuple key"}, [memoryview(b"x")]],
        ids=["object", "set", "tuple-key", "memoryview"],
    )
    def test_non_serializable_values_are_protocol_errors(self, bad):
        with pytest.raises(ProtocolError):
            _reference_encode({"@type": "x", "v": bad})
        with pytest.raises(ProtocolError):
            proto.encode_message({"@type": "x", "v": bad})

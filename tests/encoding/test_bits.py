"""Tests for the canonical bit-level payload codec."""

import pytest
from hypothesis import given, strategies as st

from repro.encoding.bits import (
    BitReader,
    BitWriter,
    decode_payload,
    encode_payload,
    gamma_bits,
    int_bits,
    payload_bits,
)

# ----------------------------------------------------------------------
# primitives
# ----------------------------------------------------------------------


class TestBitWriter:
    def test_uint_roundtrip(self):
        w = BitWriter()
        w.write_uint(0b1011, 4)
        r = BitReader(w.bits())
        assert r.read_uint(4) == 0b1011

    def test_uint_too_wide(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_uint(8, 3)

    def test_uint_negative(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_uint(-1, 4)

    def test_gamma_small_values(self):
        for v in range(1, 40):
            w = BitWriter()
            w.write_gamma(v)
            assert len(w) == gamma_bits(v)
            assert BitReader(w.bits()).read_gamma() == v

    def test_gamma_rejects_zero(self):
        with pytest.raises(ValueError):
            BitWriter().write_gamma(0)
        with pytest.raises(ValueError):
            gamma_bits(0)

    def test_to_bytes_padding(self):
        w = BitWriter()
        w.write_uint(0b101, 3)
        assert w.to_bytes() == bytes([0b10100000])

    def test_bytes_roundtrip(self):
        w = BitWriter()
        w.write_uint(0x2B, 9)
        r = BitReader.from_bytes(w.to_bytes(), len(w))
        assert r.read_uint(9) == 0x2B


class TestBitReader:
    def test_exhaustion_raises(self):
        r = BitReader((1,))
        r.read_bit()
        with pytest.raises(ValueError):
            r.read_bit()

    def test_exhausted_flag(self):
        r = BitReader((1, 0))
        assert not r.exhausted()
        r.read_uint(2)
        assert r.exhausted()


# ----------------------------------------------------------------------
# payload codec
# ----------------------------------------------------------------------

CASES = [
    0,
    1,
    -1,
    12345,
    -99999,
    "",
    "ROOT",
    "no",
    (),
    (1, 2, 3),
    ("B", 4, 0, "ROOT", 0, 0, 7),
    (1, (2, (3, (4,))), "x"),
]


class TestPayloadCodec:
    @pytest.mark.parametrize("payload", CASES, ids=repr)
    def test_roundtrip(self, payload):
        assert decode_payload(encode_payload(payload)) == payload

    @pytest.mark.parametrize("payload", CASES, ids=repr)
    def test_size_matches_encoding(self, payload):
        assert payload_bits(payload) == len(encode_payload(payload))

    def test_int_bits_helper(self):
        for v in (-10, -1, 0, 1, 7, 1000):
            assert int_bits(v) == payload_bits(v)

    def test_trailing_bits_rejected(self):
        bits = encode_payload(5) + (0,)
        with pytest.raises(ValueError):
            decode_payload(bits)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            payload_bits(True)
        with pytest.raises(TypeError):
            encode_payload((1, True))

    def test_non_ascii_rejected(self):
        with pytest.raises(ValueError):
            encode_payload("é")

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            payload_bits({1, 2})  # type: ignore[arg-type]
        with pytest.raises(TypeError):
            encode_payload(1.5)  # type: ignore[arg-type]
        with pytest.raises(TypeError):
            payload_bits((1, b"raw"))  # type: ignore[arg-type]

    def test_id_sized_ints_are_logarithmic(self):
        # An identifier in 1..n costs O(log n) bits: the concrete codec
        # must respect the paper's accounting.
        assert payload_bits(10 ** 6) <= 2 * 21 + 3
        assert payload_bits(7) < payload_bits(7000)

    def test_legacy_encodings_unchanged_by_escape_tag(self):
        # Tag 3 was unused before the list/dict extension; every
        # pre-extension payload must keep its exact bit sequence (the
        # sketch golden fixtures depend on it).
        assert encode_payload(5) == (0, 0, 0, 0, 0, 1, 0, 1, 1)
        assert encode_payload(()) == (1, 0, 1)
        assert encode_payload("A")[:2] == (0, 1)

    def test_list_and_tuple_encodings_differ(self):
        # The container kind is part of the payload: a list is not a
        # tuple after a round trip.
        assert encode_payload([1, 2]) != encode_payload((1, 2))
        assert decode_payload(encode_payload([1, 2])) == [1, 2]

    def test_dict_encoding_is_insertion_order_invariant(self):
        a = {"x": 1, "y": [2, 3]}
        b = {"y": [2, 3], "x": 1}
        assert encode_payload(a) == encode_payload(b)
        assert decode_payload(encode_payload(a)) == a

    def test_nested_container_roundtrip(self):
        payload = {"k": [1, {"inner": (2, [3])}], ("t", 1): []}
        assert decode_payload(encode_payload(payload)) == payload
        assert payload_bits(payload) == len(encode_payload(payload))

    def test_payload_key_matches_encoding(self):
        from repro.encoding.bits import payload_key

        for payload in CASES + [[1, 2], {"a": [1]}, {}, []]:
            nbits, value = payload_key(payload)
            bits = encode_payload(payload)
            assert nbits == len(bits) == payload_bits(payload)
            assert value == int("".join(map(str, bits)), 2)

    def test_payload_key_distinguishes_kinds(self):
        from repro.encoding.bits import payload_key

        keys = {payload_key(p) for p in ([1], (1,), {0: 1}, 1, "1")}
        assert len(keys) == 5


# ----------------------------------------------------------------------
# property-based coverage
# ----------------------------------------------------------------------

atoms = st.one_of(
    st.integers(min_value=-(10 ** 9), max_value=10 ** 9),
    st.text(
        alphabet=st.characters(min_codepoint=0, max_codepoint=127),
        max_size=8,
    ),
)
payloads = st.recursive(atoms, lambda inner: st.tuples(inner, inner), max_leaves=12)
#: Extended payloads exercise the escape-tag containers too; dict keys
#: stay atomic (Python dict keys must be hashable).
payloads_extended = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.lists(inner, max_size=3),
        st.dictionaries(atoms, inner, max_size=3),
    ),
    max_leaves=12,
)


@given(payloads)
def test_roundtrip_property(payload):
    assert decode_payload(encode_payload(payload)) == payload


@given(payloads)
def test_size_property(payload):
    assert payload_bits(payload) == len(encode_payload(payload))


@given(payloads_extended)
def test_roundtrip_property_extended(payload):
    assert decode_payload(encode_payload(payload)) == payload


@given(payloads_extended)
def test_size_property_extended(payload):
    assert payload_bits(payload) == len(encode_payload(payload))


@given(payloads_extended)
def test_payload_key_is_canonical(payload):
    from repro.encoding.bits import payload_key

    key = payload_key(payload)
    hash(key)  # always hashable, whatever the payload
    assert key[0] == payload_bits(payload)
    assert payload_key(decode_payload(encode_payload(payload))) == key


@given(st.integers(min_value=1, max_value=10 ** 12))
def test_gamma_is_self_delimiting(v):
    w = BitWriter()
    w.write_gamma(v)
    w.write_gamma(v + 1)
    r = BitReader(w.bits())
    assert r.read_gamma() == v
    assert r.read_gamma() == v + 1


# ----------------------------------------------------------------------
# payload_key's direct packing against the BitWriter encoding
# ----------------------------------------------------------------------


def _writer_key(payload):
    """The reference digest: ``_write`` into a :class:`BitWriter`."""
    from repro.encoding.bits import _write

    w = BitWriter()
    _write(w, payload)
    return w.as_key()


def _outcome(fn, payload):
    try:
        return ("ok", fn(payload))
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return ("raise", type(exc))


key_atoms = st.one_of(
    st.integers(min_value=-(10 ** 30), max_value=10 ** 30),
    st.text(
        alphabet=st.characters(min_codepoint=0, max_codepoint=127),
        max_size=70,
    ),
)
#: Variable-length tuples (empty ones included), lists and dicts nested
#: under each other: every branch of the packing walk and its fallback.
key_payloads = st.recursive(
    key_atoms,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=3),
        st.dictionaries(key_atoms, inner, max_size=3),
    ),
    max_leaves=16,
)


@given(key_payloads)
def test_payload_key_equals_writer_encoding(payload):
    from repro.encoding.bits import payload_key

    assert payload_key(payload) == _writer_key(payload)


@given(st.dictionaries(key_atoms, key_payloads, min_size=2, max_size=4))
def test_payload_key_ignores_dict_key_order(payload):
    from repro.encoding.bits import payload_key

    reordered = dict(reversed(list(payload.items())))
    assert payload_key(reordered) == payload_key(payload)
    assert payload_key((reordered, 1)) == _writer_key((payload, 1))


class _Int(int):
    pass


@pytest.mark.parametrize(
    "payload", [True, (1, False), 1.5, "é", ("ok", "é"), _Int(5), (_Int(-3),)],
    ids=repr,
)
def test_payload_key_fallback_matches_writer(payload):
    """Values the walk does not pack itself — bools, floats, non-ASCII
    symbols, int subclasses — raise (or encode) exactly as ``_write``."""
    from repro.encoding.bits import payload_key

    assert _outcome(payload_key, payload) == _outcome(_writer_key, payload)

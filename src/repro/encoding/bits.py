"""Exact bit-level serialization of whiteboard messages.

The paper's results are statements about *message size in bits*
(``O(log n)``, ``O(k^2 log n)``, ``o(n)`` ...).  To measure rather than
assume those sizes, every message written on the simulated whiteboard is
a *payload* — a nested structure of ints, short symbols and tuples — and
this module defines one canonical, self-delimiting binary encoding for
payloads.  ``payload_bits`` is the exact length of that encoding, and
``encode_payload``/``decode_payload`` round-trip through real bits so the
accounting cannot drift from reality.

Encoding scheme (self-delimiting, decodable without out-of-band length):

* every value starts with a 2-bit type tag (int / symbol / tuple, with
  tag ``3`` escaping to one extra bit selecting list or dict);
* non-negative integers use Elias gamma on ``value + 1``; signed values
  are zigzag-mapped first;
* symbols (short ASCII strings such as ``"ROOT"`` or ``"no"``) use a
  gamma length followed by 7 bits per character;
* tuples use a gamma length followed by the encoded elements;
* lists encode like tuples under the escape tag (they decode back to
  lists — the container kind is part of the payload);
* dicts encode their pairs under the escape tag with the pairs sorted
  by the canonical encoding of the key, so two dicts that are equal as
  mappings encode identically regardless of insertion order.

The pre-escape encodings are bit-identical to the original three-tag
scheme (tag ``3`` was unused), so historic sizes and the sketch golden
fixtures are unaffected.

:func:`payload_key` packs the canonical encoding into a small hashable
``(nbits, value)`` pair — the currency of
:meth:`repro.core.execution.ExecutionState.config_key`, which is how
unhashable payloads (dicts, lists) still get exact, hashable
configuration digests.

Performance notes: :class:`BitWriter` accumulates into one Python int
(appending ``w`` bits is a shift-or, not ``w`` list appends), and
:func:`payload_bits` walks the payload with an explicit stack — board
accounting runs on every write event of every simulated execution, so
both are hot paths.  :func:`payload_key` packs exact ints, ASCII
symbols and tuples straight into one int in a single recursive walk,
with no :class:`BitWriter` method calls; every other value (lists,
dicts, bools, subclasses, non-ASCII strings) goes through the
writer's ``_write``, so keys and exceptions are bit-identical to it.
The bit sequences and sizes produced are identical to the original
list-based implementation.
"""

from __future__ import annotations

from typing import Union

__all__ = [
    "Payload",
    "BitWriter",
    "BitReader",
    "encode_payload",
    "decode_payload",
    "payload_bits",
    "payload_key",
    "gamma_bits",
    "int_bits",
]

Payload = Union[int, str, tuple, list, dict]

_TAG_INT = 0
_TAG_SYM = 1
_TAG_TUPLE = 2
#: Escape tag: one more bit selects the container kind (0 list, 1 dict).
_TAG_EXT = 3
_EXT_LIST = 0
_EXT_DICT = 1


class BitWriter:
    """Append-only bit buffer (one big int, MSB-first)."""

    __slots__ = ("_acc", "_len")

    def __init__(self) -> None:
        self._acc = 0
        self._len = 0

    def write_bit(self, b: int) -> None:
        self._acc = self._acc << 1 | (1 if b else 0)
        self._len += 1

    def write_uint(self, value: int, width: int) -> None:
        """Write ``value`` in exactly ``width`` bits, MSB first."""
        if value < 0 or (width < value.bit_length()):
            raise ValueError(f"{value} does not fit in {width} bits")
        self._acc = self._acc << width | value
        self._len += width

    def write_gamma(self, value: int) -> None:
        """Elias gamma code of ``value >= 1``: ``len-1`` zeros, then the
        binary expansion (which starts with 1)."""
        if value < 1:
            raise ValueError(f"gamma codes naturals >= 1, got {value}")
        width = value.bit_length()
        # width-1 leading zeros then the width-bit expansion: one shift.
        self._acc = self._acc << (2 * width - 1) | value
        self._len += 2 * width - 1

    def __len__(self) -> int:
        return self._len

    def to_bytes(self) -> bytes:
        """Pack to bytes (zero-padded to a byte boundary)."""
        pad = -self._len % 8
        return (self._acc << pad).to_bytes((self._len + pad) // 8, "big")

    def bits(self) -> tuple[int, ...]:
        acc, n = self._acc, self._len
        return tuple(acc >> i & 1 for i in range(n - 1, -1, -1))

    def as_key(self) -> tuple[int, int]:
        """The buffer as a compact hashable ``(nbits, value)`` pair.

        Because the encoding is canonical and self-delimiting, two
        payloads share a key iff they share an encoding; ``nbits`` is
        exactly :func:`payload_bits` of the encoded payload.
        """
        return (self._len, self._acc)


class BitReader:
    """Sequential reader over a bit sequence."""

    __slots__ = ("_bits", "_pos")

    def __init__(self, bits: tuple[int, ...] | list[int]) -> None:
        self._bits = bits
        self._pos = 0

    @classmethod
    def from_bytes(cls, data: bytes, nbits: int) -> "BitReader":
        bits = [data[i // 8] >> (7 - i % 8) & 1 for i in range(nbits)]
        return cls(bits)

    def read_bit(self) -> int:
        if self._pos >= len(self._bits):
            raise ValueError("bit stream exhausted")
        b = self._bits[self._pos]
        self._pos += 1
        return b

    def read_uint(self, width: int) -> int:
        v = 0
        for _ in range(width):
            v = v << 1 | self.read_bit()
        return v

    def read_gamma(self) -> int:
        zeros = 0
        while self.read_bit() == 0:
            zeros += 1
        value = 1
        for _ in range(zeros):
            value = value << 1 | self.read_bit()
        return value

    @property
    def position(self) -> int:
        return self._pos

    def exhausted(self) -> bool:
        return self._pos >= len(self._bits)


def gamma_bits(value: int) -> int:
    """Length in bits of the Elias gamma code of ``value >= 1``."""
    if value < 1:
        raise ValueError(f"gamma codes naturals >= 1, got {value}")
    return 2 * value.bit_length() - 1


def _zigzag(v: int) -> int:
    return 2 * v if v >= 0 else -2 * v - 1


def _unzigzag(u: int) -> int:
    return u // 2 if u % 2 == 0 else -(u + 1) // 2


def int_bits(value: int) -> int:
    """Exact encoded size of a bare int payload (tag + gamma)."""
    return 2 + gamma_bits(_zigzag(value) + 1)


def _write(writer: BitWriter, payload: Payload) -> None:
    if isinstance(payload, bool):
        raise TypeError("bool payloads are ambiguous; use 0/1 or a symbol")
    if isinstance(payload, int):
        writer.write_uint(_TAG_INT, 2)
        writer.write_gamma(_zigzag(payload) + 1)
    elif isinstance(payload, str):
        if any(ord(c) > 127 for c in payload):
            raise ValueError(f"symbols must be ASCII, got {payload!r}")
        writer.write_uint(_TAG_SYM, 2)
        writer.write_gamma(len(payload) + 1)
        for c in payload:
            writer.write_uint(ord(c), 7)
    elif isinstance(payload, tuple):
        writer.write_uint(_TAG_TUPLE, 2)
        writer.write_gamma(len(payload) + 1)
        for item in payload:
            _write(writer, item)
    elif isinstance(payload, list):
        writer.write_uint(_TAG_EXT, 2)
        writer.write_bit(_EXT_LIST)
        writer.write_gamma(len(payload) + 1)
        for item in payload:
            _write(writer, item)
    elif isinstance(payload, dict):
        writer.write_uint(_TAG_EXT, 2)
        writer.write_bit(_EXT_DICT)
        writer.write_gamma(len(payload) + 1)
        for _, key, value in sorted(
            (_encode_key(k), k, v) for k, v in payload.items()
        ):
            _write(writer, key)
            _write(writer, value)
    else:
        raise TypeError(f"unsupported payload element of type {type(payload).__name__}")


def _encode_key(key: Payload) -> tuple[int, int]:
    """Canonical sort token for a dict key (its own encoding)."""
    w = BitWriter()
    _write(w, key)
    return w.as_key()


def _read(reader: BitReader) -> Payload:
    tag = reader.read_uint(2)
    if tag == _TAG_INT:
        return _unzigzag(reader.read_gamma() - 1)
    if tag == _TAG_SYM:
        length = reader.read_gamma() - 1
        return "".join(chr(reader.read_uint(7)) for _ in range(length))
    if tag == _TAG_TUPLE:
        length = reader.read_gamma() - 1
        return tuple(_read(reader) for _ in range(length))
    kind = reader.read_bit()
    length = reader.read_gamma() - 1
    if kind == _EXT_LIST:
        return [_read(reader) for _ in range(length)]
    out: dict = {}
    for _ in range(length):
        key = _read(reader)
        out[key] = _read(reader)
    return out


def encode_payload(payload: Payload) -> tuple[int, ...]:
    """Serialize a payload to its canonical bit sequence."""
    w = BitWriter()
    _write(w, payload)
    return w.bits()


def decode_payload(bits: tuple[int, ...] | list[int]) -> Payload:
    """Inverse of :func:`encode_payload`; rejects trailing garbage."""
    r = BitReader(bits)
    payload = _read(r)
    if not r.exhausted():
        raise ValueError("trailing bits after payload")
    return payload


def payload_bits(payload: Payload) -> int:
    """Exact size in bits of the canonical encoding of ``payload``.

    Computed without materializing the bit sequence (iteratively — the
    simulator charges every write event through here), and covered by a
    property test asserting equality with ``len(encode_payload(p))``.
    """
    # The stack holds only (sub)tuples; atoms are charged inline while
    # scanning a tuple's items, so each element costs one loop step
    # rather than a push and a pop.  ``type(x) is int`` is the fast path
    # and correctly excludes bool (a distinct type), which the fallback
    # rejects; subclasses of the payload types take the fallback too.
    # An int costs 2 (tag) + gamma(zigzag(p) + 1) = 3 + 2 * |p|'s bit
    # length: zigzag(p) + 1 is 2p + 1 or -2p, one bit longer than |p|.
    total = 0
    stack = [(payload,)]
    pop = stack.pop
    append = stack.append
    while stack:
        for p in pop():
            t = type(p)
            if t is int:
                total += 3 + 2 * p.bit_length()
            elif t is tuple:
                total += 1 + 2 * (len(p) + 1).bit_length()
                append(p)
            elif t is str:
                total += 1 + 2 * (len(p) + 1).bit_length() + 7 * len(p)
            elif t is list:
                # 2 (tag) + 1 (kind) + gamma; size is order-independent,
                # so the elements just join the stack as a tuple.
                total += 2 + 2 * (len(p) + 1).bit_length()
                append(tuple(p))
            elif t is dict:
                total += 2 + 2 * (len(p) + 1).bit_length()
                append(tuple(x for kv in p.items() for x in kv))
            else:
                total += _atom_bits_slow(p)
    return total


def _atom_bits_slow(p: Payload) -> int:
    """Fallback accounting for payload-type subclasses; rejects the rest."""
    if isinstance(p, bool):
        raise TypeError("bool payloads are ambiguous; use 0/1 or a symbol")
    if isinstance(p, int):
        u = p + p if p >= 0 else -p - p - 1
        return 1 + 2 * (u + 1).bit_length()
    if isinstance(p, str):
        return 1 + 2 * (len(p) + 1).bit_length() + 7 * len(p)
    if isinstance(p, tuple):
        return 1 + 2 * (len(p) + 1).bit_length() + sum(
            payload_bits(item) for item in p
        )
    if isinstance(p, list):
        return 2 + 2 * (len(p) + 1).bit_length() + sum(
            payload_bits(item) for item in p
        )
    if isinstance(p, dict):
        return 2 + 2 * (len(p) + 1).bit_length() + sum(
            payload_bits(k) + payload_bits(v) for k, v in p.items()
        )
    raise TypeError(f"unsupported payload element of type {type(p).__name__}")


def payload_key(payload: Payload) -> tuple[int, int]:
    """Hashable canonical digest of ``payload``: its exact encoding.

    Returns ``(nbits, value)`` — the canonical bit sequence packed into
    one int, plus its length.  Defined for *every* payload the codec can
    encode, including unhashable containers (lists, dicts): this is what
    lets :meth:`repro.core.execution.ExecutionState.config_key` digest
    any board the engine can produce, where a raw ``hash(payload)``
    would raise.  ``payload_key(a) == payload_key(b)`` iff the codec
    encodes ``a`` and ``b`` identically (dicts equal as mappings share a
    key regardless of insertion order).

    The packing walk is :func:`_pack`; the result equals
    ``BitWriter``/``_write``'s :meth:`~BitWriter.as_key`, and every
    value the walk does not pack itself raises what ``_write`` raises.
    The walk recurses through ``_pack``, never through this name, so a
    wrapper installed on ``payload_key`` sees one call per digest.
    """
    return _pack(payload)


def _pack(p: Payload) -> tuple[int, int]:
    """``(nbits, value)`` of the canonical encoding of ``p``.

    Exact ints, ASCII strings and tuples are packed inline (a tuple's
    int items without a call); anything else is handed to ``_write``.
    A gamma code of ``m`` is ``m`` itself in ``2 * m.bit_length() - 1``
    bits, so appending a header is one shift-or.
    """
    t = type(p)
    if t is tuple:
        m = len(p) + 1
        width = 2 * m.bit_length() - 1
        nbits = 2 + width
        acc = _TAG_TUPLE << width | m
        for item in p:
            if type(item) is int:
                u = item + item + 1 if item >= 0 else -item - item
                k = 2 * u.bit_length() + 1  # 2 (tag 0) + gamma
                acc = acc << k | u
            else:
                k, value = _pack(item)
                acc = acc << k | value
            nbits += k
        return nbits, acc
    if t is int:
        u = p + p + 1 if p >= 0 else -p - p  # zigzag(p) + 1
        return 2 * u.bit_length() + 1, u
    if t is str and p.isascii():
        m = len(p) + 1
        width = 2 * m.bit_length() - 1
        acc = _TAG_SYM << width | m
        for c in p:
            acc = acc << 7 | ord(c)
        return 2 + width + 7 * len(p), acc
    w = BitWriter()
    _write(w, p)
    return w.as_key()

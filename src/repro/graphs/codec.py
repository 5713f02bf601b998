"""graph6 serialization of labeled graphs.

The standard graph6 format (McKay) packs the upper triangle of the
adjacency matrix into printable ASCII, six bits per character.  It gives
the workload generators a stable, diff-friendly on-disk form, lets the
counting experiments externalize enumerated families, and — because it
is *the* community interchange format — makes instances portable to
nauty/networkx tooling.

Node ``i`` of a :class:`~repro.graphs.labeled_graph.LabeledGraph`
corresponds to graph6 vertex ``i - 1``; the column-major upper-triangle
bit order follows the format specification exactly, so outputs agree
with ``networkx.to_graph6_bytes`` (property-tested).
"""

from __future__ import annotations

from .labeled_graph import LabeledGraph

__all__ = ["to_graph6", "from_graph6"]

_MIN_PRINTABLE = 63  # '?'


def _encode_n(n: int) -> list[int]:
    """The size prefix: 1, 4 or 8 printable bytes."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n <= 62:
        return [n + _MIN_PRINTABLE]
    if n <= 258047:
        return [126] + [(n >> shift & 63) + _MIN_PRINTABLE for shift in (12, 6, 0)]
    if n <= 68719476735:
        return [126, 126] + [
            (n >> shift & 63) + _MIN_PRINTABLE for shift in (30, 24, 18, 12, 6, 0)
        ]
    raise ValueError("n too large for graph6")


def _decode_n(data: bytes) -> tuple[int, int]:
    """Return (n, bytes consumed)."""
    if not data:
        raise ValueError("empty graph6 string")
    if data[0] != 126:
        return data[0] - _MIN_PRINTABLE, 1
    if len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise ValueError("truncated graph6 size")
        n = 0
        for b in data[1:4]:
            n = n << 6 | (b - _MIN_PRINTABLE)
        return n, 4
    if len(data) < 8:
        raise ValueError("truncated graph6 size")
    n = 0
    for b in data[2:8]:
        n = n << 6 | (b - _MIN_PRINTABLE)
    return n, 8


def to_graph6(graph: LabeledGraph) -> str:
    """Serialize to a graph6 string (no ``>>graph6<<`` header).

    The string is encoded once per graph and kept on it, so fingerprints,
    stored rows and trajectory points that name one instance pay for one
    encoding; a graph from :func:`from_graph6` starts with its string.
    """
    text = graph._graph6
    if text is None:
        text = graph._graph6 = _encode(graph)
    return text


def _encode(graph: LabeledGraph) -> str:
    n = graph.n
    adj = graph._adj
    out = _encode_n(n)
    # Column-major upper triangle: bit for (i, j), i < j, ordered by
    # j = 2..n then i = 1..j-1 (node identifiers), per the format spec.
    bits = [i in adj[j] for j in range(2, n + 1) for i in range(1, j)]
    bits.extend([False] * (-len(bits) % 6))
    for pos in range(0, len(bits), 6):
        value = 0
        for b in bits[pos : pos + 6]:
            value = value << 1 | b
        out.append(value + _MIN_PRINTABLE)
    return bytes(out).decode("ascii")


def from_graph6(text: str) -> LabeledGraph:
    """Parse a graph6 string (tolerates the ``>>graph6<<`` header and
    surrounding whitespace).

    The returned graph carries the canonical string, the one
    :func:`to_graph6` would produce, so it fingerprints like an equal
    graph built any other way.
    """
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<"):]
    data = text.strip().encode("ascii")
    n, consumed = _decode_n(data)
    body = data[consumed:]
    need_bits = n * (n - 1) // 2
    need_bytes = (need_bits + 5) // 6
    if len(body) < need_bytes:
        raise ValueError("truncated graph6 body")
    if len(body) > need_bytes:
        raise ValueError("trailing data after graph6 body")
    bits: list[int] = []
    for byte in body:
        value = byte - _MIN_PRINTABLE
        if not 0 <= value < 64:
            raise ValueError(f"invalid graph6 byte {byte}")
        bits.extend(value >> shift & 1 for shift in range(5, -1, -1))
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                edges.append((i + 1, j + 1))
            pos += 1
    if any(bits[need_bits:]):
        raise ValueError("nonzero padding bits")
    graph = LabeledGraph(n, edges)
    # The size prefix is re-encoded: a long prefix for a small ``n``
    # parses too, but is not the string ``to_graph6`` gives.
    graph._graph6 = (bytes(_encode_n(n)) + body).decode("ascii")
    return graph

"""Streaming writer for the JSON reports.

``write_json(doc, write)`` passes ``write`` the text of
``json.dumps(doc, indent=2) + "\\n"`` in chunks, so a report of tens of
megabytes is never held whole in memory.  With an indent, CPython's ``json``
runs its pure-Python encoder, one generator step per value; this writer
formats with the same primitives (``encode_basestring_ascii``,
``float.__repr__``, ``int.__repr__``) but joins each container of scalars,
and each list of such containers, in one call.  The ``[k, side]`` pairs of
the itineraries are formatted once per depth and reused.  ``json.dumps``
stays the oracle that tests/test_json_stream.py compares the bytes with.
"""

from __future__ import annotations

import math
from collections import defaultdict
from json.encoder import encode_basestring_ascii

# Pending characters at which the writer hands its chunks to ``write``.
_FLUSH_AT = 1 << 16


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _scalar(o) -> str | None:
    """The text of a scalar, or None for a list, tuple or dict.  Raises
    TypeError for a value json.dumps cannot encode either."""
    text = _SCALARS.get(type(o))
    if text is not None:
        return text(o)
    # subclasses, tested in json's order (bool cannot be subclassed)
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    if isinstance(o, (list, tuple, dict)):
        return None
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _scalars(values) -> list[str] | None:
    """The texts of the values if all are scalars, else None."""
    texts = []
    for v in values:
        text = _scalar(v)
        if text is None:
            return None
        texts.append(text)
    return texts


def _key(k) -> str:
    # json.dumps would also turn number, bool and None keys into strings;
    # every report key is a str
    if not isinstance(k, str):
        raise TypeError(f"keys must be str, not {type(k).__name__}")
    return encode_basestring_ascii(k)


def _block(opening: str, texts: list[str], closing: str, depth: int) -> str:
    """A non-empty container at ``depth`` from the texts of its items."""
    inner = "\n" + "  " * (depth + 1)
    return opening + inner + ("," + inner).join(texts) + "\n" + "  " * depth + closing


def _is_int_pair(o) -> bool:
    return len(o) == 2 and type(o[0]) is int and type(o[1]) is int


class _Writer:
    def __init__(self, write):
        self.write = write
        self.parts: list[str] = []
        self.pending = 0
        # depth -> (k, side) -> the text of that pair of ints at that depth
        self.pairs: defaultdict[int, dict] = defaultdict(dict)

    def add(self, text: str) -> None:
        self.parts.append(text)
        self.pending += len(text)
        if self.pending >= _FLUSH_AT:
            self.write("".join(self.parts))
            self.parts.clear()
            self.pending = 0

    def pair(self, o, depth: int) -> str:
        cache = self.pairs[depth]
        key = (o[0], o[1])
        text = cache.get(key)
        if text is None:
            text = cache[key] = _block("[", [repr(o[0]), repr(o[1])], "]", depth)
        return text

    def flat(self, o, depth: int) -> str | None:
        """The text of a scalar or of a container whose items are all
        scalars, or None for a container that holds a container."""
        kind = type(o)
        if kind is not list and kind is not tuple and kind is not dict:
            text = _scalar(o)
            if text is not None:
                return text
        if not o:
            return "{}" if isinstance(o, dict) else "[]"
        if isinstance(o, dict):
            texts = _scalars(o.values())
            if texts is None:
                return None
            return _block("{", [_key(k) + ": " + t for k, t in zip(o, texts)], "}", depth)
        if _is_int_pair(o):
            return self.pair(o, depth)
        texts = _scalars(o)
        return None if texts is None else _block("[", texts, "]", depth)

    def flat_items(self, o, depth: int) -> list[str] | None:
        """The texts of the items when every item is flat, else None."""
        cache = self.pairs[depth]
        texts = []
        for v in o:
            # an itinerary entry, a tuple of two ints: formatted once per depth
            if type(v) is tuple and _is_int_pair(v):
                text = cache.get(v) or self.pair(v, depth)
            else:
                text = self.flat(v, depth)
                if text is None:
                    return None
            texts.append(text)
        return texts

    def value(self, o, depth: int) -> None:
        """Write o: one text when it is flat or a list of flat items, else
        item by item."""
        text = self.flat(o, depth)
        if text is None and not isinstance(o, dict):
            texts = self.flat_items(o, depth + 1)
            if texts is not None:
                text = _block("[", texts, "]", depth)
        if text is not None:
            self.add(text)
            return
        inner = "\n" + "  " * (depth + 1)
        sep = inner
        if isinstance(o, dict):
            self.add("{")
            for k, v in o.items():
                self.add(sep + _key(k) + ": ")
                self.value(v, depth + 1)
                sep = "," + inner
            self.add("\n" + "  " * depth + "}")
        else:
            self.add("[")
            for v in o:
                self.add(sep)
                self.value(v, depth + 1)
                sep = "," + inner
            self.add("\n" + "  " * depth + "]")


def write_json(doc, write) -> None:
    """Pass ``write`` the text of ``json.dumps(doc, indent=2) + "\\n"`` in
    chunks.  Dict keys must be str; a value of a type json.dumps cannot
    encode raises TypeError, possibly after earlier chunks were written."""
    w = _Writer(write)
    w.value(doc, 0)
    w.parts.append("\n")
    w.write("".join(w.parts))

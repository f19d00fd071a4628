"""Streaming writer for the JSON reports.

``write_json(doc, write)`` passes ``write`` the text of
``json.dumps(doc, indent=2) + "\\n"`` piece by piece, so a report of tens of
megabytes is never held whole in memory.  A piece is a key with its
separator and indent, the whole text of one list item with its separator,
or a closing bracket; batching the pieces is left to the file object behind
``write``.  With an indent, CPython's ``json`` runs its pure-Python encoder,
one generator step per value.  This writer formats with the same primitives
(``encode_basestring_ascii``, ``float.__repr__``, ``int.__repr__``) but builds
each list item, such as one map component, in one call, dicts key by key.
It keeps two caches per depth: key texts, and the text of each pair of ints
met as a list item, keyed by ``id`` (the tracer shares each mirror's two
``lips``), so a long itinerary whose pairs are all known is one join.  Every
reuse tests identity: -0.0 == 0.0, (1, 1) == (True, 1), NaN != NaN.
``json.dumps`` stays the oracle that tests/test_json_stream.py compares with.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii

_JOIN_ABOVE = 8  # a list longer than this is first tried as one join


def _float(x: float) -> str:
    if x - x == 0.0:  # finite
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


class _Level(dict):
    """The strings of a container at one depth: ``inner`` opens an item,
    ``sep`` separates two and ``close`` precedes the closing bracket.  The
    dict maps each key to ``inner`` plus its text and ``": "``; ``pairs``
    maps the id of a pair of ints to its text as an item, and ``held`` keeps
    that pair, so no other object takes its id while the writer lives."""

    __slots__ = ("inner", "sep", "close", "pairs", "held")

    def __init__(self, depth: int):
        self.inner = inner = "\n" + "  " * (depth + 1)
        self.sep = "," + inner
        self.close = "\n" + "  " * depth
        self.pairs: dict = {}
        self.held: list = []

    def __missing__(self, k) -> str:
        # encode_basestring_ascii raises TypeError for a key that is not a str
        text = self[k] = self.inner + encode_basestring_ascii(k) + ": "
        return text


class _Levels(dict):
    def __missing__(self, depth: int) -> _Level:
        level = self[depth] = _Level(depth)
        return level


class _Writer:
    def __init__(self, write):
        self.write = write
        self.levels = _Levels()

    def text(self, o, depth: int) -> str:
        """The whole text of o at ``depth``."""
        scalars = _SCALARS
        kind = type(o)
        if kind is not dict and kind is not list and kind is not tuple:
            scalar = scalars.get(kind)
            if scalar is None:
                raise TypeError(f"Object of type {kind.__name__} is not a plain JSON value")
            return scalar(o)
        if not o:
            return "{}" if kind is dict else "[]"
        level = self.levels[depth]
        items = []
        append = items.append
        if kind is dict:
            for k, v in o.items():
                scalar = scalars.get(type(v))
                if scalar is not None:
                    append(level[k] + scalar(v))
                else:
                    append(level[k] + self.text(v, depth + 1))
            return "{" + ",".join(items) + level.close + "}"
        pairs = level.pairs
        if len(o) > _JOIN_ABOVE and type(o[0]) is tuple:  # an itinerary of known pairs
            try:
                body = level.sep.join(map(pairs.__getitem__, map(id, o)))
                return "[" + level.inner + body + level.close + "]"
            except KeyError:
                pass
        for v in o:
            scalar = scalars.get(type(v))
            if scalar is not None:
                append(scalar(v))
            # an itinerary entry: formatted once per object and depth.  The
            # type tests keep (1.0, 1) and (True, 1), equal to (1, 1), out.
            elif type(v) is tuple and len(v) == 2 and type(v[0]) is type(v[1]) is int:
                text = pairs.get(id(v))
                if text is None:
                    text = pairs[id(v)] = self.text(v, depth + 1)
                    level.held.append(v)
                append(text)
            else:
                append(self.text(v, depth + 1))
        return "[" + level.inner + level.sep.join(items) + level.close + "]"

    def value(self, o, depth: int) -> None:
        """Write o: a dict key by key, a list item by item, each item in
        one ``text`` call, anything else in one text."""
        write = self.write
        kind = type(o)
        if not o or (kind is not dict and kind is not list and kind is not tuple):
            write(self.text(o, depth))
            return
        level = self.levels[depth]
        if kind is dict:
            sep = "{"
            for k, v in o.items():
                write(sep + level[k])
                self.value(v, depth + 1)
                sep = ","
            write(level.close + "}")
            return
        sep = "[" + level.inner
        for v in o:
            write(sep + self.text(v, depth + 1))
            sep = level.sep
        write(level.close + "]")


def write_json(doc, write) -> None:
    """Pass ``write`` the text of ``json.dumps(doc, indent=2) + "\\n"``, one
    piece per call and with no buffer in between.  doc holds plain JSON
    values only: dict, list, tuple, str, int, float, bool and None, each of
    exactly that type, and str keys.  Anything else, a subclass such as an
    IntEnum or a NamedTuple too, raises TypeError, possibly after earlier
    pieces were written."""
    _Writer(write).value(doc, 0)
    write("\n")

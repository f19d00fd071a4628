"""Byte parity of the streaming report writer with ``json.dumps(doc, indent=2)``,
the oracle it replaces."""

import enum
import json
import math
import re
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import darksector.cli as cli
import darksector.json_stream as json_stream
from conftest import assert_same_text, expected_census, make_dihedral_scene
from darksector.arcs import Arc
from darksector.json_stream import write_json
from darksector.scene import load_scene, save_scene
from darksector.unfolding import build_surface
from test_golden import (
    COMMANDS,
    GOLDEN,
    MIXED,
    SCENES,
    TRAPPED,
    make_five_mirror_scene,
    make_mixed_denominator_scene,
)


def streamed(doc) -> str:
    chunks = []
    write_json(doc, chunks.append)
    return "".join(chunks)


def oracle(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


SPECIAL_FLOATS = [-0.0, 0.0, 1e-320, 5e-324, 1e16, 1e22, 1.5, math.inf, -math.inf, math.nan]
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # includes inf and nan
    st.sampled_from(SPECIAL_FLOATS),
    st.text(),  # includes non-ASCII and control characters
)
# itinerary-like pairs, and pairs equal to them with other element types
pairs = st.one_of(
    st.tuples(st.integers(-2, 40), st.sampled_from([1, -1])),
    st.lists(st.integers(-2, 40), min_size=2, max_size=2),
    st.tuples(st.sampled_from([1, 1.0, True]), st.sampled_from([1, -1, True, -1.0])),
)
# report rows: the same few keys recur at several depths, so one key's text
# is looked up at different indents; the rows hold pairs that equal (1, 1)
ROW_KEYS = ["slit", "sheets", "order", "arc", "s"]
row_values = st.one_of(
    scalars, pairs, st.lists(pairs, max_size=4), st.sampled_from([(1.0, 1), (True, 1), [1, 1], (1, 1)])
)
records = st.recursive(
    st.lists(st.dictionaries(st.sampled_from(ROW_KEYS), row_values, max_size=5), max_size=4),
    lambda rows: st.lists(
        st.dictionaries(st.sampled_from(ROW_KEYS), st.one_of(row_values, rows), max_size=5),
        max_size=4,
    ),
    max_leaves=20,
)
documents = st.recursive(
    st.one_of(scalars, pairs, st.lists(pairs), records),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.tuples(inner, inner),
        st.dictionaries(st.text(max_size=4), inner, max_size=5),
        st.dictionaries(st.sampled_from(ROW_KEYS), inner, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(doc=documents)
def test_generated_documents(doc):
    assert streamed(doc) == oracle(doc)


# shared objects for rows that repeat one object under one key: values that
# are equal but written differently (-0.0 and 0.0; 1, 1.0 and True), NaNs
# that are distinct objects and unequal to themselves, and containers whose
# text depends on their depth
NAN, OTHER_NAN = float("nan"), float("nan")
SHARED_LIST = [1, -0.0, "first"]
SHARED_DICT = {"slit": SHARED_LIST, "sheets": 0.0}  # the list one level deeper
POOL = [-0.0, 0.0, NAN, OTHER_NAN, math.inf, 1, 1.0, True, "second",
        SHARED_LIST, SHARED_DICT, [], {}]
SHARED_KEYS = ["slit", "sheets", "cone_angle"]
pooled = st.sampled_from(POOL)
pooled_rows = st.recursive(
    st.lists(st.dictionaries(st.sampled_from(SHARED_KEYS), pooled, max_size=3), max_size=6),
    lambda rows: st.lists(
        st.dictionaries(st.sampled_from(SHARED_KEYS), st.one_of(pooled, rows), max_size=3),
        max_size=6,
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(doc=st.one_of(pooled_rows, st.dictionaries(st.sampled_from(SHARED_KEYS), pooled_rows)))
def test_rows_of_shared_values(doc):
    assert streamed(doc) == oracle(doc)


def test_pool_holds_distinct_objects():
    assert NAN is not OTHER_NAN
    assert len({id(v) for v in POOL}) == len(POOL)


@pytest.mark.parametrize(
    "values",
    [(-0.0, 0.0), (0.0, -0.0), (True, 1), (1, True), (1, 1.0), (NAN, OTHER_NAN),
     ([], {}), (SHARED_LIST, list(SHARED_LIST))],
    ids=["minus-zero-zero", "zero-minus-zero", "true-one", "one-true", "one-one-float",
         "two-nans", "empty-list-dict", "list-equal-list"],
)
def test_equal_values_under_one_key_are_each_written(values):
    # consecutive rows at the depth of the census's cycles and one deeper
    rows = [{"slit": 1, "cone_angle": v} for v in values]
    doc = {"cycles": rows, "nested": [{"rows": rows}]}
    assert streamed(doc) == oracle(doc)
    assert streamed(doc).count('"cone_angle": ') == 4


def test_one_list_under_one_key_at_two_depths():
    # its text at depth 2 is indented otherwise than at depth 3
    shared = [1, [2, 3]]
    for doc in ([{"k": shared}, {"j": {"k": shared}}, {"k": shared}],
                [{"j": {"k": shared}}, {"k": shared}, {"j": {"k": shared}}]):
        assert streamed(doc) == oracle(doc)


def test_repeated_items_are_written_like_distinct_ones():
    # repeated objects, equal but distinct ones and repeated scalars
    row = {"slit": 1, "endpoint": "first", "order": 1}
    pair = [3, 4]
    docs = [
        [row] * 3 + [{"slit": 2}] + [row] * 2,  # one dict object, repeated
        {"sheets": [pair, pair, pair, [pair, pair]]},  # one list object
        # equal but distinct dicts, some of them written differently
        {"zeros": [dict(row) for _ in range(3)] + [{"order": 1}, {"order": 1.0}, {"order": True}]},
        # a repeated dict below depth 1, and repeats across depths
        {"a": [{"b": [row, row]}, {"c": [[row] * 2, row]}], "d": [row, [], [], None, None]},
        [None, None, 0, 0, "", ""],  # repeated scalars and empty texts
    ]
    for doc in docs:
        assert streamed(doc) == oracle(doc)


def test_equal_pairs_of_other_types_are_not_confused():
    # (1, 1) == (1.0, 1) == (True, 1), but each is written differently
    mixed = [(1, 1), (1.0, 1), (True, 1), [1, True], (1, 1)]
    # a list the writer streams item by item, and one inside such an item
    doc = {"a": mixed, "b": [[(1, 1)]], "c": [{"itinerary": mixed}]}
    assert streamed(doc) == oracle(doc)


# Lists longer than the writer's join threshold, drawn from a few shared
# pair objects as the tracer shares each mirror's two lips: once a list's
# pairs are cached by identity, the list is one join.  (1, 1) is shared too,
# so a pair equal to it but written otherwise must not take its text.
LONG = json_stream._JOIN_ABOVE + 1
SHARED_PAIRS = [(0, 1), (0, -1), (3, 1), (3, -1), (12, 1), (1, 1)]
EQUAL_TO_ONE_ONE = [(1.0, 1), (True, 1), (1, True), [1, 1]]
long_pair_lists = st.lists(st.sampled_from(SHARED_PAIRS + EQUAL_TO_ONE_ONE),
                           min_size=LONG, max_size=3 * LONG)


@settings(max_examples=200, deadline=None)
@given(lists=st.lists(long_pair_lists, min_size=1, max_size=4), at=st.integers(0, LONG),
       new=st.integers(-2, 40))
def test_long_lists_of_shared_pairs(lists, at, new):
    # the first list again, with a pair no list held before in mid-list
    lists.append(lists[0][:at] + [tuple([new, 1])] + lists[0][at:])
    doc = {"components": [{"itinerary": items} for items in lists], "all": lists}
    assert streamed(doc) == oracle(doc)


@pytest.mark.parametrize("other", EQUAL_TO_ONE_ONE, ids=repr)
def test_a_joined_list_writes_an_equal_pair_by_its_own_type(other):
    known = [(1, 1)] * LONG
    doc = {"itineraries": [known, known[1:] + [other], [other] + known[1:]]}
    assert streamed(doc) == oracle(doc)


def test_int_pairs_as_dict_values_at_three_depths():
    p, q = (0, 840), (3, -1)
    rows = [{"sheets": p, "slit": 1}, {"sheets": p, "slit": 2}, {"sheets": q},
            {"sheets": (1, True)}, {"sheets": (1, 1)}, {"sheets": (1.0, 1)}, {"sheets": [1, 1]},
            {"sheets": p}]
    # p under one key at depths 1, 3 and 5
    doc = {"sheets": p, "cycles": rows, "nested": [{"rows": rows, "sheets": p}]}
    assert streamed(doc) == oracle(doc)
    assert streamed(rows) == oracle(rows)


@pytest.mark.parametrize(
    "items",
    [
        [7 * i - 20 for i in range(LONG)] + [10**30, -(10**30)],
        SPECIAL_FLOATS + [NAN, OTHER_NAN, 0.1],
        [True, False] * LONG,
        [None] * LONG,
        ["", "a", "\u00e9", "\u2603", "\U0001f600", "\x00", '"', "\\", "\n"] * 2,
        # one type, then another
        [1] * LONG + [True],
        [True] + [1] * LONG,
        [1] * LONG + [1.0],
        [1.0] * LONG + [1],
        [None] * LONG + [0],
        ["1"] * LONG + [1],
    ],
    ids=["ints", "floats", "bools", "nulls", "strs", "ints-bool", "bool-ints", "ints-float",
         "floats-int", "nulls-int", "strs-int"],
)
def test_long_lists_of_scalars(items):
    doc = {"row": items, "rows": [items, list(items)], "deeper": [{"row": items}]}
    assert streamed(doc) == oracle(doc)
    assert streamed(items) == oracle(items)


def test_a_writer_holds_the_pairs_it_cached():
    # one writer, two documents: the pairs of the first are freed before the
    # second is built, so its new pairs may be allocated where they were.
    chunks = []
    writer = json_stream._Writer(chunks.append)
    first = [[(k, 1) for k in range(2 * LONG)]]
    writer.value(first, 0)
    assert "".join(chunks) + "\n" == oracle(first)
    del first
    chunks.clear()
    second = [[(k, -1) for k in range(100, 100 + 2 * LONG)]]
    writer.value(second, 0)
    assert "".join(chunks) + "\n" == oracle(second)


def test_large_document_is_written_in_several_chunks():
    components = [{"itinerary": [(k % 7, 1 - 2 * (k % 2)) for k in range(400)],
                   "arc": {"start": k / 3, "end": k / 2}} for k in range(200)]
    doc = {"components": components}
    chunks = []
    write_json(doc, chunks.append)
    assert len(chunks) > 1
    assert_same_text("".join(chunks), oracle(doc))
    # no chunk is longer than one list item: its text at depth 2 (each line
    # indented 4 more spaces) and its separator
    longest = max(len(json.dumps(c, indent=2).replace("\n", "\n    ")) for c in components)
    assert all(len(chunk) <= longest + len(",\n    ") for chunk in chunks)


class Side(enum.IntEnum):
    LEFT = 1
    RIGHT = -1


class Status(str, enum.Enum):
    ESCAPED = "escaped"


class Measure(float):
    pass


class Pair(NamedTuple):
    x: float
    y: float


class Row(dict):
    pass


class Points(list):
    pass


# values json.dumps writes as their base type, which the writer refuses:
# it takes values of exactly the plain JSON types
SUBCLASS_VALUES = [Side.LEFT, Status.ESCAPED, Measure(0.1), Pair(1.0, -0.0),
                   Row(a=1), Points([1]), Row(), Points(), Arc(1.0, 2.0)]
NOT_JSON = [object(), {1, 2}, b"bytes", 1j]


@pytest.mark.parametrize(
    "value", NOT_JSON + SUBCLASS_VALUES,
    ids=[None] * len(NOT_JSON) + ["int-enum", "str-enum", "float-subclass", "named-tuple",
                                  "dict-subclass", "list-subclass", "empty-dict-subclass",
                                  "empty-list-subclass", "arc"],
)
def test_unknown_type_raises_type_error(value):
    for doc in ({"ok": [1, 2], "bad": [value]}, {"bad": value}, [value], value):
        with pytest.raises(TypeError):
            streamed(doc)
    if any(value is v for v in NOT_JSON):
        with pytest.raises(TypeError):
            json.dumps({"bad": [value]}, indent=2)


def test_non_string_key_raises_type_error():
    with pytest.raises(TypeError):
        streamed({"ok": {1: 2}})


@pytest.mark.parametrize(
    "items",
    [[Side.LEFT] * LONG, [Pair(1, -1)] * LONG, [(1, 1)] * LONG + [Pair(1, 1)],
     [(1, 1)] * LONG + [(Side.LEFT, 1)], [(1, 1)] * LONG + [(1, Side.RIGHT)]],
    ids=["int-enums", "named-tuples", "pairs-named-tuple", "pairs-enum-first",
         "pairs-enum-second"],
)
def test_long_list_of_subclasses_raises_type_error(items):
    # a top-level list is written item by item, a deeper one tried as a join
    for doc in (items, [items], [{"known": [(1, 1)] * LONG, "itinerary": items}]):
        with pytest.raises(TypeError):
            streamed(doc)


BIG = 10**5000  # more digits than int-to-text conversion allows


@pytest.mark.parametrize(
    "doc",
    [{"sheets": (BIG, 1)}, [{"sheets": (1, -BIG)}], [{"itinerary": [(BIG, 1)]}],
     [{"itinerary": [(0, 1)] * LONG + [(1, BIG)]}], [{"row": [BIG] * LONG}]],
    ids=["top-dict-value", "dict-value", "list-item", "long-list", "ints"],
)
def test_a_pair_with_too_many_digits_raises_as_json_does(doc):
    with pytest.raises(ValueError) as expected:
        json.dumps(doc, indent=2)
    with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
        streamed(doc)


@pytest.fixture
def recorded_docs(monkeypatch):
    """The documents the CLI hands to write_json, in order."""
    docs = []

    def recording(doc, write):
        docs.append(doc)
        write_json(doc, write)

    monkeypatch.setattr(cli, "write_json", recording)
    return docs


def _golden_runs(tmp_path):
    """(name, argv) for every case of tests/test_golden.py, and one larger
    ``unfold``."""
    for scene, command in sorted(GOLDEN):
        args, _ = COMMANDS[command]
        yield f"{scene}-{command}", [*args, "--scene", str(SCENES / f"{scene}.json")]
    mixed = tmp_path / "mixed.json"
    mixed.write_bytes(save_scene(make_mixed_denominator_scene()))
    for command, (args, *_) in sorted(MIXED.items()):
        yield f"mixed-{command}", [*args, "--scene", str(mixed)]
    for name, (make_scene, options, *_) in sorted(TRAPPED.items()):
        path = tmp_path / f"{name}.json"
        path.write_bytes(save_scene(make_scene()))
        yield f"trapped-{name}", ["sectors", "--seed", "0", "--scene", str(path), *options]
    five = tmp_path / "five.json"
    five.write_bytes(save_scene(make_five_mirror_scene()))
    yield "unfold-five-mirrors", ["unfold", "--scene", str(five)]
    # mirrors at angles 0 and pi/840: 1,680 sheets, row lists of thousands of
    # rows over many flushes
    large = tmp_path / "order1680.json"
    large.write_bytes(save_scene(make_dihedral_scene(840)))
    yield "unfold-order1680", ["unfold", "--scene", str(large)]


PLAIN_TYPES = (str, int, float, bool, type(None))


def plain_value_types(o) -> set[type]:
    """Every type that is not exactly a plain JSON type, among the keys and
    values in o."""
    kind = type(o)
    if kind is dict:
        found = {type(k) for k in o if type(k) is not str}
        return found.union(*(plain_value_types(v) for v in o.values()))
    if kind is list or kind is tuple:
        return set().union(*(plain_value_types(v) for v in o))
    return set() if kind in PLAIN_TYPES else {kind}


def test_every_golden_report_matches_the_oracle(tmp_path, recorded_docs):
    names, unfolds = [], 0
    for name, argv in _golden_runs(tmp_path):
        out = tmp_path / f"{name}.json"
        handed = len(recorded_docs)
        cli.main([*argv, "--out", str(out)])
        if argv[0] == "unfold":
            # the CLI streams the census from the surface, past write_json
            assert len(recorded_docs) == handed, name
            with open(argv[argv.index("--scene") + 1], "rb") as f:
                surface = build_surface(load_scene(f.read()))
            doc = expected_census(surface)
            unfolds += 1
        else:
            doc = recorded_docs[-1]
            # the CLI hands the writer plain values only
            assert plain_value_types(doc) == set(), name
        assert_same_text(out.read_text(encoding="ascii"), oracle(doc), name)
        names.append(name)
    assert len(names) == len(GOLDEN) + len(MIXED) + len(TRAPPED) + 2
    assert unfolds == 5
    assert len(recorded_docs) == len(names) - unfolds

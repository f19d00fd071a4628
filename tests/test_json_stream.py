"""Byte parity of the streaming report writer with ``json.dumps(doc, indent=2)``,
the oracle it replaces."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import darksector.cli as cli
from darksector.json_stream import write_json
from darksector.scene import save_scene
from test_golden import COMMANDS, GOLDEN, MIXED, SCENES, TRAPPED, make_mixed_denominator_scene


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
documents = st.recursive(
    st.one_of(scalars, pairs, st.lists(pairs)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.tuples(inner, inner),
        st.dictionaries(st.text(max_size=4), inner, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(doc=documents)
def test_generated_documents(doc):
    assert streamed(doc) == oracle(doc)


def test_equal_pairs_of_other_types_are_not_confused():
    # (1, 1) == (1.0, 1) == (True, 1), but each is written differently
    doc = {"a": [(1, 1), (1.0, 1), (True, 1), [1, True], (1, 1)], "b": [[(1, 1)]]}
    assert streamed(doc) == oracle(doc)


def test_large_document_is_written_in_several_chunks():
    doc = {"components": [{"itinerary": [(k % 7, 1 - 2 * (k % 2)) for k in range(400)],
                           "arc": {"start": k / 3, "end": k / 2}} for k in range(200)]}
    chunks = []
    write_json(doc, chunks.append)
    assert len(chunks) > 1
    assert "".join(chunks) == oracle(doc)


@pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes", 1j])
def test_unknown_type_raises_type_error(value):
    with pytest.raises(TypeError):
        streamed({"ok": [1, 2], "bad": [value]})
    with pytest.raises(TypeError):
        json.dumps({"bad": [value]}, indent=2)


def test_non_string_key_raises_type_error():
    with pytest.raises(TypeError):
        streamed({"ok": {1: 2}})


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
    """(name, argv) for every case of tests/test_golden.py."""
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


def test_every_golden_report_matches_the_oracle(tmp_path, recorded_docs):
    names = []
    for name, argv in _golden_runs(tmp_path):
        out = tmp_path / f"{name}.json"
        cli.main([*argv, "--out", str(out)])
        assert out.read_text(encoding="ascii") == oracle(recorded_docs[-1]), name
        names.append(name)
    assert len(names) == len(GOLDEN) + len(MIXED) + len(TRAPPED)
    assert len(recorded_docs) == len(names)

"""Aldebaran (.aut) format round-trip tests."""

import io
import re
from contextlib import nullcontext

import pytest

from repro.core import LTS, TAU, make_lts
from repro.core.aut import (
    _EDGE,
    _HEADER,
    AutFormatError,
    _unescape,
    dumps_aut,
    loads_aut,
    parse_label,
    read_aut,
    render_label,
    write_aut,
)


def test_render_tau():
    assert render_label(TAU) == "i"


def test_render_structured_label():
    assert render_label(("call", 1, "enq", (5,))) == "CALL !1 !enq !(5,)"
    assert render_label(("ret", 2, "deq", "EMPTY")) == "RET !2 !deq !EMPTY"


def test_parse_label_round_trip():
    for label in (
        TAU,
        ("call", 1, "enq", (5,)),
        ("ret", 2, "deq", None),
        ("call", 3, "newcas", (0, 1)),
        "plain",
    ):
        assert parse_label(render_label(label)) == label


def test_parse_tau_variants():
    for text in ("i", "tau", "I"):
        assert parse_label(text) == TAU


def test_quoted_tau_spelling_is_the_string():
    # A *quoted* "tau"/"i" field is a visible label spelled that way --
    # only the bare CADP spellings denote the silent action.  (read_aut
    # strips the field's outer quotes before parse_label, so CADP files
    # writing (0, "tau", 1) still get the silent action.)
    assert parse_label('"\'tau\'"') == "tau"
    assert parse_label('"\'i\'"') == "i"


def test_visible_label_i_survives_round_trip():
    # Regression: a visible action literally labelled "i" (or "I") used
    # to be rendered bare and silently become the silent action after a
    # round trip.  ("tau" is interned as the silent action by the LTS
    # layer itself, so only render/parse inversion is checked for it.)
    for label in ("i", "tau", "I"):
        rendered = render_label(label)
        assert parse_label(rendered) == label
    for label in ("i", "I"):
        lts = make_lts(2, 0, [(0, label, 1)])
        back = loads_aut(dumps_aut(lts))
        restored = {
            (s, back.action_labels[a], d) for s, a, d in back.transitions()
        }
        assert restored == {(0, label, 1)}


def test_quote_and_bang_labels_survive_round_trip():
    # Regression: write_aut rewrote '"' to "'" (lossy), and labels
    # containing '!' were misparsed as gate offers on the way back.
    labels = ['quo"te', "a!b", ' padded ', "", 'back\\slash', '"tau"']
    lts = make_lts(len(labels) + 1, 0,
                   [(k, label, k + 1) for k, label in enumerate(labels)])
    back = loads_aut(dumps_aut(lts))
    original = {(s, lts.action_labels[a], d) for s, a, d in lts.transitions()}
    restored = {(s, back.action_labels[a], d) for s, a, d in back.transitions()}
    assert original == restored


def test_read_aut_parses_repeated_labels_like_parse_label():
    # read_aut parses each distinct label field once; every line must
    # still come back as that line's own parse_label result.
    lines = [
        '(0, "i", 1)',
        '(1, i, 2)',
        '(2, "tau", 0)',
        '(0, "CALL !1 !enq !(1,)", 1)',
        '(1, "RET !1 !deq !EMPTY", 2)',
        '(2, "\\"\'i\'\\"", 0)',
        '(0, "quo\\"te", 2)',
        '(1, "back\\\\slash", 0)',
        '(2, "CALL !1 !enq !(1,)", 0)',
        '(0, "i", 2)',
        '(1, "\\"\'i\'\\"", 1)',
        '(2, "quo\\"te", 1)',
        '(0, plain, 0)',
    ]
    lts = loads_aut("des (0, %d, 3)\n" % len(lines) + "\n".join(lines) + "\n")
    expected = []
    for line in lines:
        field = line[line.index(", ") + 2:line.rindex(", ")]
        if len(field) >= 2 and field[0] == field[-1] == '"':
            field = _unescape(field[1:-1])
        expected.append(parse_label(field))
    got = [lts.action_labels[aid] for _s, aid, _d in lts.transitions()]
    assert got == expected
    assert [type(label) for label in got] == [type(label) for label in expected]
    assert got[5] == "i" and got[0] == got[1] == got[2] == TAU
    assert got[6] == 'quo"te' and got[7] == "back\\slash"
    assert len(lts.action_labels) == len(set(expected))


def test_dump_format():
    lts = make_lts(3, 0, [(0, "tau", 1), (1, ("call", 1, "m", ()), 2)])
    text = dumps_aut(lts)
    lines = text.splitlines()
    assert lines[0] == "des (0, 2, 3)"
    assert '(0, "i", 1)' in lines
    assert '(1, "CALL !1 !m !()", 2)' in lines


def test_round_trip_preserves_structure():
    lts = make_lts(4, 2, [
        (2, "tau", 0), (0, ("call", 1, "push", (1,)), 1),
        (1, ("ret", 1, "push", None), 3), (3, "tau", 3),
    ])
    back = loads_aut(dumps_aut(lts))
    assert back.num_states == lts.num_states
    assert back.num_transitions == lts.num_transitions
    assert back.init == lts.init
    original = {(s, lts.action_labels[a], d) for s, a, d in lts.transitions()}
    restored = {(s, back.action_labels[a], d) for s, a, d in back.transitions()}
    assert original == restored


def test_round_trip_is_bisimilar_on_object_system():
    from repro.core import compare_branching
    from repro.lang import ClientConfig, explore
    from repro.objects import get

    bench = get("newcas")
    lts = explore(bench.build(2), ClientConfig(2, 1, bench.default_workload()))
    back = loads_aut(dumps_aut(lts))
    assert compare_branching(lts, back, divergence=True).equivalent


def test_file_round_trip(tmp_path):
    lts = make_lts(2, 0, [(0, "a", 1)])
    path = str(tmp_path / "system.aut")
    write_aut(lts, path)
    back = read_aut(path)
    assert back.num_states == 2


def test_errors():
    with pytest.raises(ValueError):
        loads_aut("")
    with pytest.raises(ValueError):
        loads_aut("not a header")
    with pytest.raises(ValueError):
        loads_aut('des (0, 1, 2)\ngarbage')
    with pytest.raises(ValueError):
        loads_aut('des (0, 5, 2)\n(0, "a", 1)')  # count mismatch


def test_out_of_range_transition_endpoint_rejected():
    # Regression: endpoints >= the declared state count used to grow
    # the LTS silently instead of failing.
    with pytest.raises(ValueError, match=r"line 2.*out of range.*2 states"):
        loads_aut('des (0, 1, 2)\n(0, "a", 5)')
    with pytest.raises(ValueError, match=r"line 3.*out of range"):
        loads_aut('des (0, 2, 2)\n(0, "a", 1)\n(7, "b", 0)')


def test_out_of_range_initial_state_rejected():
    with pytest.raises(ValueError, match=r"line 1.*initial state 4.*2 states"):
        loads_aut('des (4, 0, 2)')


@pytest.mark.parametrize("label", [
    "a\nb", ("call", 1, "a\nb"), "a\rb", "a\r\nb", "\n",
    # Not line breaks to a text file: these stay raw and must keep
    # round-tripping (read_aut keeps the file's own line splitting).
    "a\x0bb", "a\x0cb", "a\x1cb", "a\x1db", "a\x1eb", "a\x85b",
    "a\u2028b", "a\u2029b",
])
def test_labels_with_line_breaks_round_trip_through_a_file(label, tmp_path):
    lts = make_lts(2, 0, [(0, label, 1), (1, "tau", 0)])
    path = str(tmp_path / "system.aut")
    write_aut(lts, path)
    for back in (read_aut(path), loads_aut(dumps_aut(lts))):
        assert back.action_labels == lts.action_labels
        assert list(back.transitions()) == list(lts.transitions())
    with open(path) as handle:
        assert len(handle.readlines()) == 3


def _per_line_read_aut(source):
    """Reference: ``read_aut`` as one ``add_transition_by_id`` per line."""
    lines = [
        (lineno, stripped)
        for lineno, line in enumerate(source, start=1)
        if (stripped := line.strip())
    ]
    if not lines:
        raise AutFormatError("empty AUT input")
    first_lineno, first = lines[0]
    header = _HEADER.match(first)
    if not header:
        raise AutFormatError(f"line {first_lineno}: bad AUT header: {first!r}")
    init, num_transitions, num_states = (int(g) for g in header.groups())
    if init >= num_states:
        raise AutFormatError(
            f"line {first_lineno}: AUT header's initial state {init} is out "
            f"of range (declared {num_states} states)"
        )
    lts = LTS()
    lts.add_states(num_states)
    lts.init = init
    for lineno, line in lines[1:]:
        edge = _EDGE.match(line)
        if not edge:
            raise AutFormatError(f"line {lineno}: bad AUT transition: {line!r}")
        src_text, label_text, dst_text = edge.groups()
        src, dst = int(src_text), int(dst_text)
        if src >= num_states or dst >= num_states:
            raise AutFormatError(
                f"line {lineno}: AUT transition endpoint out of range "
                f"(declared {num_states} states): {line!r}"
            )
        text = label_text
        if text.startswith('"') and text.endswith('"') and len(text) >= 2:
            text = _unescape(text[1:-1])
        lts.add_transition_by_id(src, lts.action_id(parse_label(text)), dst)
    if lts.num_transitions != num_transitions:
        raise AutFormatError(
            f"AUT header promises {num_transitions} transitions, "
            f"found {lts.num_transitions}"
        )
    return lts


_AUT_INPUTS = {
    "empty": "",
    "blank-only": "\n  \n\t\n",
    "no-header": "not a header",
    "garbage-edge": 'des (0, 1, 2)\ngarbage',
    "count-mismatch": 'des (0, 5, 2)\n(0, "a", 1)',
    "too-many-edges": 'des (0, 0, 2)\n(0, "a", 1)\n',
    "endpoint-out-of-range": 'des (0, 1, 2)\n(0, "a", 5)',
    "later-endpoint-out-of-range": 'des (0, 2, 2)\n(0, "a", 1)\n(7, "b", 0)',
    "range-error-before-garbage": 'des (0, 2, 2)\n(0, "a", 9)\nfoo\n',
    "init-out-of-range": 'des (4, 0, 2)',
    "blank-before-header": '\n   \ndes (0, 1, 2)\n(0, "a", 1)\n',
    "blank-before-bad-header": '\n\n  \nnot a header\n(0, "a", 1)\n',
    "trailing-garbage": 'des (0, 1, 2)\n(0, "a", 1)\n\nfoo bar\n',
    "trailing-blank-lines": 'des (0, 1, 2)\n(0, "a", 1)\n\n \n',
    "blank-lines-between": 'des (0, 2, 2)\n\n(0, "a", 1)\n\t\n(1, i, 0)\n',
    "crlf": 'des (0, 2, 2)\r\n(0, "a", 1)\r\n(1, "i", 0)\r\n',
    "missing-paren": 'des (0, 1, 2)\n(0, "a", 1\n',
    "negative-endpoint": 'des (0, 1, 2)\n(-1, "a", 1)\n',
    "header-twice": 'des (0, 1, 2)\ndes (0, 1, 2)\n',
    "vertical-tab-label": 'des (0, 1, 2)\n(0, "a\x0bb", 1)\n',
    "form-feed-padding": '\x0cdes (0, 1, 2)\x0c\n(0, "a", 1)\x0b\n',
}


@pytest.mark.parametrize("case", sorted(_AUT_INPUTS))
def test_read_aut_decides_like_the_per_line_reader(case, tmp_path):
    text = _AUT_INPUTS[case]
    path = tmp_path / "input.aut"
    path.write_text(text)
    sources = (
        lambda: io.StringIO(text),
        lambda: open(path),
        lambda: nullcontext(io.StringIO(text).readlines()),  # any line iterable
    )
    for source in sources:
        with source() as handle:
            try:
                expected = _per_line_read_aut(handle)
            except AutFormatError as exc:
                expected = exc
        with source() as handle:
            if isinstance(expected, AutFormatError):
                with pytest.raises(
                    AutFormatError, match=f"^{re.escape(str(expected))}$"
                ):
                    read_aut(handle)
                continue
            got = read_aut(handle)
        assert (got.init, got.num_states) == (expected.init, expected.num_states)
        assert got.action_labels == expected.action_labels
        assert list(got.transitions_with_annotations()) == list(
            expected.transitions_with_annotations()
        )

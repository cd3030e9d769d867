"""Aldebaran (.aut) format round-trip tests."""

import pytest

from repro.core import TAU, make_lts
from repro.core.aut import (
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

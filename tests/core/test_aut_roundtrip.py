"""Property test: AUT serialization is a faithful inverse.

Random LTSs built over an adversarial label pool -- the tau spellings
as visible strings, quotes, backslashes, ``!``, surrounding
whitespace, AUT-syntax lookalikes, and (nested) gate-offer tuples --
must survive ``loads_aut(dumps_aut(lts))`` exactly: same initial
state, state count, and multiset of labelled transitions.
"""

import warnings
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TAU
from repro.core.aut import dumps_aut, loads_aut, parse_label, render_label
from repro.core.lts import LTS

#: Labels that historically broke the round trip.
ADVERSARIAL = [
    TAU,
    "i", "I", "tau", '"tau"', "'i'",
    "a!b", "!", "CALL !1", 'quo"te', "back\\slash", '\\"',
    " padded ", "\t", "",
    'des (0, 1, 2)', '(0, "a", 1)',
    0, 1, -3, None, True,
    ("call", 1, "enq", (5,)),
    ("ret", 2, "deq", "EMPTY"),
    ("call",),
    ("Call", 1),
    ("call", 1, "m", ("nested", (2, "deep"))),
    ("a!b", 'quo"te'),
]

_texts = st.text(
    alphabet=st.sampled_from('ab!"\\() ,\ti'), max_size=8
)
_labels = st.one_of(
    st.sampled_from(ADVERSARIAL),
    _texts,
    st.integers(-5, 5),
    st.tuples(_texts, st.integers(0, 3), _texts),
)


@st.composite
def random_lts(draw):
    num_states = draw(st.integers(min_value=1, max_value=6))
    init = draw(st.integers(min_value=0, max_value=num_states - 1))
    edges = draw(st.lists(
        st.tuples(
            st.integers(0, num_states - 1),
            _labels,
            st.integers(0, num_states - 1),
        ),
        max_size=12,
    ))
    lts = LTS()
    lts.add_states(num_states)
    lts.init = init
    for src, label, dst in edges:
        lts.add_transition_by_id(src, lts.action_id(label), dst)
    return lts


def _labelled(lts):
    return Counter(
        (src, lts.action_labels[aid], dst)
        for src, aid, dst in lts.transitions()
    )


@settings(max_examples=200, deadline=None)
@given(random_lts())
def test_aut_round_trip_is_exact(lts):
    back = loads_aut(dumps_aut(lts))
    assert back.init == lts.init
    assert back.num_states == lts.num_states
    assert _labelled(back) == _labelled(lts)


@settings(max_examples=300, deadline=None)
@given(_labels)
def test_render_parse_inverse(label):
    assert parse_label(render_label(label)) == label


@pytest.mark.parametrize("action", ["default", "error"])
def test_invalid_escapes_parse_the_same_under_every_warning_filter(action):
    # Evaluating a literal with an escape Python warns about would make
    # the label depend on the warning filters (``python -W error``
    # turns the warning into an error); such text stays a string.
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        assert parse_label(r'"(1, \"a\\ b\")"') == '(1, "a\\ b")'
        assert parse_label(r'CALL !1 !"a\ b"') == ("call", 1, '"a\\ b"')
        assert parse_label(r'"\'\\777\'"') == "'\\777'"
        assert parse_label(r'"(1, \"a\\n\")"') == (1, "a\n")

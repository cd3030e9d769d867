"""Aldebaran (.aut) import/export -- CADP's textual LTS interchange format.

The paper's toolchain stores state spaces as CADP BCG/AUT graphs; this
module reads and writes the textual ``.aut`` flavour so systems
generated here can be minimized/compared with CADP (or graphs exported
from CADP can be analysed with this library).

Format::

    des (<initial-state>, <number-of-transitions>, <number-of-states>)
    (<from-state>, "<label>", <to-state>)
    ...

Labels: the silent action is written ``i`` (CADP's convention; ``tau``
is accepted on input).  Structured labels (the ``("call", t, m, args)``
tuples) are rendered like CADP gate offers -- ``CALL !1 !enq !(1,)`` --
and parsed back to the same tuples.

Rendering and parsing are exact inverses: a label whose natural
rendering would be misread on input -- a plain string label ``"i"`` or
``"tau"`` (which would come back as the silent action), a label
containing ``!``, ``"`` or a line break (``\n``, ``\r``), surrounding
whitespace, or a tuple whose gate-offer form is ambiguous -- is written
as a quoted Python literal (``"'i'"``) and restored verbatim by
:func:`parse_label`.  The file
layer escapes ``"`` and ``\\`` inside label fields instead of the
lossy quote-to-apostrophe rewrite used previously.

:func:`read_aut` validates the header: transitions whose endpoints are
not below the declared state count, and an initial state out of range,
raise :class:`AutFormatError` (a :class:`ValueError`) naming the
offending line (previously the LTS silently grew extra states).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from itertools import islice
from typing import Any, Dict, Hashable, List, TextIO, Tuple, Union

from .. import InputError
from .lts import LTS, TAU, AnyLTS


class AutFormatError(InputError, ValueError):
    """An ``.aut`` input that does not parse, naming the offending line."""


#: Plain-text spellings parsed as the silent action.
_TAU_SPELLINGS = ("i", "tau", "I")


def render_label(label: Hashable) -> str:
    """Render an action label as an AUT label string.

    Guaranteed inverse of :func:`parse_label` for the silent action,
    strings, and (nested) tuples of strings / literals: if the natural
    rendering would not parse back to ``label``, or holds a line break
    that would split its line of an ``.aut`` file, a quoted-literal
    form is emitted instead.
    """
    if label == TAU:
        return "i"
    text = _render_plain(label)
    if "\n" not in text and "\r" not in text:
        try:
            if parse_label(text) == label:
                return text
        except ValueError:
            pass
    return _quote(repr(label))


def _render_plain(label: Hashable) -> str:
    """The natural (possibly ambiguous) rendering of a label."""
    if isinstance(label, tuple) and label and isinstance(label[0], str):
        head = str(label[0]).upper()
        offers = " ".join(f"!{_render_offer(part)}" for part in label[1:])
        return f"{head} {offers}".strip()
    return label if isinstance(label, str) else str(label)


def _render_offer(part: Any) -> str:
    if isinstance(part, str):
        return part
    return repr(part)


def _quote(text: str) -> str:
    """Wrap label text in quotes, escaping backslashes and quotes."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _unescape(text: str) -> str:
    """Undo :func:`_quote`'s escaping (without the surrounding quotes)."""
    out: List[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            out.append(text[i + 1])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def parse_label(text: str) -> Hashable:
    """Parse an AUT label string back into an action label."""
    text = text.strip()
    if text in _TAU_SPELLINGS:
        return TAU
    if len(text) >= 2 and text.startswith('"') and text.endswith('"'):
        inner = _unescape(text[1:-1])
        try:
            return _literal(inner)
        except (ValueError, SyntaxError):
            return inner
    if "!" in text:
        head, *offers = [part.strip() for part in text.split("!")]
        parts: List[Any] = [head.lower()]
        for offer in offers:
            parts.append(_parse_offer(offer))
        return tuple(parts)
    return text


def _parse_offer(text: str) -> Any:
    try:
        return _literal(text)
    except (ValueError, SyntaxError):
        return text


#: Characters that may follow a backslash in a str / bytes literal
#: without a warning (``\N``, ``\u`` and ``\U`` are str-only).
_STR_ESCAPES = frozenset("\n\\'\"abfnrtv01234567xNuU")
_BYTES_ESCAPES = frozenset("\n\\'\"abfnrtv01234567x")


def _literal(text: str) -> Any:
    """``ast.literal_eval(text)``, except that a string literal with an
    escape Python warns about raises :class:`ValueError`.

    Evaluating such a literal warns (a DeprecationWarning on 3.11, a
    SyntaxWarning from 3.12), so its value would depend on the warning
    filters: under ``-W error`` the warning is an error.  Scanning the
    literals first keeps the text a string under every filter, as later
    Pythons will once these escapes are errors, and leaves the
    process-wide warning state alone.
    """
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, SyntaxError) as exc:
        raise ValueError(str(exc)) from None
    for token in tokens:
        if token.type == tokenize.STRING and _warns(token.string):
            raise ValueError(f"invalid escape in {token.string}")
    return ast.literal_eval(text)


def _warns(literal: str) -> bool:
    """Whether a string literal token holds an escape Python warns about."""
    prefix = literal[: len(literal) - len(literal.lstrip("rRbBuUfF"))].lower()
    if "r" in prefix:
        return False
    allowed = _BYTES_ESCAPES if "b" in prefix else _STR_ESCAPES
    i = literal.find("\\")
    while i != -1:
        escape = literal[i + 1]
        if escape not in allowed:
            return True
        if escape in "01234567":
            digits = escape
            for ch in literal[i + 2:i + 4]:
                if ch not in "01234567":
                    break
                digits += ch
            if int(digits, 8) > 0o377:
                return True
        i = literal.find("\\", i + 2)
    return False


def write_aut(lts: AnyLTS, target: Union[str, TextIO]) -> None:
    """Write an LTS in Aldebaran format to a path or file object."""
    if isinstance(target, str):
        with open(target, "w") as handle:
            write_aut(lts, handle)
            return
    target.write(
        f"des ({lts.init}, {lts.num_transitions}, {lts.num_states})\n"
    )
    # Labels are interned; render each action id once.
    rendered: List[str] = [""] * lts.num_actions
    done = [False] * lts.num_actions
    for src, aid, dst in lts.transitions():
        if not done[aid]:
            label = render_label(lts.action_labels[aid])
            rendered[aid] = label.replace("\\", "\\\\").replace('"', '\\"')
            done[aid] = True
        target.write(f'({src}, "{rendered[aid]}", {dst})\n')


def dumps_aut(lts: AnyLTS) -> str:
    """Render an LTS to an AUT-format string."""
    buffer = io.StringIO()
    write_aut(lts, buffer)
    return buffer.getvalue()


_HEADER = re.compile(r"des\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")
_EDGE = re.compile(r'\(\s*(\d+)\s*,\s*(".*"|[^,]*?)\s*,\s*(\d+)\s*\)\s*$')


def read_aut(source: Union[str, TextIO]) -> LTS:
    """Read an LTS in Aldebaran format from a path or file object.

    Raises :class:`AutFormatError` on input that does not decode as
    text, and (naming the offending line) on a malformed header or
    transition, on a transition whose endpoints are not below the
    header's declared state count, on an out-of-range initial state,
    and on a transition-count mismatch.
    """
    if isinstance(source, str):
        with open(source) as handle:
            return read_aut(handle)
    # The file's own line splitting: a label may hold characters that
    # str.splitlines() would also break at (\x0b, \x0c, \x85, ...).
    try:
        lines = list(source)
    except UnicodeDecodeError as exc:
        raise AutFormatError(f"AUT input is not text: {exc}") from None
    header_at = next((i for i, line in enumerate(lines) if line.strip()), None)
    if header_at is None:
        raise AutFormatError("empty AUT input")
    first_lineno, first = header_at + 1, lines[header_at].strip()
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
    srcs: List[int] = []
    aids: List[int] = []
    dsts: List[int] = []
    match_edge = _EDGE.match
    # A file has few distinct labels: parse each raw label field once.
    action_ids: Dict[str, int] = {}
    for lineno, line in enumerate(
        islice(lines, first_lineno, None), start=first_lineno + 1
    ):
        line = line.strip()
        if not line:
            continue
        edge = match_edge(line)
        if edge is None:
            raise AutFormatError(f"line {lineno}: bad AUT transition: {line!r}")
        src_text, label_text, dst_text = edge.groups()
        src, dst = int(src_text), int(dst_text)
        if src >= num_states or dst >= num_states:
            raise AutFormatError(
                f"line {lineno}: AUT transition endpoint out of range "
                f"(declared {num_states} states): {line!r}"
            )
        aid = action_ids.get(label_text)
        if aid is None:
            text = label_text
            if text.startswith('"') and text.endswith('"') and len(text) >= 2:
                text = _unescape(text[1:-1])
            aid = action_ids[label_text] = lts.action_id(parse_label(text))
        srcs.append(src)
        aids.append(aid)
        dsts.append(dst)
    if len(srcs) != num_transitions:
        raise AutFormatError(
            f"AUT header promises {num_transitions} transitions, "
            f"found {len(srcs)}"
        )
    lts.add_transitions_by_id(srcs, aids, dsts)
    return lts


def loads_aut(text: str) -> LTS:
    """Parse an LTS from an AUT-format string."""
    return read_aut(io.StringIO(text))

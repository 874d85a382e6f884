"""The parsers are open to any text: each one returns or raises
ParseError, never anything else (no RecursionError on deep nesting, no
IndexError or ValueError on stray characters)."""

from hypothesis import given, settings, strategies as st

from byrdbox import ParseError, parse_event, parse_program, parse_term, parse_trace

# Characters the tokenizer knows, so that generated text gets past it.
_PROLOG = "abfsXY_Z01():-,.%\n\t "


def _nested(depth, functor, leaf, closed):
    """`functor(` `depth` times around `leaf`, closed `closed` times."""
    return functor + "(" + (functor + "(") * (depth - 1) + leaf + ")" * closed


_deep = st.builds(
    _nested,
    st.integers(1, 3000),
    st.sampled_from(["s", "f", "nat", "X", "é"]),
    st.sampled_from(["z", "X", "_", "", "a,b", "1"]),
    st.integers(0, 3000),
)

_text = st.one_of(
    st.text(),  # any code point: non-ASCII letters, control characters
    st.text(alphabet=_PROLOG, max_size=200),
    st.text(alphabet=st.characters(min_codepoint=0x80), max_size=50),
    _deep,
)


def _returns_or_parse_error(parse, text):
    try:
        parse(text)
    except ParseError:
        pass


@settings(max_examples=300, deadline=None)
@given(_text)
def test_parse_term_returns_or_raises_parse_error(text):
    _returns_or_parse_error(parse_term, text)


@settings(max_examples=300, deadline=None)
@given(_text, st.sampled_from(["{}", ":- {}.", "p :- {}.\n:- p.", "c1: {}. :- q."]))
def test_parse_program_returns_or_raises_parse_error(text, frame):
    _returns_or_parse_error(parse_program, text)
    _returns_or_parse_error(parse_program, frame.format(text))


@settings(max_examples=300, deadline=None)
@given(_text, st.sampled_from(["{}", "1 1 1 Call {}", "1 2 3 Exit {}\n2 2 2 Fail p"]))
def test_parse_trace_returns_or_raises_parse_error(text, frame):
    _returns_or_parse_error(parse_trace, text)
    _returns_or_parse_error(parse_trace, frame.format(text))
    _returns_or_parse_error(parse_event, frame.format(text))

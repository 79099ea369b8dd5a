"""Free-group words, involutive letter strings, and their kernel partitions.

A word in the free group on generators x1, x2, ... expands into a string of
involutive letters a1, a2, ... (each its own inverse) by sending xn to the
two-letter string a1 a(n+1), and xn^-1 to a(n+1) a1. The expansion is kept
as written, without cancelling adjacent equal letters; taking the kernel of
the resulting index sequence yields the partition attached to the word.
"""

import re
from operator import attrgetter

from .errors import ParseError, check_type
from .partition import Partition, canonical_labels
from .textio import _read_int


class _Word:
    """A tuple of letters, checked on construction: the tuple once, then its
    letters by the class's `_check_letters`. Immutable; equal, with equal
    hashes, to a word of the same class with equal letters."""

    __slots__ = ("_letters",)

    def __new__(cls, letters=()):
        check_type(letters, tuple, "letters", ValueError)
        cls._check_letters(letters)
        w = object.__new__(cls)
        w._letters = letters
        return w

    letters = property(attrgetter("_letters"))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._letters == other._letters

    def __hash__(self):
        return hash(self._letters)

    def __repr__(self):
        return f"{type(self).__name__}(letters={self._letters!r})"


class FreeWord(_Word):
    """A word x_{i1}^{e1} ... x_{im}^{em} with indices >= 1 and exponents +-1."""

    __slots__ = ()

    @staticmethod
    def _check_letters(letters: tuple[tuple[int, int], ...]):
        for letter in letters:
            try:
                gen, exp = letter
            except (TypeError, ValueError):
                raise ValueError(
                    f"a letter must be a pair (index, exponent), got {letter!r}"
                ) from None
            # bool passes as the int it equals, as it always has.
            if type(gen) is not int and not isinstance(gen, int) or gen < 1:
                raise ValueError(f"generator index must be an integer >= 1, got {gen!r}")
            if type(exp) is not int and not isinstance(exp, int) or exp not in (1, -1):
                raise ValueError(f"exponent must be the integer +1 or -1, got {exp!r}")


class InvolutiveWord(_Word):
    """A string of involutive generator indices a_{i1} ... a_{in}."""

    __slots__ = ()

    @staticmethod
    def _check_letters(letters: tuple[int, ...]):
        for i in letters:
            if type(i) is not int and not isinstance(i, int) or i < 1:
                raise ValueError(f"letter index must be an integer >= 1, got {i!r}")

    def __len__(self):
        return len(self._letters)


_TOKEN = re.compile(r"x([0-9]+)(\^-1)?")


def _letter(token: str, offset) -> tuple[int, int]:
    """The letter of one token, or a ParseError at `offset` if it is none."""
    m = _TOKEN.fullmatch(token)
    gen = _read_int(m.group(1), "generator index", offset) if m else 0
    if gen < 1:
        raise ParseError(
            f"expected a token like 'x2' or 'x2^-1', got {token!r}", offset=offset
        )
    return gen, -1 if m.group(2) else 1


def _scan_word(text: str) -> FreeWord:
    """Read the tokens of a word one by one.

    Reports the first bad token as a ParseError at its offset.
    """
    letters = []
    offset = 0
    for token in text.split():
        offset = text.index(token, offset)
        letters.append(_letter(token, offset))
        offset += len(token)
    return FreeWord(tuple(letters))


class _LetterOfToken(dict):
    """The letters of the distinct tokens seen so far, each read on first use.

    Raises ParseError, with no offset, for a token that is not a letter.
    """

    def __missing__(self, token):
        self[token] = letter = _letter(token, None)
        return letter


def parse_word(text: str) -> FreeWord:
    """Parse whitespace-separated tokens of the form `x<k>` or `x<k>^-1`.

    Other exponents are not part of the grammar; write the token repeatedly
    instead. Each distinct token is read once, and the tokens are mapped to
    their letters in bulk; equal letters are one shared tuple. A text with a
    bad token is read again by `_scan_word`, which reports it.
    """
    check_type(text, str, "the parsed text", ParseError)
    try:
        letters = tuple(map(_LetterOfToken().__getitem__, text.split()))
    except ParseError:
        return _scan_word(text)
    return FreeWord(letters)


def _expansion(w: FreeWord) -> list[int]:
    out = []
    for gen, exp in w.letters:
        out.extend((1, gen + 1) if exp == 1 else (gen + 1, 1))
    return out


def to_involutive(w: FreeWord) -> InvolutiveWord:
    """Expand a free word into involutive letters, without cancellation.

    Each xn becomes (1, n+1) and each xn^-1 becomes (n+1, 1), so the result
    always has even length, twice the length of the word.
    """
    check_type(w, FreeWord, "the word", ValueError)
    return InvolutiveWord(tuple(_expansion(w)))


def reduce_involutive(a: InvolutiveWord) -> InvolutiveWord:
    """Delete adjacent equal letters until none remain.

    Cancellation is confluent, so the reduced word does not depend on the
    deletion order; a single stack pass finds it.
    """
    check_type(a, InvolutiveWord, "the word", ValueError)
    stack: list[int] = []
    for x in a.letters:
        if stack and stack[-1] == x:
            stack.pop()
        else:
            stack.append(x)
    return InvolutiveWord(tuple(stack))


def partition_of_word(w: FreeWord) -> Partition:
    """The kernel partition of the unreduced involutive expansion of `w`.

    The expansion is used exactly as written (adjacent equal letters are
    kept), with no upper points and one lower point per letter.
    """
    check_type(w, FreeWord, "the word", ValueError)
    # FreeWord has checked every index to be an int >= 1, so the expansion
    # holds positive ints only.
    return Partition._from_raw((0, canonical_labels(_expansion(w))))

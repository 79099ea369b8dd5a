import random

import pytest

from partcat import (
    FreeWord,
    InvolutiveWord,
    ParseError,
    Partition,
    parse_word,
    partition_of_word,
    reduce_involutive,
    to_involutive,
)

from helpers import WHITESPACE, parse_outcome


def test_parse_word():
    w = parse_word("x1 x2 x1^-1 x3^-1 x2 x3")
    assert w.letters == ((1, 1), (2, 1), (1, -1), (3, -1), (2, 1), (3, 1))
    assert parse_word("").letters == ()
    assert parse_word("x12").letters == ((12, 1),)


def test_parse_word_rejects_bad_tokens():
    for bad in ("x0", "y1", "x1^2", "x1^-2", "x", "x1^"):
        with pytest.raises(ParseError):
            parse_word(bad)


def test_parse_word_reads_ascii_digits_only():
    # `\d` matches Arabic-Indic, fullwidth and other decimal digits, which
    # int() reads; a generator index is ASCII.
    for text, offset in (("x\u0663", 0), ("x1 x\u0663", 3), ("x1\uff12", 0), ("x\u00b2", 0)):
        with pytest.raises(ParseError) as e:
            parse_word(text)
        assert e.value.offset == offset


def test_parse_word_overlong_index_raises_parse_error():
    for text, offset in (("x" + "1" * 5000, 0), ("x1  x" + "0" * 4300 + "1^-1", 4)):
        with pytest.raises(ParseError, match="too long") as e:
            parse_word(text)
        assert e.value.offset == offset


def test_word_validation():
    with pytest.raises(ValueError):
        FreeWord(((1.5, 1),))
    with pytest.raises(ValueError):
        FreeWord(((0, 1),))
    with pytest.raises(ValueError):
        FreeWord(((1, 2),))
    for letter in ((1,), (1, 1, 1), 1, None, (1, 1.0), (1, -1.0), (1, "1"), (1, None)):
        with pytest.raises(ValueError):
            FreeWord((letter,))
    assert FreeWord(((1, 1), (2, -1), (True, True))).letters == ((1, 1), (2, -1), (True, True))
    for letter in (0, "a", 1.5, 2.0, None):
        with pytest.raises(ValueError):
            InvolutiveWord((letter,))
    assert InvolutiveWord((True, 2)).letters == (True, 2)
    # The letters must come as a tuple, checked once for the whole word.
    for letters in (5, None, [(1, 1)]):
        with pytest.raises(ValueError):
            FreeWord(letters)
    for letters in (5, None, [1]):
        with pytest.raises(ValueError):
            InvolutiveWord(letters)


def test_word_value_semantics():
    assert FreeWord().letters == () and InvolutiveWord().letters == ()
    assert FreeWord(letters=((1, -1),)) == FreeWord(((1, -1),))
    assert InvolutiveWord(letters=(1, 2)) == InvolutiveWord((1, 2))
    # Equal only within one class, and never to a bare tuple.
    assert FreeWord(()) != InvolutiveWord(())
    assert FreeWord(()) != () and InvolutiveWord(()) != ()
    assert FreeWord(((1, 1),)) != FreeWord(((1, -1),))
    a, b = FreeWord(((2, 1), (1, -1))), FreeWord(((2, 1), (1, -1)))
    assert a is not b and hash(a) == hash(b) and len({a, b}) == 1
    c, d = InvolutiveWord((3, 1)), InvolutiveWord((3, 1))
    assert hash(c) == hash(d) and len({c, d}) == 1
    assert repr(FreeWord(((1, -1),))) == "FreeWord(letters=((1, -1),))"
    assert repr(InvolutiveWord((1, 2))) == "InvolutiveWord(letters=(1, 2))"
    for w in (a, c):
        with pytest.raises(AttributeError):
            w.letters = ()
        with pytest.raises(AttributeError):
            del w.letters
    assert a.letters == ((2, 1), (1, -1)) and c.letters == (3, 1)
    assert len(InvolutiveWord((1, 2))) == 2


def test_to_involutive_worked_example():
    w = parse_word("x1 x2 x1^-1 x3^-1 x2 x3")
    assert to_involutive(w).letters == (1, 2, 1, 3, 2, 1, 4, 1, 1, 3, 1, 4)


def test_to_involutive_single_letters():
    assert to_involutive(parse_word("x1")).letters == (1, 2)
    assert to_involutive(parse_word("x1^-1")).letters == (2, 1)
    assert to_involutive(FreeWord()).letters == ()


def test_to_involutive_always_even_length():
    rng = random.Random(1)
    for _ in range(300):
        letters = tuple(
            (rng.randint(1, 5), rng.choice((1, -1)))
            for _ in range(rng.randint(0, 10))
        )
        w = FreeWord(letters)
        expanded = to_involutive(w)
        assert len(expanded) == 2 * len(letters)
        assert len(expanded) % 2 == 0


def test_reduce_examples():
    assert reduce_involutive(InvolutiveWord((1, 1))).letters == ()
    assert reduce_involutive(InvolutiveWord((1, 2, 2, 1))).letters == ()
    assert reduce_involutive(InvolutiveWord((1, 2, 1))).letters == (1, 2, 1)


def reduce_by_random_deletions(letters, rng):
    letters = list(letters)
    while True:
        spots = [i for i in range(len(letters) - 1) if letters[i] == letters[i + 1]]
        if not spots:
            return tuple(letters)
        i = rng.choice(spots)
        del letters[i : i + 2]


def test_reduce_confluent_and_idempotent():
    rng = random.Random(2)
    for _ in range(500):
        word = InvolutiveWord(
            tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 14)))
        )
        reduced = reduce_involutive(word)
        assert reduce_involutive(reduced) == reduced
        assert reduce_by_random_deletions(word.letters, rng) == reduced.letters


def test_partition_of_word_examples():
    w = parse_word("x1 x2 x1^-1 x3^-1 x2 x3")
    p = partition_of_word(w)
    assert p.upper_count == 0 and p.lower_count == 12
    assert p.blocks == (1, 2, 1, 3, 2, 1, 4, 1, 1, 3, 1, 4)
    assert partition_of_word(FreeWord()) == Partition([], [])
    assert partition_of_word(parse_word("x1 x1^-1")) == Partition([], [1, 2, 2, 1])


def test_block_count_bound():
    rng = random.Random(3)
    for _ in range(300):
        letters = tuple(
            (rng.randint(1, 6), rng.choice((1, -1)))
            for _ in range(rng.randint(0, 10))
        )
        w = FreeWord(letters)
        p = partition_of_word(w)
        distinct = len({g for g, _ in letters})
        assert p.num_blocks <= 1 + distinct


_WORD_TOKENS = ("x1", "x2^-1", "x8", "x12", "x01^-1", "x007", "x300^-1")
_BAD_WORD_TOKENS = (
    "x0", "x00", "x", "y1", "x1^2", "x1^-", "x1^-1^-1", "x+1", "x-1", "x1_0",
    "X1", "x\u0663", "x\uff11", "x\u00b2", "x" + "1" * 4301, "x" + "0" * 4300 + "1",
)


def _random_word(rng):
    parts = [rng.choice(("", rng.choice(WHITESPACE)))]
    for _ in range(rng.randint(0, 40)):
        bad = rng.random() < 0.02
        parts.append(rng.choice(_BAD_WORD_TOKENS if bad else _WORD_TOKENS))
        parts.append("".join(rng.choice(WHITESPACE) for _ in range(rng.randint(1, 2))))
    if rng.random() < 0.5:
        parts.pop()
    return "".join(parts)


def test_bulk_words_match_the_token_scanner():
    from partcat.words import _scan_word

    rng = random.Random(4)
    kinds = {"ok": 0, "error": 0}
    for _ in range(3000):
        text = _random_word(rng)
        bulk = parse_outcome(parse_word, text)
        assert bulk == parse_outcome(_scan_word, text), repr(text)
        kinds[bulk[0]] += 1
    assert kinds["ok"] > 300 and kinds["error"] > 300

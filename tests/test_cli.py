import hashlib
import json
import subprocess
import sys
from pathlib import Path

import partcat
from partcat.cli import main
from partcat.oracles import enumerate_all, is_noncrossing, is_pair_partition


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", "2,4|4,99")
    assert code == 0 and out == "1,2|2,3\n"


def test_involution(capsys):
    code, out, _ = run(capsys, "involution", "1,2,2|1,1,3")
    assert code == 0 and out == "1,1,2|1,3,3\n"


def test_tensor(capsys):
    code, out, _ = run(capsys, "tensor", "1,2|2,1", "1,1|1")
    assert code == 0 and out == "1,2,3,3|2,1,3\n"


def test_compose(capsys):
    code, out, _ = run(capsys, "compose", "1,2,2|1,2", "1|2,2,1")
    assert code == 0 and out == "1|1,1\n"


def test_compose_size_mismatch_exits_2(capsys):
    code, _, err = run(capsys, "compose", "1|1", "|1,1")
    assert code == 2
    assert "lower points" in err and "upper points" in err


def test_parse_error_exits_1(capsys):
    code, _, err = run(capsys, "normalize", "1,2")
    assert code == 1 and "parse error" in err


def test_usage_error_exits_1(capsys):
    code, _, err = run(capsys, "rotate", "1|1")
    assert code == 1 and "usage error" in err
    code, _, err = run(capsys, "compose", "1|1")
    assert code == 1


def test_rotate_corners(capsys):
    code, out, _ = run(capsys, "rotate", "--corner=tl", "1,2|2,1")
    assert code == 0 and out == "1|2,1,2\n"
    code, out2, _ = run(capsys, "rotate", "--corner=top-left", "1,2|2,1")
    assert out2 == out
    code, _, err = run(capsys, "rotate", "--corner=tl", "|1,1")
    assert code == 2 and "upper row is empty" in err


def test_reflect(capsys):
    code, out, _ = run(capsys, "reflect", "1,2|2,3")
    assert code == 0 and out == "1,2|3,1\n"


def test_json_format(capsys):
    code, out, _ = run(capsys, "normalize", "--format=json", "2,4|4,99")
    assert code == 0
    assert json.loads(out) == {"upper": [1, 2], "lower": [2, 3]}


def test_generate_count_alias_for_924(capsys):
    code, out, _ = run(
        capsys,
        "generate",
        "--bound=6",
        "--exact-size=6",
        "--count",
        "1|1,1",
        "1|1",
        "|1,1",
    )
    assert code == 0 and out == "924\n"


def test_generate_lists_members_sorted_and_stable(capsys):
    args = ("generate", "--bound=4", "1|1,1")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2
    lines = out1.strip().split("\n")
    assert len(lines) == len(set(lines))
    # expected membership derived from the enumeration oracle
    expected = {
        str(p)
        for total in range(5)
        for k in range(total + 1)
        for p in enumerate_all(k, total - k)
        if is_noncrossing(p)
    }
    assert set(lines) == expected


def test_generate_exact_size_without_count(capsys):
    code, out, _ = run(capsys, "generate", "--bound=4", "--exact-size=2", "1|1,1")
    assert code == 0
    expected = {
        str(p)
        for k in range(3)
        for p in enumerate_all(k, 2 - k)
        if is_noncrossing(p)
    }
    assert set(out.strip().split("\n")) == expected


def test_generate_negative_exact_size_exits_1(capsys):
    code, out, err = run(
        capsys, "generate", "--bound=4", "--exact-size=-1", "--count", "1|1,1"
    )
    assert code == 1 and out == "" and "usage error" in err


def test_generate_pair_category_count(capsys):
    expected = sum(
        1
        for k in range(5)
        for p in enumerate_all(k, 4 - k)
        if is_pair_partition(p)
    )
    code, out, _ = run(
        capsys, "generate", "--bound=4", "--exact-size=4", "--count", "1,2|2,1"
    )
    assert code == 0 and out == f"{expected}\n"


def test_generate_oversized_generator_exits_2(capsys):
    code, _, err = run(capsys, "generate", "--bound=2", "1|1,1")
    assert code == 2 and "exceeds the bound" in err


def test_generate_json(capsys):
    code, out, _ = run(capsys, "generate", "--bound=2", "--format=json")
    assert code == 0
    members = json.loads(out)
    assert {"upper": [1], "lower": [1]} in members
    assert {"upper": [], "lower": [1, 1]} in members


def test_generate_colored(capsys):
    code, out, _ = run(capsys, "generate", "--bound=2", "--colored")
    assert code == 0
    lines = out.strip().split("\n")
    assert "w:1|w:1" in lines and "b:1|b:1" in lines
    assert ":|wb:1,1" in lines and ":|bw:1,1" in lines


def test_generate_spatial(capsys):
    code, out, _ = run(capsys, "generate", "--bound=2", "--levels=2")
    assert code == 0
    lines = out.strip().split("\n")
    assert "m=2;1,2|1,2" in lines  # the two-level identity
    code, _, err = run(capsys, "generate", "--bound=2", "--colored", "--levels=2")
    assert code == 1
    code, _, err = run(capsys, "generate", "--bound=2", "--levels=0")
    assert code == 1 and "usage error" in err


def test_embed_word(capsys):
    code, out, _ = run(capsys, "embed-word", "x1 x2 x1^-1 x3^-1 x2 x3")
    assert code == 0 and out == "|1,2,1,3,2,1,4,1,1,3,1,4\n"
    code, _, err = run(capsys, "embed-word", "x0")
    assert code == 1 and "parse error" in err


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--upper=0", "--lower=3", "--count")
    assert code == 0 and out == "5\n"
    code, out, _ = run(capsys, "enumerate", "--upper=1", "--lower=1")
    assert code == 0
    assert set(out.strip().split("\n")) == {"1|1", "1|2"}
    code, out, _ = run(
        capsys, "enumerate", "--upper=2", "--lower=2", "--predicate=pair", "--count"
    )
    assert code == 0 and out == "3\n"
    code, _, err = run(capsys, "enumerate", "--upper=6", "--lower=6")
    assert code == 2


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--upper=0", "--lower=2", "--format=json")
    assert code == 0
    assert json.loads(out) == [
        {"upper": [], "lower": [1, 1]},
        {"upper": [], "lower": [1, 2]},
    ]


def test_import_loads_no_dataclasses_or_future():
    # A fresh interpreter, so modules loaded by the test run do not count.
    src = str(Path(partcat.__file__).resolve().parent.parent)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules)\n"
        "import partcat, partcat.cli\n"
        "print(sorted({'dataclasses', '__future__'} & (set(sys.modules) - before)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code, src], capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


# The benchmark's five `generate` jobs, generators spelled canonically: the
# sha256 of stdout and its line count, fixed since the engine's first rewrite.
_GENERATE_JOBS = (
    (("--bound", "6", "--format", "text", "1|1,1", "1|1", "|1,1"),
     "7abb873b7f6c7f6d72804857414c2d0c230803a2f6b3c9aaa553c156d121d5b0", 1_275),
    (("--bound", "6", "--format", "json", "1|1,1", "1,2|2,1"),
     "18d70d7192b92cc79abb9eaf8b4f0827fbf1b301928b7082e77a63f3af5a07b8", 1),
    (("--bound", "8", "--format", "text", "1,2|2,1"),
     "0879794be8d90ed3829d6f62da4d76d656b6b14bc0a8511f06ba3331ff1ce396", 1_069),
    (("--bound", "8", "--format", "json", "--colored"),
     "8853fecbb7e728f964b2aa78a0d90634424877e13480866634732004b7dbb53e", 1),
    (("--bound", "6", "--format", "text", "--levels", "2", "m=2;1,2|1,2,1,2"),
     "fea14c416303b8f21620a23bfa5e9341eee60bde7949e86ad237c3c11e33016f", 1_275),
)


def test_generate_output_is_pinned(capsys):
    for args, digest, lines in _GENERATE_JOBS:
        code, out, err = run(capsys, "generate", *args)
        assert (code, err) == (0, "")
        assert out.count("\n") == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args

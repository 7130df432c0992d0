"""Malformed input files: every mutation of a valid slide, prototype,
checkpoint or prediction file either loads or raises ValueError or OSError
(a named error), never anything else."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgpan.cli import dispatch, parse_config
from fgpan.data import load_prototypes, load_slide
from fgpan.params import load_checkpoint

# inserted tokens: values float() takes but a file may not (nan, 1e999,
# 1_0), one it does not (0x10), a NUL, invalid UTF-8 and JSON syntax
TOKENS = [b"nan", b"1e999", b"1_0", b"0x10", b"\x00", b"\xff", b"\xc3(", b"{", b"}", b"[",
          b"]", b'"', b",", b":", b"null", b"true", b"-"]
KINDS = ["truncate", "flip", "delete", "duplicate-line", "crlf", "insert"]


@st.composite
def mutated(draw, blob: bytes) -> bytes:
    """blob after one to three mutations, each at a drawn position."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(KINDS))
        i = draw(st.integers(0, max(len(blob) - 1, 0)))
        if kind == "truncate":
            blob = blob[:i]
        elif kind == "flip" and blob:
            blob = blob[:i] + bytes([blob[i] ^ 1 << draw(st.integers(0, 7))]) + blob[i + 1:]
        elif kind == "delete":
            blob = blob[:i] + blob[i + draw(st.integers(1, 8)):]
        elif kind == "duplicate-line" and blob:
            lines = blob.splitlines(keepends=True)
            k = draw(st.integers(0, len(lines) - 1))
            blob = b"".join(lines[: k + 1] + lines[k:])
        elif kind == "crlf":
            blob = blob.replace(b"\n", b"\r\n")
        elif kind == "insert":
            blob = blob[:i] + draw(st.sampled_from(TOKENS)) + blob[i:]
    return blob


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A valid desk-style run's files: slides, prototypes, a checkpoint
    trained for two steps and its predictions."""
    root = tmp_path_factory.mktemp("valid")
    data, ckpt, preds = root / "data", root / "model.ckpt", root / "preds.jsonl"
    common = ["--dim", "8", "--seed", "5"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in (
            ["gen", "--classes", "2", "--slides-per-class", "2", "--patches-per-slide", "9",
             "--grid-rows", "4", "--grid-cols", "4", "--out", str(data)],
            ["train", "--data", str(data), "--prototypes", str(data / "prototypes.jsonl"),
             "--checkpoint", str(ckpt), "--iterations", "2"],
            ["infer", "--data", str(data), "--prototypes", str(data / "prototypes.jsonl"),
             "--checkpoint", str(ckpt), "--out", str(preds)],
        ):
            assert dispatch(parse_config(argv + common)) == 0, argv
    return root


def _eval(path):
    """In-process `fgpan eval` of a prediction file against the corpus
    slides beside it; raises ValueError where the command exits 1, which it
    does on a ValueError or OSError."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = dispatch(parse_config(["eval", "--data", str(path.parent / "data"),
                                      "--predictions", str(path)]))
    if code:
        raise ValueError(f"eval exited {code}")


# each target's valid file in the corpus, and what reads it
TARGETS = {
    "slide": ("data/syn_c00_s000.slide", load_slide),
    "prototypes": ("data/prototypes.jsonl", load_prototypes),
    "checkpoint": ("model.ckpt", load_checkpoint),
    "eval": ("preds.jsonl", _eval),
}


@pytest.mark.parametrize("target", TARGETS)
@settings(max_examples=150)
@given(data=st.data())
def test_mutated_file_loads_or_is_a_named_error(corpus, target, data):
    source, read = TARGETS[target]
    path = corpus / f"mutated-{target}"
    path.write_bytes(data.draw(mutated((corpus / source).read_bytes()), label="file"))
    try:
        read(path)
    except (ValueError, OSError):
        pass

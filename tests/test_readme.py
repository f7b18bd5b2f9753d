"""README claims that the code can check."""

import importlib
import re
from pathlib import Path

import advclr
from advclr import cli

README = Path(__file__).resolve().parents[1] / "README.md"
DOTTED = re.compile(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)`")


def removed_names() -> list[tuple[str, str]]:
    """The dotted names README's "Removed names" paragraph says are gone.

    Each sentence of the paragraph lists removed names before its last colon
    and says what replaced them after it, so only the part before counts.
    """
    text = README.read_text(encoding="utf-8")
    paragraph = text[text.index("Removed names"):].split("\n\n", 1)[0]
    names = []
    for sentence in re.split(r"\.\s+", paragraph.replace("\n", " ")):
        names += DOTTED.findall(sentence.rpartition(": ")[0])
    return names


def test_removed_names_no_longer_resolve():
    names = removed_names()
    assert names
    for owner_name, attr in names:
        try:
            owner = importlib.import_module(f"advclr.{owner_name}")
        except ImportError:
            owner = getattr(advclr, owner_name)   # a class the package exports
        assert not hasattr(owner, attr), f"README lists {owner_name}.{attr} as removed"


def test_override_flags_sentence_names_the_flag_table():
    # "Flags (`--seed`, ...) override file values": the flags cli declares
    text = " ".join(README.read_text(encoding="utf-8").split())
    sentence = text[text.index("Flags ("):text.index(") override file values")]
    assert sorted(re.findall(r"`(--[\w-]+)`", sentence)) == sorted(cli.OVERRIDES)

"""Every public name has a use outside its own definition.

ROADMAP aim 2: no name in ``scidkit.__all__`` should lack a caller in the
sources, the tests or the README.  The package's ``__init__`` only imports
and lists the names, so it does not count as a use.
"""

import re
from pathlib import Path

import scidkit

ROOT = Path(__file__).resolve().parent.parent


def test_every_public_name_is_used_outside_its_definition():
    init = ROOT / "src" / "scidkit" / "__init__.py"
    paths = [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py"), ROOT / "README.md"]
    texts = [p.read_text(encoding="utf-8") for p in paths if p != init]
    unused = []
    for name in scidkit.__all__:
        word = re.compile(rf"\b{name}\b")
        definition = re.compile(rf"^[ \t]*(?:def|class)[ \t]+{name}\b|^{name}[ \t]*[:=]", re.M)
        if all(len(word.findall(t)) == len(definition.findall(t)) for t in texts):
            unused.append(name)
    assert unused == [], "defined but used nowhere in src/, tests/ or README.md"

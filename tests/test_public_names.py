"""The package's public names are the ones README's Library section lists."""

import re

import genocchi
from childproc import REPO_ROOT


def readme_public_names():
    """The backticked names of the "Public names" paragraph of README's
    Library section, in order."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    library = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    paragraph = next(p for p in library.split("\n\n") if p.startswith("Public names"))
    return re.findall(r"`(\w+)`", paragraph.split(":", 1)[1])


def test_all_is_the_list_readme_documents():
    names = readme_public_names()
    assert names == list(genocchi.__all__)
    missing = [name for name in names if not hasattr(genocchi, name)]
    assert missing == []

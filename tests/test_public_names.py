"""README's Library section is the package's API: its public names are
``genocchi.__all__``, and its python blocks run as written."""

import re

import genocchi
from childproc import REPO_ROOT, run_python


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


def test_readme_python_blocks_run_with_the_standard_library_alone():
    # so the documented API cannot drift from the code, and needs nothing
    # that an install would bring
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert blocks
    for block in blocks:
        proc = run_python("-c", block)
        assert proc.returncode == 0, proc.stderr

"""README's Library section is the package's API: its public names are
``genocchi.__all__``, and its python blocks run as written. The functions
the benchmark traces are plain public functions of their modules."""

import importlib
import importlib.util
import inspect
import re
import sys

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


def test_the_package_exports_nothing_beyond_all():
    # the helpers are imported from their modules, never from the package
    exported = {
        name
        for name, value in vars(genocchi).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == set(genocchi.__all__)


def test_readme_python_blocks_run_with_the_standard_library_alone():
    # so the documented API cannot drift from the code, and needs nothing
    # that an install would bring
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert blocks
    for block in blocks:
        proc = run_python("-c", block)
        assert proc.returncode == 0, proc.stderr


def test_benchmark_spans_are_plain_public_functions(monkeypatch):
    # perfbench/spans.py wraps the public plain functions of each module, and
    # perfbench/run.py requires a span for each EXPECTED_SPANS entry, so one
    # removed, renamed, private or wrapped would end a traced run
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # load it read-only
    path = REPO_ROOT / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    spans = {span for names in run.EXPECTED_SPANS.values() for span in names}
    assert spans
    for span in sorted(spans):
        module_name, name = span.split(".")
        module = importlib.import_module(f"genocchi.{module_name}")
        fn = getattr(module, name, None)
        assert not name.startswith("_") and inspect.isfunction(fn), span
        assert fn.__module__ == module.__name__, span

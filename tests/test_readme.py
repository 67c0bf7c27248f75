"""The README's Python examples run as written: each ```python block is
executed in a fresh namespace, so a renamed or removed name they use fails here."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), flags=re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block-{i + 1}" for i in range(len(BLOCKS))])
def test_readme_example_runs(source):
    exec(compile(source, f"{README.name} python block", "exec"), {"__name__": "readme_example"})

"""Every ```python block of README.md runs, each in a fresh namespace."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    flags=re.DOTALL | re.MULTILINE)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS,
                         ids=[f"example{i}" for i in range(1, len(BLOCKS) + 1)])
def test_readme_example_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme_example"})

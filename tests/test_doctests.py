"""Run the docstring examples shipped inside the library modules, and the
README's library example."""

import doctest
import re
from pathlib import Path

import pytest

import pialg.fgab
import pialg.intlinalg
import pialg.quadratic

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("module", [pialg.intlinalg, pialg.fgab, pialg.quadratic])
def test_module_doctests(module):
    failures, tried = doctest.testmod(module)
    assert tried > 0
    assert failures == 0


def test_readme_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    assert len(blocks) == 1 and "check(" in blocks[0]
    exec(compile(blocks[0], str(README), "exec"), {})

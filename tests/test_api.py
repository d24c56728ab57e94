"""The public surface: every exported name exists, and the README's
library example runs with the values its comments give."""

import contextlib
import io
import re
from pathlib import Path

import pytest

from tstar import bounds, core, kneser, shifting, verify

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("module", [core, bounds, kneser, shifting, verify],
                         ids=lambda m: m.__name__)
def test_all_names_exist(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, missing


def test_readme_library_example():
    section = README.read_text().split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    expected = [m.group(1) for m in re.finditer(r"^print\(.*#\s*(.+?)\s*$", block, re.M)]
    assert expected, "the example prints nothing to check"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected

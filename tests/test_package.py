"""The package's public names, and the README's library example."""

import contextlib
import io
import math
import pathlib
import re

import randnet

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in randnet.__all__ if not hasattr(randnet, name)]
    assert not missing
    assert len(set(randnet.__all__)) == len(randnet.__all__)


def test_readme_library_example_prints_a_finite_rmse():
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(blocks[0], {"__name__": "readme_example"})
    assert math.isfinite(float(printed.getvalue()))

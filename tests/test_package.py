"""The package's public names, and the README's library example and usage lines."""

import contextlib
import io
import math
import pathlib
import re
import shlex

import randnet
from randnet.experiment.cli import build_parser

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


def test_readme_usage_lines_parse():
    # every command line of the Quick start block, its continuations joined,
    # parses with the CLI's own parser, so a changed flag cannot leave it behind
    section = README.read_text().split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    [block] = re.findall(r"```sh\n(.*?)```", section, flags=re.S)
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("randnet ")]
    parser = build_parser()
    commands = {parser.parse_args(shlex.split(line)[1:]).command for line in lines}
    assert commands == {"fit", "benchmark", "grid-search", "uae-sweep", "compare", "emit",
                        "histogram"}

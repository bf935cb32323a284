"""The package's public names, and the README's library example, usage lines and
config example."""

import ast
import contextlib
import io
import json
import math
import pathlib
import pkgutil
import re
import shlex

import randnet
import randnet.experiment
from randnet.experiment.cli import build_parser
from randnet.experiment.config import build_config
from randnet.methods import method_from_dict

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
SRC = pathlib.Path(randnet.__file__).resolve().parent


def test_every_exported_name_resolves():
    for package in (randnet, randnet.experiment):
        missing = [name for name in package.__all__ if not hasattr(package, name)]
        assert not missing, package.__name__
        assert len(set(package.__all__)) == len(package.__all__)


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


def test_readme_config_example_reads():
    # the config file under "Config files" reads as a config, and every
    # inline anchor example there is an anchor a method reads
    section = README.read_text().split("\n## Config files\n", 1)[1].split("\n## ", 1)[0]
    [block] = re.findall(r"```json\n(.*?)```", section, flags=re.S)
    build_config(json.loads(block), {})
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    spans = re.findall(r'`([^`]*"anchor"[^`]*)`', prose)
    assert spans
    for span in spans:
        anchor = json.loads(span if span.startswith("{") else "{" + span + "}")["anchor"]
        assert method_from_dict({"method": "ram", "u": 1.0, "anchor": anchor}).anchor == anchor


def test_readme_cites_only_names_that_exist():
    # a backticked module.name whose first part is a randnet module, such as
    # linalg or experiment, resolves to an attribute of that module, so a
    # name that a move or a deletion leaves behind fails here; file names
    # such as trials.csv are not names
    modules = {}
    for path in SRC.rglob("*.py"):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        parts = parts[:-1] if parts[-1] == "__init__" else parts
        modules[parts[-1]] = ".".join(parts)
    spans = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", README.read_text())
    cited = [span for span in spans if span.split(".")[0] in modules
             and span.rsplit(".", 1)[1] not in {"csv", "json", "md", "py", "dat"}]
    assert cited
    missing = []
    for span in cited:
        first, _, rest = span.partition(".")
        try:  # imports the longest prefix that is a module, then reads the rest
            pkgutil.resolve_name(f"{modules[first]}.{rest}")
        except (AttributeError, ImportError):
            missing.append(span)
    assert missing == []


def source_trees() -> dict:
    return {path: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}


def loaded(tree) -> set:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def referenced(tree) -> set:
    """Every name ``tree`` loads, reads as an attribute or imports."""
    names = loaded(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_no_unused_import_or_unreferenced_private_name():
    # the modules other than the __init__ re-export files import nothing they
    # do not use, and define no private module-level name that nothing in
    # src/ uses: what a deletion leaves behind fails here
    trees = source_trees()
    anywhere = set().union(*map(referenced, trees.values()))
    unused, unreferenced = [], []
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        here = loaded(tree)
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                unused += [f"{path.name}: {name}" for name in bound if name not in here]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                defined = []
            unreferenced += [f"{path.name}: {name}" for name in defined
                             if name.startswith("_") and not name.startswith("__")
                             and name not in anywhere]
    assert unused == [] and unreferenced == []


def test_every_public_function_and_class_is_used_or_exported():
    # a public module-level function or class that no src/ module refers to
    # and no __init__ re-exports is code nothing needs
    trees = source_trees()
    anywhere = set().union(*map(referenced, trees.values()))
    unused = [f"{path.name}: {node.name}" for path, tree in trees.items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in anywhere]
    assert unused == []


def test_only_the_cli_tunes_malloc():
    # the CLI owns its process and pins glibc's malloc thresholds there,
    # through linalg, which records the pin for its cut; a program that
    # imports the package keeps its allocator's settings. So only linalg
    # names mallopt or malloc_trim, as a name, an attribute, an import or a
    # looked-up string, and only the CLI calls the pin
    tuning = {"mallopt", "malloc_trim"}
    named, pinning = {}, []
    for path, tree in source_trees().items():
        strings = {node.value for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)}
        names = referenced(tree) | {alias.name for node in ast.walk(tree)
                                    if isinstance(node, ast.Import) for alias in node.names}
        found = (names | strings) & tuning
        if found:
            named[path.relative_to(SRC).as_posix()] = sorted(found)
        if any(isinstance(node, ast.Call) and "pin_malloc_thresholds" in referenced(node.func)
               for node in ast.walk(tree)):
            pinning.append(path.relative_to(SRC).as_posix())
    assert named == {"linalg.py": ["mallopt"]}
    assert pinning == ["experiment/cli.py"]

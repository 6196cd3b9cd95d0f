"""The docs' references resolve: the identity list of the ``isimetrics``
module docstring, the identity labels cited in ``src/`` docstrings and in
the README, and the README's backticked ``module.name`` references."""

import ast
import importlib
import pathlib
import pkgutil
import re

import pytest

import precofdm
from precofdm import isimetrics

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
MODULES = {info.name for info in pkgutil.iter_modules(precofdm.__path__)}


def identity_list(doc: str) -> dict:
    """{label number: entry text}: each entry starts a line as 'I<n>  '."""
    parts = re.split(r"^I(\d+)  ", doc, flags=re.M)[1:]
    return {int(n): text for n, text in zip(parts[::2], parts[1::2])}


IDENTITIES = identity_list(isimetrics.__doc__)


def classes_in_tests() -> dict:
    """{class name: its method names} of every class under ``tests/``."""
    found = {}
    for path in (ROOT / "tests").rglob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                found[node.name] = {
                    item.name for item in node.body if isinstance(item, ast.FunctionDef)
                }
    return found


CLASSES = classes_in_tests()


def resolves(name: str) -> bool:
    """Whether ``name`` (an ``isimetrics`` name, or ``module.name`` of a
    package module) exists."""
    module, _, attr = name.rpartition(".")
    if not module:
        return hasattr(isimetrics, attr)
    return module in MODULES and hasattr(
        importlib.import_module(f"precofdm.{module}"), attr
    )


def src_docstrings() -> list:
    docs = []
    for path in sorted((ROOT / "src" / "precofdm").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                docs.append(ast.get_docstring(node) or "")
    return docs


def test_identity_labels_run_from_one():
    assert sorted(IDENTITIES) == list(range(1, len(IDENTITIES) + 1))
    assert len(IDENTITIES) >= 9


@pytest.mark.parametrize("label", sorted(IDENTITIES))
def test_identity_names_its_tests_and_code(label):
    entry = IDENTITIES[label]
    tests = re.split(r"[Tt]ested\s+by", entry)
    assert len(tests) == 2, f"I{label} names no test"
    named = re.findall(r"``(Test\w+)(?:::(\w+))?``", tests[1])
    assert named, f"I{label} names no test class"
    for cls, method in named:
        assert cls in CLASSES, f"I{label}: no test class {cls}"
        assert not method or method in CLASSES[cls], f"I{label}: no {cls}::{method}"
    for name in re.findall(r"``([A-Za-z_][\w.]*)``", tests[0]):
        assert resolves(name), f"I{label} names {name}, which does not exist"


@pytest.mark.parametrize("where", ["src", "README"])
def test_cited_labels_are_listed(where):
    texts = src_docstrings() if where == "src" else [README]
    cited = {int(n) for text in texts for n in re.findall(r"\bI(\d+)\b", text)}
    assert cited, f"{where} cites no identity"
    assert cited <= set(IDENTITIES), f"{where} cites unlisted {cited - set(IDENTITIES)}"


def test_readme_module_names_resolve():
    prose = re.sub(r"```.*?```", "", README, flags=re.S)
    refs = [
        (match.group(1), match.group(2))
        for span in re.findall(r"`([^`]+)`", prose)
        if (match := re.match(r"(?:precofdm\.)?(\w+)\.(\w+)", span))
        and match.group(1) in MODULES
    ]
    assert len(refs) >= 5
    missing = [f"{module}.{name}" for module, name in refs
               if not resolves(f"{module}.{name}")]
    assert not missing, f"README names {missing}"

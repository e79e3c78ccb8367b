"""The package's public names: ``mpslam_bounds.__all__`` is what a star
import binds, so a stale entry breaks every ``from mpslam_bounds import *``."""

import ast
import re
import sys
from pathlib import Path

import mpslam_bounds

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = [
    "Scenario",
    "ScenarioError",
    "SingularFimError",
    "ground_truth",
    "load_scenario",
    "measurement_truth",
    "run_monte_carlo",
    "run_recursion",
]


def test_the_public_names_are_the_pipeline():
    assert mpslam_bounds.__all__ == PUBLIC


def test_every_exported_name_resolves_once():
    names = mpslam_bounds.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(mpslam_bounds, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from mpslam_bounds import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(mpslam_bounds.__all__)


def test_readme_library_example_imports_only_public_names():
    """The first python block under "## Library" (CI runs it) takes every
    name it imports from ``mpslam_bounds`` itself, none from a submodule;
    its other imports are the standard library's (``dataclasses.replace``)."""
    section = README.read_text().split("\n## Library\n", 1)[1]
    source = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    imports = [node for node in ast.walk(ast.parse(source))
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    own = [node for node in imports
           if isinstance(node, ast.ImportFrom) and node.module == "mpslam_bounds"]
    others = [name for node in imports if node not in own
              for name in ([node.module] if isinstance(node, ast.ImportFrom)
                           else [alias.name for alias in node.names])]
    assert own and all(name.split(".")[0] in sys.stdlib_module_names for name in others)
    names = [alias.name for node in own for alias in node.names]
    assert set(names) <= set(PUBLIC)

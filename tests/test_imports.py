"""Every name a module under ``src/repro`` imports is referenced in it.

The scan parses each non-``__init__`` module with :mod:`ast` (package
``__init__`` files import to re-export).  A name counts as used when it
appears as a name anywhere in the module or inside a string annotation;
``from __future__`` imports are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Set

SRC = Path(__file__).resolve().parents[1] / "src"


def _annotation_names(annotation: ast.expr) -> Set[str]:
    """Names in an annotation, including those inside string annotations."""
    names: Set[str] = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= _annotation_names(parsed.body)
    return names


def unused_imports(source: str) -> List[str]:
    """Imported names the module never references, in import order."""
    tree = ast.parse(source)
    imported: List[str] = []
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
    return [name for name in imported if name not in used]


def test_no_module_imports_an_unused_name():
    paths = [p for p in sorted((SRC / "repro").rglob("*.py")) if p.name != "__init__.py"]
    assert paths, f"no modules found under {SRC}"
    problems = []
    for path in paths:
        module = path.relative_to(SRC).with_suffix("").as_posix().replace("/", ".")
        problems += [f"{module}: {name}" for name in unused_imports(path.read_text())]
    assert not problems, "unused imports:\n  " + "\n  ".join(problems)


def test_scanner_rules():
    source = '''
from __future__ import annotations
import os.path
from typing import Dict, List, Optional
from collections import defaultdict as dd

def f(x: "Optional[Dict[str, int]]") -> List[int]:
    return os.path.join(x)
'''
    assert unused_imports(source) == ["dd"]

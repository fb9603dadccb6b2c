import ast
from pathlib import Path

import spheretrain

PACKAGE = Path(spheretrain.__file__).parent


def _uses(tree):
    """Every name a module reads, imports or reaches as an attribute. A
    ``def`` or ``class`` statement defines its name without using it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_public_name_is_used_inside_the_package():
    # The package root only re-exports, so its imports do not count; a use
    # elsewhere, in the defining module too (``train`` returns ``LogRow``), does.
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used.update(_uses(ast.parse(path.read_text())))
    assert sorted(set(spheretrain.__all__) - used) == []

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


# gradcheck builds every objective from these two: reduce_sum(op(x)), or
# reduce_sum(mul(op(x), probe)) for an op with a non-scalar output.
GRADCHECK_ONLY = {"mul", "reduce_sum"}


def _tensor_uses(tree):
    """The ``spheretrain.tensor`` names a module imports or reaches through
    the module object (``from . import tensor as T``; ``T.name``)."""
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module is None
        for alias in node.names
        if alias.name == "tensor"
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "tensor":
            yield from (alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            yield node.attr


def test_every_tensor_op_is_used_outside_the_gradient_checks():
    # An op is a public function returning a Tensor; finite_difference_check,
    # the checker itself, is not one. A use by gradcheck alone only tests it.
    tree = ast.parse((PACKAGE / "tensor.py").read_text())
    ops = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and node.returns is not None and ast.unparse(node.returns) == "Tensor"
    }
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name not in ("__init__.py", "tensor.py", "gradcheck.py"):
            used.update(_tensor_uses(ast.parse(path.read_text())))
    assert GRADCHECK_ONLY <= ops and not GRADCHECK_ONLY & used
    assert sorted(ops - used - GRADCHECK_ONLY) == []

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


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _defined_private_names(tree):
    """Private names a module defines (functions, methods, classes) or
    assigns (variables and attributes)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            name = node.attr
        else:
            continue
        if _private(name):
            yield name


def test_no_module_reads_another_modules_private_attributes():
    # ``x._name`` with x not ``self`` or ``cls`` reaches into whatever object
    # x is; when another module defines ``_name`` it is that module's internals.
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    defined = {name: set(_defined_private_names(tree)) for name, tree in trees.items()}
    reads = []
    for module, tree in trees.items():
        elsewhere = set().union(*(names for other, names in defined.items() if other != module))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
                continue
            receiver = node.value.id if isinstance(node.value, ast.Name) else None
            if node.attr in elsewhere and receiver not in ("self", "cls"):
                reads.append(f"{module}:{node.lineno} {ast.unparse(node)}")
    assert reads == []


# Python's binary, reflected, in-place and unary arithmetic hooks.
ARITHMETIC_METHODS = {
    f"__{prefix}{op}__"
    for op in ("add", "sub", "mul", "matmul", "truediv", "floordiv", "mod", "divmod", "pow",
               "lshift", "rshift", "and", "xor", "or")
    for prefix in ("", "r", "i")
} | {"__neg__", "__pos__", "__abs__", "__invert__"}


def test_tensor_defines_no_arithmetic_operators():
    # Graph nodes are built only by named ``tensor`` ops, which are the ones
    # the benchmark's tracer counts; ``a + b`` would build one it cannot see.
    from spheretrain.tensor import Tensor

    assert sorted(ARITHMETIC_METHODS & set(vars(Tensor))) == []

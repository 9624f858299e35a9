"""Only what the command line reaches stays in the package.

A public module-level name stays only if a walk from cli.py reaches it, or if
it is on KEEP; a public method stays only if some code of the package calls
it by name, or if it is on KEEP_METHODS.  The walk reads the source: from each
reached definition it follows the names the definition loads and the
``module.attr`` reads of modules it imported, through the package's relative
imports.  A reached class takes its whole body along.
"""

import ast
from pathlib import Path

import oscembed

PACKAGE = Path(oscembed.__file__).parent

# Test constructors of spaces, which no command builds.
KEEP = {"space.grid_space", "space.path_space", "space.random_geometric_space"}
# The tests' independent ball mask, kept beside the ball index the program reads.
KEEP_METHODS = {"space.Space.ball"}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
            if path.stem != "__init__"}


class _Module:
    """The module-level definitions of one module and the package names it imports."""

    def __init__(self, tree: ast.Module):
        self.defs, self.names, self.modules = {}, {}, {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                self.defs[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.defs[target.id] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if node.module is None:  # from . import embed
                        self.modules[bound] = alias.name
                    else:  # from .space import Space
                        self.names[bound] = (node.module, alias.name)

    def references(self, mod: str, node: ast.AST):
        """The (module, name) pairs that node, a definition of module mod, reads."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                if sub.id in self.defs:
                    yield mod, sub.id
                elif sub.id in self.names:
                    yield self.names[sub.id]
            elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                  and sub.value.id in self.modules):
                yield self.modules[sub.value.id], sub.attr


def _unreached() -> set[str]:
    modules = {name: _Module(tree) for name, tree in _modules().items()}
    reached, todo = set(), [("cli", name) for name in modules["cli"].defs]
    while todo:
        mod, name = todo.pop()
        if (mod, name) in reached or name not in modules[mod].defs:
            continue
        reached.add((mod, name))
        todo.extend(modules[mod].references(mod, modules[mod].defs[name]))
    return {f"{mod}.{name}" for mod, module in modules.items() for name in module.defs
            if not name.startswith("_") and (mod, name) not in reached}


def _uncalled_methods() -> set[str]:
    trees = _modules()
    methods = [(mod, cls.name, fn) for mod, tree in trees.items() for cls in tree.body
               if isinstance(cls, ast.ClassDef) for fn in cls.body
               if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")]
    calls = [(mod, sub.attr, sub.lineno) for mod, tree in trees.items()
             for sub in ast.walk(tree) if isinstance(sub, ast.Attribute)]
    return {f"{mod}.{cls}.{fn.name}" for mod, cls, fn in methods
            if not any(attr == fn.name and not (where == mod
                                                and fn.lineno <= line <= fn.end_lineno)
                       for where, attr, line in calls)}


def test_every_public_name_is_reached_from_the_command_line_or_kept():
    unreached = _unreached()
    assert unreached - KEEP == set(), "public names no command reaches"
    assert KEEP - unreached == set(), "kept names that a command now reaches"


def test_every_public_method_is_called_in_the_package_or_kept():
    uncalled = _uncalled_methods()
    assert uncalled - KEEP_METHODS == set(), "public methods nothing in the package calls"
    assert KEEP_METHODS - uncalled == set(), "kept methods that the package now calls"


"""Only what the command line reaches stays in the package.

A module-level name, public or private (one leading underscore), stays only if
a walk from cli.py reaches it, or if it is on KEEP; a method, public or
private, stays only if some code of the package calls it by name, or if it is
on KEEP_METHODS.  Dunder names and methods are the language's, and are not
checked.  The walk reads the source: from each
reached definition it follows the names the definition loads and the
``module.attr`` reads of modules it imported, through the package's relative
imports.  A reached class takes its whole body along.  A parameter with a
default, of a function or method of the package, stays only if some call in
the package passes it, by position or by name, or if it is on KEEP_PARAMS; a
call ``Class(...)`` passes the parameters of ``Class.__init__``.  A private
name that a docstring or a comment mentions must be defined somewhere in the
package, so that prose cannot outlive the code it names.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

import oscembed

PACKAGE = Path(oscembed.__file__).parent

# Test constructors of spaces, which no command builds, and the report's thread
# count, which the benchmark's environment record reads.
KEEP = {"space.grid_space", "space.path_space", "space.random_geometric_space",
        "embed._POOL_WORKERS"}
# The tests' independent ball mask, kept beside the ball index the program reads.
KEEP_METHODS = {"space.Space.ball"}
# The entry point's argv, and the test constructors' weights and edge length.
KEEP_PARAMS = {"cli.main(argv)", "space.path_space(weights)", "space.path_space(edge_length)",
               "space.grid_space(weights)"}
# Math notation, not a name: the norm subscript of "||f - h||_L1".
PROSE_NOTATION = {"_L1"}


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
            if not name.startswith("__") and (mod, name) not in reached}


def _uncalled_methods() -> set[str]:
    trees = _modules()
    methods = [(mod, cls.name, fn) for mod, tree in trees.items() for cls in tree.body
               if isinstance(cls, ast.ClassDef) for fn in cls.body
               if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("__")]
    calls = [(mod, sub.attr, sub.lineno) for mod, tree in trees.items()
             for sub in ast.walk(tree) if isinstance(sub, ast.Attribute)]
    return {f"{mod}.{cls}.{fn.name}" for mod, cls, fn in methods
            if not any(attr == fn.name and not (where == mod
                                                and fn.lineno <= line <= fn.end_lineno)
                       for where, attr, line in calls)}


def _defaulted_params(tree: ast.Module):
    """(name, callee, shift, [(position or None, parameter)]) of each def with defaults.

    callee is the name its calls use (the class for __init__), and shift is 1
    where the call does not pass the first parameter (self or cls).
    """
    out = []

    def visit(node, owner):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, ast.ClassDef):
                visit(sub, sub)
                continue
            if not isinstance(sub, ast.FunctionDef):
                visit(sub, owner)
                continue
            args = sub.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            params = [(k, arg.arg) for k, arg in enumerate(positional) if k >= first]
            params += [(None, arg.arg) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                       if default is not None]
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in sub.decorator_list)
            if owner is None:
                name, callee, shift = sub.name, sub.name, 0
            else:
                name = f"{owner.name}.{sub.name}"
                callee = owner.name if sub.name == "__init__" else sub.name
                shift = 0 if static else 1
            if params:
                out.append((name, callee, shift, params))
            visit(sub, None)

    visit(tree, None)
    return out


def _passes(call: ast.Call, shift: int, position, param: str) -> bool:
    if any(kw.arg in (param, None) for kw in call.keywords):  # None: **kwargs
        return True
    if position is None:
        return False
    return (any(isinstance(arg, ast.Starred) for arg in call.args)
            or len(call.args) > position - shift)


def _unpassed_params() -> set[str]:
    trees = _modules()
    calls = [(sub.func.id if isinstance(sub.func, ast.Name) else sub.func.attr, sub)
             for tree in trees.values() for sub in ast.walk(tree)
             if isinstance(sub, ast.Call) and isinstance(sub.func, (ast.Name, ast.Attribute))]
    return {f"{mod}.{name}({param})" for mod, tree in trees.items()
            for name, callee, shift, params in _defaulted_params(tree)
            for position, param in params
            if not any(called == callee and _passes(call, shift, position, param)
                       for called, call in calls)}


def test_every_public_name_is_reached_from_the_command_line_or_kept():
    unreached = _unreached()
    assert unreached - KEEP == set(), "names no command reaches"
    assert KEEP - unreached == set(), "kept names that a command now reaches"


def _defined_names() -> set[str]:
    """Every name the package defines: functions, classes, methods, assigned names and
    attributes, parameters and imports."""
    names = set()
    for tree in _modules().values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name)
    return names


def _prose_names() -> set[tuple[str, str]]:
    """(module, name) of each private name a docstring or comment of the package mentions."""
    private = re.compile(r"\b_[A-Za-z]\w*")
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        prose = [tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                 if tok.type == tokenize.COMMENT]
        prose += [ast.get_docstring(node) or "" for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))]
        out |= {(path.stem, name) for text in prose for name in private.findall(text)}
    return out



def test_every_private_name_the_prose_mentions_is_defined():
    defined = _defined_names()
    stale = {f"{mod}: {name}" for mod, name in _prose_names()
             if name not in defined and name not in PROSE_NOTATION}
    assert stale == set(), "docstrings or comments name what the package does not define"


def test_every_public_method_is_called_in_the_package_or_kept():
    uncalled = _uncalled_methods()
    assert uncalled - KEEP_METHODS == set(), "methods nothing in the package calls"
    assert KEEP_METHODS - uncalled == set(), "kept methods that the package now calls"



def test_every_defaulted_parameter_is_passed_in_the_package_or_kept():
    unpassed = _unpassed_params()
    assert unpassed - KEEP_PARAMS == set(), "parameters with defaults no call passes"
    assert KEEP_PARAMS - unpassed == set(), "kept parameters that a call now passes"

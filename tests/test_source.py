"""Checks on the package source itself."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "toystab"


def _private_definitions(tree):
    """(name, first line, last line) of each module-level private name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno, node.end_lineno


def _references(tree):
    """(name, line) of every name read, attribute or import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def test_every_private_module_name_is_used():
    # a table or helper left behind by a refactor shows up as a private
    # name that nothing outside its own definition reads
    trees = {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    refs = {module: list(_references(tree)) for module, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        for name, first, last in _private_definitions(tree):
            if not any(ref == name and not (other == module
                                            and first <= line <= last)
                       for other, module_refs in refs.items()
                       for ref, line in module_refs):
                unused.append(f"{module}:{first} {name}")
    assert unused == []


def _unused_imports(tree):
    """(name, line) of each name a module imports but never reads."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    yield name, node.lineno


def test_every_import_is_used():
    # the package's __init__ imports names to re-export them
    unused = [f"{path.name}:{line} {name}"
              for path in SRC.glob("*.py") if path.name != "__init__.py"
              for name, line in _unused_imports(ast.parse(path.read_text()))]
    assert unused == []


def test_engine_does_not_import_the_oracle():
    # the stabilizer-vs-oracle cross-check means something only while the
    # two share no code
    imports = []
    for name in ("algebra.py", "dynamics.py", "mbtc.py", "bvc.py"):
        for node in ast.walk(ast.parse((SRC / name).read_text())):
            if isinstance(node, ast.ImportFrom):
                modules = ([node.module] if node.module
                           else [alias.name for alias in node.names])
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            imports += [f"{name}:{node.lineno} {m}" for m in modules
                        if "oracle" in m.split(".")]
    assert imports == []


def test_every_tracer_target_resolves():
    # bench/run.py --trace 1 wraps these names in the imported package, so
    # a rename there would break it without failing any other test
    spec = importlib.util.spec_from_file_location(
        "tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name, *_ in tracer.TARGETS:
        importlib.import_module("toystab." + name.split(".")[0])
    modules = {key: mod for key, mod in sys.modules.items()
               if key.startswith("toystab.")}
    for name, path, *_ in tracer.TARGETS:
        _, _, raw = tracer._resolve(modules, name, path)
        assert callable(getattr(raw, "__func__", raw)), name
    tracer.Tracer()   # builds every wrapper, as a traced run does

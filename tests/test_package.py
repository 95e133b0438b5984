"""The package namespace and the library's options."""

import ast
import tokenize
from pathlib import Path

import cinfer


def test_star_import_binds_exactly_the_exported_names():
    # a name left in __all__ after its definition is gone fails the import
    namespace = {}
    exec("from cinfer import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(set(cinfer.__all__))
    assert len(cinfer.__all__) == len(namespace)


# Every defaulted parameter of a function or method in src/cinfer (lambdas
# excluded), and every annotated class attribute with a value: the default
# of a record field.  An option added or removed edits this list in the same
# diff.
OPTIONS = [
    "checks.run_all(only)",
    "cli.main(argv)",
    "inference.orbit_bits(n)",
]


def _defaulted_parameters(module, body, prefix):
    for node in body:
        if isinstance(node, ast.ClassDef):
            for field in node.body:
                if isinstance(field, ast.AnnAssign) and field.value is not None:
                    yield f"{module}.{prefix}{node.name}({field.target.id})"
            yield from _defaulted_parameters(module, node.body, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            positional = a.posonlyargs + a.args
            names = [p.arg for p in positional[len(positional) - len(a.defaults):]]
            names += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            for name in names:
                yield f"{module}.{prefix}{node.name}({name})"
            yield from _defaulted_parameters(module, node.body, f"{prefix}{node.name}.")


def test_defaulted_parameters_are_pinned():
    found = []
    for path in sorted(Path(cinfer.__file__).parent.rglob("*.py")):
        module = ".".join(path.relative_to(Path(cinfer.__file__).parent).with_suffix("").parts)
        found += _defaulted_parameters(module, ast.parse(path.read_text()).body, "")
    assert sorted(found) == sorted(OPTIONS)
    assert len(OPTIONS) == 3


# CPython 3.11's parser doubles its token buffer when a module passes 4,096
# tokens, which adds about 0.24 MB to the compile peak of every cold start
# that finds no .pyc.  dist.py is past the line already; see the FOUND line on
# the parser's token buffer in CHANGES.md.
TOKEN_BUFFER = 4096
OVER_THE_BUFFER = ("dist.py",)


def test_modules_fit_the_parser_token_buffer():
    for path in sorted(Path(cinfer.__file__).parent.glob("*.py")):
        with path.open("rb") as f:
            tokens = sum(1 for _ in tokenize.tokenize(f.readline))
        assert tokens < TOKEN_BUFFER or path.name in OVER_THE_BUFFER, (path.name, tokens)

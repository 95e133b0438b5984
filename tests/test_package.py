"""The package namespace and the library's options."""

import ast
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
# excluded).  An option added or removed edits this list in the same diff.
OPTIONS = [
    "catalog.CatalogEntry.__init__(claimed_ingleton)",
    "catalog.CatalogEntry.__init__(claimed_matroid)",
    "catalog.CatalogEntry.__init__(claimed_orbit_size)",
    "catalog.CatalogEntry.__init__(claimed_statements)",
    "catalog.CatalogEntry.__init__(claimed_tight)",
    "catalog.CatalogEntry.__init__(distribution)",
    "catalog.CatalogEntry.__init__(entropy_scale_ln_of)",
    "catalog.CatalogEntry.__init__(rank_function)",
    "catalog.VerificationReport.__init__(checks)",
    "catalog.VerificationReport.add(detail)",
    "checks.run_all(only)",
    "cli.main(argv)",
    "inequalities.ConditionalIngletonRule.substituted_premises(swapped)",
    "inequalities.CounterexampleReport.__init__(checks)",
    "inequalities.CounterexampleReport.__init__(ingleton_value)",
    "inequalities.DerivationSchema.__init__(extension)",
    "inequalities.sample_conditional_inequality(samples)",
    "inference.InferenceRule.__init__(bidirectional)",
    "inference.closure_bits(n)",
    "inference.closure_bits(ruleset)",
    "inference.dump_family(base)",
    "inference.dump_family(human)",
    "inference.ground_rules(ruleset)",
    "inference.is_closed_bits(n)",
    "inference.is_closed_bits(ruleset)",
    "inference.orbit_bits(n)",
    "setfn.CheckWitness.__init__(value)",
    "setfn.CheckWitness.__init__(violating_triplet)",
]


def _defaulted_parameters(module, body, prefix):
    for node in body:
        if isinstance(node, ast.ClassDef):
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
    assert len(OPTIONS) == 28

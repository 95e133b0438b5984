"""Exact conditional-independence toolkit for discrete random vectors.

The library has five layers:

* :mod:`cinfer.setfn` — set-function calculus: difference expressions, the
  Ingleton expression and its five four-term rewritings, polymatroid /
  matroid / tightness predicates.
* :mod:`cinfer.dist` — exact rational distributions: marginals, CI tests,
  conditional and lattice products, entropies, divergences, and the
  double-Markov intersection variable.
* :mod:`cinfer.inference` — the 27-rule inference engine over elementary
  triplets, closure, meet-closure, permutation orbits, and full
  enumeration of the 26,424 semi-graphoids and 18,478 CI structures over
  four variables.
* :mod:`cinfer.inequalities` — the five conditional Ingleton inequalities,
  their counterexample certificates, and the symbolic derivation checker.
* :mod:`cinfer.catalog` — the bundled reference distributions and rank
  functions, with claim verification and the 92 irreducible structures.

The package-level names are bound on first access (PEP 562), so ``import
cinfer`` loads no layer and a process pays only for the layers it uses.
"""

from importlib import import_module

# The layer module that defines each exported name (the keys make
# ``__all__``); ``catalog`` and ``checks`` are layer modules themselves.
_HOME = {
    name: module
    for module, names in {
        "sets": ("BasicSet",),
        "setfn": (
            "CheckWitness",
            "SetFunction",
            "delta",
            "induced_ci_structure_of_rank",
            "ingleton",
            "is_matroid",
            "is_polymatroid",
            "is_tight",
            "mask_form",
            "tighten",
            "upper_indicator",
        ),
        "structures": ("CIStructure", "ElementaryTriplet", "expand_to_elementary"),
        "dist": (
            "ConsonanceError",
            "DominanceError",
            "JointDistribution",
            "SampleSpace",
            "conditional_product",
            "double_markov_extend",
            "entropy_function",
            "induced_ci_structure",
            "is_ci",
            "kl_divergence",
            "lattice_product",
            "marginal",
        ),
        "inference": (
            "GroundRule",
            "InferenceRule",
            "RULES",
            "closure",
            "ground_rules",
            "is_closed",
            "load_derivation_schemas",
            "orbit",
        ),
        "inequalities": (
            "CONDITIONAL_INGLETON_RULES",
            "check_conditional_ingleton",
            "check_sixth_failure",
            "verify_counterexample",
            "verify_derivation",
        ),
        "catalog": ("catalog",),
        "checks": ("checks",),
    }.items()
    for name in names
}


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{module}")
    if module != name:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))


__version__ = "0.1.0"

__all__ = list(_HOME)

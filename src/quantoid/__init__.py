"""Rank functions of polymatroids and polyquantoids, exactly.

Core objects are immutable set functions over ground sets of at most 16
labeled elements, with exact rational values.  On top of them: axiom
classification, the singleton-preserving duality, the linear bijection
with tight selfdual polymatroids, ideal secret-sharing analysis with
matroid extraction, free expansions to matroids/quantoids, and entropy
constructors from joint distributions and pure quantum states.

Importing the package loads none of its modules.  A public name is read
from its module on first access (PEP 562) and kept here, and a module is
loaded the first time one of its names, or the module itself, is read:
`quantoid.setfn` works after a bare `import quantoid`.  So a program, or a
CLI command, that uses one module loads only that module and the ones it
imports.
"""

_EXPORTS = {  # module -> the public names it defines
    "correspondence": ("to_polymatroid", "to_polyquantoid"),
    "duality": ("dual", "is_selfdual", "is_tight"),
    "entropic": ("ApproxSetFunction", "JointDistribution", "PureState", "is_approx_polymatroid",
                 "is_approx_polyquantoid", "reduced_spectrum", "shannon_entropy_function",
                 "snap_to_rational", "von_neumann_entropy_function"),
    "errors": ("QuantoidError",),
    "expansion": ("BlockMap", "Expansion", "adapted_sets", "expansion_correspondence_holds",
                  "free_expand_polymatroid", "free_expand_polyquantoid", "two_factor"),
    "setfn": ("POLYMATROID", "POLYQUANTOID", "Classification", "GroundSet", "SetFunction",
              "build", "classify", "enumerate_rank_functions", "from_table", "scale"),
    "sharing": ("MatroidStructure", "SharingReport", "access_from_circuits", "analyze_sharing",
                "extract_matroid", "extract_selfdual_matroid", "matroid_structure"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "documents"}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # the import binds the submodule here; unlike importlib.import_module,
        # __import__ is an import that -X importtime reports
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_MODULE_OF[name]), name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__, *_SUBMODULES})

"""Gallai-Schur partition toolkit.

Partitions of [1, n] into r color classes avoiding monochromatic sums
a + b = c (with a = b counted in the strong case only) and rainbow sums
(all three elements in pairwise different classes), with every class
non-empty.  The package verifies such partitions, constructs them from a
small catalogue of bases via order-doubling and order-quintupling
mappings, decomposes given partitions back into base and mapping chain,
searches orders exhaustively, and emits DIMACS CNF for external solvers.

The layers are core, construct, structure, search and satgen; the value
types they share, and the closed forms, are in values, which imports no
other gskit module.  Importing the package loads none of them: a public
name (or a layer, as in `gskit.search`) is imported on first access
through the module-level `__getattr__` of PEP 562 and cached in this
namespace, so `gskit.cli` and other callers pay only for the layers they
use.
"""

from importlib import import_module

# Public name -> the layer that defines it.
_EXPORTS = {
    name: layer
    for layer, names in (
        ("values", """BASE_CATALOGUE Coloring GsFunctionValue Kind ParseError
            PatternError gs_number to_file_form"""),
        ("core", """Verdict Violation ViolationClass canonicalize check_partition
            is_canonical iter_violations parse_coloring parse_coloring_with_kind"""),
        ("construct", """MappingTag apply_mappings base_by_name five_fold
            inverse_five_fold inverse_two_fold maximal_partition two_fold"""),
        ("structure", "Decomposition StructureClass classify decompose_full peel"),
        ("search", """MaximalReport SearchConfig SearchMode SearchReport
            SubtreeTask enumerate_maximal exists_partition max_order
            parallel_split report_json run_search run_task"""),
        ("satgen", """CnfDocument clause_count decode encode parse_model satisfies
            to_dimacs var_index write_dimacs"""),
    )
    for name in names.split()
}
_LAYERS = frozenset(_EXPORTS.values())

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _LAYERS:
        return import_module(f".{name}", __name__)
    layer = _EXPORTS.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{layer}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

import ast
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import magbloch
from magbloch.effective import (single_band_model, spectrum_via_GGdag,
                                two_band_model)
from magbloch.errors import TruncationError
from magbloch.fock import FockTruncation
from magbloch.lattice import (FourierSeries2D, PeriodicVectorPotential,
                              harper_potential, make_lattice)
from magbloch.oracle import OracleBasis
from magbloch.quantize import (RationalFlux, almost_mathieu_spectrum,
                               butterfly, quantize_series, reduced_fractions)
from magbloch.symbols import exact_symbol, remainder_norm

MODULES = sorted(info.name for info in pkgutil.iter_modules(magbloch.__path__)
                 if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exactly_the_public_functions_and_classes(name):
    mod = importlib.import_module(f"magbloch.{name}")
    defined = {attr for attr, obj in vars(mod).items()
               if not attr.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == mod.__name__}
    assert sorted(mod.__all__) == sorted(defined)


# The module that holds the integer and finite-real value rules.
RULES_HOME = "errors"


def _spells_a_value_rule(node) -> bool:
    """Whether node is an ``isinstance(..., bool)`` (bool alone or in a
    tuple) or a ``type(...) is int`` test."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2):
        classes = node.args[1]
        names = classes.elts if isinstance(classes, ast.Tuple) else [classes]
        return any(isinstance(c, ast.Name) and c.id == "bool" for c in names)
    return (isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
            and isinstance(node.left.func, ast.Name)
            and node.left.func.id == "type"
            and any(isinstance(c, ast.Name) and c.id == "int"
                    for c in node.comparators))


@pytest.mark.parametrize("name", [m for m in MODULES if m != RULES_HOME])
def test_value_rules_are_spelled_only_in_their_home(name):
    # Every input check reads errors._is_integer and errors._is_real.  The
    # bool test of cli._dump_json picks how an output value is written and
    # checks no input, so it is the one spelling allowed outside the home.
    tree = ast.parse(pathlib.Path(magbloch.__path__[0], f"{name}.py")
                     .read_text(encoding="utf-8"))
    exempt = set()
    if name == "cli":
        exempt = {id(node) for f in ast.walk(tree)
                  if isinstance(f, ast.FunctionDef) and f.name == "_dump_json"
                  for node in ast.walk(f)}
    found = [node.lineno for node in ast.walk(tree)
             if _spells_a_value_rule(node) and id(node) not in exempt]
    assert found == [], f"{name}.py spells a value rule at lines {found}"


_HARPER = harper_potential()
_SQUARE = make_lattice([1.0, 0.0], [0.0, 1.0])
_T = FockTruncation(n_max=10, guard=2)
_POINT = (0.1, 0.2)
_A = PeriodicVectorPotential(
    FourierSeries2D({(0, 1): 0.5, (0, -1): 0.5}, is_real=True),
    FourierSeries2D({}, is_real=True), _SQUARE)
_THIRD = RationalFlux(1, 3)

# Each public entry that sizes a matrix or reads a delta, with a value that
# is no integer (or no finite real), and the error it documents.
BAD_VALUES = {
    "fock-n_max-float": (lambda: FockTruncation(10.5, 2), TruncationError),
    "fock-guard-float": (lambda: FockTruncation(10, 2.5), TruncationError),
    "fock-n_max-bool": (lambda: FockTruncation(True, 0), TruncationError),
    "oracle-n_cells-float": (
        lambda: OracleBasis(n_cells=1.5, n_grid=16, fock=_T), ValueError),
    "oracle-n_grid-float": (
        lambda: OracleBasis(n_cells=1, n_grid=16.0, fock=_T), ValueError),
    "flux-q-bool": (lambda: RationalFlux(1, True), ValueError),
    "flux-p-float": (lambda: RationalFlux(1.0, 2), ValueError),
    "remainder-delta-bool": (
        lambda: remainder_norm(_HARPER, None, _SQUARE, _T, True, _POINT),
        ValueError),
    "remainder-delta-str": (
        lambda: remainder_norm(_HARPER, None, _SQUARE, _T, "0.1", _POINT),
        ValueError),
    "exact-symbol-delta-bool": (
        lambda: exact_symbol(_HARPER, None, _SQUARE, _T, True), ValueError),
    "butterfly-q_max-bool": (lambda: butterfly(_HARPER, True), ValueError),
    "butterfly-q_max-float": (lambda: butterfly(_HARPER, 2.5), ValueError),
    "fractions-q_max-float": (lambda: reduced_fractions(2.5), ValueError),
    "single-band-order-float": (
        lambda: single_band_model(_HARPER, _SQUARE, 0.5, _THIRD, order=2.0),
        ValueError),
    "quantize-iota-2": (
        lambda: quantize_series(_HARPER, _THIRD, iota=2), ValueError),
    "quantize-iota-bool": (
        lambda: quantize_series(_HARPER, _THIRD, iota=True), ValueError),
    # an empty series, so that no mode's phase is ever formed
    "quantize-convention-unknown": (
        lambda: quantize_series(FourierSeries2D({}, is_real=True), _THIRD,
                                convention="weak"), ValueError),
    "two-band-n_star-float": (
        lambda: two_band_model(_A, _SQUARE, 0.5, _THIRD), ValueError),
    "two-band-n_star-bool": (
        lambda: two_band_model(_A, _SQUARE, True, _THIRD), ValueError),
    "two-band-n_star-negative": (
        lambda: two_band_model(_A, _SQUARE, -1, _THIRD), ValueError),
    "ggdag-n_star-float": (
        lambda: spectrum_via_GGdag(_A, _SQUARE, 0.5, _THIRD, grid=(8, 8)),
        ValueError),
    "ggdag-n_star-bool": (
        lambda: spectrum_via_GGdag(_A, _SQUARE, True, _THIRD, grid=(8, 8)),
        ValueError),
    "ggdag-n_star-negative": (
        lambda: spectrum_via_GGdag(_A, _SQUARE, -1, _THIRD, grid=(8, 8)),
        ValueError),
    "almost-mathieu-N-float": (
        lambda: almost_mathieu_spectrum(_THIRD, 0.0, 10.5), ValueError),
    "fock-require-order-float": (
        lambda: _T.require(order=1.5, max_band=0), TruncationError),
    "fock-require-max_band-float": (
        lambda: _T.require(order=1, max_band=0.5), TruncationError),
}


@pytest.mark.parametrize("make, error", BAD_VALUES.values(), ids=BAD_VALUES)
def test_public_entries_reject_non_integer_and_bool_values(make, error):
    with pytest.raises(error):
        make()

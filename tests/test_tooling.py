import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import iqcontrol
import iqcontrol.cli

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py"))


def test_pyproject_version_is_package_version():
    # read with a regex: tomllib is Python 3.11+, and the package supports 3.10
    pyproject = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^version = "([^"]+)"$', pyproject, re.M)
    assert match is not None
    assert match[1] == iqcontrol.__version__


def test_readme_report_example_version_is_package_version():
    # the README's report example is written by hand
    versions = re.findall(r'"version": "([^"]+)"', (ROOT / "README.md").read_text())
    assert versions == [iqcontrol.__version__]


def test_sources_found():
    assert ROOT / "src" / "iqcontrol" / "cli.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_source_parses_as_python_3_10(path):
    # requires-python is >= 3.10: no syntax newer than 3.10's grammar
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


# the public API: a name joins or leaves it only with a note in CHANGES.md
PUBLIC_NAMES = [
    "AmplificationPlan", "CasePreset", "ConfigError", "ConnectivityGraph", "ControlPulse",
    "ControllabilityConfig", "ControllabilityReport", "DEFAULT_L_MAX", "Decomposition",
    "DimensionMismatchError", "FrequencyCollision", "GoodSubspace", "HermiticityError",
    "HydrogenModel", "IrrationalWitness", "MeasurementGuardError", "MeasurementOutcome",
    "MeasurementPartition", "NonFiniteError", "NormalizationError", "RunReport", "StateVector",
    "SubspaceVerdict", "SystemSpec", "UnitarityError", "UnitaryOperator",
    "VERDICT_CONTROLLABLE", "VERDICT_INCONCLUSIVE", "VERDICT_VIOLATED", "ZeroOverlapError",
    "__version__", "amplified_state", "assess", "born_probabilities", "build_graph",
    "case1_preset", "case2_preset", "check_degenerate_transitions", "check_rational_ratios",
    "closed_form_weights", "connected_components", "decompose", "hydrogen_spec", "make_plan",
    "measurement_histogram", "optimal_iterations", "prepare_unitary", "propagate",
    "propagate_interaction_picture", "run_algorithm1", "run_algorithm2", "sample_collapse",
]
LAYERS = ["core", "controllability", "amplification", "measurement", "algorithms", "hydrogen",
          "errors"]


def test_public_names_are_pinned():
    assert sorted(iqcontrol.__all__) == PUBLIC_NAMES
    assert len(set(iqcontrol.__all__)) == len(iqcontrol.__all__)
    for name in iqcontrol.__all__:
        assert hasattr(iqcontrol, name), name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from iqcontrol import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC_NAMES


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_lists_only_what_it_defines(layer):
    module = importlib.import_module(f"iqcontrol.{layer}")
    for name in module.__all__:
        obj = getattr(module, name)
        # a function or class names the module that defines it; a constant
        # has no __module__, so its name must be assigned in the layer's source
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == module.__name__, name
        else:
            assert re.search(rf"^{name}\b.*=", inspect.getsource(module), re.M), name
        assert getattr(iqcontrol, name) is obj, name


def test_package_republishes_the_layers_in_order():
    layers = [importlib.import_module(f"iqcontrol.{layer}") for layer in LAYERS]
    assert iqcontrol.__all__ == ["__version__", *(n for m in layers for n in m.__all__)]


def _raised_names(path: Path) -> set:
    """The names of the exception classes a module raises by name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_core_alone_raises_dimension_mismatch():
    # whether an operand fits is decided in one place, core._same_dim
    raisers = [path.name for path in SOURCES if "DimensionMismatchError" in _raised_names(path)]
    assert raisers == ["core.py"]


def _method_calls(node: ast.AST, method: str) -> list:
    """The calls of ``<object>.method(...)`` within ``node``."""
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute) and call.func.attr == method]


def test_cli_declares_each_config_field_once():
    # a config field is one record of cli._FIELDS: the parser adds a flag
    # for '--config' and otherwise only in its loop over the table, and
    # validate_config reads by name only the fields it reads itself
    tree = ast.parse((ROOT / "src" / "iqcontrol" / "cli.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    loops = [node for node in ast.walk(functions["_build_parser"]) if isinstance(node, ast.For)
             and isinstance(node.iter, ast.Name) and node.iter.id == "_FIELDS"]
    in_loops = [call for loop in loops for call in _method_calls(loop, "add_argument")]
    assert in_loops
    others = [call for call in _method_calls(tree, "add_argument") if call not in in_loops]
    assert [ast.literal_eval(call.args[0]) for call in others] == ["--config"]
    gets = [call for call in _method_calls(functions["validate_config"], "get")
            if isinstance(call.func.value, ast.Name) and call.func.value.id == "raw"]
    named = [call.args[0].value for call in gets if isinstance(call.args[0], ast.Constant)]
    assert named == ["mode", "system", "initial"]
    # nor do the parser and the flag merge name any field
    names = iqcontrol.cli.CONFIG_FIELDS
    for name in ("_build_parser", "_assemble_raw_config"):
        strings = {node.value for node in ast.walk(functions[name])
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)}
        assert not strings & {*names, *(f"--{field.replace('_', '-')}" for field in names)}, name

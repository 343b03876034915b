"""The package's public surface: its dependency floor, the README library
example, the names it exports, the module boundaries, and the names the
benchmark reads."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import rsbf
from rsbf import harness

ROOT = Path(__file__).resolve().parents[1]

SUBMODULES = ("core", "families", "goldens", "harness", "recurrences", "report", "sweep",
              "transfer")

# public helpers that nothing in the package, the CLI, the README or the
# benchmark called, deleted as API
REMOVED = (
    "evaluate",
    "distance",
    "variable_table",
    "monomial_table",
    "linear_function",
    "constant_table",
    "table_values",
    "table_from_values",
    "rotate_input",
    "tail_products",
    "all_ok",
    "peak_at_zero",
    "spectrum_argmax",
    # wrappers their callers unwrapped at once
    "LinearMask",
    "SubFunctionId",
    # the suite registry's side tables, now fields of each SUITES record
    "TABLE_SUITES",
    "LONGEST_FIRST",
    "suite_windows",
    "window_floor",
    "_N_FLOORS",
    # the identity grids check every mask, so no sample size is left
    "GRID_SAMPLES",
)

# (module, name) that bench/ reads: its imports, the cache counters, and
# the names its tracer rebinds
BENCH_NAMES = (
    ("", "MonomialRsbfSpec"),
    ("", "SpectralBaseTable"),
    ("", "family_zero_value"),
    ("", "monomial_rsbf"),
    ("", "sub_function"),
    ("", "subfn_zero_recurrence"),
    ("", "walsh_at"),
    ("", "walsh_transform"),
    ("", "weight"),
    ("goldens", "load_reference_table"),
    ("families", "quartic_chain"),
    ("families", "_aligned_spectrum"),
    ("harness", "_family_case"),
    ("harness", "_transform_provider"),
    ("harness", "run_all"),
    ("harness", "scan_family"),
)


def test_numpy_floor_has_bitwise_count():
    # core builds its parity words with np.bitwise_count at import, and
    # NumPy added it in 2.0
    text = (ROOT / "pyproject.toml").read_text()
    (floor,) = re.findall(r'"numpy>=([0-9.]+)"', text)
    assert int(floor.split(".")[0]) >= 2


def test_readme_library_example_runs_as_written(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert "'pass'" in capsys.readouterr().out


def test_every_exported_name_resolves():
    for name in rsbf.__all__:
        assert hasattr(rsbf, name), name
    for module_name in SUBMODULES:
        module = importlib.import_module(f"rsbf.{module_name}")
        for name in module.__all__:
            assert hasattr(module, name), f"rsbf.{module_name}.{name}"


def test_package_exports_each_submodules_names_once():
    # goldens stays unexported
    exported = ("core", "families", "harness", "recurrences", "report", "sweep", "transfer")
    names = [name for m in exported for name in importlib.import_module(f"rsbf.{m}").__all__]
    assert rsbf.__all__ == names + ["__version__"]
    assert len(set(rsbf.__all__)) == len(rsbf.__all__)
    assert rsbf.Suite is harness.Suite


def test_removed_names_are_gone():
    for module in [rsbf] + [importlib.import_module(f"rsbf.{m}") for m in SUBMODULES]:
        for name in REMOVED:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    # seed-table methods and keywords that only tests used
    for name in ("validate", "from_brute_force"):
        assert not hasattr(rsbf.SpectralBaseTable, name), name
    for func, keyword in ((rsbf.check_subfn_zero, "base"), (rsbf.check_family_zero, "base"),
                          (rsbf.family_zero_value, "base"), (rsbf.check_factorization, "cases"),
                          (rsbf.check_identity_grid, "samples"), (rsbf.check_identity_grid, "seed")):
        assert keyword not in inspect.signature(func).parameters, func.__name__


def test_names_the_benchmark_reads_are_present():
    for module_name, name in BENCH_NAMES:
        module = importlib.import_module(f"rsbf.{module_name}" if module_name else "rsbf")
        assert hasattr(module, name), f"{module.__name__}.{name}"
    # the tracer names a reference-table suite by this parameter
    assert list(inspect.signature(harness.check_reference_table).parameters) == ["which"]


def test_names_the_benchmark_tracer_rebinds_are_found():
    # ci/checks.py's traced bench rows allow only these two stale rows
    # among the names the tracer cannot find, and find that out a minute
    # into the run; the tracer also rebinds rsbf.cli names
    import rsbf.cli  # noqa: F401

    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    scan_family, traced = harness.scan_family, tracer.Tracer()
    try:
        traced.install()
        assert set(traced.missing) <= {"rsbf.core.table_values", "rsbf.families.tail_products"}
    finally:
        traced.uninstall()
    assert harness.scan_family is scan_family


def test_sweep_imports_nothing_from_harness_or_cli():
    # the engine sits below the suite registry and the command line
    tree = ast.parse((ROOT / "src" / "rsbf" / "sweep.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        parts = {part for name in names for part in name.split(".")}
        assert not parts & {"harness", "cli"}, ast.unparse(node)


def test_every_python_file_parses_as_python_3_10():
    # pyproject allows Python 3.10, and CI runs tier-1 there; a newer
    # construct (except*, a type statement) would fail at import
    files = [path for folder in ("src", "tests", "ci", "bench")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_harness_options():
    fields = [f.name for f in dataclasses.fields(harness.HarnessConfig)]
    assert fields == ["max_n", "workers", "seed"]
    assert "oracle" not in inspect.signature(harness.check_identity_grid).parameters


def test_cli_import_loads_no_process_pool_module():
    # the harness forks its pool children itself; multiprocessing and
    # concurrent.futures would add about 21 ms to every start, and only a
    # full dump's forked children import fcntl, to size their pipes
    code = ("import sys, rsbf.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('multiprocessing', 'concurrent', 'fcntl')))")
    env = {**os.environ, "PYTHONPATH": str(Path(rsbf.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"

"""The package namespace: lazy exports and what ``import qdual`` loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qdual

SRC = str(Path(__file__).parents[1] / "src")

# the public names of the package before its exports became lazy
PUBLIC = set("""
    AlgebraError AlgebraMismatchError CHECK_IDS CheckReport Element EVEN
    GeneratorSpec MatrixFormatError NonInvertiblePowerError NotQuasiUnitError
    ODD ONE ParseError PoleError Presentation PresentationError Q QRational
    RewriteLimitError SuperMatrix ZERO check_dual_pattern check_gl_pattern
    closed_form_even closed_form_odd decomposition_factors delta1 delta2
    derive_inverse_rules dual_algebra dual_generator_matrix dual_superplane
    gl_algebra gl_generator_matrix has_failure identity invert_quasi_unit
    inverse_via_decomposition is_central left_inverse load_presentation
    load_presentation_file machine_lines matmul parse_element power q_power
    qnum rename render_element run_suite scalar sdet superplane tensor
    text_lines transform_plane
""".split())

SUBMODULES = ("qfield", "algebra", "presentations", "parsing", "supermatrix",
              "checks")


def _fresh(code):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_only_the_kernel():
    loaded = _fresh(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import qdual\n"
        "qdual.dual_algebra()\n"
        "kernel = sorted(set(sys.modules) - before)\n"
        "qdual.checks.run_suite\n"
        "print(json.dumps([kernel, sorted(sys.modules)]))\n"
    )
    kernel, later = loaded
    assert {"qdual.qfield", "qdual.algebra", "qdual.presentations"} <= set(kernel)
    for name in ("qdual.checks", "qdual.supermatrix", "qdual.cli", "dataclasses"):
        assert name not in kernel
    # a submodule attribute loads its module on first use
    assert {"qdual.checks", "qdual.supermatrix"} <= set(later)


def test_cli_and_a_suite_run_load_no_dataclasses():
    # the records are named tuples and slotted classes: a qdual process does
    # not pay for dataclasses and the inspect module it brings in
    loaded = _fresh(
        "import json, sys\n"
        "import qdual.cli\n"
        "qdual.cli.run_suite(1)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    assert "qdual.checks" in loaded
    assert "dataclasses" not in loaded and "inspect" not in loaded


def test_every_export_is_its_home_modules_object():
    assert set(qdual.__all__) == PUBLIC
    for module, names in qdual._EXPORTS.items():
        home = importlib.import_module(f"qdual.{module}")
        assert getattr(qdual, module) is home
        for name in names:
            assert getattr(qdual, name) is getattr(home, name), name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from qdual import *", namespace)
    assert PUBLIC <= set(namespace)
    assert all(namespace[name] is getattr(qdual, name) for name in PUBLIC)


def test_dir_lists_exports_and_submodules():
    assert PUBLIC | set(SUBMODULES) <= set(dir(qdual))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        qdual.no_such_name
    assert not hasattr(qdual, "_no_such_private")

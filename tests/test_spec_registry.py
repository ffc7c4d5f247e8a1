"""A device's constants live only in its spec, looked up by backend.

Two halves: a static check that no module below the device reaches for
a ``*_SPEC`` constant (so every cost model prices the spec it is
handed), and a dynamic one that a backend re-registered with another
spec reaches every figure that prices it.
"""

import ast
import dataclasses
import pathlib

import pytest

from repro.core import memo
from repro.figures import FIGURES, run_figure
from repro.hw.backend import GAUDI2, REGISTRY, backend_info, get_backend, register_backend
from repro.hw.device import Gaudi2Device
from repro.hw.spec import GAUDI2_SPEC

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: Modules that declare a spec sheet.
DECLARATIONS = {"hw/spec.py", "hw/gaudi3.py", "hw/hopper.py"}
#: The device classes whose constructor defaults to its own spec: the
#: registry's zero-argument factories build them.
DEVICE_DEFAULTS = {
    ("hw/device.py", "Gaudi2Device"),
    ("hw/device.py", "A100Device"),
    ("hw/hopper.py", "H100Device"),
    ("hw/gaudi3.py", "Gaudi3Device"),
}


def _is_spec_name(name: str) -> bool:
    return name.endswith("_SPEC") and name.isupper()


def _spec_names(node: ast.AST):
    return [n for n in ast.walk(node) if isinstance(n, ast.Name) and _is_spec_name(n.id)]


def _defaults(tree: ast.Module):
    """(owner class, default expression) of every parameter default and
    class-level field default in ``tree``."""
    for cls in [None, *[n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]]:
        body = tree.body if cls is None else cls.body
        owner = None if cls is None else cls.name
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = stmt.args
                for default in [*args.defaults, *args.kw_defaults]:
                    if default is not None:
                        yield owner, stmt.name, default
            elif cls is not None and isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                yield owner, "<field>", stmt.value


def _violations(src=SRC):
    found = []
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        tree = ast.parse(path.read_text(), filename=rel)
        allowed = set()
        for owner, func, default in _defaults(tree):
            names = _spec_names(default)
            if not names:
                continue
            if (rel, owner) in DEVICE_DEFAULTS and func == "__init__":
                allowed.update(id(n) for n in names)
            else:
                found.append(f"{rel}: {owner or '<module>'}.{func} defaults to a spec")
                allowed.update(id(n) for n in names)  # reported once
        if rel in DECLARATIONS:
            continue
        reexport = path.name == "__init__.py"
        device_module = any(module == rel for module, _ in DEVICE_DEFAULTS)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and not (reexport or device_module):
                found += [f"{rel}: imports {a.name}" for a in node.names if _is_spec_name(a.name)]
            elif isinstance(node, ast.Name) and _is_spec_name(node.id) and id(node) not in allowed:
                found.append(f"{rel}:{node.lineno}: names {node.id}")
    return found


def test_no_module_below_the_device_names_a_spec_constant():
    assert _violations() == []


def test_the_check_sees_a_default_and_a_hard_read(tmp_path):
    """The check is not vacuous: a vendor default and a hard read in a
    copy of one kernel module are both reported."""
    root = tmp_path / "repro"
    (root / "kernels").mkdir(parents=True)
    (root / "kernels" / "probe.py").write_text(
        "from repro.hw.spec import GAUDI2_SPEC, DeviceSpec\n"
        "def price(x, spec: DeviceSpec = GAUDI2_SPEC):\n"
        "    return x / GAUDI2_SPEC.memory.bandwidth\n"
    )
    found = _violations(root)
    assert any("defaults to a spec" in f for f in found)
    assert any("names GAUDI2_SPEC" in f for f in found)
    assert any("imports GAUDI2_SPEC" in f for f in found)


# ---------------------------------------------------------------------------
# A re-registered backend reaches every figure
# ---------------------------------------------------------------------------
#: Figures that price no Gaudi-2, or price it outside the registry.
EXCLUDED = {
    "table2": "an inventory of the microbenchmarks; it prices nothing",
    "design_space": "prices through the process-cached surrogate fit (slated for deletion), "
                    "which a re-registration does not refit",
}


def _scaled_gaudi2():
    spec = GAUDI2_SPEC
    return dataclasses.replace(
        spec,
        matrix=dataclasses.replace(spec.matrix, clock_hz=spec.matrix.clock_hz * 1.1),
        vector=dataclasses.replace(spec.vector, clock_hz=spec.vector.clock_hz * 1.1),
        memory=dataclasses.replace(spec.memory, bandwidth=spec.memory.bandwidth * 1.1),
        interconnect=dataclasses.replace(
            spec.interconnect, link_bandwidth=spec.interconnect.link_bandwidth * 1.1
        ),
    )


def _rows(result):
    return [tuple(row.items()) for row in result.rows]


@pytest.fixture(scope="module")
def figure_pairs():
    """Every priced figure's rows, with the stock and the scaled gaudi2."""
    ids = [fid for fid in sorted(FIGURES) if fid not in EXCLUDED]
    original, instance = backend_info(GAUDI2), get_backend(GAUDI2)
    spec = _scaled_gaudi2()
    with memo.disabled():
        stock = {fid: run_figure(figure_id=fid) for fid in ids}
        register_backend(
            dataclasses.replace(original, factory=lambda: Gaudi2Device(spec), spec=spec),
            replace=True,
        )
        try:
            assert get_backend(GAUDI2).spec is spec
            scaled = {fid: run_figure(figure_id=fid) for fid in ids}
        finally:
            register_backend(original, replace=True)
            REGISTRY._instances[GAUDI2] = instance
    return stock, scaled


@pytest.mark.parametrize("figure_id", sorted(set(FIGURES) - set(EXCLUDED)))
def test_reregistered_gaudi2_reaches_figure(figure_pairs, figure_id):
    stock, scaled = figure_pairs
    assert _rows(scaled[figure_id]) != _rows(stock[figure_id])


@pytest.mark.parametrize("panel", ["a", "b"])
def test_reregistered_gaudi2_reaches_fig17_kernel_panels(figure_pairs, panel):
    stock, scaled = figure_pairs

    def panel_rows(result):
        return [row for row in _rows(result) if ("panel", panel) in row]

    assert panel_rows(stock["fig17"])
    assert panel_rows(scaled["fig17"]) != panel_rows(stock["fig17"])


def test_registration_is_restored(figure_pairs):
    assert get_backend(GAUDI2).spec is GAUDI2_SPEC


@pytest.mark.parametrize("claim", ["sdk_embedding_vs_a100", "custom_single_over_sdk"])
def test_reregistered_gaudi2_reaches_headline_embedding_half(figure_pairs, claim):
    stock, scaled = figure_pairs
    assert scaled["headline"].summary[claim] != stock["headline"].summary[claim]

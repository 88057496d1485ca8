"""The count of settable values under src/xgblora: the function parameters
that have a default plus the dataclass fields that have a default. Each one
is a setting some caller may choose, so the count may only go down; a change
that adds an option edits LIMIT and shows up in review."""

import ast
import pathlib

LIMIT = 116
SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "xgblora"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def settable_values() -> list[str]:
    """`module:owner.name` of every defaulted parameter and dataclass field."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                positional = a.posonlyargs + a.args
                defaulted = positional[len(positional) - len(a.defaults):]
                defaulted += [arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                owner = getattr(node, "name", "<lambda>")
                found += [f"{path.stem}:{owner}.{arg.arg}" for arg in defaulted]
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                found += [f"{path.stem}:{node.name}.{st.target.id}" for st in node.body
                          if isinstance(st, ast.AnnAssign) and st.value is not None]
    return found


def test_settable_values_do_not_grow():
    values = settable_values()
    assert len(values) <= LIMIT, "\n".join(values)


def test_counts_parameters_and_dataclass_fields():
    values = settable_values()
    for name in ("tensor:finite_diff_gradient.eps", "boosting:TrainConfig.eta",
                 "checkpoint:CheckpointState.trace", "cli:main.argv"):
        assert name in values
    assert "checkpoint:CheckpointState.model" not in values  # a field with no default

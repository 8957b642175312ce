"""Unit-flow rules: suffix-inferred unit checking over the naming convention.

The repo encodes physical units in identifier suffixes (``execution_time_s``,
``p99_sojourn_ns``, ``link_bandwidth_bytes_per_s``, ``offered_rps``,
``flit_size_bytes``, ``latency_cycles`` -- :mod:`repro.sim.units` states the
convention).  These rules treat each suffix as a static unit tag
and flag flows that mix tags:

``unit-mixed-arith``
    ``+``/``-``/comparison where *both* operands carry known, incompatible
    unit tags (different dimension, or same dimension at different scales:
    ``a_ns + b_s`` is as wrong as ``a_ns + b_bytes``).  Multiplication and
    division are never flagged -- they are how legitimate conversions and
    derived quantities are written (``bytes / seconds``, ``t_s * 1e9``).

``unit-suffix-drop``
    A unit tag silently changing across a binding boundary: a function whose
    name carries tag U returning an expression tagged V, an assignment
    ``x_U = y_V``, or a keyword argument ``f(x_U=y_V)`` with U and V
    incompatible.  Conversions spelled as multiplications are untagged and
    therefore never flagged; the rule only fires when both sides carry
    explicit, conflicting tags.

Only identifiers (names, attributes, calls-by-name, subscripted containers)
are tagged; any arithmetic on an operand erases its tag, so false positives
require two *directly conflicting* identifier suffixes -- which is exactly
the situation the convention exists to prevent.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Tuple

from repro.analysis.findings import Finding
from repro.analysis.rules import RuleContext, register_rule

#: ``(suffix, dimension, scale)`` -- longest suffix first so ``_bytes_per_s``
#: wins over ``_per_s`` and ``_ns``/``_ms`` win over ``_s``.  A *unit* is the
#: ``(dimension, scale)`` pair; two units are compatible iff equal (same
#: dimension at a different scale still needs an explicit conversion).
UNIT_SUFFIXES: Tuple[Tuple[str, str, str], ...] = (
    ("_bytes_per_s", "bandwidth", "bytes/s"),
    ("_bits_per_s", "bandwidth", "bits/s"),
    ("_tbps", "bandwidth", "TB/s"),
    ("_gbps", "bandwidth", "GB/s"),
    ("_per_s", "rate", "1/s"),
    ("_rps", "rate", "1/s"),
    ("_cycles", "cycles", "cycles"),
    ("_ghz", "frequency", "GHz"),
    ("_mhz", "frequency", "MHz"),
    ("_hz", "frequency", "Hz"),
    ("_bytes", "size", "bytes"),
    ("_bits", "size", "bits"),
    ("_ns", "time", "ns"),
    ("_us", "time", "us"),
    ("_ms", "time", "ms"),
    ("_ps", "time", "ps"),
    ("_pj", "energy", "pJ"),
    ("_nj", "energy", "nJ"),
    ("_mw", "power", "mW"),
    ("_s", "time", "s"),
    ("_w", "power", "W"),
    ("_j", "energy", "J"),
)


def unit_of_name(name: str) -> Optional[Tuple[str, str]]:
    """The ``(dimension, scale)`` tag of an identifier, or ``None``."""
    for suffix, dimension, scale in UNIT_SUFFIXES:
        if name.endswith(suffix):
            return (dimension, scale)
    return None


def unit_of_node(node: ast.AST) -> Optional[Tuple[str, str]]:
    """The unit tag of an expression, or ``None`` when untagged.

    Tags flow through identifier lookups only: a name or attribute carries
    its own suffix, a call carries its callee's suffix (``to_seconds_s(x)``),
    a subscript carries its container's suffix (``latencies_ns[i]``), and
    unary minus is transparent.  Every other expression form -- including
    all arithmetic -- is untagged.
    """
    if isinstance(node, ast.Name):
        return unit_of_name(node.id)
    if isinstance(node, ast.Attribute):
        return unit_of_name(node.attr)
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name):
            return unit_of_name(node.func.id)
        if isinstance(node.func, ast.Attribute):
            return unit_of_name(node.func.attr)
        return None
    if isinstance(node, ast.Subscript):
        return unit_of_node(node.value)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return unit_of_node(node.operand)
    return None


def _describe(node: ast.AST, unit: Tuple[str, str], limit: int = 40) -> str:
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse failure on exotic nodes
        text = type(node).__name__
    if len(text) > limit:
        text = text[: limit - 3] + "..."
    return f"'{text}' [{unit[1]}]"


_COMPARE_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)


@register_rule(
    "unit-mixed-arith",
    family="units",
    summary="addition/subtraction/comparison of incompatible unit suffixes",
)
def check_mixed_arithmetic(context: RuleContext) -> Iterable[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(context.tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            left, right = unit_of_node(node.left), unit_of_node(node.right)
            if left and right and left != right:
                op = "adds" if isinstance(node.op, ast.Add) else "subtracts"
                findings.append(
                    context.finding(
                        node,
                        "unit-mixed-arith",
                        f"{op} {_describe(node.right, right)} "
                        f"{'to' if op == 'adds' else 'from'} "
                        f"{_describe(node.left, left)}",
                        "convert one operand explicitly "
                        "(multiply or divide by the scale factor)",
                    )
                )
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for index, op in enumerate(node.ops):
                if not isinstance(op, _COMPARE_OPS):
                    continue
                left = unit_of_node(operands[index])
                right = unit_of_node(operands[index + 1])
                if left and right and left != right:
                    findings.append(
                        context.finding(
                            node,
                            "unit-mixed-arith",
                            f"compares {_describe(operands[index], left)} "
                            f"against {_describe(operands[index + 1], right)}",
                            "convert one operand explicitly "
                            "(multiply or divide by the scale factor)",
                        )
                    )
    return findings


def _target_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _function_returns(
    func: ast.AST,
) -> Iterable[ast.Return]:
    """``return`` statements belonging to ``func`` itself (not nested defs)."""
    stack: List[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Return):
            yield node
        stack.extend(ast.iter_child_nodes(node))


@register_rule(
    "unit-suffix-drop",
    family="units",
    summary="unit suffix silently changing across a binding boundary",
)
def check_suffix_drop(context: RuleContext) -> Iterable[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(context.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            declared = unit_of_name(node.name)
            if not declared:
                continue
            for ret in _function_returns(node):
                if ret.value is None:
                    continue
                actual = unit_of_node(ret.value)
                if actual and actual != declared:
                    findings.append(
                        context.finding(
                            ret,
                            "unit-suffix-drop",
                            f"function {node.name}() [{declared[1]}] returns "
                            f"{_describe(ret.value, actual)}",
                            "convert the value or rename the function to "
                            "match the returned unit",
                        )
                    )
        elif isinstance(node, ast.Assign):
            value_unit = unit_of_node(node.value)
            if not value_unit:
                continue
            for target in node.targets:
                name = _target_name(target)
                if name is None:
                    continue
                declared = unit_of_name(name)
                if declared and declared != value_unit:
                    findings.append(
                        context.finding(
                            node,
                            "unit-suffix-drop",
                            f"assigns {_describe(node.value, value_unit)} "
                            f"to '{name}' [{declared[1]}]",
                            "convert the value or rename the target to "
                            "match its unit",
                        )
                    )
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value_unit = unit_of_node(node.value)
            name = _target_name(node.target)
            if value_unit and name:
                declared = unit_of_name(name)
                if declared and declared != value_unit:
                    findings.append(
                        context.finding(
                            node,
                            "unit-suffix-drop",
                            f"assigns {_describe(node.value, value_unit)} "
                            f"to '{name}' [{declared[1]}]",
                            "convert the value or rename the target to "
                            "match its unit",
                        )
                    )
        elif isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg is None:
                    continue
                declared = unit_of_name(keyword.arg)
                if not declared:
                    continue
                actual = unit_of_node(keyword.value)
                if actual and actual != declared:
                    findings.append(
                        context.finding(
                            keyword.value,
                            "unit-suffix-drop",
                            f"passes {_describe(keyword.value, actual)} as "
                            f"keyword '{keyword.arg}' [{declared[1]}]",
                            "convert the value to the keyword's unit",
                        )
                    )
    return findings

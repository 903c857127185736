"""The reason-code taxonomy is closed: the codes the pipeline modules
raise are exactly :data:`repro.attest.ATTEST_REASON_CODES`."""

import ast
from pathlib import Path

import repro
from repro.attest import ATTEST_REASON_CODES

SRC = Path(repro.__file__).resolve().parent
PIPELINE_MODULES = sorted((SRC / "attest").glob("*.py")) + [
    SRC / "amd" / "verify.py"
]


def raised_codes(path: Path) -> set:
    """Every string literal passed first to ``AttestationError(...)``
    in *path* (re-raises of a variable code are skipped)."""
    codes = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(
            func, "attr", None
        )
        first = node.args[0]
        if (
            name == "AttestationError"
            and isinstance(first, ast.Constant)
            and isinstance(first.value, str)
        ):
            codes.add(first.value)
    return codes


def test_raised_codes_equal_the_taxonomy():
    raised = set()
    for path in PIPELINE_MODULES:
        raised |= raised_codes(path)
    assert raised == set(ATTEST_REASON_CODES), (
        sorted(raised - ATTEST_REASON_CODES),
        sorted(ATTEST_REASON_CODES - raised),
    )

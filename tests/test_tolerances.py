"""Every numerical threshold of the package lives in one table in ``qobs.systems``."""

import ast
import math
import tokenize
from pathlib import Path

import pytest

import qobs
from qobs import systems

SRC = Path(qobs.__file__).resolve().parent

TABLE = {
    "IMAG_RESIDUE_RTOL": 1e-9,
    "EIG_SPLIT_RTOL": 1e-8,
    "RANK_RTOL": 1e-9,
    "CHECK_RTOL": 1e-8,
    "COND_MAX": 1e12,
    "PIVOT_RTOL": 1e-12,
}


def tolerance_literals(path):
    """``(line, literal)`` of each code literal with ``|log10| >= 5``.

    Docstrings and comments are not NUMBER tokens, so they never count; a
    literal that is the whole right-hand side of a table assignment in
    ``systems.py`` is the table itself and is skipped.
    """
    found = []
    with tokenize.open(path) as fh:
        statement = []
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                statement = []
                continue
            if tok.type in (tokenize.NL, tokenize.COMMENT, tokenize.INDENT, tokenize.DEDENT):
                continue
            statement.append(tok)
            if tok.type != tokenize.NUMBER:
                continue
            value = abs(ast.literal_eval(tok.string))
            if value == 0 or abs(math.log10(value)) < 5:
                continue
            in_table = (
                path.name == "systems.py"
                and len(statement) == 3
                and statement[0].string in TABLE
                and statement[1].string == "="
            )
            if not in_table:
                found.append((tok.start[0], tok.string))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_tolerance_literal_outside_the_table(path):
    assert tolerance_literals(path) == []


def test_table_values():
    assert {name: getattr(systems, name) for name in TABLE} == TABLE


def test_scan_sees_code_literals(tmp_path):
    # the scan must catch a literal in code, whatever the module
    path = tmp_path / "systems.py"
    path.write_text('"""1e-8 in a docstring."""\nCHECK_RTOL = 1e-8  # 1e-9\nx = 1e-8 * 2\nRANK_RTOL = 2 * 1e-9\n')
    assert tolerance_literals(path) == [(3, "1e-8"), (4, "1e-9")]

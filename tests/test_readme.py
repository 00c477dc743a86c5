"""The README's "Library in one minute" block runs as printed, and each
expression in it has the value its comment starts with."""

import ast
import re
from pathlib import Path

from carefulsync import enumerate_plans, prime_rt_formula

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library in one minute"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_in_one_minute():
    source = _library_block()
    lines = source.splitlines()
    namespace = {}
    checked = []
    for statement in ast.parse(source).body:
        code = ast.get_source_segment(source, statement)
        if not isinstance(statement, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        comment = lines[statement.lineno - 1].partition("#")[2].strip()
        assert comment.startswith(repr(value)), (code, value, comment)
        checked.append(code)
    assert len(checked) == 6, checked
    # the claims that follow the value in two of the comments
    assert len(enumerate_plans(5, 2)) == 1  # "the unique optimal 5-pawn race"
    assert len(namespace["word"]) == 52
    assert prime_rt_formula((5, 7, 8, 9)) == 3114

"""README's library examples run as written, and their commented values hold."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _commented_value(comment: str):
    """The shortest leading phrase of ``comment`` that is an expression
    (a trailing comma dropped), compiled; ``None`` if there is none."""
    words = comment.split(" ")
    for k in range(1, len(words) + 1):
        try:
            return compile(" ".join(words[:k]).rstrip(","), "README.md", "eval")
        except SyntaxError:
            continue
    return None


def test_readme_python_blocks_run_in_one_namespace():
    # a bare expression with a trailing comment, such as `dec.count  # 256`,
    # must equal the value the comment opens with
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    checked = []
    for block in blocks:
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            line = lines[stmt.end_lineno - 1]
            comment = line.partition("#")[2].strip()
            expected = _commented_value(comment) if comment else None
            if isinstance(stmt, ast.Expr) and expected is not None:
                value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
                assert value == eval(expected, namespace), line
                checked.append(value)
            else:
                exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
    assert checked == [0.125, 0.125, [20, 3], [0.125], 0.125, 256, (23, 256)]

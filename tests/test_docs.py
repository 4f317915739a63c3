import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_example_runs(capsys):
    block = re.search(r"Quick example:\s*```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block.group(1), str(README), "exec"), {})
    # the example prints c/v_g, which the paper's transparent window makes negative
    assert float(capsys.readouterr().out) < 0

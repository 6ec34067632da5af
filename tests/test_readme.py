"""The Python code in README.md runs as printed."""
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def python_block(heading):
    """The first ``python`` code block after ``heading``."""
    text = README.read_text("utf-8")
    section = text[text.index(heading) :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_tour_runs():
    namespace = {}
    exec(compile(python_block("## Library quick tour"), "README.md", "exec"), namespace)
    # the figures its comments give
    assert repr(namespace["sigma"]) == "Indicator(0, 1)"
    assert namespace["lat"].node_count == 9
    assert len(namespace["reports"]) == 53

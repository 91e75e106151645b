"""The code-line counter that ``tools/code_lines.py`` runs over ``src/crossmodal``."""

import importlib.util
import pathlib
import textwrap

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _counter():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_neither_docstrings_comments_nor_blank_lines():
    source = textwrap.dedent(
        '''\
        """Module docstring,
        on two lines."""

        # a comment
        import os  # a trailing comment


        def f(a, b):
            """One-line docstring."""
            text = """a string that is not a docstring
            spans two lines"""
            return os.path.join(
                a,
                b,
            ) + text
        '''
    )
    # import, def, the two string lines and the four lines of the call
    assert _counter().code_lines(source) == 8


def test_reports_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "b.py").write_text('"""Doc."""\nz = (\n    3\n)\n')
    assert _counter().main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.split()
    assert lines == ["a", "2", "b", "3", "total", "5"]

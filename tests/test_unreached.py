import importlib.util
from pathlib import Path

from steinb import cli

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "unreached.py"
_spec = importlib.util.spec_from_file_location("unreached", SCRIPT)
unreached = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unreached)


def test_a_traced_bounds_run_leaves_its_error_lines_unrun(capsys):
    cli_py = Path(cli.__file__).resolve()
    with unreached.LineTrace([cli_py]) as trace:
        assert cli.main(["bounds"]) == 0
    capsys.readouterr()
    missed = {line for _, line in unreached.unreached(trace)}
    source = cli_py.read_text().splitlines()
    no_scenarios = next(i for i, text in enumerate(source, 1) if "no scenarios found" in text)
    assert no_scenarios in missed
    first = min(line for line in unreached.statements(cli_py) if line > cli.main.__code__.co_firstlineno)
    assert first not in missed  # main's first statement

"""Seeded CLI outputs stay byte-identical: the ledger of tools/seeded_outputs.py."""

import importlib.util
import json
import re
import shlex
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "seeded_outputs.py"

spec = importlib.util.spec_from_file_location("seeded_outputs", TOOL)
seeded_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(seeded_outputs)


def test_outputs_match_the_ledger(tmp_path):
    expected = json.loads(seeded_outputs.LEDGER.read_text())
    assert [e["command"] for e in expected] == seeded_outputs.COMMANDS
    for got, want in zip(seeded_outputs.ledger(tmp_path), expected):
        assert got == want, "rerun tools/seeded_outputs.py if this change is meant"


def test_the_list_holds_every_readme_command():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    readme = [shlex.split(line)[1:] for line in lines if line.startswith("graphtest ")]
    listed = [shlex.split(command) for command in seeded_outputs.COMMANDS]
    assert len(readme) == 7
    assert all(argv in listed for argv in readme)

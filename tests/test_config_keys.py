"""`cli.CONFIG_KEYS` lists exactly the config keys that `cli.py` reads: a
key the table lists and the code never reads, or one the code reads and the
table lacks, fails here.

The scan relies on a naming rule of `cli.py`: a variable that holds config
is named after what it holds (READERS). A read is a constant-string
subscript of such a variable (not an assignment to one), its .get, .pop or
.setdefault with a constant-string key, or a constant-string `in` test on
it."""

import ast
from pathlib import Path

from stabvax import cli

CLI = Path(__file__).resolve().parents[1] / "src" / "stabvax" / "cli.py"
# variable name -> the CONFIG_KEYS section it holds
READERS = {"config": "", "synthetic": "synthetic", "schedule": "schedule",
           "files": "files", "policy": "policies"}
ACCESSORS = ("get", "pop", "setdefault")


def config_reads(source: str, readers: dict) -> set[tuple[str, str]]:
    """(section, key) for every config key read in source."""

    def section_of(node):
        return readers.get(node.id) if isinstance(node, ast.Name) else None

    def key_of(node):
        return node.value if (isinstance(node, ast.Constant)
                              and isinstance(node.value, str)) else None

    reads = set()
    for node in ast.walk(ast.parse(source)):
        section = key = None
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            section, key = section_of(node.value), key_of(node.slice)
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in ACCESSORS):
            section, key = section_of(node.func.value), key_of(node.args[0])
        elif (isinstance(node, ast.Compare) and len(node.ops) == 1
              and isinstance(node.ops[0], (ast.In, ast.NotIn))):
            section, key = section_of(node.comparators[0]), key_of(node.left)
        if section is not None and key is not None:
            reads.add((section, key))
    return reads


def test_key_table_matches_reads():
    table = {(section, key) for section, keys in cli.CONFIG_KEYS.items()
             for key in keys}
    reads = config_reads(CLI.read_text(), READERS)
    assert sorted(table - reads) == [], "listed, never read"
    assert sorted(reads - table) == [], "read, not listed"


def test_scan_finds_reads_only():
    source = ("def f(config, schedule, other, name):\n"
              "    config['out'] = 1\n"
              "    config[name] = 2\n"
              "    seed = config.get('seed', 0), config['model']\n"
              "    if 'instance' not in config and 'x' in other:\n"
              "        schedule.setdefault('budget', 0)\n"
              "    del config['step']\n"
              "    return other['horizon'], other.get('n'), schedule.pop('a')\n")
    assert config_reads(source, {"config": "", "schedule": "schedule"}) == {
        ("", "seed"), ("", "model"), ("", "instance"), ("schedule", "budget"),
        ("schedule", "a")}

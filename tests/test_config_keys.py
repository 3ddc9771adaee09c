"""The config keys reed.config documents are the keys the code reads.

The module docstring's ``[section] key, ...`` lines are compared with every
key passed as a constant to Config.get, Config.address and Config.options in
config.py and cli.py. So a key the code stops reading cannot stay in the
docs, and a key it starts reading cannot stay out of them.
"""

import ast
import os
import re

from reed import config

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "reed")
DOC_LINE = re.compile(r"^\s*\[(\w+)\]\s+(\w+(?:,\s*\w+)*)\s*$")


def documented_keys(doc: str) -> set:
    keys = set()
    for line in doc.splitlines():
        match = DOC_LINE.match(line)
        if match:
            keys.update((match[1], key.strip()) for key in match[2].split(","))
    return keys


def read_keys(source: str) -> set:
    """(section, key) of each cfg.get, cfg.address or cfg.options call (self.
    in config.py) whose section is a constant."""
    keys = set()
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("get", "address", "options")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("cfg", "self")
                and node.args and isinstance(node.args[0], ast.Constant)):
            continue
        section = node.args[0].value
        if node.func.attr == "options":
            keys.update((section, kw.arg) for kw in node.keywords)
        else:
            keys.add((section, node.args[1].value))
    return keys


def source(name: str) -> str:
    with open(os.path.join(SRC, name)) as fh:
        return fh.read()


def test_documented_config_keys_are_the_keys_read():
    read = read_keys(source("config.py")) | read_keys(source("cli.py"))
    assert documented_keys(config.__doc__) == read


def test_every_default_is_a_documented_key():
    defaults = {(section, key) for section, values in config.DEFAULTS.items()
                for key in values}
    assert defaults <= documented_keys(config.__doc__)


def test_the_guard_sees_each_form():
    assert documented_keys("Keys:\n\n    [a]  x, y\n    [b] z\nnot [c] w\n") == \
        {("a", "x"), ("a", "y"), ("b", "z")}
    code = ('cfg.get("a", "x")\ncfg.address("b", "y")\n'
            'self.options("c", z=int, w=str)\nself.parser.get(section, key)\n'
            'other.get("d", "v")\n')
    assert read_keys(code) == {("a", "x"), ("b", "y"), ("c", "z"), ("c", "w")}

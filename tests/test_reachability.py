"""Reachability guard: no public definition in ``src/repro`` is dead.

An AST scan of every public top-level definition (function, class or
assigned name) of every non-``__init__`` module under ``src/repro``. A
definition is *reachable* when

* another non-``__init__`` module under ``src/``, ``perfbench/`` or
  ``examples/`` mentions its name as a word, or
* its own module mentions it in module-level code (a registration call,
  say) or inside the body of a reachable definition.

Only code mentions count: a name, or a word of a string literal (a
``getattr`` or a patch target). Comments and docstrings do not.

Every unreachable name must be listed in ``reachability_allowlist.txt``
next to this file, one ``<module path> <name>: <category>: <reason>``
line per name, with one of :data:`CATEGORIES`. The guard fails naming
each new dead definition, and each allowlist line whose name is gone or
has become reachable.
"""

from __future__ import annotations

import ast
import functools
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ALLOWLIST = Path(__file__).with_name("reachability_allowlist.txt")

#: Why an unreachable name may stay.
CATEGORIES = (
    "paper apparatus",
    "test oracle",
    "patched by perfbench",
    "library API",
)

_WORD = re.compile(r"[A-Za-z_]\w*")


def _defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _code_words(text: str) -> list[tuple[int, str]]:
    """``(line, word)`` for every name and every word of a string literal
    in ``text``'s code; comments and docstrings (a string that is a whole
    statement) say nothing."""
    tokens = [
        tok
        for tok in tokenize.generate_tokens(io.StringIO(text).readline)
        if tok.type not in (tokenize.NL, tokenize.COMMENT)
    ]
    found = []
    for index, tok in enumerate(tokens):
        if tok.type == tokenize.NAME:
            found.append((tok.start[0], tok.string))
        elif tok.type == tokenize.STRING:
            before = tokens[index - 1].type if index else tokenize.NEWLINE
            after = tokens[index + 1].type
            if not (
                before in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
                and after in (tokenize.NEWLINE, tokenize.ENDMARKER)
            ):
                found.extend(
                    (tok.start[0], word) for word in _WORD.findall(tok.string)
                )
    return found


def _module_graph(
    text: str, words: list[tuple[int, str]]
) -> tuple[dict[str, set[str]], set[str]]:
    """``{defined name: code words of its definition}`` and the code words
    of the module-level code outside every definition and ``__all__``."""
    defs: dict[str, set[str]] = {}
    inside: set[int] = set()
    for node in ast.parse(text).body:
        names = _defined_names(node)
        if not names:
            continue
        decorators = getattr(node, "decorator_list", [])
        lines = range(
            min([node.lineno] + [d.lineno for d in decorators]),
            node.end_lineno + 1,
        )
        for name in names:
            defs[name] = {word for line, word in words if line in lines}
        inside.update(lines)
    defs.pop("__all__", None)
    return defs, {word for line, word in words if line not in inside}


@functools.cache
def unreachable(root: Path = ROOT) -> frozenset[str]:
    """``"<module path> <name>"`` of every unreachable public definition
    under ``root/src``."""
    modules = sorted(
        p for p in (root / "src").rglob("*.py") if p.name != "__init__.py"
    )
    readers = (
        modules
        + sorted((root / "perfbench").rglob("*.py"))
        + sorted((root / "examples").rglob("*.py"))
    )
    texts = {path: path.read_text() for path in readers}
    code = {path: _code_words(text) for path, text in texts.items()}
    words = {path: {word for _, word in found} for path, found in code.items()}
    mentions = Counter(word for found in words.values() for word in found)
    dead: set[str] = set()
    for path in modules:
        defs, module_code = _module_graph(texts[path], code[path])
        own = words[path]
        # Mentioned by another reader, or by this module's top-level code.
        frontier = [
            name
            for name in defs
            if mentions[name] > (name in own) or name in module_code
        ]
        reached = set(frontier)
        while frontier:
            for name in defs[frontier.pop()] & defs.keys():
                if name not in reached:
                    reached.add(name)
                    frontier.append(name)
        rel = path.relative_to(root).as_posix()
        dead.update(
            f"{rel} {name}"
            for name in defs.keys() - reached
            if not name.startswith("_")
        )
    return frozenset(dead)


def allowlist() -> dict[str, str]:
    """``{"<module path> <name>": "<category>: <reason>"}``."""
    entries: dict[str, str] = {}
    for line in ALLOWLIST.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            key, _, reason = line.partition(":")
            entries[key.strip()] = reason.strip()
    return entries


def test_every_public_definition_is_reachable_or_allowlisted():
    new_dead = sorted(unreachable() - allowlist().keys())
    assert not new_dead, (
        "unreachable public definitions (give each a caller, delete it, "
        "or allowlist it with a reason):\n  " + "\n  ".join(new_dead)
    )


def test_allowlist_names_only_unreachable_definitions():
    stale = sorted(allowlist().keys() - unreachable())
    assert not stale, (
        "allowlisted names that are gone or now reachable (drop their "
        "lines):\n  " + "\n  ".join(stale)
    )


def test_every_allowlist_reason_names_a_category():
    bad = sorted(
        key
        for key, reason in allowlist().items()
        if not reason.startswith(tuple(f"{c}: " for c in CATEGORIES))
    )
    assert not bad, f"allowlist reasons need one of {CATEGORIES}: {bad}"


def _tree(root: Path, files: dict[str, str]) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


class TestTheScan:
    """The reachability rule on small synthetic trees."""

    def test_a_name_only_its_all_and_init_mention_is_dead(self, tmp_path):
        root = _tree(tmp_path, {
            "src/pkg/__init__.py": "from pkg.a import f\n__all__ = ['f']\n",
            "src/pkg/a.py": "__all__ = ['f']\n\ndef f():\n    pass\n",
        })
        assert unreachable(root) == {"src/pkg/a.py f"}

    @pytest.mark.parametrize("reader", ["src/pkg/b.py", "perfbench/run.py",
                                        "examples/demo.py"])
    def test_a_mention_in_another_module_reaches(self, tmp_path, reader):
        root = _tree(tmp_path, {
            "src/pkg/a.py": "def f():\n    pass\n",
            reader: "from pkg.a import f\nf()\n",
        })
        assert unreachable(root) == set()

    def test_module_level_code_reaches(self, tmp_path):
        root = _tree(tmp_path, {
            "src/pkg/a.py": "def f():\n    pass\n\nREGISTRY = {}\n"
                            "register(f)\n",
        })
        assert unreachable(root) == {"src/pkg/a.py REGISTRY"}

    def test_reach_follows_reachable_bodies_only(self, tmp_path):
        root = _tree(tmp_path, {
            "src/pkg/a.py": (
                "def used():\n    return _helper()\n\n"
                "def _helper():\n    return Result()\n\n"
                "class Result:\n    pass\n\n"
                "def dead():\n    return Orphan()\n\n"
                "class Orphan:\n    pass\n"
            ),
            "src/pkg/b.py": "from pkg.a import used\n",
        })
        assert unreachable(root) == {"src/pkg/a.py dead", "src/pkg/a.py Orphan"}

    def test_a_docstring_mention_does_not_reach(self, tmp_path):
        root = _tree(tmp_path, {
            "src/pkg/a.py": '"""See :func:`f`."""\n\ndef f():\n    pass\n',
        })
        assert unreachable(root) == {"src/pkg/a.py f"}

    def test_docstring_and_comment_mentions_do_not_reach(self, tmp_path):
        root = _tree(tmp_path, {
            "src/pkg/a.py": "def f():\n    pass\n",
            "src/pkg/b.py": (
                'def g():\n    """Unlike :func:`f`, returns 1."""\n'
                "    # f is not called here\n    return 1\n\nprint(g())\n"
            ),
        })
        assert unreachable(root) == {"src/pkg/a.py f"}

    def test_a_string_in_code_reaches(self, tmp_path):
        root = _tree(tmp_path, {
            "src/pkg/a.py": "def f():\n    pass\n",
            "perfbench/run.py": 'import pkg.a\npatch(pkg.a, "f")\n',
        })
        assert unreachable(root) == set()

    def test_private_names_are_never_reported(self, tmp_path):
        root = _tree(tmp_path, {
            "src/pkg/a.py": "def _f():\n    pass\n\n_X = 1\n",
        })
        assert unreachable(root) == set()

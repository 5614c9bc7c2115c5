"""Generate the CLI reference page from the runner's actual argparse tree.

The docs satellite problem: a hand-written CLI page drifts the moment
someone adds a flag. Here the reference is *rendered from the parsers the
CLI actually runs* — the ``build_*_parser`` functions in
:mod:`repro.experiments.runner` — and CI compares the committed page
against a fresh render (``--check``), so the page and the tree cannot
diverge silently.

Usage::

    python -m repro.experiments.docgen                       # print to stdout
    python -m repro.experiments.docgen --write docs/reference/cli.md
    python -m repro.experiments.docgen --check docs/reference/cli.md

The rendering is deliberately terminal-width-independent (no
``format_usage()``, which wraps to the ambient console) so the generated
bytes are identical on every machine.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.experiments.runner import (
    build_cache_parser,
    build_campaign_parser,
    build_client_parser,
    build_describe_parser,
    build_dynamics_parser,
    build_oligopoly_parser,
    build_run_parser,
    build_serve_parser,
)

__all__ = ["generate_cli_reference", "main"]

_HEADER = """\
<!-- GENERATED FILE - do not edit by hand.
     Regenerate: PYTHONPATH=src python -m repro.experiments.docgen --write docs/reference/cli.md
     CI runs docgen --check and fails if this page drifts from the
     argparse tree in repro/experiments/runner.py. -->

# CLI reference

The experiment runner is invoked as `python -m repro.experiments`
(package entry point: `repro.experiments.__main__`). The first token
selects a verb; anything else — including legacy `fig4 --quiet`
invocations — is a `run`.

## `list`

`python -m repro.experiments list` takes no options: it prints every
registered experiment id with its title, then every registered scenario
id with its one-line summary.

"""


def _escape(text: str) -> str:
    return text.replace("|", "\\|")


def _invocation(action: argparse.Action) -> str:
    """One action's argument column, e.g. ``--price-range LO HI``."""
    if not action.option_strings:
        name = action.metavar or action.dest
        if isinstance(name, tuple):
            name = " ".join(name)
        if action.choices is not None:
            name = "{" + ",".join(str(c) for c in action.choices) + "}"
        if action.nargs in ("*", "?"):
            name = f"[{name} ...]" if action.nargs == "*" else f"[{name}]"
        return name
    parts = []
    for option in action.option_strings:
        if action.nargs == 0:
            parts.append(option)
            continue
        metavar = action.metavar
        if metavar is None and action.choices is not None:
            metavar = "{" + ",".join(str(c) for c in action.choices) + "}"
        if metavar is None:
            metavar = action.dest.upper()
        if isinstance(metavar, tuple):
            metavar = " ".join(metavar)
        parts.append(f"{option} {metavar}")
    return ", ".join(parts)


def _default(action: argparse.Action) -> str:
    """One action's default column."""
    if action.nargs == 0 or action.default is argparse.SUPPRESS:
        return "—"
    if action.default is None or action.default == []:
        return "—"
    if isinstance(action.default, str):
        return f"`{action.default}`"
    return f"`{action.default!r}`"


def _render_parser(
    heading: str, command: str, parser: argparse.ArgumentParser
) -> str:
    lines = [f"## `{heading}`", ""]
    if parser.description:
        lines.extend([parser.description, ""])
    lines.append(f"```\n{command}\n```")
    lines.append("")
    actions = [
        action
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
    ]
    positionals = [a for a in actions if not a.option_strings]
    optionals = [a for a in actions if a.option_strings]
    for title, group in (("Arguments", positionals), ("Options", optionals)):
        if not group:
            continue
        lines.append(f"### {title}")
        lines.append("")
        lines.append("| argument | default | description |")
        lines.append("| --- | --- | --- |")
        for action in group:
            lines.append(
                f"| `{_escape(_invocation(action))}` "
                f"| {_escape(_default(action))} "
                f"| {_escape(action.help or '')} |"
            )
        lines.append("")
    return "\n".join(lines)


def generate_cli_reference() -> str:
    """Render the full CLI reference page as markdown."""
    sections = [
        _render_parser(
            "run",
            "python -m repro.experiments [run] <ids...> [options]",
            build_run_parser(),
        ),
        _render_parser(
            "describe",
            "python -m repro.experiments describe <id>",
            build_describe_parser(),
        ),
        _render_parser(
            "oligopoly",
            "python -m repro.experiments oligopoly [scenario] [options]",
            build_oligopoly_parser(),
        ),
        _render_parser(
            "dynamics",
            "python -m repro.experiments dynamics [scenario] [options]",
            build_dynamics_parser(),
        ),
        _render_parser(
            "campaign",
            "python -m repro.experiments campaign "
            "{run,status,summary,query} [options]",
            build_campaign_parser(),
        ),
        _render_parser(
            "cache",
            "python -m repro.experiments cache "
            "{stats,path,clear,prune,rebuild-index} [options]",
            build_cache_parser(),
        ),
        _render_parser(
            "serve",
            "python -m repro.experiments serve [options]",
            build_serve_parser(),
        ),
        _render_parser(
            "client",
            "python -m repro.experiments client "
            "{health,stats,submit,replay} [scenarios...] [options]",
            build_client_parser(),
        ),
    ]
    return _HEADER + "\n".join(sections)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code (1 on ``--check`` drift)."""
    parser = argparse.ArgumentParser(
        prog="repro-docgen",
        description="Render (or verify) the generated CLI reference page.",
    )
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--write",
        metavar="PATH",
        default=None,
        help="write the rendered page to PATH",
    )
    group.add_argument(
        "--check",
        metavar="PATH",
        default=None,
        help="exit 1 if PATH differs from a fresh render",
    )
    args = parser.parse_args(argv)
    rendered = generate_cli_reference()
    if args.write is not None:
        Path(args.write).write_text(rendered, encoding="utf-8")
        print(f"wrote {args.write}")
        return 0
    if args.check is not None:
        try:
            committed = Path(args.check).read_text(encoding="utf-8")
        except OSError as exc:
            print(f"cannot read {args.check!r}: {exc}", file=sys.stderr)
            return 1
        if committed != rendered:
            print(
                f"{args.check} is stale: regenerate with "
                "PYTHONPATH=src python -m repro.experiments.docgen "
                f"--write {args.check}",
                file=sys.stderr,
            )
            return 1
        print(f"{args.check} is up to date")
        return 0
    print(rendered, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())

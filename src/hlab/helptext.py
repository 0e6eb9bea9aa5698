"""The help texts of the command line, rendered from the command table of
``hlab.cli.build_parser``.  ``cli`` imports this module only for ``--help``
and for the usage error of a missing subcommand, so no job compiles it.
"""

from __future__ import annotations


def help_text(table: dict, name=None) -> str:
    """The list of subcommands, or the positionals and flags of one."""
    if name is None:
        rows = [f"  {key:<16} {entry[1]}" for key, entry in table.items()]
        return "\n".join(["usage: hlab <subcommand> [flags]; hlab <subcommand> --help lists its flags", *rows])
    _, text, flags, positionals = table[name]
    rows = [(key, kind, ...) for key, kind in positionals] + [(flag, *spec) for flag, spec in flags.items()]
    lines = [f"usage: hlab {' '.join([name, *(pos for pos, _ in positionals)])} [flags]", text]
    for key, kind, default in rows:
        meta = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else "INT" if kind is int else "TEXT"
        note = "required" if default is ... else "optional" if default is None else f"default {default}"
        lines.append(f"  {key:<10} {meta} ({note})")
    return "\n".join(lines)

"""Count the code lines of each ``src/coinwalk`` module.

A line counts when it holds a token other than a comment or a docstring:
blank lines, comment lines and the lines of a string that stands alone as
a statement (a module, class or function docstring, or an attribute's) are
left out.  Prints one ``<count> <module>`` line per module and the total
last.

    python tools/code_lines.py [package directory]
"""

import io
import sys
import tokenize
from pathlib import Path

#: Tokens that carry no code of their own.
LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """Number of lines of ``source`` that hold code."""
    lines = set()
    statement = []  # the tokens of the logical line read so far
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NEWLINE:
            # a statement that is only strings is a docstring
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif token.type not in LAYOUT:
            statement.append(token)
    return len(lines)


def main(argv: list[str]) -> None:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "coinwalk"
    total = 0
    for module in sorted(package.glob("*.py")):
        count = code_lines(module.read_text())
        total += count
        print(f"{count:5d} {module.name}")
    print(f"{total:5d} total")


if __name__ == "__main__":
    main(sys.argv[1:])

"""Plain-text drawings of both diagram models.

Ordinary pipe dreams are drawn as a staircase with '+' for crosses and '.'
for elbows.  Bumpless diagrams are drawn with their tile letters, or with
box-drawing glyphs in pretty mode.
"""

from __future__ import annotations

from .bumpless import BumplessPipeDream
from .pipedream import PipeDream

_BPD_PRETTY = {
    ".": "·",
    "|": "│",
    "-": "─",
    "r": "╭",
    "j": "╯",
    "+": "┼",
    "b": "≀",
}


def render_pipe_dream(diagram: PipeDream, pretty: bool = False) -> str:
    """Draw the staircase region that contains every cross.

    >>> print(render_pipe_dream(PipeDream([(1, 1), (2, 1)])))
    +..
    +.
    .
    """
    n = max((r + c for r, c in diagram.crosses), default=1)
    cross_ch = "┼" if pretty else "+"
    elbow_ch = "·" if pretty else "."
    lines = []
    for i in range(1, n + 1):
        lines.append(
            "".join(
                cross_ch if (i, j) in diagram.crosses else elbow_ch
                for j in range(1, n - i + 2)
            )
        )
    return "\n".join(lines)


def render_bpd(diagram: BumplessPipeDream, pretty: bool = False) -> str:
    """Draw the tile grid, one row per line.

    >>> print(render_bpd(BumplessPipeDream(['.r', 'r+'])))
    .r
    r+
    """
    if pretty:
        return "\n".join(
            "".join(_BPD_PRETTY[ch] for ch in row) for row in diagram.rows
        )
    return "\n".join(diagram.rows)


def render(diagram, pretty: bool = False) -> str:
    if isinstance(diagram, PipeDream):
        return render_pipe_dream(diagram, pretty)
    if isinstance(diagram, BumplessPipeDream):
        return render_bpd(diagram, pretty)
    raise TypeError(f"cannot render {diagram!r}")

"""Poisson brackets of jet fields and iterated-bracket words.

The sign convention is {F, G} = F_q G_p - F_p G_q (so {p, q} = -1), the
coordinate form of dF(sgrad G) with sgrad G = (-G_q, G_p) for the area
form dp ^ dq.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BoundsError, PreconditionError
from .fields import DerivedField, JetField
from .jets import poisson_jet

MAX_BRACKET_LETTERS = 5  # order-4 jets support four derivative applications


def BracketField(F: JetField, G: JetField) -> DerivedField:
    """{F, G} as a lazy jet field; consumes one jet order of each parent."""
    return DerivedField(poisson_jet, F, G, lowers=1)


def poisson(F: JetField, G: JetField, jet_order_out: int = 0) -> DerivedField:
    """The Poisson bracket {F, G} exposing jets up to jet_order_out <= 3."""
    if jet_order_out > 3:
        raise BoundsError("a single bracket supports output jet order <= 3")
    out = BracketField(F, G)
    if jet_order_out > out.max_order:
        raise BoundsError(
            f"output jet order {jet_order_out} not available (parents give {out.max_order})"
        )
    return out


@dataclass(frozen=True)
class BracketWord:
    """An iterated-bracket nesting over the letters F and G.

    The tree is either a letter ("F" / "G") or a pair (left, right)
    meaning {left, right}.  Includes the power forms (ad_F)^N G and
    (ad_H)^m G with H = (ad_G)^k F, where ad_X Y = {Y, X}.
    """

    tree: object

    def __post_init__(self):
        _validate_tree(self.tree)

    @property
    def letter_count(self) -> int:
        return _count(self.tree)

    @classmethod
    def parse(cls, text: str) -> "BracketWord":
        tree, rest = _parse_expr(text.replace(" ", ""))
        if rest:
            raise PreconditionError(f"trailing characters in bracket word: {rest!r}")
        return cls(tree)

    @classmethod
    def ad_power(cls, N: int, operator: object = "F", operand: object = "G") -> "BracketWord":
        """(ad_X)^N Y = {...{{Y,X},X}...,X}; X and Y are letters or word trees."""
        tree: object = operand
        for _ in range(N):
            tree = (tree, operator)
        return cls(tree)

    def __str__(self) -> str:
        return _fmt(self.tree)


def _validate_tree(tree) -> None:
    if isinstance(tree, str):
        if tree not in ("F", "G"):
            raise PreconditionError(f"unknown letter {tree!r} in bracket word")
        return
    if isinstance(tree, tuple) and len(tree) == 2:
        _validate_tree(tree[0])
        _validate_tree(tree[1])
        return
    raise PreconditionError(f"malformed bracket word node: {tree!r}")


def _count(tree) -> int:
    if isinstance(tree, str):
        return 1
    return _count(tree[0]) + _count(tree[1])


def _fmt(tree) -> str:
    if isinstance(tree, str):
        return tree
    return "{%s,%s}" % (_fmt(tree[0]), _fmt(tree[1]))


def _parse_expr(s: str):
    if not s:
        raise PreconditionError("empty bracket word")
    if s[0] in "FG":
        return s[0], s[1:]
    if s[0] != "{":
        raise PreconditionError(f"cannot parse bracket word at {s!r}")
    left, rest = _parse_expr(s[1:])
    if not rest.startswith(","):
        raise PreconditionError(f"expected ',' at {rest!r}")
    right, rest = _parse_expr(rest[1:])
    if not rest.startswith("}"):
        raise PreconditionError(f"expected '}}' at {rest!r}")
    return (left, right), rest[1:]


def iterated_bracket(word: BracketWord, F: JetField, G: JetField) -> JetField:
    """Evaluate a bracket word on a field pair by folding poisson over the
    nesting.  Letter count <= 5 keeps order-4 jets exact."""
    if word.letter_count > MAX_BRACKET_LETTERS:
        raise BoundsError(
            f"bracket word has {word.letter_count} letters; jet order supports at most "
            f"{MAX_BRACKET_LETTERS}"
        )

    def build(tree):
        if tree == "F":
            return F
        if tree == "G":
            return G
        return BracketField(build(tree[0]), build(tree[1]))

    return build(word.tree)

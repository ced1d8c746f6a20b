"""Union-of-boxes relation representation and its product map.

A relation is stored as a sequence of blocks, each block one element subset
per coordinate; the relation is the union of the blocks' Cartesian products.
Translating an explicit relation uses one singleton block per tuple, and the
product of two represented relations multiplies blocks pairwise, so its
representation length is linear in the second argument's length once the
first is fixed.  Blocks are never merged or minimized.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .errors import EpqError, LimitExceeded, ParseError, SignatureMismatch
from .structures import Structure, pair_token


@dataclass(frozen=True)
class GdnfRelation:
    arity: int
    universe: tuple
    blocks: tuple  # each block: one frozenset of elements per coordinate

    def __post_init__(self):
        if self.arity < 1:
            raise EpqError("arity must be >= 1")
        object.__setattr__(self, "universe", tuple(self.universe))
        members = set(self.universe)
        normalized = []
        for block in self.blocks:
            coords = tuple(frozenset(c) for c in block)
            if len(coords) != self.arity:
                raise EpqError(f"block has {len(coords)} coordinates, expected {self.arity}")
            for coord in coords:
                if not coord <= members:
                    raise EpqError("block coordinate contains elements outside the universe")
            normalized.append(coords)
        object.__setattr__(self, "blocks", tuple(normalized))

    __hash__ = None


def gdnf_length(g):
    """Representation length: total number of element occurrences over all blocks."""
    return sum(len(coord) for block in g.blocks for coord in block)


def gdnf_from_explicit(tuples, universe, arity):
    """One singleton block per tuple."""
    members = set(universe)
    blocks = []
    for t in sorted(tuple(t) for t in tuples):
        if len(t) != arity:
            raise EpqError(f"tuple {t!r} has length {len(t)}, expected {arity}")
        if not set(t) <= members:
            raise EpqError(f"tuple {t!r} has entries outside the universe")
        blocks.append(tuple(frozenset((x,)) for x in t))
    return GdnfRelation(arity, tuple(universe), tuple(blocks))


def gdnf_product(g, h):
    """Pairwise block product over the paired universe; exactly m*n blocks."""
    if g.arity != h.arity:
        raise SignatureMismatch(f"arity mismatch: {g.arity} vs {h.arity}")
    universe = tuple(pair_token(x, y) for x in g.universe for y in h.universe)
    blocks = []
    for gb in g.blocks:
        for hb in h.blocks:
            blocks.append(
                tuple(
                    frozenset(pair_token(x, y) for x in gc for y in hc)
                    for gc, hc in zip(gb, hb)
                )
            )
    return GdnfRelation(g.arity, universe, tuple(blocks))


def gdnf_to_explicit(g, *, max_tuples=1_000_000):
    """Expand to a set of tuples, guarding against an oversized result."""
    estimate = 0
    for block in g.blocks:
        size = 1
        for coord in block:
            size *= len(coord)
        estimate += size
        if estimate > max_tuples:
            raise LimitExceeded("explicit expansion size", max_tuples)
    out = set()
    for block in g.blocks:
        out.update(itertools.product(*(sorted(coord) for coord in block)))
    return out


def gdnf_member(g, t):
    """Membership without expansion: some block contains the tuple coordinatewise."""
    t = tuple(t)
    if len(t) != g.arity:
        raise EpqError(f"tuple length {len(t)} does not match arity {g.arity}")
    return any(all(x in coord for x, coord in zip(t, block)) for block in g.blocks)


def gdnf_compact(g):
    """Optional cleanup pass removing duplicate blocks only."""
    seen = []
    for block in g.blocks:
        if block not in seen:
            seen.append(block)
    return GdnfRelation(g.arity, g.universe, tuple(seen))


@dataclass(frozen=True)
class GdnfStructure:
    """A structure whose relations are all kept in block form."""

    signature: object
    universe: tuple
    relations: dict

    def __post_init__(self):
        object.__setattr__(self, "universe", tuple(self.universe))
        for sym in self.signature:
            rel = self.relations.get(sym.name)
            if rel is None:
                raise EpqError(f"missing relation for symbol {sym.name!r}")
            if rel.arity != sym.arity:
                raise EpqError(f"relation for {sym.name!r} has the wrong arity")
            if rel.universe != self.universe:
                raise EpqError(f"relation for {sym.name!r} is over a different universe")

    __hash__ = None


def gdnf_structure_from(s):
    """Translate an explicitly represented structure into block form."""
    relations = {
        sym.name: gdnf_from_explicit(s.relations[sym.name], s.universe, sym.arity)
        for sym in s.signature
    }
    return GdnfStructure(s.signature, s.universe, relations)


def gdnf_structure_to(g, *, max_tuples=1_000_000):
    """Expand a block-form structure back to the explicit representation."""
    relations = {
        name: gdnf_to_explicit(rel, max_tuples=max_tuples) for name, rel in g.relations.items()
    }
    return Structure(g.signature, g.universe, relations)


def gdnf_structure_product(g, h):
    """Product of two block-form structures, relation by relation."""
    if g.signature != h.signature:
        raise SignatureMismatch("product needs similar structures")
    universe = tuple(pair_token(x, y) for x in g.universe for y in h.universe)
    relations = {
        sym.name: gdnf_product(g.relations[sym.name], h.relations[sym.name])
        for sym in g.signature
    }
    return GdnfStructure(g.signature, universe, relations)


def parse_gdnf(text):
    """Parse the block format; 'arity' and 'universe' header lines are optional
    when at least one block fixes them."""
    arity = None
    universe = None
    block_specs = []
    group_re = re.compile(r"\{([^{}]*)\}")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        head = parts[0]
        if head == "arity":
            try:
                arity = int(parts[1])
            except (IndexError, ValueError):
                raise ParseError("malformed arity line", lineno) from None
        elif head == "universe":
            universe = parts[1].split() if len(parts) > 1 else []
        elif head == "block":
            body = parts[1] if len(parts) > 1 else ""
            stripped = group_re.sub("", body).strip()
            if stripped:
                raise ParseError(f"unexpected text in block line: {stripped!r}", lineno)
            groups = [frozenset(m.group(1).split()) for m in group_re.finditer(body)]
            if not groups:
                raise ParseError("block line has no coordinate groups", lineno)
            block_specs.append(groups)
        else:
            raise ParseError(f"unexpected line starting with {head!r}", lineno)
    if arity is None:
        if not block_specs:
            raise ParseError("cannot infer arity: no blocks and no arity line", 1)
        arity = len(block_specs[0])
    if universe is None:
        seen = set()
        for groups in block_specs:
            for group in groups:
                seen |= group
        universe = sorted(seen)
    return GdnfRelation(arity, tuple(universe), tuple(tuple(g) for g in block_specs))


def format_gdnf(g):
    rank = {elem: i for i, elem in enumerate(g.universe)}
    lines = [f"arity {g.arity}", "universe " + " ".join(g.universe)]
    for block in g.blocks:
        groups = (
            "{" + " ".join(sorted(coord, key=rank.__getitem__)) + "}" for coord in block
        )
        lines.append("block " + " ".join(groups))
    return "\n".join(lines) + "\n"
